// Package model is an abstract reference model of UStore's metadata state:
// which spaces are allocated (and where), which host currently serves each
// space (the export "lease"), which host each disk is attached to, and the
// client-visible power commands. A History records every Master / ClientLib /
// EndPoint metadata operation during a run, stamped with simulated time, and
// Check verifies the recorded history *linearizes* against this model — a
// porcupine-style search (Wing & Gong) partitioned per space and per disk.
//
// The model deliberately distinguishes two op shapes:
//
//   - Client operations (Allocate, Release, Lookup, Mount, Remount) have a
//     real [invoke, return] window: the simulated time the ClientLib issued
//     the call and the time its callback delivered a successful result. The
//     checker may linearize the op at any instant inside the window.
//   - Endpoint transitions (Export, Revoke, Attach, Detach, Power) are point
//     events: they happen atomically inside one scheduler callback, so their
//     window is zero-width. This is what keeps the search tractable — only
//     client windows overlap anything.
//
// The central safety property is the single-serving-host lease: a space's
// disk is physically attached to exactly one host, so at any instant at most
// one EndPoint may export (serve) the space, and a client mount must observe
// the host that actually holds that lease. A master that lets a client mount
// a host whose lease was already revoked — the classic stale lease
// double-mount — produces a history with no valid linearization, which Check
// reports as a violation.
package model

import (
	"fmt"
	"strconv"
	"strings"

	"ustore/internal/simtime"
)

// Kind classifies one recorded metadata operation.
type Kind uint8

// Operation kinds. The first five are client operations with real
// [invoke, return] windows; the rest are endpoint-side point events.
const (
	// OpAllocate is a successful ClientLib.Allocate: the reply's space,
	// disk, offset, and size are recorded as outputs.
	OpAllocate Kind = iota + 1
	// OpRelease is a successful ClientLib.Release.
	OpRelease
	// OpLookup is a successful directory lookup; the returned extent is
	// checked against the allocation (the returned host is advisory — the
	// master legally answers before the 600ms export setup completes).
	OpLookup
	// OpMount is a successful initial mount; Host is the host the client
	// logged in to.
	OpMount
	// OpRemount is a successful transparent failover remount.
	OpRemount
	// OpExport marks the instant an EndPoint's block target began serving a
	// space (the host acquired the space's lease).
	OpExport
	// OpRevoke marks the instant an export was revoked (unexport, or the
	// serving disk detached).
	OpRevoke
	// OpAttach marks a disk enumerating on a host.
	OpAttach
	// OpDetach marks a disk disappearing from a host.
	OpDetach
	// OpPower marks an EndPoint executing a client spin-up/down command.
	OpPower
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case OpAllocate:
		return "allocate"
	case OpRelease:
		return "release"
	case OpLookup:
		return "lookup"
	case OpMount:
		return "mount"
	case OpRemount:
		return "remount"
	case OpExport:
		return "export"
	case OpRevoke:
		return "revoke"
	case OpAttach:
		return "attach"
	case OpDetach:
		return "detach"
	case OpPower:
		return "power"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Op is one recorded operation. Client ops carry the issuing client's name;
// point events carry the acting host in both Client and Host. Offset/Size
// are the extent outputs of Allocate and Lookup; Up is the direction of a
// power command.
type Op struct {
	ID   int
	Kind Kind
	Up   bool
	// Done is false for ops whose return never arrived before the history
	// was checked; such ops observed nothing and are dropped.
	Done   bool
	Client string
	Space  string
	Disk   string
	Host   string
	Offset int64
	Size   int64
	Invoke simtime.Time
	Return simtime.Time
}

// String renders the op for violation messages.
func (o Op) String() string {
	var args []string
	if o.Space != "" {
		args = append(args, "space="+o.Space)
	}
	if o.Disk != "" {
		args = append(args, "disk="+o.Disk)
	}
	if o.Host != "" {
		args = append(args, "host="+o.Host)
	}
	if o.Kind == OpPower {
		args = append(args, fmt.Sprintf("up=%t", o.Up))
	}
	w := fmt.Sprintf("@%v", o.Invoke)
	if o.Return != o.Invoke {
		w = fmt.Sprintf("[%v..%v]", o.Invoke, o.Return)
	}
	return fmt.Sprintf("%s(%s) by %s %s", o.Kind, strings.Join(args, ","), o.Client, w)
}

// A partition's abstract state is a small value type (spaceState or
// diskState, the search's stateOf): apply returns the successor state or a
// non-empty reason the op is illegal here, so the search branches by value
// and boxes nothing.

// spaceState models one space: its allocation lifecycle, the recorded
// extent, and the host currently holding the export lease. A partition with
// no recorded Allocate op (the op raced the end of the run, or the space
// predates the history) starts allocated with unknown geometry.
type spaceState struct {
	allocated bool
	released  bool
	disk      string
	offset    int64
	size      int64
	server    string // host holding the export lease; "" = none
}

func (s spaceState) apply(op *Op) (spaceState, string) {
	switch op.Kind {
	case OpAllocate:
		if s.allocated || s.released {
			return s, "space already allocated"
		}
		s.allocated = true
		s.disk, s.offset, s.size = op.Disk, op.Offset, op.Size
		return s, ""
	case OpRelease:
		if !s.allocated {
			return s, "release of unallocated space"
		}
		s.allocated = false
		s.released = true
		return s, ""
	case OpLookup:
		if !s.allocated {
			return s, "lookup of unallocated space"
		}
		if s.disk != "" && op.Disk != "" &&
			(op.Disk != s.disk || op.Offset != s.offset || op.Size != s.size) {
			return s, fmt.Sprintf("lookup returned extent %s+%d/%d but the allocation is %s+%d/%d",
				op.Disk, op.Offset, op.Size, s.disk, s.offset, s.size)
		}
		return s, ""
	case OpMount, OpRemount:
		if !s.allocated {
			return s, "mount of unallocated space"
		}
		if s.server != op.Host {
			if s.server == "" {
				return s, "client mounted " + op.Host + " but no host holds the lease"
			}
			return s, "client mounted " + op.Host + " but " + s.server + " holds the lease (stale lease double-mount)"
		}
		return s, ""
	case OpExport:
		if !s.allocated {
			return s, "export of unallocated space"
		}
		if s.server != "" && s.server != op.Host {
			return s, "export at " + op.Host + " while " + s.server + " still holds the lease (double serving)"
		}
		s.server = op.Host
		return s, ""
	case OpRevoke:
		// Revoking a lease the host does not hold is a legal no-op (a
		// duplicate unexport, or an unexport racing a detach-revoke).
		if s.server == op.Host {
			s.server = ""
		}
		return s, ""
	}
	return s, "op kind not valid for a space partition"
}

func (s spaceState) appendKey(b []byte) []byte {
	b = append(b, 'a')
	b = strconv.AppendBool(b, s.allocated)
	b = append(b, " r"...)
	b = strconv.AppendBool(b, s.released)
	b = append(b, ' ')
	return append(b, s.server...)
}

// diskState models one disk's fabric binding: the host it is enumerated on.
// The fabric physically attaches a disk to at most one host, so a second
// host attaching before the first detached is a binding violation.
type diskState struct {
	attached string
}

func (s diskState) apply(op *Op) (diskState, string) {
	switch op.Kind {
	case OpAttach:
		if s.attached != "" && s.attached != op.Host {
			return s, fmt.Sprintf("attach at %s while still attached to %s", op.Host, s.attached)
		}
		s.attached = op.Host
		return s, ""
	case OpDetach:
		if s.attached != op.Host {
			return s, fmt.Sprintf("detach at %s but disk is attached to %q", op.Host, s.attached)
		}
		s.attached = ""
		return s, ""
	case OpPower:
		if s.attached != op.Host {
			return s, fmt.Sprintf("power command executed on %s but disk is attached to %q", op.Host, s.attached)
		}
		return s, ""
	}
	return s, "op kind not valid for a disk partition"
}

func (s diskState) appendKey(b []byte) []byte { return append(b, s.attached...) }
