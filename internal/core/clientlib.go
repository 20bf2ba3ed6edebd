package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"ustore/internal/block"
	"ustore/internal/model"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// ErrNotMounted is returned for IO on a space the ClientLib has not
// mounted.
var ErrNotMounted = errors.New("core: space not mounted")

// MountEvent notifies the upper layer of a mount state change (§IV-D:
// "provides notification call backs to notify the upper layer of disk
// status changes").
type MountEvent struct {
	Space SpaceID
	// Host is the space's (new) serving host.
	Host string
	// Remounted is true when this event is a transparent failover remount
	// rather than the initial mount.
	Remounted bool
}

// mount is the state of one mounted space.
type mount struct {
	space      SpaceID
	host       string
	size       int64
	mounted    bool
	remounting bool
}

// ClientLib is the client library of §IV-D: storage management calls
// against the Master, a directory lookup, block IO through the initiator,
// and automatic remount when storage moves after a failover.
type ClientLib struct {
	name    string
	service string
	cfg     Config
	sched   *simtime.Scheduler
	rpc     *simnet.RPCNode
	ini     *block.Initiator
	masters []string

	mounts map[SpaceID]*mount
	active string // believed active master replica name
	mit    *Mitigation

	// OnMount receives mount and remount notifications.
	OnMount func(MountEvent)

	// Remounts counts transparent failover remounts (for experiments).
	Remounts uint64
}

// NewClientLib creates a client named name (its network identity) acting
// for the given service.
func NewClientLib(net *simnet.Network, name, service string, cfg Config, masters []string) *ClientLib {
	cl := &ClientLib{
		name:    name,
		service: service,
		cfg:     cfg,
		sched:   net.Scheduler(),
		rpc:     simnet.NewRPCNode(net, "cl:"+name),
		ini:     block.NewInitiator(net, name),
		masters: masters,
		mounts:  make(map[SpaceID]*mount),
	}
	return cl
}

// callMaster tries the believed-active master, then the rest, until one
// accepts (a standby returns ErrNotActive-equivalent text). Each replica is
// called with retry so a lossy or flapping link doesn't masquerade as a
// rejected request: resends reuse the request ID, and the master's RPC dedup
// guarantees the operation executes at most once even if the first send got
// through and only the reply was lost.
func (cl *ClientLib) callMaster(method string, args any, size int, done func(any, error)) {
	order := make([]string, 0, len(cl.masters)+1)
	if cl.active != "" {
		order = append(order, masterNode(cl.active))
	}
	order = append(order, cl.masters...)
	retry := simnet.RetryOpts{
		Attempts: 2,
		Timeout:  cl.cfg.RPCTimeoutOrDefault(),
		Backoff:  cl.cfg.RPCTimeoutOrDefault() / 8,
	}
	var try func(i int, lastErr error)
	try = func(i int, lastErr error) {
		if i >= len(order) {
			done(nil, fmt.Errorf("core: no active master: %v", lastErr))
			return
		}
		cl.rpc.CallWithRetry(order[i], method, args, size, retry, func(res any, err error) {
			if err == nil {
				done(res, nil)
				return
			}
			if IsThrottled(err) {
				// The active master deliberately shed this request; retrying
				// against standbys (who would just redirect) or re-sending is
				// exactly the retry amplification overload protection exists
				// to stop. Fail fast to the caller.
				done(nil, err)
				return
			}
			try(i+1, err)
		})
	}
	try(0, nil)
}

// IsThrottled reports whether err is the Master's ErrThrottled rejection.
// Errors cross the RPC boundary as re-wrapped strings, so this matches on
// text rather than errors.Is.
func IsThrottled(err error) bool {
	return err != nil && strings.Contains(err.Error(), ErrThrottled.Error())
}

// Allocate requests size bytes of storage ("applying for new storage
// space", §IV-D) and returns the allocation.
func (cl *ClientLib) Allocate(size int64, done func(AllocateReply, error)) {
	tok := cl.cfg.History.Invoke(model.Op{Kind: model.OpAllocate, Client: cl.name})
	cl.callMaster("Allocate", AllocateArgs{Service: cl.service, Size: size, ClientHost: cl.locality()}, 64,
		func(res any, err error) {
			if err != nil {
				done(AllocateReply{}, err)
				return
			}
			rep := res.(AllocateReply)
			cl.cfg.History.Return(tok, func(op *model.Op) {
				op.Space, op.Disk, op.Offset, op.Size = string(rep.Space), rep.DiskID, rep.Offset, rep.Size
			})
			done(rep, nil)
		})
}

// locality derives the client's nearest host hint. Clients named after a
// host (e.g. HDFS datanodes co-located on hosts) get that host's disks; the
// longest matching host name wins.
func (cl *ClientLib) locality() string {
	best := ""
	for _, h := range cl.cfg.Fabric.Hosts {
		if strings.HasPrefix(cl.name, h) && len(h) > len(best) {
			best = h
		}
	}
	return best
}

// Release frees an allocation.
func (cl *ClientLib) Release(space SpaceID, done func(error)) {
	delete(cl.mounts, space)
	tok := cl.cfg.History.Invoke(model.Op{Kind: model.OpRelease, Client: cl.name, Space: string(space)})
	cl.callMaster("Release", ReleaseArgs{Space: space}, 64, func(_ any, err error) {
		if err == nil {
			cl.cfg.History.Return(tok, nil)
		}
		done(err)
	})
}

// Lookup resolves a space's current host (the directory service, §IV-D).
func (cl *ClientLib) Lookup(space SpaceID, done func(LookupReply, error)) {
	tok := cl.cfg.History.Invoke(model.Op{Kind: model.OpLookup, Client: cl.name, Space: string(space)})
	cl.callMaster("Lookup", LookupArgs{Space: space}, 64, func(res any, err error) {
		if err != nil {
			done(LookupReply{}, err)
			return
		}
		rep := res.(LookupReply)
		cl.cfg.History.Return(tok, func(op *model.Op) {
			op.Host, op.Disk, op.Offset, op.Size = rep.Host, rep.DiskID, rep.Offset, rep.Size
		})
		done(rep, nil)
	})
}

// mountBudget bounds Mount's retries: a freshly allocated space's target
// may still be in iSCSI setup on the host, and a space being failed over
// has no target at all for a few seconds.
const mountBudget = 15 * time.Second

// Mount looks up and logs in to a space, retrying while the export is
// still being set up. After a successful mount, Read and Write retry
// transparently across failovers.
func (cl *ClientLib) Mount(space SpaceID, done func(error)) {
	tok := cl.cfg.History.Invoke(model.Op{Kind: model.OpMount, Client: cl.name, Space: string(space)})
	deadline := cl.sched.Now() + mountBudget
	var attempt func()
	attempt = func() {
		cl.Lookup(space, func(rep LookupReply, err error) {
			retry := func(cause error) {
				if cl.sched.Now() >= deadline {
					done(cause)
					return
				}
				cl.sched.After(300*time.Millisecond, attempt)
			}
			if err != nil {
				retry(err)
				return
			}
			if rep.Host == "" {
				retry(fmt.Errorf("core: space %s not attached anywhere", space))
				return
			}
			cl.ini.Login(rep.Host, string(space), func(size int64, err error) {
				if err != nil {
					retry(err)
					return
				}
				m := &mount{space: space, host: rep.Host, size: size, mounted: true}
				cl.mounts[space] = m
				cl.cfg.History.Return(tok, func(op *model.Op) { op.Host = rep.Host })
				if cl.OnMount != nil {
					cl.OnMount(MountEvent{Space: space, Host: rep.Host})
				}
				done(nil)
			})
		})
	}
	attempt()
}

// MountedOn returns the host a space is currently mounted from ("" if not
// mounted).
func (cl *ClientLib) MountedOn(space SpaceID) string {
	if m, ok := cl.mounts[space]; ok && m.mounted {
		return m.host
	}
	return ""
}

// Read reads from a mounted space, remounting and retrying on failure
// until the deadline (default: 30s of retries — "temporary high latency",
// §IV-D).
//
// data is the payload of the block response's wire frame and is valid only
// until done returns; the frame then carries another read. A done that keeps
// the bytes (stores them, hands them to a write or an RPC reply) copies them.
func (cl *ClientLib) Read(space SpaceID, off int64, length int, done func([]byte, error)) {
	cl.ReadWithBudget(space, off, length, retryBudget, done)
}

// ReadWithBudget is Read with an explicit retry budget. Redundancy-aware
// callers (e.g. an erasure-coded store that can reconstruct from parity)
// use short budgets so a missing shard fails fast instead of riding out a
// full failover. As with Read, data is valid only until done returns.
func (cl *ClientLib) ReadWithBudget(space SpaceID, off int64, length int, budget time.Duration, done func([]byte, error)) {
	cl.withRetry(space, budget, done, func(m *mount, attempt func(error)) {
		cl.ini.Read(m.host, string(space), off, length, func(data []byte, err error) {
			if err != nil {
				attempt(err)
				return
			}
			done(data, nil)
		})
	})
}

// Write writes to a mounted space with the same retry semantics as Read.
func (cl *ClientLib) Write(space SpaceID, off int64, data []byte, done func(error)) {
	cl.withRetry(space, retryBudget, func(_ []byte, err error) { done(err) }, func(m *mount, attempt func(error)) {
		cl.ini.Write(m.host, string(space), off, data, func(err error) {
			if err != nil {
				attempt(err)
				return
			}
			done(nil)
		})
	})
}

// retryBudget bounds how long IO retries across remounts before giving up.
const retryBudget = 30 * time.Second

// withRetry runs op against the space's mount, remounting and retrying on
// error until the budget is exhausted.
func (cl *ClientLib) withRetry(space SpaceID, budget time.Duration, done func([]byte, error), op func(m *mount, attempt func(error))) {
	m, ok := cl.mounts[space]
	if !ok {
		cl.sched.After(0, func() { done(nil, fmt.Errorf("%w: %s", ErrNotMounted, space)) })
		return
	}
	deadline := cl.sched.Now() + budget
	var attempt func()
	attempt = func() {
		op(m, func(err error) {
			if cl.sched.Now() >= deadline {
				done(nil, fmt.Errorf("core: giving up on %s: %w", space, err))
				return
			}
			// Storage unreachable: consult the Master and remount
			// ("retrieve the new host IP from the Master and remount the
			// storage automatically", §IV-D).
			cl.remount(m, func(remErr error) {
				if remErr != nil {
					// Master may not have completed failover yet; back
					// off and retry.
					cl.sched.After(300*time.Millisecond, attempt)
					return
				}
				attempt()
			})
		})
	}
	attempt()
}

// remount re-resolves the space and logs in at its new host.
func (cl *ClientLib) remount(m *mount, done func(error)) {
	if m.remounting {
		done(fmt.Errorf("core: remount already in progress"))
		return
	}
	m.remounting = true
	// Recorded per attempt (after the in-progress guard, so the steady
	// 300ms retry loop doesn't flood the history with guard bounces);
	// failed attempts stay pending and the checker drops them.
	tok := cl.cfg.History.Invoke(model.Op{Kind: model.OpRemount, Client: cl.name, Space: string(m.space)})
	cl.Lookup(m.space, func(rep LookupReply, err error) {
		if err != nil || rep.Host == "" {
			m.remounting = false
			if err == nil {
				err = fmt.Errorf("core: %s not attached anywhere yet", m.space)
			}
			done(err)
			return
		}
		cl.ini.Login(rep.Host, string(m.space), func(size int64, err error) {
			m.remounting = false
			if err != nil {
				done(err)
				return
			}
			m.host = rep.Host
			m.mounted = true
			cl.Remounts++
			cl.cfg.History.Return(tok, func(op *model.Op) { op.Host = rep.Host })
			if cl.OnMount != nil {
				cl.OnMount(MountEvent{Space: m.space, Host: rep.Host, Remounted: true})
			}
			done(nil)
		})
	})
}

// SetDiskPower asks the Master to spin the service's disk up or down
// (§IV-F's interface for services that know their workload).
func (cl *ClientLib) SetDiskPower(diskID string, up bool, done func(error)) {
	cl.callMaster("DiskPower", DiskPowerArgs{Service: cl.service, DiskID: diskID, Up: up}, 64,
		func(_ any, err error) { done(err) })
}
