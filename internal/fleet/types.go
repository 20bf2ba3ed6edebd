package fleet

import "errors"

// Wire types for the shard metadata protocol. A shard answers a call with
// its result and a nil error, or with no result and an error: one of the
// refusals below, which callers handle the same for every method, or the
// operation's own failure. ErrNotLeader and ErrBusy are returned bare, so
// callers compare them with ==.

var (
	// ErrNotLeader refuses a call at a replica that does not lead the
	// shard group; the caller rotates to another replica.
	ErrNotLeader = errors.New("fleet: not leader")
	// ErrBusy refuses a call for now: the volume's slot is frozen for
	// migration, or a commit did not land; retry shortly.
	ErrBusy = errors.New("fleet: busy")
	// ErrStale is the error every StaleError embeds: errors.Is finds one.
	ErrStale = errors.New("fleet: stale shard map")

	errBadArgs  = errors.New("bad args")
	errNoVolume = errors.New("no such volume")
)

// StaleError refuses a call the caller's map routed to the wrong shard. Map
// is the replier's newer installed map, so one round trip repairs the
// caller's cache.
type StaleError struct {
	error // ErrStale
	Map   *ShardMap
}

// VolRecord is a volume's replicated metadata: its size, owning service,
// and the disks holding its fragments. Disks is never written in place (repair
// and FreeForeign install a new slice), so replies share it: read-only.
type VolRecord struct {
	Size    int64
	Service string
	Disks   []string
	// lookup is the leader's Lookup answer for this record, shared by every
	// Lookup until Size or Disks changes (see execLookup). Not persisted.
	lookup *LookupReply
}

func (v VolRecord) clone() VolRecord {
	v.Disks = append([]string(nil), v.Disks...)
	v.lookup = nil
	return v
}

// AllocateArgs asks the owning shard to place a new volume.
type AllocateArgs struct {
	Volume  string
	Size    int64
	Service string
	// ClientHost hints locality (may be "").
	ClientHost string
}

// AllocateReply returns the chosen fragment disks.
type AllocateReply struct{ Disks []string }

// LookupArgs resolves a volume's fragment locations.
type LookupArgs struct{ Volume string }

// LookupReply carries the volume record. The shard sends a *LookupReply,
// which it may share with other Lookups of the same record: read-only.
type LookupReply struct {
	Size  int64
	Disks []string
}

// ReleaseArgs frees a volume.
type ReleaseArgs struct{ Volume string }

// HeartbeatArgs is a unit agent's periodic report to its owning shard. The
// Dead and Draining lists are cumulative, so a freshly elected leader
// rebuilds disk health from the very next heartbeat.
type HeartbeatArgs struct {
	Unit     string
	Seq      uint64
	Dead     []string
	Draining []string
}

// FreezeSlotArgs fences a slot for migration: volume ops on it answer
// ErrBusy until the epoch flips.
type FreezeSlotArgs struct{ Slot int }

// HandoffArgs asks the source leader for a frozen slot's volume records.
type HandoffArgs struct{ Slot int }

// HandoffReply carries the records to install on the destination.
type HandoffReply struct{ Vols map[string]VolRecord }

// InstallSlotArgs persists a migrated slot's records on the destination.
type InstallSlotArgs struct {
	Slot int
	Vols map[string]VolRecord
}

// DropSlotArgs retires a migrated slot on the source: records move to the
// export ledger (their fragments still occupy source disks until the new
// owner migrates them home).
type DropSlotArgs struct{ Slot int }

// InstallMapArgs broadcasts a new map epoch to shard leaders.
type InstallMapArgs struct{ Map *ShardMap }

// FreeForeignArgs tells the shard whose disks still hold an exported
// volume's fragments that those bytes are free (the new owner re-placed
// them, or released the volume).
type FreeForeignArgs struct {
	Volume string
	Disks  []string
}
