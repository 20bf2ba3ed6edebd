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

// VolumeArgs is a volume operation's request: Allocate reads all three
// fields, Lookup and Release the volume alone. The router sends it in a
// request record.
type VolumeArgs struct {
	Volume  string
	Size    int64
	Service string
}

// LookupReply carries a volume's size and fragment disks: the answer to a
// Lookup, and to an Allocate. The shard shares one *LookupReply between
// every answer about one version of a record: read-only.
type LookupReply struct {
	Size  int64
	Disks []string
}

// HeartbeatArgs is a unit agent's periodic report to its owning shard, sent
// in a request record. The Dead and Draining lists are cumulative, so a
// freshly elected leader rebuilds disk health from the very next heartbeat.
// They are sorted and never written in place: the agent builds a new list
// when one grows, so every beat shares them.
type HeartbeatArgs struct {
	Unit     string
	Seq      uint64
	Dead     []string
	Draining []string
}

// request is a hot request sent by pointer, so its send boxes nothing. Each
// delivery has a record of its own from its sender's list, home. It is
// valid until the handler returns: simnet's RPC dispatch then gives it
// back, and the network gives back one it drops and makes one for a
// duplicate (simnet.Pooled). Handlers copy what they keep. A record in
// flight is on no list, so a request that arrives after its caller gave up
// still carries its own args.
type request[T any] struct {
	args T
	home *requests[T]
}

// Dup returns a record of its own for a duplicated delivery.
func (q *request[T]) Dup() any { return q.home.get(q.args) }

// Release gives the record back to its home list, zeroed so it pins
// nothing.
func (q *request[T]) Release() {
	if requestPoison != nil {
		requestPoison(&q.args)
	} else {
		q.args = *new(T)
	}
	q.home.free = append(q.home.free, q)
}

// requestPoison is set only by this package's tests (poisonRequests): it
// overwrites every released record, so a handler that kept one past its
// return reads garbage instead of args that happen to be intact.
var requestPoison func(args any)

// requests is one sender's free list of request records. The records come
// back from whichever node received them; every node runs on the one
// scheduler, so the list is a plain slice.
type requests[T any] struct {
	free []*request[T]
	made int // records the list allocated: all are free when none is in flight
}

// get returns a record for one delivery of args.
func (l *requests[T]) get(args T) *request[T] {
	var q *request[T]
	if k := len(l.free); k > 0 {
		q, l.free = l.free[k-1], l.free[:k-1]
	} else {
		q = &request[T]{home: l}
		l.made++
	}
	q.args = args
	return q
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
