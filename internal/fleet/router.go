package fleet

import (
	"errors"
	"fmt"
	"time"

	"ustore/internal/obs"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// Router is the client-side shard resolver: it caches a ShardMap, hashes
// volumes to slots, and calls the owning shard's believed leader. Refusals
// repair its state: ErrNotLeader rotates the believed replica, a StaleError
// installs the attached newer map and retries, ErrBusy (a slot frozen
// mid-migration) backs off and retries.
type Router struct {
	f    *Fleet
	name string
	rpc  *simnet.RPCNode

	map_ *ShardMap
	// believed[k] indexes the replica last known to lead shard k.
	believed []int
	// ops recycles finished operation records (see routerOp.finish).
	ops simtime.FreeList[routerOp]
	// reqs holds the request records no attempt has in flight.
	reqs simnet.Records[VolumeArgs]

	cStale   *obs.Counter
	cRotates *obs.Counter
	cRetries *obs.Counter
}

// routerAttempts bounds one logical operation's total tries across
// timeouts, leader rotations, map refreshes and migration waits.
const routerAttempts = 40

// ErrShardUnavailable reports that the owning shard could not serve an
// operation within the router's retry budget — quorum loss, a partition
// between the client and every replica, or sustained leaderlessness. It is
// the router's degradation contract: callers get a typed failure to count
// or surface instead of an RPC that hangs forever. Test with errors.Is.
var ErrShardUnavailable = errors.New("fleet: shard unavailable")

func newRouter(f *Fleet, name string) *Router {
	r := &Router{
		f:        f,
		name:     name,
		rpc:      simnet.NewRPCNode(f.Net, "cl:"+name),
		map_:     f.authMap.Clone(),
		believed: make([]int, f.Cfg.Shards),
	}
	rec := f.rec
	r.cStale = rec.Counter("fleet", "router_stale_retries_total")
	r.cRotates = rec.Counter("fleet", "router_leader_rotations_total")
	r.cRetries = rec.Counter("fleet", "router_retries_total")
	return r
}

// Allocate places a volume through the owning shard; done's disks are read-only.
func (r *Router) Allocate(volume string, size int64, service string, done func(disks []string, err error)) {
	op := r.newOp("Allocate", VolumeArgs{Volume: volume, Size: size, Service: service})
	op.alloc = done
	op.Fire()
}

// Lookup resolves a volume's fragment disks, which are read-only.
func (r *Router) Lookup(volume string, done func(disks []string, size int64, err error)) {
	op := r.newOp("Lookup", VolumeArgs{Volume: volume})
	op.lookup = done
	op.Fire()
}

// Release frees a volume.
func (r *Router) Release(volume string, done func(err error)) {
	op := r.newOp("Release", VolumeArgs{Volume: volume})
	op.release = done
	op.Fire()
}

// newOp takes an operation record off the free list, or makes one.
func (r *Router) newOp(method string, args VolumeArgs) *routerOp {
	op, _ := r.ops.Get()
	op.r, op.method, op.args = r, method, args
	return op
}

// installMap adopts a newer map from a StaleError.
func (r *Router) installMap(m *ShardMap) {
	if m != nil && m.Epoch > r.map_.Epoch {
		r.map_ = m.Clone()
		if len(r.believed) < len(r.map_.Replicas) {
			grown := make([]int, len(r.map_.Replicas))
			copy(grown, r.believed)
			r.believed = grown
		}
	}
}

// backoff turns a base retry delay into full-jitter exponential backoff
// when Cfg.RetryJitter is set: uniform in [0, base<<tried), capped at 2s.
// (AWS-style full jitter: the spread is what breaks up the synchronized
// retry waves a fleet of fixed-delay clients sends a recovering leader.)
// With jitter off it returns base unchanged — the legacy schedule the
// checked-in byte-stability goldens were recorded under. Draws come from
// the scheduler's stream, so jittered runs stay deterministic per seed.
func (r *Router) backoff(base time.Duration, tried int) time.Duration {
	if !r.f.Cfg.RetryJitter || base <= 0 {
		return base
	}
	const cap = 2 * time.Second
	if tried > 8 {
		tried = 8
	}
	ceil := base << tried
	if ceil > cap {
		ceil = cap
	}
	return time.Duration(r.f.Sched.Rand().Int63n(int64(ceil)))
}

// routerOp is one logical operation across all its attempts: the Replier
// of each attempt's call and the receiver of its retry timer. Exactly one of
// the typed done callbacks is set. The router recycles it at finish.
type routerOp struct {
	r      *Router
	method string
	args   VolumeArgs
	tried  int // attempts made before this one
	// This attempt's shard, believed-leader index and replica count.
	shard, idx, n int

	alloc   func(disks []string, err error)
	lookup  func(disks []string, size int64, err error)
	release func(err error)
}

// Fire runs the next attempt: the first, then each retry once its backoff
// expires. Each attempt sends a request record of its own: an earlier
// attempt's may still be in flight.
func (op *routerOp) Fire() {
	r := op.r
	if op.tried >= routerAttempts {
		op.finish(nil, fmt.Errorf("%w: %s %s: %d retries exhausted",
			ErrShardUnavailable, op.method, op.args.Volume, routerAttempts))
		return
	}
	op.shard = r.map_.ShardOf(op.args.Volume)
	replicas := r.map_.Replicas[op.shard]
	op.idx, op.n = r.believed[op.shard]%len(replicas), len(replicas)
	r.rpc.CallR(replicas[op.idx], op.method, r.reqs.Take(op.args), 192, rpcTimeout, op)
}

// again schedules the next attempt after delay, jittered by backoff.
func (op *routerOp) again(delay time.Duration) {
	op.r.cRetries.Inc()
	delay = op.r.backoff(delay, op.tried)
	op.tried++
	op.r.f.Sched.FireAfterR(delay, op)
}

// rotate advances the believed leader past this attempt's replica — but
// only if a concurrent attempt hasn't already moved it. N in-flight ops
// would otherwise each rotate once and collectively wrap the index back onto
// the same stale replica (N ≡ 0 mod len), livelocking every retry on a
// follower or a dead node.
func (op *routerOp) rotate() {
	if b := op.r.believed; b[op.shard] == op.idx {
		b[op.shard] = (op.idx + 1) % op.n
	}
	op.r.cRotates.Inc()
}

// Reply handles one attempt's outcome. A timeout matches by identity: only
// the attempt's own deadline is one, and a shard's error that wraps a
// timeout is the operation's failure.
func (op *routerOp) Reply(res any, err error) {
	switch err {
	case nil:
		op.finish(res, nil)
	case simnet.ErrTimeout, ErrNotLeader: // no answer, or a follower's
		op.rotate()
		op.again(50 * time.Millisecond)
	case ErrBusy:
		op.again(200 * time.Millisecond)
	default:
		// A type assertion, not errors.As: its target would escape, one
		// allocation per reply.
		if st, ok := err.(*StaleError); ok {
			op.r.cStale.Inc()
			op.r.installMap(st.Map)
			op.again(0)
			return
		}
		op.finish(nil, fmt.Errorf("fleet: %s %s: %v", op.method, op.args.Volume, err))
	}
}

// finish hands the operation's outcome to its typed callback. Nothing can
// reach op any more: each attempt's call ended before its Reply (a late
// reply finds its call gone), and a retry timer is armed only between
// attempts. So the record returns to the free list first, and the callback
// may reuse it.
func (op *routerOp) finish(res any, err error) {
	r, alloc, lookup, release := op.r, op.alloc, op.lookup, op.release
	*op = routerOp{}
	r.ops.Put(op)
	switch {
	case release != nil:
		release(err)
	case err != nil && alloc != nil:
		alloc(nil, err)
	case err != nil:
		lookup(nil, 0, err)
	case alloc != nil:
		alloc(res.(*LookupReply).Disks, nil)
	default:
		rep := res.(*LookupReply)
		lookup(rep.Disks, rep.Size, nil)
	}
}
