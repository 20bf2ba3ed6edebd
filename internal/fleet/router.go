package fleet

import (
	"errors"
	"fmt"
	"time"

	"ustore/internal/obs"
	"ustore/internal/simnet"
)

// Router is the client-side shard resolver: it caches a ShardMap, hashes
// volumes to slots, and calls the owning shard's believed leader. Replies
// repair its state: NotLeader rotates the believed replica, Stale installs
// the attached newer map and retries, Busy (a slot frozen mid-migration)
// backs off and retries.
type Router struct {
	f    *Fleet
	name string
	rpc  *simnet.RPCNode

	map_ *ShardMap
	// believed[k] indexes the replica last known to lead shard k.
	believed []int

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
	(&routerOp{r: r, method: "Allocate", volume: volume,
		args: AllocateArgs{Volume: volume, Size: size, Service: service}, alloc: done}).Fire()
}

// Lookup resolves a volume's fragment disks, which are read-only.
func (r *Router) Lookup(volume string, done func(disks []string, size int64, err error)) {
	(&routerOp{r: r, method: "Lookup", volume: volume, args: LookupArgs{Volume: volume}, lookup: done}).Fire()
}

// Release frees a volume.
func (r *Router) Release(volume string, done func(err error)) {
	(&routerOp{r: r, method: "Release", volume: volume, args: ReleaseArgs{Volume: volume}, release: done}).Fire()
}

// installMap adopts a newer map from a Stale reply.
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
// the router's home-partition scheduler RNG, so jittered runs stay
// deterministic per seed at any engine worker count.
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
// the typed done callbacks is set.
type routerOp struct {
	r              *Router
	method, volume string
	args           any
	tried          int // attempts made before this one
	// This attempt's shard, believed-leader index and replica count.
	shard, idx, n int

	alloc   func(disks []string, err error)
	lookup  func(disks []string, size int64, err error)
	release func(err error)
}

// Fire runs the next attempt: the first, then each retry once its backoff
// expires.
func (op *routerOp) Fire() {
	r := op.r
	if op.tried >= routerAttempts {
		op.finish(nil, fmt.Errorf("%w: %s %s: %d retries exhausted",
			ErrShardUnavailable, op.method, op.volume, routerAttempts))
		return
	}
	op.shard = r.map_.ShardOf(op.volume)
	replicas := r.map_.Replicas[op.shard]
	op.idx, op.n = r.believed[op.shard]%len(replicas), len(replicas)
	r.rpc.CallR(replicas[op.idx], op.method, op.args, 192, rpcTimeout, op)
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

// Reply handles one attempt's outcome.
func (op *routerOp) Reply(res any, err error) {
	var sr ShardReply
	if err == nil {
		sr = res.(shardReplier).common()
	}
	switch {
	case err != nil && !errors.Is(err, simnet.ErrTimeout):
		op.finish(nil, err)
	case sr.OK:
		op.finish(res, nil)
	case err != nil || sr.NotLeader: // a timeout, or a follower
		op.rotate()
		op.again(50 * time.Millisecond)
	case sr.Stale:
		op.r.cStale.Inc()
		op.r.installMap(sr.Map)
		op.again(0)
	case sr.Busy:
		op.again(200 * time.Millisecond)
	default:
		op.finish(nil, fmt.Errorf("fleet: %s %s: %s", op.method, op.volume, sr.Err))
	}
}

// finish hands the operation's outcome to its typed callback.
func (op *routerOp) finish(res any, err error) {
	switch {
	case op.release != nil:
		op.release(err)
	case err != nil && op.alloc != nil:
		op.alloc(nil, err)
	case err != nil:
		op.lookup(nil, 0, err)
	case op.alloc != nil:
		op.alloc(res.(AllocateReply).Disks, nil)
	default:
		rep := res.(LookupReply)
		op.lookup(rep.Disks, rep.Size, nil)
	}
}
