// Conservative parallel discrete-event engine.
//
// An Engine partitions the event space into independent Schedulers and runs
// them in lock-step windows. The synchronization protocol is the classic
// conservative (LBTS + lookahead) scheme: between windows the driver computes
// LBTS, the minimum next-event time across every partition, and then lets the
// partitions with an event at or before horizon = LBTS + lookahead advance to
// it. Lookahead is the minimum virtual latency of any cross-partition
// interaction, so a message sent during a window — stamped at send-time +
// link latency — can never land before the horizon, i.e. never in any
// partition's past:
//
//	every event executed in the window has time t ≥ LBTS, so its sends are
//	stamped ≥ t + lookahead ≥ LBTS + lookahead = horizon.
//
// Cross-partition sends go through Post, which appends to the destination
// partition's mutex-guarded inbox; inboxes are flushed into the destination
// schedulers between windows, sorted by (deadline, source partition, source
// sequence). Because the window boundaries are a pure function of event
// timestamps and the flush order is a pure function of message content, a
// run's event interleaving — and therefore its output — is byte-identical at
// any worker count, and whether a window runs inline or on worker goroutines
// (chosen per window from measured wall cost) cannot reach it either.
package simtime

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// xmsg is a cross-partition event waiting in a destination inbox.
type xmsg struct {
	at  Time
	src int    // source partition, second-level sort key
	seq uint64 // per-source sequence, third-level sort key
	f   Firer
}

func compareXmsg(a, b xmsg) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
}

// partInbox collects events posted to one partition during a window. The
// mutex makes concurrent Posts from different source partitions safe; the
// (at, src, seq) sort at flush time makes their order deterministic.
type partInbox struct {
	mu   sync.Mutex
	msgs []xmsg
}

// EngineStats counts an engine's synchronization work since NewEngine. Every
// field but FannedOut is a pure function of the event stream, byte-identical
// at any worker count.
type EngineStats struct {
	Windows  uint64 // synchronization windows executed
	Visits   uint64 // partitions run inside windows, summed over windows
	Messages uint64 // cross-partition messages flushed from inboxes
	MaxInbox int    // largest single inbox at one flush
	// FannedOut counts windows run on worker goroutines: host-dependent, so
	// no report prints it.
	FannedOut uint64
}

// Fan-out tuning: a window of two or more active partitions runs in the mode
// with the lower moving-average wall cost per fired event in its size class
// (active partitions, by power of two); every probeEvery-th window of a class
// tries the other mode. A sample counts at most twice the average it updates,
// so a window stalled by a GC pause cannot flip the choice for long.
const (
	probeEvery = 32
	costWeight = 8 // each sample moves a moving average by 1/costWeight
)

// Engine drives a set of partitioned Schedulers through conservative
// synchronization windows. Construct with NewEngine; the zero value is not
// usable.
//
// The Engine itself must be driven from a single goroutine. During a window
// each partition's Scheduler is touched by exactly one goroutine, and Post
// may be called from any partition currently executing a window.
type Engine struct {
	parts     []*Scheduler
	inbox     []partInbox
	srcSeq    []uint64 // per-source Post counter; owned by the source's executor
	next      []Time   // per-partition next live deadline, recorded by lbts
	active    []int    // partitions with an event at or before the horizon
	lookahead Duration
	workers   int
	now       Time // the latest deadline a RunUntil advanced every partition to
	horizon   Time // current window's upper edge: the Post safety check, and how far fanOut runs
	stats     EngineStats
	cost      [8][2]float64 // per size class: ns per fired event inline, fanned out; 0 = unmeasured
	probe     [8]int        // per size class: windows since the other mode last ran

	// Fan-out state, kept across windows so a fanned window allocates
	// nothing: the next active index to take, the goroutines still running
	// the window, and share bound once as a func value, which a go
	// statement starts without a wrapper closure.
	taken   atomic.Int64
	running sync.WaitGroup
	shareFn func()
}

// NewEngine returns an engine with parts partitioned Schedulers. Partition p
// is seeded seed^p — a deterministic per-partition RNG split, so partition 0
// reproduces the single-scheduler stream for the same seed. lookahead must be
// positive: it is the minimum virtual delay of any cross-partition event and
// bounds how far a window may advance past LBTS. workers caps the goroutines
// that may execute one window; below 2 every window runs inline.
func NewEngine(seed int64, parts, workers int, lookahead Duration) *Engine {
	if parts < 1 {
		panic(fmt.Sprintf("simtime: engine needs at least 1 partition, got %d", parts))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("simtime: engine lookahead must be positive, got %v", lookahead))
	}
	e := &Engine{
		parts:     make([]*Scheduler, parts),
		inbox:     make([]partInbox, parts),
		srcSeq:    make([]uint64, parts),
		next:      make([]Time, parts),
		lookahead: lookahead,
		workers:   workers,
	}
	for p := range e.parts {
		e.parts[p] = NewScheduler(seed ^ int64(p))
	}
	e.shareFn = e.share
	return e
}

// Part returns partition p's Scheduler. Components living in partition p
// schedule all their local work on it.
func (e *Engine) Part(p int) *Scheduler { return e.parts[p] }

// Parts returns the number of partitions.
func (e *Engine) Parts() int { return len(e.parts) }

// Lookahead returns the engine's synchronization lookahead.
func (e *Engine) Lookahead() Duration { return e.lookahead }

// Stats returns the engine's synchronization counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Fired returns the total events executed across all partitions.
func (e *Engine) Fired() uint64 {
	var n uint64
	for _, p := range e.parts {
		n += p.Fired()
	}
	return n
}

// Post schedules fn at absolute time at on partition dst, on behalf of
// partition src. It is the only safe way to cross partitions mid-window and
// must be stamped at least one lookahead past the sender's clock; an earlier
// stamp would land inside the current window, where the destination may have
// advanced past it, so Post panics rather than corrupt the timeline.
func (e *Engine) Post(src, dst int, at Time, fn func()) { e.PostR(src, dst, at, asFirer(fn)) }

// PostR is Post with a receiver in place of a callback. f runs on dst's
// partition, so a record posted here changes hands between partitions.
func (e *Engine) PostR(src, dst int, at Time, f Firer) {
	if at < e.horizon {
		panic(fmt.Sprintf(
			"simtime: cross-partition event at %v posted before window horizon %v (link latency below engine lookahead %v violates the conservative synchronization contract)",
			at, e.horizon, e.lookahead))
	}
	e.srcSeq[src]++
	ib := &e.inbox[dst]
	ib.mu.Lock()
	ib.msgs = append(ib.msgs, xmsg{at: at, src: src, seq: e.srcSeq[src], f: f})
	ib.mu.Unlock()
}

// flushInboxes drains every partition inbox into its scheduler. Messages are
// sorted by (at, src, seq) first, so the arrival order — and the scheduler
// sequence numbers they receive — is independent of worker interleaving. It
// runs at quiescence, so it needs no lock and keeps each inbox's array.
func (e *Engine) flushInboxes() {
	for i := range e.inbox {
		msgs := e.inbox[i].msgs
		if len(msgs) == 0 {
			continue
		}
		slices.SortFunc(msgs, compareXmsg)
		for j := range msgs {
			e.parts[i].FireAtR(msgs[j].at, msgs[j].f)
			msgs[j].f = nil
		}
		e.stats.Messages += uint64(len(msgs))
		e.stats.MaxInbox = max(e.stats.MaxInbox, len(msgs))
		e.inbox[i].msgs = msgs[:0]
	}
}

// lbts records every partition's next live deadline (MaxInt64 when idle) and
// returns the lower bound on time stamp, their minimum. ok is false when
// every partition is idle.
func (e *Engine) lbts() (Time, bool) {
	earliest := Time(math.MaxInt64)
	for i, p := range e.parts {
		e.next[i] = math.MaxInt64
		if at, ok := p.NextEventAt(); ok {
			e.next[i] = at
		}
		earliest = min(earliest, e.next[i])
	}
	return earliest, earliest != math.MaxInt64
}

// window advances the partitions with an event at or before horizon to it.
// Partition order within a window is irrelevant: partitions interact only
// through inboxes, which are flushed between windows.
func (e *Engine) window(horizon Time) {
	e.horizon = horizon
	e.active = e.active[:0]
	for p, at := range e.next {
		if at <= horizon {
			e.active = append(e.active, p)
		}
	}
	e.stats.Windows++
	e.stats.Visits += uint64(len(e.active))
	if len(e.active) < 2 || e.workers < 2 {
		e.runInline(horizon)
		return
	}
	// Fan out until that mode has a measurement, then run whichever mode is
	// cheaper per event, and the other one every probeEvery-th window.
	class := min(bits.Len(uint(len(e.active)-1)), len(e.cost)-1)
	cost := &e.cost[class]
	fan := cost[1] == 0 || (cost[0] != 0 && cost[1] < cost[0])
	if e.probe[class]++; e.probe[class] == probeEvery {
		fan, e.probe[class] = !fan, 0
	}
	fired := e.firedActive()
	start := time.Now()
	avg := &cost[0]
	if fan {
		avg = &cost[1]
		e.fanOut()
	} else {
		e.runInline(horizon)
	}
	if n := e.firedActive() - fired; n > 0 {
		sample := float64(time.Since(start)) / float64(n)
		if *avg == 0 {
			*avg = sample
		}
		*avg += (min(sample, 2**avg) - *avg) / costWeight
	}
}

func (e *Engine) runInline(horizon Time) {
	for _, p := range e.active {
		e.parts[p].RunUntil(horizon)
	}
}

// fanOut runs the window's active partitions to the horizon on up to
// workers goroutines, the calling goroutine among them.
func (e *Engine) fanOut() {
	e.stats.FannedOut++
	e.taken.Store(0)
	helpers := min(e.workers, len(e.active)) - 1
	e.running.Add(helpers + 1)
	for range helpers {
		go e.shareFn()
	}
	e.share()
	e.running.Wait()
}

// share runs the next active partition nobody has taken until none is
// left.
func (e *Engine) share() {
	for i := int(e.taken.Add(1)) - 1; i < len(e.active); i = int(e.taken.Add(1)) - 1 {
		e.parts[e.active[i]].RunUntil(e.horizon)
	}
	e.running.Done()
}

// firedActive returns the events fired so far by the window's partitions.
func (e *Engine) firedActive() uint64 {
	var n uint64
	for _, p := range e.active {
		n += e.parts[p].Fired()
	}
	return n
}

// RunUntil executes events across all partitions up to and including
// deadline, then advances every partition clock to deadline. Like
// Scheduler.RunUntil it never moves the clock backwards: a deadline before
// the engine clock runs nothing and leaves the clock where it was.
func (e *Engine) RunUntil(deadline Time) Time {
	for {
		e.flushInboxes()
		earliest, ok := e.lbts()
		if !ok || earliest > deadline {
			break
		}
		e.window(min(deadline, earliest+e.lookahead))
	}
	// Nothing at or below deadline remains (the loop re-flushes inboxes, so
	// in-window sends were seen); park every clock at the deadline.
	for _, p := range e.parts {
		p.RunUntil(deadline)
	}
	e.now = max(e.now, deadline)
	return e.now
}

// RunFor runs d past the engine clock.
func (e *Engine) RunFor(d Duration) Time { return e.RunUntil(e.now + d) }
