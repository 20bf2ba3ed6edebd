// Conservative partitioned discrete-event engine.
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
// partition's inbox; inboxes are flushed into the destination schedulers
// between windows, sorted by (deadline, source partition, source sequence).
// Because the window boundaries are a pure function of event timestamps and
// the flush order is a pure function of message content, a run's event
// interleaving — and therefore its output — does not depend on the order in
// which a window visits its partitions.
//
// A window visits its active partitions in index order on the calling
// goroutine. Running them on several goroutines was measured and did not
// pay: a fleet window holds a few active partitions and tens of
// microseconds of work, less than a goroutine hand-off costs (DESIGN.md
// §14).
package simtime

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// EngineStats counts an engine's synchronization work since NewEngine. Every
// field is a pure function of the event stream.
type EngineStats struct {
	Windows  uint64 // synchronization windows executed
	Visits   uint64 // partitions run inside windows, summed over windows
	Messages uint64 // cross-partition messages flushed from inboxes
	MaxInbox int    // largest single inbox at one flush
}

// Engine drives a set of partitioned Schedulers through conservative
// synchronization windows. Construct with NewEngine; the zero value is not
// usable. An Engine, its partitions and Post are used from one goroutine.
type Engine struct {
	parts     []*Scheduler
	inbox     [][]xmsg // per destination partition: events posted since the last flush
	srcSeq    []uint64 // per-source Post counter
	next      []Time   // per-partition next live deadline, recorded by lbts
	lookahead Duration
	now       Time // the latest deadline a RunUntil advanced every partition to
	horizon   Time // current window's upper edge: the Post safety check
	stats     EngineStats
}

// NewEngine returns an engine with parts partitioned Schedulers. Partition p
// is seeded seed^p — a deterministic per-partition RNG split, so partition 0
// reproduces the single-scheduler stream for the same seed. lookahead must be
// positive: it is the minimum virtual delay of any cross-partition event and
// bounds how far a window may advance past LBTS. The third argument is
// accepted and ignored; the perf/ benchmark still passes it.
func NewEngine(seed int64, parts, _ int, lookahead Duration) *Engine {
	if parts < 1 {
		panic(fmt.Sprintf("simtime: engine needs at least 1 partition, got %d", parts))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("simtime: engine lookahead must be positive, got %v", lookahead))
	}
	e := &Engine{
		parts:     make([]*Scheduler, parts),
		inbox:     make([][]xmsg, parts),
		srcSeq:    make([]uint64, parts),
		next:      make([]Time, parts),
		lookahead: lookahead,
	}
	for p := range e.parts {
		e.parts[p] = NewScheduler(seed ^ int64(p))
	}
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
	e.inbox[dst] = append(e.inbox[dst], xmsg{at: at, src: src, seq: e.srcSeq[src], f: f})
}

// flushInboxes drains every partition inbox into its scheduler. Messages are
// sorted by (at, src, seq) first, so the arrival order — and the scheduler
// sequence numbers they receive — is a function of message content alone.
// Each inbox keeps its array.
func (e *Engine) flushInboxes() {
	for i, msgs := range e.inbox {
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
		e.inbox[i] = msgs[:0]
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

// window advances the partitions with an event at or before horizon to it,
// in index order. A partition's events reach another partition only through
// its inbox, which is flushed after the window, so no visit changes which
// partitions are active.
func (e *Engine) window(horizon Time) {
	e.horizon = horizon
	e.stats.Windows++
	for p, at := range e.next {
		if at <= horizon {
			e.stats.Visits++
			e.parts[p].RunUntil(horizon)
		}
	}
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
