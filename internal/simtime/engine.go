// Lanes on one scheduler.
//
// An Engine runs independent components — lanes — on one Scheduler and
// carries every event from one lane to another through one inbox, flushed
// into the scheduler at window edges. A window runs the scheduler from its
// next event up to horizon = that event + lookahead. Lookahead is the
// minimum virtual latency of any cross-lane interaction, so a message sent
// during a window — stamped at send-time + link latency — can never land
// before the horizon, i.e. never in the window being run:
//
//	every event executed in the window has time t ≥ next, so its sends are
//	stamped ≥ t + lookahead ≥ next + lookahead = horizon.
//
// The flush sorts the inbox by (deadline, sending lane, post order). Because
// the window edges are a pure function of event timestamps and the flush
// order a pure function of message content, a lane sees the events it would
// see on a scheduler of its own, in the same order (DESIGN.md §14).
package simtime

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
)

// xmsg is a cross-lane event waiting in the inbox.
type xmsg struct {
	at  Time
	src int    // sending lane, second-level sort key
	seq uint64 // post order, third-level sort key
	f   Firer
}

func compareXmsg(a, b xmsg) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
}

// EngineStats counts an engine's synchronization work since NewEngine. Every
// field is a pure function of the event stream.
type EngineStats struct {
	Windows  uint64 // synchronization windows executed
	Messages uint64 // cross-lane messages flushed from the inbox
	MaxInbox int    // largest inbox at one flush
}

// Engine drives lanes on one Scheduler through conservative synchronization
// windows. Construct with NewEngine; the zero value is not usable. An
// Engine, its scheduler and Post are used from one goroutine.
type Engine struct {
	sched     *Scheduler
	seed      int64
	inbox     []xmsg // events posted since the last flush
	posts     uint64 // Post counter: restricted to one lane, that lane's post order
	lookahead Duration
	now       Time // the latest deadline a RunUntil advanced the clock to
	horizon   Time // current window's upper edge: the Post safety check
	stats     EngineStats
}

// NewEngine returns an engine whose scheduler is seeded seed, so lane 0
// reproduces the single-scheduler stream for the same seed. lookahead must be
// positive: it is the minimum virtual delay of any cross-lane event and
// bounds how far a window may advance past its first event. The second and
// third arguments, a lane and a worker count, are accepted and ignored; the
// perf/ benchmark still passes them.
func NewEngine(seed int64, _, _ int, lookahead Duration) *Engine {
	if lookahead <= 0 {
		panic(fmt.Sprintf("simtime: engine lookahead must be positive, got %v", lookahead))
	}
	return &Engine{sched: NewScheduler(seed), seed: seed, lookahead: lookahead}
}

// Part returns the engine's one Scheduler, whatever the lane: every lane
// schedules its local work on it.
func (e *Engine) Part(int) *Scheduler { return e.sched }

// Parts returns 1: every lane runs on one scheduler.
func (e *Engine) Parts() int { return 1 }

// LaneRand returns a new random source seeded seed^lane. Lane 0's is the
// scheduler's own seed; a lane draws from its own stream, so a change on one
// lane does not re-draw another's.
func (e *Engine) LaneRand(lane int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed ^ int64(lane)))
}

// Lookahead returns the engine's synchronization lookahead.
func (e *Engine) Lookahead() Duration { return e.lookahead }

// Stats returns the engine's synchronization counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Fired returns the total events executed.
func (e *Engine) Fired() uint64 { return e.sched.Fired() }

// Post schedules fn at absolute time at on behalf of lane src; the
// destination lane is accepted and ignored, since every lane runs on one
// scheduler. It is the only safe way to cross lanes mid-window and must be
// stamped at least one lookahead past the sender's clock; an earlier stamp
// would land inside the current window, where the scheduler may have
// advanced past it, so Post panics rather than corrupt the timeline.
func (e *Engine) Post(src, _ int, at Time, fn func()) { e.PostR(src, at, asFirer(fn)) }

// PostR is Post with a receiver in place of a callback. f runs on behalf of
// the destination lane, so a record posted here changes hands between lanes.
func (e *Engine) PostR(src int, at Time, f Firer) {
	if at < e.horizon {
		panic(fmt.Sprintf(
			"simtime: cross-lane event at %v posted before window horizon %v (link latency below engine lookahead %v violates the conservative synchronization contract)",
			at, e.horizon, e.lookahead))
	}
	e.posts++
	e.inbox = append(e.inbox, xmsg{at: at, src: src, seq: e.posts, f: f})
}

// flush drains the inbox into the scheduler. Messages are sorted by
// (at, src, seq) first, so the arrival order — and the scheduler sequence
// numbers they receive — is a function of message content alone. The inbox
// keeps its array.
func (e *Engine) flush() {
	msgs := e.inbox
	if len(msgs) == 0 {
		return
	}
	slices.SortFunc(msgs, compareXmsg)
	for i := range msgs {
		e.sched.FireAtR(msgs[i].at, msgs[i].f)
		msgs[i].f = nil
	}
	e.stats.Messages += uint64(len(msgs))
	e.stats.MaxInbox = max(e.stats.MaxInbox, len(msgs))
	e.inbox = msgs[:0]
}

// RunUntil executes events up to and including deadline, then advances the
// clock to deadline. Like Scheduler.RunUntil it never moves the clock
// backwards: a deadline before the engine clock runs nothing and leaves the
// clock where it was.
func (e *Engine) RunUntil(deadline Time) Time {
	for {
		e.flush()
		next, ok := e.sched.NextEventAt()
		if !ok || next > deadline {
			break
		}
		e.horizon = min(deadline, next+e.lookahead)
		e.stats.Windows++
		e.sched.RunUntil(e.horizon)
	}
	// Nothing at or below deadline remains (the loop re-flushes the inbox,
	// so in-window sends were seen); park the clock at the deadline.
	e.sched.RunUntil(deadline)
	e.now = max(e.now, deadline)
	return e.now
}

// RunFor runs d past the engine clock.
func (e *Engine) RunFor(d Duration) Time { return e.RunUntil(e.now + d) }
