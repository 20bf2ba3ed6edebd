// Engine: the frozen entry point of components that once ran on lanes.
//
// Every simulation runs on one Scheduler. An Engine is that scheduler plus
// a hop latency (its lookahead), which simnet.Fabric gives the network it
// builds, and per-component random streams (LaneRand). A cross-component
// event is an ordinary event on the one event list (DESIGN.md §14).
package simtime

import (
	"fmt"
	"math/rand"
)

// Engine wraps one Scheduler. Construct with NewEngine; the zero value is
// not usable.
type Engine struct {
	sched     *Scheduler
	seed      int64
	lookahead Duration
}

// NewEngine returns an engine whose scheduler is seeded seed. lookahead
// must be positive: it is the hop latency of a network built on the engine
// (simnet.Fabric). The second and third arguments, a lane and a worker
// count, are accepted and ignored; the perf/ benchmark still passes them.
func NewEngine(seed int64, _, _ int, lookahead Duration) *Engine {
	if lookahead <= 0 {
		panic(fmt.Sprintf("simtime: engine lookahead must be positive, got %v", lookahead))
	}
	return &Engine{sched: NewScheduler(seed), seed: seed, lookahead: lookahead}
}

// Part returns the engine's one Scheduler, whatever the argument.
func (e *Engine) Part(int) *Scheduler { return e.sched }

// Parts returns 1: there is one scheduler.
func (e *Engine) Parts() int { return 1 }

// LaneRand returns a new random source seeded seed^lane; lane 0's is the
// scheduler's own seed. A component that draws from a stream of its own
// does not re-draw another's when its traffic changes.
func (e *Engine) LaneRand(lane int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed ^ int64(lane)))
}

// Lookahead returns the engine's hop latency.
func (e *Engine) Lookahead() Duration { return e.lookahead }

// Post schedules fn at absolute time at; the source and destination
// arguments are accepted and ignored.
func (e *Engine) Post(_, _ int, at Time, fn func()) { e.sched.FireAtR(at, asFirer(fn)) }

// RunUntil is Scheduler.RunUntil.
func (e *Engine) RunUntil(deadline Time) Time { return e.sched.RunUntil(deadline) }

// RunFor runs d past the scheduler's clock.
func (e *Engine) RunFor(d Duration) Time { return e.RunUntil(e.sched.Now() + d) }
