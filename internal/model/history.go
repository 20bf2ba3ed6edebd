package model

import (
	"sync"

	"ustore/internal/simtime"
)

// History accumulates the operations of one run. Every method is safe on a
// nil *History (a no-op), so instrumented components need no enable checks —
// the same pattern as obs.Recorder. A History is owned by exactly one run
// (the chaos harness builds a fresh one per harness), so minimizer probe
// runs and sweep workers can never pollute a parent run's history.
//
// The mutex exists for the parallel sweep/minimize paths where several
// independent schedulers run on different goroutines; within one run all
// recording happens on the scheduler goroutine.
type History struct {
	mu    sync.Mutex
	clock func() simtime.Time
	ops   []Op
}

// NewHistory returns an empty history. Bind the run's simulated clock with
// BindClock before recording.
func NewHistory() *History { return &History{} }

// BindClock points the history at the run's simulated clock; until then
// stamps read zero.
func (h *History) BindClock(clock func() simtime.Time) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.clock = clock
	h.mu.Unlock()
}

func (h *History) now() simtime.Time {
	if h.clock != nil {
		return h.clock()
	}
	return 0
}

// Invoke records the start of a windowed client operation and returns a
// token for Return. On a nil history it returns -1, which Return ignores.
func (h *History) Invoke(op Op) int {
	if h == nil {
		return -1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	op.ID = len(h.ops)
	op.Invoke = h.now()
	h.ops = append(h.ops, op)
	return op.ID
}

// Return completes a windowed operation: it stamps the return time, marks
// the op done, and lets fill record the op's outputs (reply fields). Calls
// with a negative token (from a nil-history Invoke) are no-ops. Operations
// that failed should simply never be Returned — a client op that errored
// observed nothing, and the checker drops pending ops.
func (h *History) Return(token int, fill func(op *Op)) {
	if h == nil || token < 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	op := &h.ops[token]
	op.Return = h.now()
	op.Done = true
	if fill != nil {
		fill(op)
	}
}

// Point records an atomic (zero-width-window) endpoint transition at the
// current simulated time.
func (h *History) Point(op Op) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	op.ID = len(h.ops)
	op.Invoke = h.now()
	op.Return = op.Invoke
	op.Done = true
	h.ops = append(h.ops, op)
}

// Ops returns a snapshot of every recorded op, pending ones included.
func (h *History) Ops() []Op {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Op(nil), h.ops...)
}
