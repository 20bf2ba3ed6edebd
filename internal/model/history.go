package model

import (
	"ustore/internal/simtime"
)

// A History stores its ops in fixed pages, each allocated once and never
// copied: a growing slice would re-copy every op at each growth step and
// allocate about five times what it keeps.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// History accumulates the operations of one run. Every method is safe on a
// nil *History (a no-op), so instrumented components need no enable checks —
// the same pattern as obs.Recorder. A History is owned by exactly one run
// (the chaos harness builds a fresh one per harness), so minimizer probe
// runs and sweep workers can never pollute a parent run's history, and all
// recording happens on that run's scheduler goroutine: there is no lock.
type History struct {
	clock func() simtime.Time
	pages []*[pageSize]Op
	n     int // ops recorded; op i is at pages[i>>pageShift][i&pageMask]
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
	h.clock = clock
}

func (h *History) now() simtime.Time {
	if h.clock != nil {
		return h.clock()
	}
	return 0
}

// op returns the recorded op with the given ID.
func (h *History) op(id int) *Op { return &h.pages[id>>pageShift][id&pageMask] }

// add appends op, stamped with its ID and the current time as its invoke,
// and returns where it is stored.
func (h *History) add(op Op) *Op {
	if h.n == len(h.pages)<<pageShift {
		h.pages = append(h.pages, new([pageSize]Op))
	}
	op.ID = h.n
	op.Invoke = h.now()
	h.n++
	p := h.op(op.ID)
	*p = op
	return p
}

// Invoke records the start of a windowed client operation and returns a
// token for Complete. On a nil history it returns -1, which Complete ignores.
func (h *History) Invoke(op Op) int {
	if h == nil {
		return -1
	}
	return h.add(op).ID
}

// Complete completes a windowed operation: it stamps the return time, marks
// the op done, and returns the op for the caller to record its outputs
// (reply fields) in. On a nil history or a negative token (from a
// nil-history Invoke) it returns nil. Operations that failed should simply
// never be completed — a client op that errored observed nothing, and the
// checker drops pending ops.
func (h *History) Complete(token int) *Op {
	if h == nil || token < 0 {
		return nil
	}
	op := h.op(token)
	op.Return = h.now()
	op.Done = true
	return op
}

// Point records an atomic (zero-width-window) endpoint transition at the
// current simulated time.
func (h *History) Point(op Op) {
	if h == nil {
		return
	}
	p := h.add(op)
	p.Return = p.Invoke
	p.Done = true
}

// Check runs Check over the recorded ops where they lie in the pages,
// without copying them. Pending ops are dropped, as Check drops them.
func (h *History) Check() Result {
	var p partitions
	if h != nil {
		for i := 0; i < h.n; i++ {
			p.add(h.op(i))
		}
	}
	return p.check()
}
