// Package simtime provides a deterministic discrete-event simulation clock.
//
// All UStore simulation components share one Scheduler. Time is virtual: the
// scheduler pops the earliest pending event, advances the clock to the event's
// deadline, and runs the event's callback on the scheduler goroutine (or the
// caller's goroutine when driven via Run/Step). Because every state change
// happens inside an event callback, components need no locking and every run
// with the same seed is bit-for-bit reproducible.
//
// # Internals
//
// Events are kept in a three-tier near/far structure rather than one global
// heap, so the dominant loads — sub-millisecond message deliveries and
// periodic tickers — cost O(1) or O(log k) for a tiny k instead of O(log n)
// over every pending timer:
//
//   - ready: a small binary heap holding every event below slotEnd, the
//     lower edge of the timer wheel. Only this heap is ever popped, so the
//     firing order is the same (deadline, sequence) total order the old
//     single-heap implementation had.
//   - wheel: wheelSlotCount buckets of wheelGranularity each, a linear
//     window [base, base+wheelSpan). Insertion is O(1): append to the slot
//     the deadline lands in and set its bit in an occupancy bitmap. When
//     ready drains, the next occupied slot (found by a trailing-zeros scan)
//     is promoted wholesale into ready and slotEnd advances past it.
//   - far: a heap for events at or beyond the wheel horizon. When both
//     ready and wheel drain, the window rebases at the earliest far
//     deadline and everything within one span migrates into the wheel.
//
// Promotion always completes before slotEnd moves past a slot, so at any pop
// the ready heap contains every unfired event below slotEnd and its top is
// the global minimum: the (At, seq) firing order is identical to a single
// heap's, which TestPropertyWheelMatchesReferenceHeap verifies.
//
// Event structs are pooled on a free list. Only events that never escape to
// a caller — FireAfter and the receiver forms FireAtR/FireAfterR, used by hot
// paths like simnet delivery — and
// events whose holder gave the handle back with Release are recycled, so a
// stale handle can never cancel a reused event. Tickers go
// one step further and re-arm their own event in place, making steady-state
// periodic load allocation-free. Cancelled events are dropped lazily when
// popped or promoted; if they ever exceed half the pending population the
// queue is compacted in (At, seq)-preserving order.
package simtime

import (
	"container/heap"
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"
)

// Duration and Time alias the standard library types so call sites read
// naturally; only the source of "now" differs.
type (
	// Duration is a span of virtual time.
	Duration = time.Duration
	// Time is an instant of virtual time, measured from the scheduler epoch.
	Time = time.Duration
)

// Timer-wheel geometry: 4096 slots of 1ms cover a ~4.1s window, enough that
// message deliveries, RPC timeouts and sub-second tickers all insert in O(1).
// Longer timers (scrub idle windows, multi-minute heartbeats) overflow to the
// far heap, which stays small because such timers are few.
const (
	wheelGranularity          = time.Millisecond
	wheelSlotCount            = 4096
	wheelSpan        Duration = wheelSlotCount * wheelGranularity
)

// index sentinels: a non-negative index is a position in the ready or far
// heap; events in a wheel slot and events that have left the queue entirely
// (fired, recycled, or dropped after cancellation) are marked instead.
const (
	indexFired = -1
	indexWheel = -2
)

// compaction thresholds: sweep lazily-cancelled events out of the queue once
// there are at least compactMinCanceled of them and they outnumber half the
// pending population.
const compactMinCanceled = 64

// Firer is an event's receiver: Fire runs when the clock reaches the
// event's deadline, and may schedule further events. A record that is its
// own Firer (an RPC call, a message in flight) costs no closure per event.
type Firer interface{ Fire() }

// funcFirer adapts a plain callback; a func value is one pointer, so boxing
// it in a Firer does not allocate.
type funcFirer func()

func (f funcFirer) Fire() { f() }

// Event is a scheduled callback. Its size is pinned at 48 bytes (see
// TestEventSize): one more word moves it into Go's 64-byte size class.
type Event struct {
	// At is the virtual deadline of the event.
	At Time

	fire  Firer      // runs when the clock reaches At
	seq   uint64     // tie-break: FIFO among events with equal deadline
	s     *Scheduler // owner, for cancellation bookkeeping
	index int32      // heap position, or an index* sentinel

	// state is atomic so Cancel may be called from a goroutine other than
	// the one driving the scheduler without racing the Step/peek reads. It
	// holds the evPooled, evCanceled and evDeparted bits; the last two make
	// canceledPending exact: Cancel counts an event only while it is still
	// queued, and the side that takes it out of the queue (fire or drop)
	// uncounts it.
	state atomic.Uint32
}

// state bits. evDeparted marks an event that has left the queue (fired,
// dropped, or discarded); once set, a late Cancel is a no-op for accounting.
// evPooled marks an event no handle refers to: it is recycled when it
// departs.
const (
	evCanceled uint32 = 1 << 0
	evDeparted uint32 = 1 << 1
	evPooled   uint32 = 1 << 2
)

func (e *Event) canceledBit() bool { return e.state.Load()&evCanceled != 0 }

// depart marks the event as out of the queue and reports whether a Cancel was
// counted against it (i.e. the canceled bit was set while it was still
// queued). The caller must decrement canceledPending when depart returns true.
func (e *Event) depart() bool {
	for {
		old := e.state.Load()
		if old&evDeparted != 0 {
			return false
		}
		if e.state.CompareAndSwap(old, old|evDeparted) {
			return old&evCanceled != 0
		}
	}
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Unlike every other scheduler
// operation, Cancel is safe to call from any goroutine.
func (e *Event) Cancel() {
	if e == nil {
		return
	}
	for {
		old := e.state.Load()
		if old&evCanceled != 0 {
			return
		}
		if e.state.CompareAndSwap(old, old|evCanceled) {
			// Count the cancellation only if the event is still queued;
			// cancelling after the event fired must not leave a ghost in
			// canceledPending (it has nothing left to uncount it).
			if old&evDeparted == 0 && e.s != nil {
				e.s.canceledPending.Add(1)
			}
			return
		}
	}
}

// Release gives the handle back: the caller promises never to touch the
// event again, so the scheduler recycles it once it leaves the queue — at
// once if it already has. A cancelled event is still queued until it is
// dropped, so it is recycled then, never at Cancel. Release must run on the
// scheduler's goroutine, and is a no-op on nil.
func (e *Event) Release() {
	if e == nil {
		return
	}
	if e.state.Load()&evDeparted != 0 { // only this goroutine sets it
		e.s.recycle(e)
		return
	}
	for old := e.state.Load(); !e.state.CompareAndSwap(old, old|evPooled); old = e.state.Load() {
	}
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = int32(i)
	q[j].index = int32(j)
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = int32(len(*q))
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = indexFired
	*q = old[:n-1]
	return e
}

// Stats is a snapshot of scheduler activity counters, for observability and
// perf work. All counts are cumulative since NewScheduler.
type Stats struct {
	Fired           uint64 // events executed
	Allocated       uint64 // Event structs taken from the Go allocator
	Recycled        uint64 // pooled events returned to the free list
	Reused          uint64 // events served from the free list or re-armed in place (tickers)
	ReadyInserts    uint64 // insertions landing directly in the ready heap
	WheelInserts    uint64 // O(1) insertions into a wheel slot
	FarInserts      uint64 // insertions beyond the wheel horizon
	Migrated        uint64 // far-heap events pulled into the wheel at a rebase
	CanceledDropped uint64 // cancelled events discarded without firing
	Compactions     uint64 // full-queue sweeps of cancelled events
	MaxPending      int    // high-water mark of Pending()
}

// Scheduler is a discrete-event scheduler with a virtual clock and a seeded
// random source. The zero value is not usable; call NewScheduler.
//
// Scheduler is not safe for concurrent use: all interaction must happen from
// the goroutine driving Run/Step (which is also the goroutine event callbacks
// run on). This is deliberate — single-threaded event execution is what makes
// simulations deterministic.
type Scheduler struct {
	now Time
	seq uint64
	rng *rand.Rand

	// near/far event structure; see the package comment.
	ready   eventQueue
	slots   [wheelSlotCount][]*Event
	bitmap  [wheelSlotCount / 64]uint64
	base    Time // wheel origin; slot i covers [base+i·G, base+(i+1)·G)
	cursor  int  // slots below cursor have been promoted
	slotEnd Time // = base + cursor·G; every event below it is in ready (or fired)
	wheel   int  // events currently in wheel slots
	far     eventQueue

	free []*Event // recycled pooled events

	fired uint64
	stats Stats

	// canceledPending counts exactly how many cancelled events are still
	// queued: Cancel increments it only for queued events, and whichever
	// path removes the event (lazy drop, compaction, or a racing fire)
	// decrements it. Atomic because Cancel may run on another goroutine.
	// The count gates compaction and keeps Pending() free of ghosts, which
	// the partition engine relies on for idle detection.
	canceledPending atomic.Int64
}

// NewScheduler returns a scheduler whose clock reads zero and whose random
// source is seeded with seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of live events waiting to fire. Lazily-cancelled
// events still sitting in the queue are excluded, so an engine polling
// Pending() for idleness cannot spin on ghosts.
func (s *Scheduler) Pending() int {
	p := s.queued() - int(s.canceledPending.Load())
	if p < 0 {
		// A Cancel on another goroutine can land between the two reads;
		// never report a negative count for it.
		p = 0
	}
	return p
}

// queued returns the raw queue population, cancelled events included.
func (s *Scheduler) queued() int { return len(s.ready) + s.wheel + len(s.far) }

// NextEventAt returns the deadline of the earliest live pending event. ok is
// false when no live events remain. Cancelled events are swept past, so the
// partition engine's LBTS computation never stalls on a ghost deadline.
func (s *Scheduler) NextEventAt() (at Time, ok bool) {
	e := s.peekNext()
	if e == nil {
		return 0, false
	}
	return e.At, true
}

// Stats returns a snapshot of the scheduler's activity counters.
func (s *Scheduler) Stats() Stats {
	st := s.stats
	st.Fired = s.fired
	return st
}

// alloc returns an Event ready for scheduling, from the free list when one
// is available.
func (s *Scheduler) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.stats.Reused++
		return e
	}
	s.stats.Allocated++
	return &Event{s: s}
}

// recycle returns a departed event to the free list. Only events whose
// handle never escaped (FireAfter, FireAtR, FireAfterR) or was given back
// (Release) are
// recycled, so no caller can hold a reference to a reused Event.
func (s *Scheduler) recycle(e *Event) {
	e.fire = nil
	// No goroutine holds a handle to cancel: resetting the state bits here
	// cannot race.
	e.state.Store(0)
	s.free = append(s.free, e)
	s.stats.Recycled++
}

// schedule places an armed event into the tier its deadline selects.
func (s *Scheduler) schedule(e *Event) {
	switch {
	case e.At < s.slotEnd:
		heap.Push(&s.ready, e)
		s.stats.ReadyInserts++
	case e.At < s.base+wheelSpan:
		s.wheelInsert(e)
		s.stats.WheelInserts++
	default:
		heap.Push(&s.far, e)
		s.stats.FarInserts++
	}
	if p := s.Pending(); p > s.stats.MaxPending {
		s.stats.MaxPending = p
	}
}

func (s *Scheduler) wheelInsert(e *Event) {
	idx := int((e.At - s.base) / wheelGranularity)
	e.index = indexWheel
	s.slots[idx] = append(s.slots[idx], e)
	s.bitmap[idx>>6] |= 1 << uint(idx&63)
	s.wheel++
}

// nextOccupied returns the first occupied slot at or after from. The caller
// guarantees one exists (s.wheel > 0).
func (s *Scheduler) nextOccupied(from int) int {
	w := from >> 6
	word := s.bitmap[w] &^ (1<<uint(from&63) - 1)
	for word == 0 {
		w++
		word = s.bitmap[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// dropCanceled retires a cancelled event that has been removed from its
// container.
func (s *Scheduler) dropCanceled(e *Event) {
	e.index = indexFired
	s.stats.CanceledDropped++
	if e.depart() {
		s.canceledPending.Add(-1)
	}
	if e.state.Load()&evPooled != 0 {
		s.recycle(e)
	}
}

// advanceWindow moves the wheel window forward until the ready heap gains at
// least one event. It reports false when no events remain anywhere.
func (s *Scheduler) advanceWindow() bool {
	for {
		if s.wheel > 0 {
			idx := s.nextOccupied(s.cursor)
			bucket := s.slots[idx]
			s.bitmap[idx>>6] &^= 1 << uint(idx&63)
			s.cursor = idx + 1
			s.slotEnd = s.base + Duration(idx+1)*wheelGranularity
			s.wheel -= len(bucket)
			for i, e := range bucket {
				bucket[i] = nil
				if e.canceledBit() {
					s.dropCanceled(e)
					continue
				}
				heap.Push(&s.ready, e)
			}
			s.slots[idx] = bucket[:0]
			if len(s.ready) > 0 {
				return true
			}
			continue
		}
		if len(s.far) > 0 {
			// Rebase the window at the earliest far deadline and pull
			// everything within one span into the wheel. far deadlines are
			// always at or beyond the old horizon, so base never regresses.
			at := s.far[0].At
			s.base = at - at%wheelGranularity
			s.cursor = 0
			s.slotEnd = s.base
			horizon := s.base + wheelSpan
			for len(s.far) > 0 && s.far[0].At < horizon {
				e := heap.Pop(&s.far).(*Event)
				if e.canceledBit() {
					s.dropCanceled(e)
					continue
				}
				s.wheelInsert(e)
				s.stats.Migrated++
			}
			continue
		}
		return false
	}
}

// popNext removes and returns the earliest live event, or nil if none remain.
func (s *Scheduler) popNext() *Event {
	for {
		for len(s.ready) > 0 {
			e := heap.Pop(&s.ready).(*Event)
			if e.canceledBit() {
				s.dropCanceled(e)
				continue
			}
			return e
		}
		if !s.advanceWindow() {
			return nil
		}
	}
}

// peekNext returns the earliest live event without removing it, or nil.
func (s *Scheduler) peekNext() *Event {
	for {
		for len(s.ready) > 0 {
			e := s.ready[0]
			if !e.canceledBit() {
				return e
			}
			heap.Pop(&s.ready)
			s.dropCanceled(e)
		}
		if !s.advanceWindow() {
			return nil
		}
	}
}

// maybeCompact sweeps cancelled events out of all tiers once they are both
// numerous and a large fraction of the queue. The sweep preserves (At, seq)
// order, so firing results are unchanged; it only reclaims memory and keeps
// Pending() honest under cancel-heavy loads (every RPC arms a timeout that
// is almost always cancelled).
func (s *Scheduler) maybeCompact() {
	cp := s.canceledPending.Load()
	if cp < compactMinCanceled || cp*2 < int64(s.queued()) {
		return
	}
	s.stats.Compactions++
	filter := func(q *eventQueue) {
		old := *q
		keep := old[:0]
		for _, e := range old {
			if e.canceledBit() {
				s.dropCanceled(e)
			} else {
				keep = append(keep, e)
			}
		}
		for i := len(keep); i < len(old); i++ {
			old[i] = nil
		}
		*q = keep
		for i, e := range keep {
			e.index = int32(i)
		}
		heap.Init(q)
	}
	filter(&s.ready)
	filter(&s.far)
	for idx := s.cursor; idx < wheelSlotCount && s.wheel > 0; idx++ {
		if s.bitmap[idx>>6]&(1<<uint(idx&63)) == 0 {
			continue
		}
		bucket := s.slots[idx]
		keep := bucket[:0]
		for _, e := range bucket {
			if e.canceledBit() {
				s.dropCanceled(e)
				s.wheel--
			} else {
				keep = append(keep, e)
			}
		}
		for i := len(keep); i < len(bucket); i++ {
			bucket[i] = nil
		}
		s.slots[idx] = keep
		if len(keep) == 0 {
			s.bitmap[idx>>6] &^= 1 << uint(idx&63)
		}
	}
	// No reset of canceledPending here: dropCanceled decremented it exactly
	// once per swept event, so whatever remains was cancelled concurrently
	// during the sweep and is still queued.
}

// At schedules fn to run at absolute virtual time at. If at is in the past it
// fires at the current time (events never run the clock backwards).
func (s *Scheduler) At(at Time, fn func()) *Event { return s.arm(at, asFirer(fn), 0) }

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) After(d Duration, fn func()) *Event { return s.AfterR(d, asFirer(fn)) }

// FireAfter schedules fn to run d from now, like After, but returns no
// handle. Because the event can never be cancelled or inspected, the
// scheduler recycles its Event struct through a free list — hot paths that
// fire and forget should prefer this over After to avoid one allocation per
// event. Negative d is treated as zero.
func (s *Scheduler) FireAfter(d Duration, fn func()) { s.FireAfterR(d, asFirer(fn)) }

// AfterR, FireAtR and FireAfterR take a receiver in place of a callback.
func (s *Scheduler) AfterR(d Duration, f Firer) *Event { return s.arm(s.now+max(d, 0), f, 0) }
func (s *Scheduler) FireAtR(at Time, f Firer)          { s.arm(at, f, evPooled) }
func (s *Scheduler) FireAfterR(d Duration, f Firer)    { s.arm(s.now+max(d, 0), f, evPooled) }

func asFirer(fn func()) Firer {
	if fn == nil {
		panic("simtime: nil event callback")
	}
	return funcFirer(fn)
}

// arm schedules f at at (clamped to now) with the given initial state bits.
func (s *Scheduler) arm(at Time, f Firer, state uint32) *Event {
	e := s.alloc()
	e.At, e.fire, e.seq = max(at, s.now), f, s.seq
	e.state.Store(state)
	s.seq++
	s.schedule(e)
	return e
}

// Every schedules fn to run every interval, starting one interval from now,
// until the returned Ticker is stopped. interval must be positive.
func (s *Scheduler) Every(interval Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("simtime: non-positive tick interval %v", interval))
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		// Re-arm the same Event in place unless the callback stopped the
		// ticker.
		if !t.stopped {
			t.rearm()
		}
	}
	t.ev = s.AfterR(interval, funcFirer(t.tick))
	return t
}

// Step pops and executes the single earliest event. It reports false when the
// queue is empty.
func (s *Scheduler) Step() bool {
	s.maybeCompact()
	e := s.popNext()
	if e == nil {
		return false
	}
	s.now = e.At
	s.fired++
	// The event is leaving the queue by firing. A Cancel can still land
	// between popNext's liveness check and here; it was counted against
	// canceledPending (the event looked queued), so uncount it. The event
	// fires anyway, matching the historical best-effort race semantics.
	if e.depart() {
		s.canceledPending.Add(-1)
	}
	f := e.fire
	if e.state.Load()&evPooled != 0 {
		s.recycle(e)
	}
	f.Fire()
	return true
}

// Run executes events until the queue is empty. It returns the virtual time
// at which it stopped.
func (s *Scheduler) Run() Time {
	for s.Step() {
	}
	return s.now
}

// RunUntil executes events whose deadline is at or before deadline, then
// advances the clock to deadline. Events scheduled beyond deadline remain
// queued.
func (s *Scheduler) RunUntil(deadline Time) Time {
	for {
		next := s.peekNext()
		if next == nil || next.At > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.now
}

// RunFor is RunUntil(Now()+d).
func (s *Scheduler) RunFor(d Duration) Time { return s.RunUntil(s.now + d) }

// Ticker fires a callback at a fixed interval of virtual time.
type Ticker struct {
	s        *Scheduler
	interval Duration
	fn       func()
	ev       *Event
	tick     func() // wraps fn; allocated once, shared by every re-arm
	stopped  bool
}

// rearm reschedules the just-fired Event in place: no allocation on the
// steady-state tick path.
func (t *Ticker) rearm() {
	e := t.ev
	// The event fired (departed bit set) and was not cancelled — tick
	// checked t.stopped before calling us — so the reset cannot race a
	// counted cancellation.
	e.state.Store(0)
	e.At, e.seq = t.s.now+t.interval, t.s.seq
	t.s.seq++
	t.s.stats.Reused++
	t.s.schedule(e)
}

// Stop cancels future ticks. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.ev.Cancel()
}
