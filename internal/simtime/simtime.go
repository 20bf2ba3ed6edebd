// Package simtime provides a deterministic discrete-event simulation clock.
//
// All UStore simulation components share one Scheduler. Time is virtual: the
// scheduler pops the earliest pending event, advances the clock to the event's
// deadline, and runs the event's callback. A Scheduler belongs to one
// goroutine, the one driving Run/Step, and every callback runs on it.
// Because every state change happens inside an event callback, components
// need no locking and every run with the same seed is bit-for-bit
// reproducible.
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
// heap's, which TestWheelMatchesReferenceHeap verifies.
//
// Cancel takes an event out of the queue at once. Its tier follows from its
// deadline by the same rule that placed it; ready and far remove it by heap
// index, and a wheel slot swap-removes it by its position in the slot. A
// slot that empties, by promotion or by Cancel, hands its array to a spare
// list that the next slot to fill takes from, so a warm scheduler's wheel
// allocates nothing however far the clock walks.
//
// Event structs are pooled on a free list. Only events that never escape to
// a caller — FireAfter and the receiver forms FireAtR/FireAfterR, used by hot
// paths like simnet delivery — and events whose holder gave the handle back
// with Release are recycled, so a stale handle can never cancel a reused
// event. Tickers go one step further and re-arm their own event in place,
// making steady-state periodic load allocation-free.
package simtime

import (
	"fmt"
	"math/bits"
	"math/rand"
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
	// slotCap is a new slot array's capacity: a fleet's one scheduler holds
	// several events per millisecond, which append would otherwise regrow
	// through capacities 1, 2 and 4 in every slot that fills for the first
	// time.
	slotCap = 8
)

// notQueued is the index of an event that is in no tier: fired, cancelled,
// or on the free list.
const notQueued = -1

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

	fire   Firer      // runs when the clock reaches At
	seq    uint64     // tie-break: FIFO among events with equal deadline
	s      *Scheduler // owner, whose queue Cancel takes the event out of
	index  int32      // position in its heap or wheel slot, or notQueued
	pooled bool       // no handle refers to the event: recycle it when it leaves the queue
}

// Cancel takes the event out of the queue, so it never fires. Cancelling an
// event that already fired or was cancelled is a no-op, and so is a nil
// event.
func (e *Event) Cancel() {
	if e == nil || e.index == notQueued {
		return
	}
	e.s.remove(e)
	e.s.stats.CanceledDropped++
}

// Release gives the handle back: the caller promises never to touch the
// event again, so the scheduler recycles it once it leaves the queue — at
// once if it already has, by firing or by Cancel. Release is a no-op on nil.
func (e *Event) Release() {
	if e == nil {
		return
	}
	if e.index == notQueued {
		e.s.recycle(e)
		return
	}
	e.pooled = true
}

// eventQueue is a binary min-heap of events in (At, seq) order; each
// event's index is its position in the heap.
type eventQueue []*Event

// before reports whether e fires before o: seq is unique per scheduler, so
// this is a total order and any heap pops the same sequence.
func (e *Event) before(o *Event) bool {
	return e.At < o.At || e.At == o.At && e.seq < o.seq
}

func (q *eventQueue) push(e *Event) {
	*q = append(*q, e)
	q.up(len(*q)-1, e)
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() *Event { return q.removeAt(0) }

// removeAt removes and returns the event at position i.
func (q *eventQueue) removeAt(i int) *Event {
	h := *q
	n := len(h) - 1
	e := h[i]
	if last := h[n]; i != n {
		if !h[:n].down(i, last) {
			h.up(i, last)
		}
	}
	h[n] = nil
	*q = h[:n]
	e.index = notQueued
	return e
}

// up places e at position j or above it, moving the later parents down.
func (q eventQueue) up(j int, e *Event) {
	for j > 0 {
		i := (j - 1) / 2
		p := q[i]
		if !e.before(p) {
			break
		}
		q[j], p.index = p, int32(j)
		j = i
	}
	q[j], e.index = e, int32(j)
}

// down places e at position i or below it, moving the earlier children up.
// It reports whether e moved below i.
func (q eventQueue) down(i int, e *Event) bool {
	i0 := i
	for {
		j := 2*i + 1
		if j >= len(q) {
			break
		}
		if r := j + 1; r < len(q) && q[r].before(q[j]) {
			j = r
		}
		c := q[j]
		if !c.before(e) {
			break
		}
		q[i], c.index = c, int32(i)
		i = j
	}
	q[i], e.index = e, int32(i)
	return i > i0
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
	CanceledDropped uint64 // Cancel calls that took a queued event out
	MaxPending      int    // high-water mark of Pending()
}

// Scheduler is a discrete-event scheduler with a virtual clock and a seeded
// random source. The zero value is not usable; call NewScheduler.
//
// A Scheduler belongs to one goroutine: every method, and Cancel and Release
// on its events, must be called from the goroutine driving Run/Step (which
// is also the goroutine event callbacks run on). This is deliberate —
// single-threaded event execution is what makes simulations deterministic —
// and it is why nothing here locks.
type Scheduler struct {
	now Time
	seq uint64
	rng *rand.Rand

	// near/far event structure; see the package comment. A slot's entry in
	// slots is its own only while its bitmap bit is set; an emptied slot's
	// array belongs to spare.
	ready   eventQueue
	slots   [wheelSlotCount][]*Event
	bitmap  [wheelSlotCount / 64]uint64
	spare   [][]*Event // arrays of emptied slots, for the next slot to fill
	base    Time       // wheel origin; slot i covers [base+i·G, base+(i+1)·G)
	cursor  int        // slots below cursor have been promoted
	slotEnd Time       // = base + cursor·G; every event below it is in ready (or fired)
	wheel   int        // events currently in wheel slots
	far     eventQueue

	free []*Event // recycled pooled events

	fired uint64
	stats Stats
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

// Pending returns the number of events waiting to fire. A cancelled event
// has left the queue, so it is not counted.
func (s *Scheduler) Pending() int { return len(s.ready) + s.wheel + len(s.far) }

// NextEventAt returns the deadline of the earliest pending event. ok is
// false when none remain.
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
	return &Event{s: s, index: notQueued}
}

// recycle returns an event that has left the queue to the free list. Only
// events whose handle never escaped (FireAfter, FireAtR, FireAfterR) or was
// given back (Release) are recycled, so no caller can hold a reference to a
// reused Event.
func (s *Scheduler) recycle(e *Event) {
	e.fire = nil
	e.pooled = false
	s.free = append(s.free, e)
	s.stats.Recycled++
}

// schedule places an armed event into the tier its deadline selects.
func (s *Scheduler) schedule(e *Event) {
	switch {
	case e.At < s.slotEnd:
		s.ready.push(e)
		s.stats.ReadyInserts++
	case e.At < s.base+wheelSpan:
		s.wheelInsert(e)
		s.stats.WheelInserts++
	default:
		s.far.push(e)
		s.stats.FarInserts++
	}
	if p := s.Pending(); p > s.stats.MaxPending {
		s.stats.MaxPending = p
	}
}

// remove takes a queued event out of its tier. schedule's rule still names
// that tier: promotion and rebase move the window only past events they
// move to the tier the rule then selects.
func (s *Scheduler) remove(e *Event) {
	switch {
	case e.At < s.slotEnd:
		s.ready.removeAt(int(e.index))
	case e.At < s.base+wheelSpan:
		s.wheelRemove(e)
	default:
		s.far.removeAt(int(e.index))
	}
}

func (s *Scheduler) slotOf(at Time) int { return int((at - s.base) / wheelGranularity) }

func (s *Scheduler) wheelInsert(e *Event) {
	idx := s.slotOf(e.At)
	if w, bit := idx>>6, uint64(1)<<uint(idx&63); s.bitmap[w]&bit == 0 {
		s.bitmap[w] |= bit
		// The slot's last array, if any, belongs to spare.
		if n := len(s.spare); n > 0 {
			s.slots[idx] = s.spare[n-1]
			s.spare[n-1] = nil
			s.spare = s.spare[:n-1]
		} else {
			s.slots[idx] = make([]*Event, 0, slotCap)
		}
	}
	e.index = int32(len(s.slots[idx]))
	s.slots[idx] = append(s.slots[idx], e)
	s.wheel++
}

// wheelRemove swap-removes e from its slot.
func (s *Scheduler) wheelRemove(e *Event) {
	idx := s.slotOf(e.At)
	slot := s.slots[idx]
	last := len(slot) - 1
	moved := slot[last]
	slot[e.index] = moved
	moved.index = e.index
	slot[last] = nil
	e.index = notQueued
	s.slots[idx] = slot[:last]
	s.wheel--
	if last == 0 {
		s.freeSlot(idx)
	}
}

// freeSlot marks an emptied slot unoccupied and hands its array to spare.
func (s *Scheduler) freeSlot(idx int) {
	s.bitmap[idx>>6] &^= 1 << uint(idx&63)
	s.spare = append(s.spare, s.slots[idx][:0])
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

// peekNext returns the earliest pending event without removing it, or nil.
// When ready is empty it first moves the wheel window forward: it rebases
// at the earliest far deadline if the wheel is empty too, then promotes the
// next occupied slot. An occupied slot holds at least one event, so one
// promotion refills ready.
func (s *Scheduler) peekNext() *Event {
	if len(s.ready) > 0 {
		return s.ready[0]
	}
	if s.wheel == 0 {
		if len(s.far) == 0 {
			return nil
		}
		// Rebase the window at the earliest far deadline and pull
		// everything within one span into the wheel. far deadlines are
		// always at or beyond the old horizon, so base never regresses.
		at := s.far[0].At
		s.base = at - at%wheelGranularity
		s.cursor = 0
		s.slotEnd = s.base
		for horizon := s.base + wheelSpan; len(s.far) > 0 && s.far[0].At < horizon; {
			s.wheelInsert(s.far.pop())
			s.stats.Migrated++
		}
	}
	idx := s.nextOccupied(s.cursor)
	bucket := s.slots[idx]
	s.cursor = idx + 1
	s.slotEnd = s.base + Duration(idx+1)*wheelGranularity
	s.wheel -= len(bucket)
	for i, e := range bucket {
		bucket[i] = nil
		s.ready.push(e)
	}
	s.freeSlot(idx)
	return s.ready[0]
}

// At schedules fn to run at absolute virtual time at. If at is in the past it
// fires at the current time (events never run the clock backwards).
func (s *Scheduler) At(at Time, fn func()) *Event { return s.arm(at, asFirer(fn), false) }

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) After(d Duration, fn func()) *Event { return s.AfterR(d, asFirer(fn)) }

// FireAfter schedules fn to run d from now, like After, but returns no
// handle. Because the event can never be cancelled or inspected, the
// scheduler recycles its Event struct through a free list — hot paths that
// fire and forget should prefer this over After to avoid one allocation per
// event. Negative d is treated as zero.
func (s *Scheduler) FireAfter(d Duration, fn func()) { s.FireAfterR(d, asFirer(fn)) }

// AfterR, FireAtR and FireAfterR take a receiver in place of a callback.
func (s *Scheduler) AfterR(d Duration, f Firer) *Event { return s.arm(s.now+max(d, 0), f, false) }
func (s *Scheduler) FireAtR(at Time, f Firer)          { s.arm(at, f, true) }
func (s *Scheduler) FireAfterR(d Duration, f Firer)    { s.arm(s.now+max(d, 0), f, true) }

func asFirer(fn func()) Firer {
	if fn == nil {
		panic("simtime: nil event callback")
	}
	return funcFirer(fn)
}

// arm schedules f at at (clamped to now); a pooled event is recycled when
// it fires.
func (s *Scheduler) arm(at Time, f Firer, pooled bool) *Event {
	e := s.alloc()
	e.At, e.fire, e.seq, e.pooled = max(at, s.now), f, s.seq, pooled
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
	if s.peekNext() == nil {
		return false
	}
	e := s.ready.pop()
	s.now = e.At
	s.fired++
	f := e.fire
	if e.pooled {
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
		if at, ok := s.NextEventAt(); !ok || at > deadline {
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
	e.At, e.seq = t.s.now+t.interval, t.s.seq
	t.s.seq++
	t.s.stats.Reused++
	t.s.schedule(e)
}

// Stop cancels future ticks. Safe to call multiple times, and from the
// ticker's own callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.ev.Cancel()
}
