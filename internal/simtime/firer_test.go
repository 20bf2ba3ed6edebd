package simtime

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestEventSize pins Event at 48 bytes, a Go allocation size class. One
// more word rounds every Event up to 64 bytes: adding the receiver field
// beside the old callback field that way raised alloc_mb by 1.1 % on
// restore_storm and 2.0 % on chaos_soak, past the benchmark's 1 % bound.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 48 {
		t.Fatalf("Event is %d bytes, want <= 48", got)
	}
}

type countFirer struct{ n int }

func (c *countFirer) Fire() { c.n++ }

// TestReleaseRecyclesOnDrop: Cancel takes an event out of the queue, so a
// cancelled event given back with Release is reused by the very next arm,
// and the released event itself still never fires. An event released after
// it fired is reused at once too.
func TestReleaseRecyclesOnDrop(t *testing.T) {
	s := NewScheduler(1)
	c := &countFirer{}
	e := s.AfterR(time.Second, c)
	e.Cancel()
	e.Release()
	e2 := s.AfterR(2*time.Second, c)
	if e2 != e {
		t.Fatal("a cancelled, released event was not recycled at once")
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1 (the cancelled arm left the queue)", got)
	}
	s.Run()
	if c.n != 1 {
		t.Fatalf("fired %d times, want 1 (the cancelled arm must not fire)", c.n)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s: only the second arm fired", s.Now())
	}
	e2.Release()
	if e3 := s.AfterR(time.Second, c); e3 != e2 {
		t.Fatal("an event released after firing was not recycled")
	}
}

// TestReceiverEventsAllocateNothing: in steady state a fire-and-forget
// receiver event and a released timeout reuse recycled Event structs, and a
// func adapter boxes its callback without allocating.
func TestReceiverEventsAllocateNothing(t *testing.T) {
	s := NewScheduler(1)
	c := &countFirer{}
	fn := func() { c.n++ }
	step := func() {
		s.FireAfterR(time.Millisecond, c)
		s.FireAfter(time.Millisecond, fn)
		e := s.AfterR(time.Second, c)
		s.RunFor(2 * time.Millisecond)
		e.Cancel()
		e.Release()
		s.RunFor(2 * time.Second)
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if got := testing.AllocsPerRun(100, step); got > 0 {
		t.Fatalf("steady-state receiver events allocate %.1f objects, want 0", got)
	}
	if c.n != 2*109 {
		t.Fatalf("fired %d events, want %d", c.n, 2*109)
	}
}

// hopper keeps one event in flight: each fire cancels and gives back the
// timeout its previous hop armed, arms a fresh one, and hops on a
// millisecond, like an RPC answered before its timeout.
type hopper struct {
	s       *Scheduler
	timeout *Event
}

func (h *hopper) Fire() {
	h.timeout.Cancel()
	h.timeout.Release()
	h.timeout = h.s.AfterR(3*time.Millisecond, h)
	h.s.FireAfterR(time.Millisecond, h)
}

// TestWarmWalkAllocatesNothing: once the queue and the event free list have
// grown to the load, walking the clock for seconds of simulated time
// allocates nothing, although every hop cancels the timeout its previous hop
// armed and arms a fresh one.
func TestWarmWalkAllocatesNothing(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 4; i++ {
		s.FireAfterR(time.Duration(i)*250*time.Microsecond, &hopper{s: s})
	}
	s.RunFor(time.Second)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cancels := s.Stats().CanceledDropped
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.RunFor(8 * time.Second)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("walking 8s of a warm scheduler allocated %d objects, want 0", n)
	}
	if n := s.Stats().CanceledDropped - cancels; n != 4*8000 {
		t.Fatalf("the walk cancelled %d queued timeouts, want one per hop (%d)", n, 4*8000)
	}
}
