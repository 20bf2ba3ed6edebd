package simtime

import (
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

// TestReleaseRecyclesOnDrop: a cancelled event given back with Release stays
// out of the free list while the queue still holds it, so an event armed in
// the meantime is a different struct; once the queue drops it, it is reused.
// An event released after it fired is reused at once.
func TestReleaseRecyclesOnDrop(t *testing.T) {
	s := NewScheduler(1)
	c := &countFirer{}
	e := s.AfterR(time.Second, c)
	e.Cancel()
	e.Release()
	e2 := s.AfterR(2*time.Second, c)
	if e2 == e {
		t.Fatal("a released event was reused while still queued")
	}
	s.Run()
	if c.n != 1 {
		t.Fatalf("fired %d times, want 1 (the released event must not fire)", c.n)
	}
	if e3 := s.AfterR(time.Second, c); e3 != e {
		t.Fatal("a released event was not recycled once dropped")
	}
	s.Run()
	e2.Release()
	if e4 := s.AfterR(time.Second, c); e4 != e2 {
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
