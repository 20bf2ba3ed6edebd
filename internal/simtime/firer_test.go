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

// TestWheelWalkAllocatesNothing: emptied wheel slots hand their arrays on,
// so once a warm pass has filled the spare list, walking the clock across
// more than the wheel's 4 096 distinct milliseconds allocates nothing: no
// slot needs an array of its own. The warm pass starts 50ms short of the
// wheel horizon and crosses one rebase, so it sizes the far heap but touches
// only about a hundred slots.
func TestWheelWalkAllocatesNothing(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 4; i++ {
		s.FireAfterR(wheelSpan-50*time.Millisecond+time.Duration(i)*250*time.Microsecond, &hopper{s: s})
	}
	s.RunFor(wheelSpan + 50*time.Millisecond)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.RunFor(2 * wheelSpan)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("walking %v of a warm wheel allocated %d objects, want 0", 2*wheelSpan, n)
	}
	if st := s.Stats(); st.Migrated == 0 || st.CanceledDropped == 0 {
		t.Fatalf("the walk missed a rebase or Cancel: %+v", st)
	}
}
