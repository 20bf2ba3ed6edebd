package simtime

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestAfterOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-deadline events not FIFO: %v", got)
		}
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	s := NewScheduler(1)
	s.After(5*time.Second, func() {
		s.At(1*time.Second, func() {
			if s.Now() != 5*time.Second {
				t.Errorf("past event ran at %v, want clock held at 5s", s.Now())
			}
		})
	})
	s.Run()
	if s.Now() != 5*time.Second {
		t.Fatalf("final Now() = %v, want 5s", s.Now())
	}
}

func TestNegativeDelayClampsToZero(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	e := s.After(time.Second, func() { fired = true })
	e.Cancel()
	if e.index != notQueued || s.Pending() != 0 {
		t.Fatalf("cancelled event still queued: index %d, Pending() %d", e.index, s.Pending())
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel and nil cancel are no-ops.
	e.Cancel()
	(*Event)(nil).Cancel()
}

func TestCancelWhileQueuedBehindOthers(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	var e2 *Event
	s.After(1*time.Second, func() {
		got = append(got, 1)
		e2.Cancel()
	})
	e2 = s.After(2*time.Second, func() { got = append(got, 2) })
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(5*time.Second, func() { got = append(got, 5) })
	s.RunUntil(3 * time.Second)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("events before deadline: %v, want [1]", got)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want exactly the deadline", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	s.Run()
	if len(got) != 2 {
		t.Fatalf("remaining event did not fire: %v", got)
	}
}

func TestRunForAdvancesEvenWhenIdle(t *testing.T) {
	s := NewScheduler(1)
	s.RunFor(10 * time.Second)
	if s.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s", s.Now())
	}
}

func TestEveryTicksAndStops(t *testing.T) {
	s := NewScheduler(1)
	var ticks []Time
	tk := s.Every(time.Second, func() { ticks = append(ticks, s.Now()) })
	s.RunUntil(3500 * time.Millisecond)
	tk.Stop()
	s.Run()
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", ticks)
	}
	for i, at := range ticks {
		want := time.Duration(i+1) * time.Second
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	tk.Stop() // idempotent
}

func TestTickerStopFromCallback(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil callback")
		}
	}()
	NewScheduler(1).After(time.Second, nil)
}

func TestNonPositiveTickerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero ticker interval")
		}
	}()
	NewScheduler(1).Every(0, func() {})
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (order []int, end Time) {
		s := NewScheduler(42)
		for i := 0; i < 100; i++ {
			i := i
			d := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
			s.After(d, func() { order = append(order, i) })
		}
		end = s.Run()
		return order, end
	}
	o1, e1 := run()
	o2, e2 := run()
	if e1 != e2 {
		t.Fatalf("end times differ: %v vs %v", e1, e2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("orders differ at %d: %v vs %v", i, o1[i], o2[i])
		}
	}
}

func TestFiredCount(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Second, func() {})
	}
	e := s.After(time.Hour, func() {})
	e.Cancel()
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7 (cancelled events excluded)", s.Fired())
	}
}

// Property: regardless of the insertion order of deadlines, events fire in
// nondecreasing deadline order and the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(7)
		var fireTimes []Time
		for _, d := range delays {
			s.After(time.Duration(d)*time.Millisecond, func() {
				fireTimes = append(fireTimes, s.Now())
			})
		}
		s.Run()
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return len(fireTimes) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil never executes an event scheduled after the deadline.
func TestPropertyRunUntilBoundary(t *testing.T) {
	f := func(delays []uint16, deadlineMS uint16) bool {
		s := NewScheduler(7)
		deadline := time.Duration(deadlineMS) * time.Millisecond
		ok := true
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			s.After(at, func() {
				if s.Now() > deadline {
					ok = false
				}
			})
		}
		s.RunUntil(deadline)
		return ok && s.Now() == deadline
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}
