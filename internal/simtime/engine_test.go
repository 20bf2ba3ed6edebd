package simtime

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestEngineStartsNoGoroutine: an engine built with a worker argument of 8
// runs every event on the calling goroutine. Event handlers sample the
// goroutine count, which must never exceed its value before the run.
func TestEngineStartsNoGoroutine(t *testing.T) {
	const parts = 8
	e := NewEngine(1, parts, 8, time.Millisecond)
	before := runtime.NumGoroutine()
	most, posted := 0, 0
	for p := 0; p < parts; p++ {
		s := e.Part(p)
		s.Every(100*time.Microsecond, func() {
			most = max(most, runtime.NumGoroutine())
			e.Post(p, (p+1)%parts, s.Now()+e.Lookahead(), func() { posted++ })
		})
	}
	e.RunFor(100 * time.Millisecond)
	if posted == 0 {
		t.Fatal("no posted event ran")
	}
	if most > before {
		t.Fatalf("%d goroutines during the run, %d before it", most, before)
	}
}

// TestEngineClockNeverRunsBackwards: like Scheduler.RunUntil, a deadline
// before Now() runs nothing and leaves the engine clock where it was.
func TestEngineClockNeverRunsBackwards(t *testing.T) {
	e := NewEngine(1, 2, 1, time.Millisecond)
	e.RunFor(10 * time.Millisecond)
	if got := e.RunUntil(5 * time.Millisecond); got != 10*time.Millisecond || e.Part(0).Now() != got {
		t.Fatalf("RunUntil(5ms) at 10ms returned %v, Now %v; want 10ms for both", got, e.Part(0).Now())
	}
	if got := e.RunFor(-time.Second); got != 10*time.Millisecond || e.Part(0).Now() != got {
		t.Fatalf("RunFor(-1s) at 10ms returned %v, Now %v; want 10ms for both", got, e.Part(0).Now())
	}
	fired := false
	e.Part(1).FireAfter(time.Millisecond, func() { fired = true })
	if got := e.RunFor(2 * time.Millisecond); got != 12*time.Millisecond || !fired {
		t.Fatalf("RunFor(2ms) returned %v with fired=%v; want 12ms and the 11ms event run", got, fired)
	}
}

// TestEnginePostIsAnEvent: a post is an ordinary event on the one
// scheduler, so equal deadlines fire in post order whatever the source
// argument says.
func TestEnginePostIsAnEvent(t *testing.T) {
	e := NewEngine(1, 3, 1, time.Millisecond)
	s := e.Part(0)
	var got []int
	s.FireAfter(time.Millisecond, func() {
		for _, src := range []int{2, 1, 0} {
			e.Post(src, 0, s.Now()+e.Lookahead(), func() { got = append(got, src) })
		}
		s.FireAfter(e.Lookahead(), func() { got = append(got, -1) })
	})
	e.RunFor(time.Second)
	if want := []int{2, 1, 0, -1}; !slices.Equal(got, want) {
		t.Fatalf("equal-deadline events fired %v, want %v", got, want)
	}
}

// TestEnginePostSteadyStateAllocs: once the queue and the event free list
// have grown to the load, posting and running allocate nothing: a post is
// FireAtR into a pooled event.
func TestEnginePostSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1, 3, 8, time.Millisecond)
	noop := func() {}
	round := func() {
		at := e.Part(0).Now() + e.Lookahead()
		for src := 0; src < 3; src++ {
			for i := 0; i < 16; i++ {
				e.Post(src, (src+1)%3, at, noop)
			}
		}
		e.RunUntil(at)
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("steady-state post and run allocates %.1f times per round, want 0", allocs)
	}
}

// TestEnginePartitionRNGSplit: lane l's stream is the one a scheduler
// seeded seed^l draws. Lane 0's is the engine scheduler's, and other lanes
// diverge from it.
func TestEnginePartitionRNGSplit(t *testing.T) {
	e := NewEngine(7, 3, 1, time.Millisecond)
	for lane := 0; lane < 3; lane++ {
		r, ref := e.LaneRand(lane), NewScheduler(7^int64(lane))
		for i := 0; i < 8; i++ {
			if got, want := r.Int63(), ref.Rand().Int63(); got != want {
				t.Fatalf("lane %d draw %d = %d, want %d", lane, i, got, want)
			}
		}
	}
	if e.Part(0).Rand().Int63() != NewScheduler(7).Rand().Int63() {
		t.Fatal("the engine scheduler's stream is not the seed's")
	}
	if e.LaneRand(1).Int63() == NewScheduler(7).Rand().Int63() {
		t.Fatal("lane 1's stream matches the unsplit seed stream")
	}
}

func TestEngineIdleWithCancelledEvents(t *testing.T) {
	e := NewEngine(3, 4, 2, time.Millisecond)
	// Fill the scheduler with events that are all cancelled before the
	// run: idle detection must see through the ghosts instead of spinning.
	for lane := 0; lane < 4; lane++ {
		for i := 0; i < 500; i++ {
			e.Part(lane).After(time.Duration(i)*time.Millisecond, func() {
				t.Error("cancelled event fired")
			}).Cancel()
		}
	}
	if got, ok := e.Part(0).NextEventAt(); ok {
		t.Fatalf("NextEventAt = %v on an all-cancelled engine, want idle", got)
	}
	e.RunFor(10 * time.Second)
	if got := e.Part(0).Fired(); got != 0 {
		t.Fatalf("Fired = %d, want 0", got)
	}
	if got := e.Part(0).Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	for _, lookahead := range []Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEngine(lookahead=%v) did not panic", lookahead)
				}
			}()
			NewEngine(1, 2, 1, lookahead)
		}()
	}
}
