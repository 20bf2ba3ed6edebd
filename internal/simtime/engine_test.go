package simtime

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// engineWorkload runs a randomized cross-partition ping workload on an
// engine built with the given worker argument and returns a text log of
// every event execution: (partition, time, payload) lines in execution order
// per partition, concatenated partition-major, plus the engine's counters.
func engineWorkload(t *testing.T, workers int) (string, EngineStats) {
	t.Helper()
	const (
		parts     = 9
		lookahead = time.Millisecond
	)
	e := NewEngine(42, parts, workers, lookahead)
	logs := make([]*strings.Builder, parts)
	rngs := make([]*rand.Rand, parts)
	for p := 0; p < parts; p++ {
		logs[p] = &strings.Builder{}
		rngs[p] = e.Part(p).Rand()
	}
	var hop func(p, ttl int) func()
	hop = func(p, ttl int) func() {
		return func() {
			sched := e.Part(p)
			fmt.Fprintf(logs[p], "p%d %v ttl=%d r=%d\n", p, sched.Now(), ttl, rngs[p].Intn(1000))
			if ttl == 0 {
				return
			}
			// Local follow-up below the lookahead, then a cross-partition
			// hop stamped exactly one link latency (≥ lookahead) out.
			sched.FireAfter(200*time.Microsecond, func() {
				fmt.Fprintf(logs[p], "p%d %v local\n", p, sched.Now())
			})
			dst := (p + 1 + ttl) % parts
			if dst == p {
				dst = (p + 1) % parts
			}
			e.Post(p, dst, sched.Now()+lookahead, hop(dst, ttl-1))
		}
	}
	for p := 0; p < parts; p++ {
		e.Part(p).FireAfter(time.Duration(p+1)*time.Millisecond, hop(p, 12))
	}
	e.RunFor(time.Second)
	var all strings.Builder
	for p := 0; p < parts; p++ {
		all.WriteString(logs[p].String())
	}
	fmt.Fprintf(&all, "fired=%d now=%v\n", e.Fired(), e.now)
	return all.String(), e.Stats()
}

func TestEngineByteDeterminismAcrossWorkers(t *testing.T) {
	want, wantStats := engineWorkload(t, 1)
	if !strings.Contains(want, "ttl=0") {
		t.Fatalf("workload never completed a hop chain:\n%s", want)
	}
	if wantStats.Windows == 0 || wantStats.Messages == 0 {
		t.Fatalf("workers=1 stats %+v: want windows and messages", wantStats)
	}
	// The worker argument is ignored; these runs show it stays inert.
	for _, workers := range []int{2, 4, 8} {
		got, st := engineWorkload(t, workers)
		if got != want {
			t.Errorf("workers=%d log diverges from workers=1", workers)
		}
		if st != wantStats {
			t.Errorf("workers=%d stats %+v, want %+v", workers, st, wantStats)
		}
	}
}

// TestEngineStartsNoGoroutine: a multi-partition engine built with a
// worker argument of 8 runs every window on the calling goroutine. Event
// handlers sample the goroutine count, which must never exceed its value
// before the run.
func TestEngineStartsNoGoroutine(t *testing.T) {
	const parts = 8
	e := NewEngine(1, parts, 8, time.Millisecond)
	before := runtime.NumGoroutine()
	most := 0
	for p := 0; p < parts; p++ {
		s := e.Part(p)
		s.Every(100*time.Microsecond, func() {
			most = max(most, runtime.NumGoroutine())
			e.Post(p, (p+1)%parts, s.Now()+e.Lookahead(), func() {})
		})
	}
	e.RunFor(100 * time.Millisecond)
	if e.Stats().Visits <= e.Stats().Windows {
		t.Fatalf("stats %+v: no window had two active partitions", e.Stats())
	}
	if most > before {
		t.Fatalf("%d goroutines during the run, %d before it", most, before)
	}
}

// TestEngineStatsCountWindows pins each counter on a hand-countable run: two
// partitions, three messages into one inbox, then a reply.
func TestEngineStatsCountWindows(t *testing.T) {
	e := NewEngine(1, 2, 1, time.Millisecond)
	e.Part(0).FireAfter(time.Millisecond, func() {
		for i := 0; i < 3; i++ {
			e.Post(0, 1, e.Part(0).Now()+time.Millisecond, func() {})
		}
	})
	e.Part(1).FireAfter(time.Millisecond, func() {})
	e.Part(1).FireAfter(5*time.Millisecond, func() {
		e.Post(1, 0, e.Part(1).Now()+time.Millisecond, func() {})
	})
	e.RunFor(time.Second)
	// Windows at 1ms (both partitions), 2ms (partition 1's three
	// messages), 5ms (partition 1) and 6ms (partition 0's reply).
	want := EngineStats{Windows: 4, Visits: 5, Messages: 4, MaxInbox: 3}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

// TestEngineClockNeverRunsBackwards: like Scheduler.RunUntil, a deadline
// before Now() runs nothing and leaves the engine clock where it was.
func TestEngineClockNeverRunsBackwards(t *testing.T) {
	e := NewEngine(1, 2, 1, time.Millisecond)
	e.RunFor(10 * time.Millisecond)
	if got := e.RunUntil(5 * time.Millisecond); got != 10*time.Millisecond || e.now != got {
		t.Fatalf("RunUntil(5ms) at 10ms returned %v, Now %v; want 10ms for both", got, e.now)
	}
	if got := e.RunFor(-time.Second); got != 10*time.Millisecond || e.now != got {
		t.Fatalf("RunFor(-1s) at 10ms returned %v, Now %v; want 10ms for both", got, e.now)
	}
	fired := false
	e.Part(1).FireAfter(time.Millisecond, func() { fired = true })
	if got := e.RunFor(2 * time.Millisecond); got != 12*time.Millisecond || !fired {
		t.Fatalf("RunFor(2ms) returned %v with fired=%v; want 12ms and the 11ms event run", got, fired)
	}
}

// TestEngineFlushSteadyStateAllocs: once inboxes, wheels and free lists have
// grown to the load, posting, flushing and running a window allocate
// nothing, whatever the ignored worker argument says.
func TestEngineFlushSteadyStateAllocs(t *testing.T) {
	const parts = 3
	for _, workers := range []int{1, 8} {
		e := NewEngine(1, parts, workers, time.Millisecond)
		noop := func() {}
		round := func() {
			at := e.now + e.Lookahead()
			for src := 0; src < parts; src++ {
				for i := 0; i < 16; i++ {
					e.Post(src, (src+1)%parts, at, noop)
				}
			}
			e.RunUntil(at)
		}
		for i := 0; i < 2*wheelSlotCount; i++ { // past a wheel rebase
			round()
		}
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Fatalf("workers=%d: steady-state post+flush+window allocates %.1f times per round, want 0", workers, allocs)
		}
	}
}

func TestEnginePartitionRNGSplit(t *testing.T) {
	e := NewEngine(7, 3, 1, time.Millisecond)
	// Partition 0 must reproduce the plain single-scheduler stream for the
	// same seed; other partitions must diverge from it.
	ref := NewScheduler(7)
	for i := 0; i < 8; i++ {
		if got, want := e.Part(0).Rand().Int63(), ref.Rand().Int63(); got != want {
			t.Fatalf("partition 0 draw %d = %d, want %d", i, got, want)
		}
	}
	if e.Part(1).Rand().Int63() == NewScheduler(7).Rand().Int63() {
		t.Fatal("partition 1 RNG matches the unsplit seed stream")
	}
}

func TestEnginePostBeforeHorizonPanics(t *testing.T) {
	e := NewEngine(1, 2, 1, time.Millisecond)
	e.Part(0).FireAfter(5*time.Millisecond, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("Post below the window horizon did not panic")
				return
			}
			if !strings.Contains(fmt.Sprint(r), "lookahead") {
				t.Errorf("panic message %q does not name the lookahead contract", r)
			}
		}()
		// Stamp inside the current window: a lookahead violation.
		e.Post(0, 1, e.Part(0).Now(), func() {})
	})
	e.RunFor(20 * time.Millisecond)
}

func TestEngineIdleWithCancelledEvents(t *testing.T) {
	e := NewEngine(3, 4, 2, time.Millisecond)
	// Fill partitions with events that are all cancelled before the run:
	// idle detection must see through the ghosts instead of spinning.
	for p := 0; p < e.Parts(); p++ {
		for i := 0; i < 500; i++ {
			e.Part(p).After(time.Duration(i)*time.Millisecond, func() {
				t.Error("cancelled event fired")
			}).Cancel()
		}
	}
	if got, ok := e.lbts(); ok {
		t.Fatalf("lbts = %v on an all-cancelled engine, want idle", got)
	}
	e.RunFor(10 * time.Second)
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
	for p := 0; p < e.Parts(); p++ {
		if got := e.Part(p).Pending(); got != 0 {
			t.Fatalf("partition %d Pending = %d, want 0", p, got)
		}
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		parts     int
		lookahead Duration
	}{{0, time.Millisecond}, {2, 0}, {2, -time.Second}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEngine(parts=%d, lookahead=%v) did not panic", tc.parts, tc.lookahead)
				}
			}()
			NewEngine(1, tc.parts, 1, tc.lookahead)
		}()
	}
}
