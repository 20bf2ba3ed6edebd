package simtime

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// engineWorkload runs a randomized cross-lane ping workload on nine lanes,
// each drawing from its own stream (LaneRand), and returns a text log of
// every event execution: (lane, time, payload) lines in execution order per
// lane, concatenated lane-major, plus the engine's counters.
func engineWorkload(t *testing.T) (string, EngineStats) {
	t.Helper()
	const (
		parts     = 9
		lookahead = time.Millisecond
	)
	e := NewEngine(42, parts, 1, lookahead)
	logs := make([]*strings.Builder, parts)
	rngs := make([]*rand.Rand, parts)
	for p := 0; p < parts; p++ {
		logs[p] = &strings.Builder{}
		rngs[p] = e.LaneRand(p)
	}
	var hop func(p, ttl int) func()
	hop = func(p, ttl int) func() {
		return func() {
			sched := e.Part(p)
			fmt.Fprintf(logs[p], "p%d %v ttl=%d r=%d\n", p, sched.Now(), ttl, rngs[p].Intn(1000))
			if ttl == 0 {
				return
			}
			// Local follow-up below the lookahead, then a cross-lane hop
			// stamped exactly one link latency (≥ lookahead) out.
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

// TestEngineWorkloadGolden: the nine lanes of engineWorkload, on one
// scheduler, log what nine partitions of their own logged.
// testdata/engine_workload.txt is that partitioned engine's log, each
// partition drawing from the stream LaneRand gives its lane; it is a frozen
// reference, not regenerated from this engine. The windows and messages are
// the partitioned run's too; the one inbox holds what nine held, so its
// largest flush is 9 where the largest of nine was 4.
func TestEngineWorkloadGolden(t *testing.T) {
	got, st := engineWorkload(t)
	want, err := os.ReadFile("testdata/engine_workload.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("lane log differs from testdata/engine_workload.txt:\n%s", got)
	}
	if !strings.Contains(got, "ttl=0") {
		t.Fatalf("workload never completed a hop chain:\n%s", got)
	}
	if wantStats := (EngineStats{Windows: 20, Messages: 108, MaxInbox: 9}); st != wantStats {
		t.Errorf("stats %+v, want %+v", st, wantStats)
	}
	if again, st2 := engineWorkload(t); again != got || st2 != st {
		t.Error("a second run of the same seed diverges")
	}
}

// TestEngineStartsNoGoroutine: an engine built with a worker argument of 8
// runs every window on the calling goroutine. Event handlers sample the
// goroutine count, which must never exceed its value before the run.
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
	if st := e.Stats(); st.Windows == 0 || st.Messages == 0 {
		t.Fatalf("stats %+v: want windows and cross-lane messages", st)
	}
	if most > before {
		t.Fatalf("%d goroutines during the run, %d before it", most, before)
	}
}

// TestEngineStatsCountWindows pins each counter on a hand-countable run: two
// lanes, three messages from one to the other, then a reply.
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
	// Windows at 1ms (both lanes), 2ms (lane 1's three messages), 5ms
	// (lane 1) and 6ms (lane 0's reply).
	want := EngineStats{Windows: 4, Messages: 4, MaxInbox: 3}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

// TestEngineFlushOrdersLanesOnOnePartition: lanes post in the order their
// events run, but equal deadlines arrive in lane order, as they did from
// partitions of their own, and one lane's posts keep their post order.
func TestEngineFlushOrdersLanesOnOnePartition(t *testing.T) {
	e := NewEngine(1, 1, 1, time.Millisecond)
	s := e.Part(0)
	var got []string
	post := func(lane int, tag string) {
		e.Post(lane, 0, s.Now()+time.Millisecond, func() { got = append(got, tag) })
	}
	s.FireAfter(time.Millisecond, func() { post(2, "lane2-a"); post(2, "lane2-b") })
	s.FireAfter(time.Millisecond, func() { post(1, "lane1") })
	e.RunFor(time.Second)
	if want := "[lane1 lane2-a lane2-b]"; fmt.Sprint(got) != want {
		t.Fatalf("equal-deadline posts fired %v, want %s", got, want)
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

// TestEngineFlushSteadyStateAllocs: once the inbox, wheels and free lists
// have grown to the load, posting, flushing and running a window allocate
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

// TestEnginePartitionRNGSplit: lane l's stream is the one a scheduler
// seeded seed^l draws, the seed a partition of its own had. Lane 0's is the
// engine scheduler's, and other lanes diverge from it.
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
	// Fill lanes with events that are all cancelled before the run: idle
	// detection must see through the ghosts instead of spinning.
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
	if e.Fired() != 0 || e.Stats().Windows != 0 {
		t.Fatalf("Fired = %d, windows = %d, want 0 and 0", e.Fired(), e.Stats().Windows)
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
