package simtime

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// This file proves the timer wheel's ordering theorem empirically: for
// randomized workloads mixing cancellable timers, pooled fire-and-forget
// timers, self-stopping tickers, mid-run cancellations, and RunUntil
// boundaries, the three-tier scheduler fires callbacks in exactly the
// (At, seq) order a single min-heap would. Both schedulers execute the same
// seeded workload; any divergence in the firing log is a wheel bug.

// refSched is the reference: the plain single-heap scheduler this package
// had before the wheel, reduced to its ordering-relevant core.
type refSched struct {
	now Duration
	seq uint64
	q   refQueue
}

type refEvent struct {
	at       Duration
	seq      uint64
	fn       func()
	canceled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

func (r *refSched) at(at Duration, fn func()) *refEvent {
	if at < r.now {
		at = r.now
	}
	e := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.q, e)
	return e
}

func (r *refSched) step() bool {
	for len(r.q) > 0 {
		e := heap.Pop(&r.q).(*refEvent)
		if e.canceled {
			continue
		}
		r.now = e.at
		e.fn()
		return true
	}
	return false
}

func (r *refSched) runUntil(deadline Duration) {
	for {
		for len(r.q) > 0 && r.q[0].canceled {
			heap.Pop(&r.q)
		}
		if len(r.q) == 0 || r.q[0].at > deadline {
			break
		}
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// refTicker mirrors Ticker's semantics: first fire one interval out, fn
// runs before the re-arm, stopping from inside fn suppresses the re-arm.
type refTicker struct {
	r       *refSched
	iv      Duration
	fn      func()
	ev      *refEvent
	stopped bool
}

func (t *refTicker) arm() {
	t.ev = t.r.at(t.r.now+t.iv, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

func (t *refTicker) stop() {
	t.stopped = true
	if t.ev != nil {
		t.ev.canceled = true
	}
}

// schedDriver abstracts the operations the workload performs, so the same
// script drives both schedulers.
type schedDriver interface {
	now() Duration
	after(d Duration, fn func()) (cancel func()) // cancellable timer
	fireAfter(d Duration, fn func())             // pooled, no handle
	every(iv Duration, fn func()) (stop func())
	runUntil(t Duration)
	run()
}

type wheelDriver struct{ s *Scheduler }

func (w wheelDriver) now() Duration { return w.s.Now() }
func (w wheelDriver) after(d Duration, fn func()) func() {
	ev := w.s.After(d, fn)
	return ev.Cancel
}
func (w wheelDriver) fireAfter(d Duration, fn func()) { w.s.FireAfter(d, fn) }
func (w wheelDriver) every(iv Duration, fn func()) func() {
	tk := w.s.Every(iv, fn)
	return tk.Stop
}
func (w wheelDriver) runUntil(t Duration) { w.s.RunUntil(t) }
func (w wheelDriver) run()                { w.s.Run() }

type refDriver struct{ r *refSched }

func (rd refDriver) now() Duration { return rd.r.now }
func (rd refDriver) after(d Duration, fn func()) func() {
	if d < 0 {
		d = 0
	}
	ev := rd.r.at(rd.r.now+d, fn)
	return func() { ev.canceled = true }
}
func (rd refDriver) fireAfter(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	rd.r.at(rd.r.now+d, fn)
}
func (rd refDriver) every(iv Duration, fn func()) func() {
	tk := &refTicker{r: rd.r, iv: iv, fn: fn}
	tk.arm()
	return tk.stop
}
func (rd refDriver) runUntil(t Duration) { rd.r.runUntil(t) }
func (rd refDriver) run() {
	for rd.r.step() {
	}
}

// propertyWorkload runs the seeded random workload on d and returns the
// firing log ("id@virtualNanos" per fired callback). Both schedulers make
// identical rng draws as long as they fire callbacks in identical order, so
// a single diverging pop snowballs into an obvious log mismatch.
func propertyWorkload(d schedDriver, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	record := func(id int) { log = append(log, fmt.Sprintf("%d@%d", id, d.now())) }

	// Delays hit every tier: sub-granularity, exact slot edges, the wheel
	// horizon, and far beyond it.
	delays := []Duration{
		0, 1, 500 * time.Nanosecond, time.Microsecond,
		wheelGranularity - 1, wheelGranularity, wheelGranularity + 1,
		5 * time.Millisecond, 100 * time.Millisecond, time.Second,
		wheelSpan - time.Millisecond, wheelSpan, wheelSpan + time.Millisecond,
		10 * time.Second, time.Hour,
	}

	nextID := 0
	spawned := 0
	const maxSpawn = 2500
	var cancels []func()
	var spawn func()
	spawn = func() {
		if spawned >= maxSpawn {
			return
		}
		spawned++
		id := nextID
		nextID++
		delay := delays[rng.Intn(len(delays))]
		if rng.Intn(2) == 0 {
			delay += Duration(rng.Int63n(int64(3 * time.Millisecond)))
		}
		fn := func() {
			record(id)
			for k := rng.Intn(3); k > 0; k-- {
				spawn()
			}
			if len(cancels) > 0 && rng.Intn(4) == 0 {
				cancels[rng.Intn(len(cancels))]() // may hit fired events: must be a no-op
			}
		}
		if rng.Intn(2) == 0 {
			d.fireAfter(delay, fn)
		} else {
			cancels = append(cancels, d.after(delay, fn))
		}
	}

	for i := 0; i < 120; i++ {
		spawn()
	}
	for i := 0; i < 6; i++ {
		iv := Duration(1 + rng.Int63n(int64(700*time.Millisecond)))
		remaining := 3 + rng.Intn(8)
		id := nextID
		nextID++
		var stop func()
		stop = d.every(iv, func() {
			record(id)
			remaining--
			if remaining == 0 {
				stop()
			}
		})
	}

	// Drain in stages so insertions land in an advanced, partially drained
	// wheel (exercising rebase and far-queue migration), with RunUntil
	// boundaries that stop between events.
	d.runUntil(1500 * time.Millisecond)
	for i := 0; i < 60; i++ {
		spawn()
	}
	d.runUntil(1500*time.Millisecond + 2*wheelSpan + time.Millisecond/2)
	for i := 0; i < 60; i++ {
		spawn()
	}
	d.run()
	return log
}

func TestWheelMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		wheel := propertyWorkload(wheelDriver{s: NewScheduler(0)}, seed)
		ref := propertyWorkload(refDriver{r: &refSched{}}, seed)
		if len(wheel) == 0 {
			t.Fatalf("seed %d: workload fired nothing", seed)
		}
		if len(wheel) != len(ref) {
			t.Fatalf("seed %d: wheel fired %d events, reference %d", seed, len(wheel), len(ref))
		}
		for i := range wheel {
			if wheel[i] != ref[i] {
				lo := i - 3
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("seed %d: firing order diverges at %d:\nwheel %v\nref   %v",
					seed, i, wheel[lo:i+1], ref[lo:i+1])
			}
		}
	}
}

// TestSchedulerStats checks the Stats counters against a workload with known
// composition: pooled timers recycle, handle timers don't, tickers reuse one
// event across re-arms, and every Cancel of a queued event is counted.
func TestSchedulerStats(t *testing.T) {
	s := NewScheduler(0)

	// 100 sequential pooled timers: one Event object serves them all.
	var chain func(n int)
	chain = func(n int) {
		if n == 0 {
			return
		}
		s.FireAfter(time.Millisecond, func() { chain(n - 1) })
	}
	chain(100)
	// A ticker re-arming 50 times reuses its event in place.
	ticks := 0
	var tk *Ticker
	tk = s.Every(time.Millisecond, func() {
		ticks++
		if ticks == 50 {
			tk.Stop()
		}
	})
	s.Run()

	st := s.Stats()
	if st.Fired != 150 {
		t.Fatalf("Fired = %d, want 150", st.Fired)
	}
	if st.Recycled != 100 {
		t.Fatalf("Recycled = %d, want 100 (every pooled timer)", st.Recycled)
	}
	// 99 free-list draws by the chain plus 49 ticker re-arms.
	if st.Reused != 148 {
		t.Fatalf("Reused = %d, want 148", st.Reused)
	}
	if st.Allocated > 3 {
		t.Fatalf("Allocated = %d, want <= 3 (free list must be reused)", st.Allocated)
	}
	if st.MaxPending < 1 {
		t.Fatalf("MaxPending = %d", st.MaxPending)
	}

	// Mass cancellation, then a second Cancel of each: only the first counts.
	s2 := NewScheduler(0)
	evs := make([]*Event, 2000)
	for i := range evs {
		evs[i] = s2.After(Duration(i)*time.Microsecond, func() {})
	}
	for _, e := range evs[:1900] {
		e.Cancel()
		e.Cancel()
	}
	s2.Run()
	st2 := s2.Stats()
	if st2.Fired != 100 {
		t.Fatalf("Fired = %d after cancellation, want 100", st2.Fired)
	}
	if st2.CanceledDropped != 1900 {
		t.Fatalf("CanceledDropped = %d, want 1900 (one per Cancel of a queued event)", st2.CanceledDropped)
	}
}
