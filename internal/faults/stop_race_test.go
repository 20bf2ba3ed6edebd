package faults

import (
	"sync/atomic"
	"testing"
	"time"

	"ustore/internal/simtime"
)

// logLen reads the injector's log length under its lock.
func logLen(in *Injector) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.log)
}

// TestStopMidScheduleRace stops an injector from a different goroutine
// than the one driving the scheduler, while fault events are firing, and
// asserts that no action fires and no log entry appears after Stop
// returns. Run under -race (CI does) to audit the synchronization.
func TestStopMidScheduleRace(t *testing.T) {
	sched := simtime.NewScheduler(42)
	var actions atomic.Uint64
	act := Actions{
		CrashHost:   func(string) { actions.Add(1) },
		RestoreHost: func(string) { actions.Add(1) },
		FailDisk:    func(string) { actions.Add(1) },
		ReplaceDisk: func(string) { actions.Add(1) },
		FailHub:     func(string) { actions.Add(1) },
		ReplaceHub:  func(string) { actions.Add(1) },
	}
	in := NewInjector(sched, act,
		[]string{"h1", "h2", "h3"},
		[]string{"d1", "d2", "d3", "d4"},
		[]string{"hub1", "hub2"})
	// Compress every clock so events fire densely while we race Stop.
	in.HostMTTFOverride = time.Minute
	in.HostRepair = 30 * time.Second
	in.DiskMTTFOverride = time.Minute
	in.DiskMTTR = 30 * time.Second
	in.HubMTTFOverride = time.Minute
	in.HubMTTR = 30 * time.Second
	in.Start()

	// A self-rescheduling tick keeps the queue non-empty forever, so the
	// driver is still mid-schedule whenever Stop lands.
	var tick func()
	tick = func() { sched.After(time.Second, tick) }
	tick()

	var quit atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !quit.Load() && sched.Step() {
		}
	}()

	// Let some faults fire, then stop the injector from this goroutine
	// while the driver keeps stepping.
	for actions.Load() < 10 {
		time.Sleep(time.Millisecond)
	}
	in.Stop()
	before := logLen(in)
	fired := actions.Load()

	// Give the driver real time to run far past the Stop point.
	time.Sleep(20 * time.Millisecond)
	if got := actions.Load(); got != fired {
		t.Fatalf("action fired after Stop returned: %d -> %d", fired, got)
	}
	if got := logLen(in); got != before {
		t.Fatalf("log grew after Stop returned: %d -> %d", before, got)
	}

	quit.Store(true)
	<-done
}

// TestStopFromSchedulerGoroutine keeps the seed behaviour working: Stop
// called from inside an event callback halts all further injection.
func TestStopFromSchedulerGoroutine(t *testing.T) {
	sched := simtime.NewScheduler(7)
	var actions int
	bump := func(string) { actions++ }
	in := NewInjector(sched, Actions{CrashHost: bump, RestoreHost: bump},
		[]string{"h1", "h2"}, nil, nil)
	in.HostMTTFOverride = time.Minute
	in.HostRepair = time.Minute
	in.Start()

	after := -1
	sched.After(10*time.Minute, func() {
		in.Stop()
		after = actions
	})
	sched.RunFor(24 * time.Hour)
	if actions != after {
		t.Fatalf("actions fired after Stop: %d -> %d", after, actions)
	}
	if len(in.log) != after {
		t.Fatalf("log has %d entries, %d actions fired", len(in.log), actions)
	}
}
