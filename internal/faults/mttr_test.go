package faults

import (
	"testing"
	"time"

	"ustore/internal/simtime"
)

func TestDiskReplacementReArmsFailureClock(t *testing.T) {
	s := simtime.NewScheduler(5)
	var fails, replaces int
	in := NewInjector(s, Actions{
		FailDisk:    func(string) { fails++ },
		ReplaceDisk: func(string) { replaces++ },
	}, nil, []string{"d0", "d1"}, nil)
	in.DiskMTTFOverride = 24 * time.Hour
	in.DiskMTTR = 2 * time.Hour
	in.Start()
	s.RunFor(30 * 24 * time.Hour)
	in.Stop()

	if fails < 4 {
		t.Fatalf("only %d disk failures in 30 days with 1-day MTTF — replacement clock not re-arming", fails)
	}
	if replaces < fails-2 || replaces > fails {
		t.Fatalf("replaces = %d for fails = %d, want one per failure (±in-flight)", replaces, fails)
	}
	// The log interleaves fail/replace per target in order.
	last := make(map[string]Kind)
	for _, ev := range in.log {
		switch ev.Kind {
		case KindDiskFail:
			if k, ok := last[ev.Target]; ok && k == KindDiskFail {
				t.Fatalf("%s failed twice without replacement", ev.Target)
			}
		case KindDiskReplace:
			if last[ev.Target] != KindDiskFail {
				t.Fatalf("%s replaced while not failed", ev.Target)
			}
		}
		last[ev.Target] = ev.Kind
	}
}

func TestHubReplacementReArmsFailureClock(t *testing.T) {
	s := simtime.NewScheduler(9)
	var fails, replaces int
	in := NewInjector(s, Actions{
		FailHub:    func(string) { fails++ },
		ReplaceHub: func(string) { replaces++ },
	}, nil, nil, []string{"hub0"})
	in.HubMTTFOverride = 12 * time.Hour
	in.HubMTTR = time.Hour
	in.Start()
	s.RunFor(20 * 24 * time.Hour)
	in.Stop()
	if fails < 3 || replaces < fails-1 {
		t.Fatalf("fails=%d replaces=%d — hub replacement not re-arming", fails, replaces)
	}
}

func TestZeroMTTRLeavesUnitsDead(t *testing.T) {
	s := simtime.NewScheduler(5)
	var fails, replaces int
	in := NewInjector(s, Actions{
		FailDisk:    func(string) { fails++ },
		ReplaceDisk: func(string) { replaces++ },
	}, nil, []string{"d0"}, nil)
	in.DiskMTTFOverride = 24 * time.Hour
	in.Start()
	s.RunFor(60 * 24 * time.Hour)
	if fails != 1 {
		t.Fatalf("disk failed %d times with no MTTR, want exactly 1", fails)
	}
	if replaces != 0 {
		t.Fatal("replacement fired with zero MTTR")
	}
}

// TestZeroHostRepairRestoresAtOnce: unlike a disk or hub MTTR, a zero
// HostRepair restores a crashed host in the same instant it crashed.
func TestZeroHostRepairRestoresAtOnce(t *testing.T) {
	s := simtime.NewScheduler(5)
	var crashedAt []simtime.Time
	restores := 0
	in := NewInjector(s, Actions{
		CrashHost: func(string) { crashedAt = append(crashedAt, s.Now()) },
		RestoreHost: func(string) {
			if restores++; s.Now() != crashedAt[len(crashedAt)-1] {
				t.Fatalf("host restored at %v, crashed at %v", s.Now(), crashedAt[len(crashedAt)-1])
			}
		},
	}, []string{"h0"}, nil, nil)
	in.HostRepair = 0
	in.HostMTTFOverride = 24 * time.Hour
	in.Start()
	s.RunFor(30 * 24 * time.Hour)
	in.Stop()
	if len(crashedAt) < 2 || restores != len(crashedAt) {
		t.Fatalf("%d crashes, %d restores; want every crash restored and the clock re-armed", len(crashedAt), restores)
	}
}

func TestStopCancelsOutstandingEvents(t *testing.T) {
	s := simtime.NewScheduler(3)
	var crashes int
	in := NewInjector(s, Actions{
		CrashHost: func(string) { crashes++ },
	}, []string{"h0", "h1", "h2"}, nil, nil)
	in.HostMTTFOverride = time.Hour
	in.HostRepair = 10 * time.Minute
	in.Start()
	s.RunFor(3 * time.Hour)
	in.Stop()

	logLen := len(in.log)
	actions := crashes
	pendingBefore := s.Pending()
	s.RunFor(100 * time.Hour)
	if crashes != actions {
		t.Fatalf("actions fired after Stop: %d -> %d", actions, crashes)
	}
	if got := len(in.log); got != logLen {
		t.Fatalf("log grew after Stop: %d -> %d", logLen, got)
	}
	// Stop must actually cancel (not just flag) the events: the scheduler
	// queue drains instead of replaying dead closures forever.
	if s.Pending() > pendingBefore {
		t.Fatalf("pending events grew after Stop: %d -> %d", pendingBefore, s.Pending())
	}
}
