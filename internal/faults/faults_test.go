package faults

import (
	"testing"
	"time"

	"ustore/internal/simtime"
)

func TestInjectorHostCrashAndRecover(t *testing.T) {
	s := simtime.NewScheduler(7)
	crashes, restores := 0, 0
	in := NewInjector(s, Actions{
		CrashHost:   func(string) { crashes++ },
		RestoreHost: func(string) { restores++ },
	}, []string{"h1", "h2", "h3", "h4"}, nil, nil)
	in.Start()
	// A simulated year of 4 hosts at 3.4-month MTTF: expect roughly
	// 4*12/3.4 ≈ 14 crashes; accept a wide band.
	s.RunUntil(365 * 24 * time.Hour)
	in.Stop()
	if crashes < 5 || crashes > 40 {
		t.Fatalf("crashes in a year = %d, expected ~14", crashes)
	}
	if restores < crashes-1 || restores > crashes {
		t.Fatalf("restores = %d for %d crashes", restores, crashes)
	}
	if len(in.log) != crashes+restores {
		t.Fatalf("log length %d", len(in.log))
	}
}

func TestInjectorDiskFailuresAreRare(t *testing.T) {
	s := simtime.NewScheduler(11)
	diskFails := 0
	var disks []string
	for i := 0; i < 64; i++ {
		disks = append(disks, string(rune('a'+i%26)))
	}
	in := NewInjector(s, Actions{
		FailDisk: func(string) { diskFails++ },
	}, nil, disks, nil)
	in.Start()
	// One year, 64 disks at 10-50yr MTTF: expect ~1-6 failures.
	s.RunUntil(365 * 24 * time.Hour)
	in.Stop()
	if diskFails > 15 {
		t.Fatalf("disk failures in a year = %d, MTTF model too aggressive", diskFails)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() []Event {
		s := simtime.NewScheduler(42)
		in := NewInjector(s, Actions{}, []string{"h1", "h2"}, []string{"d1"}, []string{"hub1"})
		in.Start()
		s.RunUntil(90 * 24 * time.Hour)
		in.Stop()
		return in.log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
