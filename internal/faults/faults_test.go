package faults

import (
	"fmt"
	"testing"
	"time"

	"ustore/internal/simtime"
)

func TestInjectorHostCrashAndRecover(t *testing.T) {
	s := simtime.NewScheduler(7)
	crashes, restores := 0, 0
	down := map[string]bool{}
	InjectHostCrashes(s, []string{"h1", "h2", "h3", "h4"}, HostMTTF, 10*time.Minute,
		func(h string) {
			if down[h] {
				t.Fatalf("%s crashed while down", h)
			}
			down[h] = true
			crashes++
		},
		func(h string) {
			if !down[h] {
				t.Fatalf("%s restored while up", h)
			}
			down[h] = false
			restores++
		})
	// A simulated year of 4 hosts at 3.4-month MTTF: expect roughly
	// 4*12/3.4 ≈ 14 crashes; accept a wide band.
	s.RunUntil(365 * 24 * time.Hour)
	if crashes < 5 || crashes > 40 {
		t.Fatalf("crashes in a year = %d, expected ~14", crashes)
	}
	if restores < crashes-len(down) || restores > crashes {
		t.Fatalf("restores = %d for %d crashes", restores, crashes)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() []string {
		s := simtime.NewScheduler(42)
		var log []string
		note := func(kind string) func(string) {
			return func(h string) { log = append(log, fmt.Sprint(s.Now(), kind, h)) }
		}
		InjectHostCrashes(s, []string{"h1", "h2"}, 48*time.Hour, time.Hour, note("crash"), note("restore"))
		s.RunUntil(90 * 24 * time.Hour)
		return log
	}
	a, b := run(), run()
	if len(a) < 10 {
		t.Fatalf("only %d events in 90 days at a 2-day MTTF", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}
