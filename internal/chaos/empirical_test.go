package chaos

import (
	"math"
	"testing"
	"time"

	"ustore/internal/faults"
)

func empiricalOpts(seed int64) Options {
	o := DefaultOptions(seed, 24*time.Hour)
	o.Pairs = 2
	o.BlocksPerSpace = 4
	o.Empirical = faults.DefaultEmpirical()
	o.AgeYears = 5
	return o
}

// TestEmpiricalScheduleOnlyChangesDiskEvents: switching the failure model
// must swap the disk fail/replace events and leave every other family's
// schedule untouched — that is what makes a constant-vs-empirical pair of
// runs a controlled comparison.
func TestEmpiricalScheduleOnlyChangesDiskEvents(t *testing.T) {
	names := clusterNames(t)
	base := DefaultOptions(11, 24*time.Hour)
	emp := base
	emp.Empirical = faults.DefaultEmpirical()
	emp.AgeYears = 5

	strip := func(fs []Fault) []Fault {
		var out []Fault
		for _, f := range fs {
			if f.Kind == FaultDiskFail || f.Kind == FaultDiskReplace {
				continue
			}
			out = append(out, f)
		}
		return out
	}
	a := strip(genSchedule(base, names.hosts, names.disks, names.hubs, names.machines))
	b := strip(genSchedule(emp, names.hosts, names.disks, names.hubs, names.machines))
	if len(a) != len(b) {
		t.Fatalf("non-disk schedules diverge: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-disk event %d diverges: %v vs %v", i, a[i], b[i])
		}
	}
	// And the disk events themselves must differ (the empirical model is
	// actually in effect), pair up, and stay inside the run window.
	empDisk := 0
	for _, f := range genSchedule(emp, names.hosts, names.disks, names.hubs, names.machines) {
		if f.Kind == FaultDiskFail {
			empDisk++
		}
		if f.At < 0 || f.At > emp.Duration {
			t.Fatalf("event %v outside the run window", f)
		}
	}
	if empDisk == 0 {
		t.Fatal("empirical schedule has no disk failures (5 accelerated years over the fleet should produce some)")
	}
}

// TestEmpiricalScheduleDeterministic: same options, same schedule, and
// the age horizon scales event density (a 10-year window over the same
// duration compresses more failures in).
func TestEmpiricalScheduleDeterministic(t *testing.T) {
	names := clusterNames(t)
	o := empiricalOpts(3)
	a := genSchedule(o, names.hosts, names.disks, names.hubs, names.machines)
	b := genSchedule(o, names.hosts, names.disks, names.hubs, names.machines)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEmpiricalRunReplays: a full empirical-model chaos run is replayable
// byte for byte, the URE rate the harness arms every disk with is the
// age-accelerated one, and the usual invariants hold. That an armed rate
// corrupts reads is disk.TestURECorruptsReadPersistently.
func TestEmpiricalRunReplays(t *testing.T) {
	o := empiricalOpts(5)
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.LogText() != b.LogText() {
		t.Fatal("empirical run is not replayable")
	}
	if len(a.Violations) != 0 {
		t.Fatalf("violations: %v", a.Violations)
	}

	// 5 years of media age in a 24-hour run reads 5*365 times the age per
	// sector; one 4 KiB sector is 32768 bits.
	want := 32768 / faults.ObservedUREBits * 5 * 365
	if got := empiricalURERate(o); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("URE rate %.6g, want %.6g", got, want)
	}
	o.AgeYears, o.Duration = 0, 48*time.Hour // age defaults to 5 years
	if got := empiricalURERate(o); math.Abs(got-want/2) > 1e-9*want {
		t.Fatalf("URE rate over 48 h %.6g, want %.6g", got, want/2)
	}
}

// clusterNames boots a default cluster once to learn the topology names
// genSchedule targets.
func clusterNames(t *testing.T) (names struct{ hosts, disks, hubs, machines []string }) {
	t.Helper()
	h, err := newHarness(DefaultOptions(1, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	names.hosts = h.hostNames()
	names.disks = h.diskNames()
	names.hubs = h.leafHubNames()
	names.machines = h.machineNames()
	return names
}
