package chaos

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// chaosSeed selects the schedule + simulation seed, e.g.
//
//	go test ./internal/chaos/ -run TestChaosSmoke -chaos.seed=7 -v
//
// A failing report prints its violating schedule; re-running with the same
// seed replays it exactly.
var chaosSeed = flag.Int64("chaos.seed", 1, "seed for chaos runs")

func requireClean(t *testing.T, rep *Report) {
	t.Helper()
	if len(rep.Violations) > 0 {
		t.Fatalf("%d invariant violations (seed %d):\n%s\nschedule:\n%s",
			len(rep.Violations), rep.Seed,
			strings.Join(rep.Violations, "\n"), scheduleText(rep.Schedule))
	}
}

func scheduleText(sched []Fault) string {
	var b strings.Builder
	for _, f := range sched {
		b.WriteString("  " + f.At.String() + " " + f.String() + "\n")
	}
	return b.String()
}

func logStats(t *testing.T, rep *Report) {
	t.Helper()
	s := rep.Stats
	t.Logf("seed %d: %d faults, writes %d acked / %d failed, %d audit reads, "+
		"%d checksum detections, %d repairs, scrub %d scanned / %d bad / %d repaired / %d unrepaired, %d remounts",
		rep.Seed, s.FaultsApplied, s.WritesAcked, s.WritesFailed, s.AuditReads,
		s.CorruptionsDetected, s.Repairs, s.ScrubScanned, s.ScrubBad, s.ScrubRepaired,
		s.ScrubUnrepaired, s.Remounts)
}

// TestChaosSmoke runs two simulated days with every fault family enabled and
// requires zero invariant violations. This is the CI entry point.
func TestChaosSmoke(t *testing.T) {
	rep, err := Run(DefaultOptions(*chaosSeed, 2*24*time.Hour))
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	requireClean(t, rep)
	if rep.Stats.FaultsApplied == 0 {
		t.Fatal("schedule applied no faults")
	}
	if rep.Stats.WritesAcked == 0 {
		t.Fatal("workload acknowledged no writes")
	}
	logStats(t, rep)
}

// TestChaosSoak100Days is the acceptance soak: 100 simulated days of hosts
// crashing, disks dying and being swapped for blanks, hubs failing, links
// cutting / losing / duplicating, masters partitioned, and sectors rotting —
// with zero invariant violations at the end.
func TestChaosSoak100Days(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	rep, err := Run(DefaultOptions(*chaosSeed, 100*24*time.Hour))
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	requireClean(t, rep)
	if rep.Stats.FaultsApplied < 50 {
		t.Errorf("soak applied only %d faults; schedule generator regressed?", rep.Stats.FaultsApplied)
	}
	if rep.Stats.ScrubScanned == 0 {
		t.Error("scrubber never ran during the soak")
	}
	logStats(t, rep)
}

// TestChaosDeterministicReplay runs the same seed twice and requires
// byte-identical event logs — the property that makes -chaos.seed replay and
// schedule minimization trustworthy.
func TestChaosDeterministicReplay(t *testing.T) {
	o := DefaultOptions(*chaosSeed, 2*24*time.Hour)
	a, err := Run(o)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.LogText() != b.LogText() {
		al, bl := a.Log, b.Log
		for i := 0; i < len(al) && i < len(bl); i++ {
			if al[i] != bl[i] {
				t.Fatalf("logs diverge at line %d:\n  run1: %s\n  run2: %s", i, al[i], bl[i])
			}
		}
		t.Fatalf("logs differ in length: %d vs %d lines", len(al), len(bl))
	}
}

// corruptionOnlyOptions is the silent-corruption scenario: media rot with no
// other faults, no mutating workload (so the corruption is never overwritten
// before an audit reads it), and no scrubber racing the audit.
func corruptionOnlyOptions(seed int64) Options {
	o := DefaultOptions(seed, 24*time.Hour)
	o.HostCrashes = false
	o.DiskFaults = false
	o.HubFaults = false
	o.NetFaults = false
	o.Corruptions = true
	o.Pairs = 2
	o.BlocksPerSpace = 4
	o.WriteEvery = 0
	o.AuditEvery = 6 * time.Hour
	o.ScrubEvery = 0
	return o
}

// TestChaosDetectsSilentCorruptionWithoutChecksums proves the invariant
// checker has teeth: with the CRC layer disabled, injected media corruption
// reaches clients as successful reads of wrong bytes, and the harness must
// flag it.
func TestChaosDetectsSilentCorruptionWithoutChecksums(t *testing.T) {
	o := corruptionOnlyOptions(*chaosSeed)
	o.DisableChecksums = true
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("checksums disabled + corrupted media, but no silent-corruption violation reported")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "silent corruption") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("violations reported, but none is a silent-corruption finding:\n%s",
			strings.Join(rep.Violations, "\n"))
	}
}

// TestChaosChecksumsPreventSilentCorruption is the matching positive control:
// same scenario with the CRC layer on — corruption is detected at the storage
// layer, repaired from the good copy, and no invariant is violated.
func TestChaosChecksumsPreventSilentCorruption(t *testing.T) {
	rep, err := Run(corruptionOnlyOptions(*chaosSeed))
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	requireClean(t, rep)
	if rep.Stats.CorruptionsDetected == 0 {
		t.Fatal("corruption injected but the checksum layer never fired")
	}
	if rep.Stats.Repairs == 0 {
		t.Fatal("detected corruption was never repaired from the good copy")
	}
}

// TestChaosMinimize checks the shrinker: a violating run's schedule is
// bisected down to a prefix that still violates.
func TestChaosMinimize(t *testing.T) {
	o := corruptionOnlyOptions(*chaosSeed)
	o.DisableChecksums = true
	sched, minimized, full, err := MinimizeParallel(o, 1)
	if err != nil {
		t.Fatalf("minimize: %v", err)
	}
	if full == nil || len(full.Violations) == 0 {
		t.Fatal("expected the full corruption run to violate")
	}
	if minimized == nil || len(minimized.Violations) == 0 {
		t.Fatal("minimized schedule no longer violates")
	}
	if len(sched) > len(full.Schedule) {
		t.Fatalf("minimized schedule longer than original: %d > %d", len(sched), len(full.Schedule))
	}
	t.Logf("minimized %d faults -> %d:\n%s", len(full.Schedule), len(sched), scheduleText(sched))
}
