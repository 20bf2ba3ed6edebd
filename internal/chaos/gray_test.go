package chaos

import (
	"strings"
	"testing"
	"time"
)

// grayOnlyOptions is the gray-failure scenario: fail-slow faults with every
// fail-stop family off, and the prober workload measuring read tails beside
// the harness's one replicated workload (its writes, audits and scrub run
// too; the tests below hold at -chaos.seed 1 through 16).
func grayOnlyOptions(seed int64) Options {
	o := DefaultOptions(seed, 2*24*time.Hour)
	o.HostCrashes = false
	o.DiskFaults = false
	o.HubFaults = false
	o.NetFaults = false
	o.Corruptions = false
	o.GrayFaults = true
	return o
}

// graySchedule is the acceptance scenario: one high-severity fail-slow disk
// under workload copy 0, opening at 6h and never healing (the drain phase
// recovers it). Copy-relative targeting resolves the disk at apply time, so
// the schedule works for any seed's placement.
func graySchedule() []Fault {
	return []Fault{{At: 6 * time.Hour, Kind: FaultDiskDegrade, Copy: 0, Rate: 0.8}}
}

// TestGrayMitigatedTailBoundedAndDrained is the mitigation-ON half of the
// gray-failure acceptance test: with the detect-quarantine-hedge stack
// enabled, a fail-slow disk under one replica must (a) keep the probe read
// p99 within 2x the healthy baseline, (b) get quarantined by the master's
// peer-comparison scoring, and (c) be drained — its replica proactively
// migrated to a healthy disk.
func TestGrayMitigatedTailBoundedAndDrained(t *testing.T) {
	o := grayOnlyOptions(*chaosSeed)
	o.Mitigation = true
	rep, err := RunSchedule(o, graySchedule())
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	requireClean(t, rep)
	s := rep.Stats
	t.Logf("mitigated: %d quarantines, %d migrations, %d probes (%d errors), "+
		"p99 healthy %v / degraded %v, %d hedges (%d wins), %d breaker opens, %d redirects",
		s.GrayQuarantines, s.GrayMigrations, s.ProbeReads, s.ProbeErrors,
		s.ProbeHealthyP99, s.ProbeDegradedP99, s.Hedges, s.HedgeWins, s.BreakerOpens, s.Redirects)
	if s.GrayQuarantines == 0 {
		t.Error("gray disk was never quarantined")
	}
	if s.GrayMigrations == 0 {
		t.Error("quarantined disk was never drained (no migrations)")
	}
	if !strings.Contains(rep.LogText(), "quarantine drain:") {
		t.Error("log records no quarantine drain")
	}
	if s.Hedges == 0 || s.HedgeWins == 0 {
		t.Errorf("hedging never engaged: %d hedges, %d wins", s.Hedges, s.HedgeWins)
	}
	if s.BreakerOpens == 0 {
		t.Error("circuit breaker never opened against the fail-slow disk")
	}
	if s.ProbeHealthyP99 <= 0 || s.ProbeDegradedP99 <= 0 {
		t.Fatalf("probe p99s not measured: healthy %v, degraded %v", s.ProbeHealthyP99, s.ProbeDegradedP99)
	}
	if s.ProbeDegradedP99 > 2*s.ProbeHealthyP99 {
		t.Errorf("mitigated degraded p99 %v exceeds 2x healthy baseline %v",
			s.ProbeDegradedP99, s.ProbeHealthyP99)
	}
}

// TestGrayUnmitigatedTailInflates is the mitigation-OFF half: the same seed
// and schedule with the stack disabled must show the raw cost of the
// fail-slow disk — probe p99 inflated at least 5x over the healthy baseline,
// and no quarantine (the detector is off).
func TestGrayUnmitigatedTailInflates(t *testing.T) {
	o := grayOnlyOptions(*chaosSeed)
	o.Mitigation = false
	rep, err := RunSchedule(o, graySchedule())
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	requireClean(t, rep)
	s := rep.Stats
	t.Logf("unmitigated: %d probes (%d errors), p99 healthy %v / degraded %v",
		s.ProbeReads, s.ProbeErrors, s.ProbeHealthyP99, s.ProbeDegradedP99)
	if s.GrayQuarantines != 0 || s.GrayMigrations != 0 || s.Hedges != 0 {
		t.Errorf("mitigation ran while disabled: %d quarantines, %d migrations, %d hedges",
			s.GrayQuarantines, s.GrayMigrations, s.Hedges)
	}
	if s.ProbeHealthyP99 <= 0 || s.ProbeDegradedP99 <= 0 {
		t.Fatalf("probe p99s not measured: healthy %v, degraded %v", s.ProbeHealthyP99, s.ProbeDegradedP99)
	}
	if s.ProbeDegradedP99 < 5*s.ProbeHealthyP99 {
		t.Errorf("unmitigated degraded p99 %v is not >= 5x healthy baseline %v — "+
			"the injected gray fault has no teeth", s.ProbeDegradedP99, s.ProbeHealthyP99)
	}
}

// TestGrayMitigatedRunHoldsQuarantine runs the generated gray schedule with
// mitigation on and requires it clean: disks get quarantined and drained,
// and no allocation ever lands on a quarantined one. An allocator that stops
// skipping quarantined disks sends the drain migration back onto the gray
// disk, and this must then fail on the quarantine invariant.
func TestGrayMitigatedRunHoldsQuarantine(t *testing.T) {
	o := grayOnlyOptions(*chaosSeed)
	o.Mitigation = true
	rep := requireCleanOrMinimize(t, o)
	if rep.Stats.GrayQuarantines == 0 || rep.Stats.GrayMigrations == 0 {
		t.Fatalf("nothing for the quarantine invariant to check: %d quarantines, %d migrations",
			rep.Stats.GrayQuarantines, rep.Stats.GrayMigrations)
	}
}
