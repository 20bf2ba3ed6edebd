package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ustore/internal/obs"
	"ustore/internal/runner"
)

// hostCrashOptions is the failover scenario: host crashes only, so every
// violation can come only from the failover protocol.
func hostCrashOptions(seed int64) Options {
	o := DefaultOptions(seed, 2*24*time.Hour)
	o.DiskFaults = false
	o.HubFaults = false
	o.NetFaults = false
	o.Corruptions = false
	return o
}

// requireCleanOrMinimize runs o and requires it clean. On a violation it
// minimizes before failing, so the failure says how few faults cause it and
// whether any violation came from outside the model checker; the entries of
// mutants_test.go that break these scenarios match that text.
func requireCleanOrMinimize(t *testing.T, o Options) *Report {
	t.Helper()
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if len(rep.Violations) == 0 {
		return rep
	}
	outside := 0
	for _, v := range rep.Violations {
		if !strings.Contains(v, "model:") {
			outside++
		}
	}
	sched, min, _, err := MinimizeParallel(o, 2)
	if err != nil || min == nil {
		t.Fatalf("%d violations; minimize: %v, violating prefix found: %v", len(rep.Violations), err, min != nil)
	}
	t.Fatalf("%d violations (%d outside the model checker):\n%s\nminimized %d -> %d faults, still violating:\n%s\n%s",
		len(rep.Violations), outside, strings.Join(rep.Violations, "\n"),
		len(rep.Schedule), len(sched), strings.Join(min.Violations, "\n"), scheduleText(sched))
	return nil
}

// TestHostCrashFailoverLinearizes runs the host-crash scenario and requires
// every failover to leave a linearizable metadata history. Skipping export
// revocation on detach (a stale lease) leaves the data audits green — both
// exports reference the same platters — so only the model checker can fail
// this, and it must fail with at most five faults after minimization.
func TestHostCrashFailoverLinearizes(t *testing.T) {
	rep := requireCleanOrMinimize(t, hostCrashOptions(*chaosSeed))
	if rep.Stats.ModelOps == 0 {
		t.Fatal("run recorded no metadata operations; history wiring is dead")
	}
}

// TestModelCheckerCleanSweep extends it over a seed sweep: the crash-heavy
// scenario must linearize cleanly on every seed, so the checker does not cry
// wolf on the correct failover protocol. Full mode sweeps 32 seeds (the
// acceptance bar); -short keeps 8.
func TestModelCheckerCleanSweep(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	base := hostCrashOptions(100)
	base.Duration = 24 * time.Hour
	reps, err := runner.MapErr(seeds, 4, func(i int) (*Report, error) {
		o := base
		o.Seed += int64(i)
		return Run(o)
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, rep := range reps {
		requireClean(t, rep)
		if rep.Stats.ModelOps == 0 {
			t.Errorf("seed %d: no metadata operations recorded", rep.Seed)
		}
		if rep.Stats.ModelPartitions == 0 {
			t.Errorf("seed %d: no model partitions checked", rep.Seed)
		}
	}
}

// TestMinimizeProbesDoNotFeedParentRecorder proves both probe-isolation
// properties minimize.go documents: speculative probe runs must not emit
// trace events into the parent run's Recorder (their interleaving is
// nondeterministic), and each probe harness checks its own model.History
// rather than appending to the parent's. The trace a Minimize call leaves
// in its Recorder must therefore be byte-identical to the trace of a single
// plain Run, and the probes must still have performed their own model
// checks.
func TestMinimizeProbesDoNotFeedParentRecorder(t *testing.T) {
	o := DefaultOptions(*chaosSeed, 2*24*time.Hour)
	o.DisableChecksums = true

	recMin := obs.NewRecorder()
	oMin := o
	oMin.Recorder = recMin
	_, minimized, full, err := MinimizeParallel(oMin, 2)
	if err != nil {
		t.Fatalf("minimize: %v", err)
	}
	if minimized == nil {
		t.Fatal("expected a violating (and thus minimized) run")
	}

	recRun := obs.NewRecorder()
	oRun := o
	oRun.Recorder = recRun
	rep, err := Run(oRun)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	var trMin, trRun bytes.Buffer
	if err := recMin.Tracer().WriteChromeTrace(&trMin); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := recRun.Tracer().WriteChromeTrace(&trRun); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !bytes.Equal(trMin.Bytes(), trRun.Bytes()) {
		t.Errorf("Minimize's recorder trace differs from a plain run's (%d vs %d bytes): probe runs leaked trace events",
			trMin.Len(), trRun.Len())
	}

	// History isolation: the full run and the standalone run checked the
	// same ops, and the minimized probe checked its own (smaller) history
	// rather than accumulating onto the parent's.
	if full.Stats.ModelOps != rep.Stats.ModelOps {
		t.Errorf("full run checked %d model ops, plain run %d; histories are not isolated",
			full.Stats.ModelOps, rep.Stats.ModelOps)
	}
	if minimized.Stats.ModelOps == 0 {
		t.Error("minimized probe run checked no model ops; probe harness lost its history")
	}
	if minimized.Stats.ModelOps > full.Stats.ModelOps {
		t.Errorf("minimized prefix checked more ops (%d) than the full run (%d); probe history absorbed parent ops",
			minimized.Stats.ModelOps, full.Stats.ModelOps)
	}
}
