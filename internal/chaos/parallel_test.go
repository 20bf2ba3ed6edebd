package chaos

import (
	"reflect"
	"testing"
	"time"

	"ustore/internal/obs"
)

// sweepOptions is a short all-faults configuration sized so an 8-seed sweep
// stays fast in CI.
func sweepOptions(seed int64) Options {
	return DefaultOptions(seed, 6*time.Hour)
}

// TestSweepParallelMatchesSequential is the determinism contract for the
// parallel runner: an 8-seed sweep run on 4 workers must emit byte-identical
// per-seed reports (summary, event log, violations) to the same sweep run
// sequentially. Run under -race in CI, this doubles as the data-race test
// over concurrent simulations.
func TestSweepParallelMatchesSequential(t *testing.T) {
	const seeds = 8
	base := sweepOptions(*chaosSeed)

	seq, err := Sweep(base, seeds, 1, nil)
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	par, err := Sweep(base, seeds, 4, nil)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	if len(seq) != seeds || len(par) != seeds {
		t.Fatalf("report counts: seq %d, par %d, want %d", len(seq), len(par), seeds)
	}
	for i := 0; i < seeds; i++ {
		if seq[i].Seed != base.Seed+int64(i) || par[i].Seed != seq[i].Seed {
			t.Fatalf("seed order broken at %d: seq %d par %d", i, seq[i].Seed, par[i].Seed)
		}
		if a, b := seq[i].SummaryText(), par[i].SummaryText(); a != b {
			t.Errorf("seed %d summaries differ:\n--- sequential\n%s--- parallel\n%s", seq[i].Seed, a, b)
		}
		if a, b := seq[i].LogText(), par[i].LogText(); a != b {
			t.Errorf("seed %d event logs differ (%d vs %d bytes)", seq[i].Seed, len(a), len(b))
		}
		if !reflect.DeepEqual(seq[i].Stats, par[i].Stats) {
			t.Errorf("seed %d stats differ:\nseq %+v\npar %+v", seq[i].Seed, seq[i].Stats, par[i].Stats)
		}
	}
}

// TestSweepPerSeedRecorders: each seed gets its own recorder and its metrics
// land there even when runs execute concurrently.
func TestSweepPerSeedRecorders(t *testing.T) {
	const seeds = 4
	base := sweepOptions(*chaosSeed)
	recs := make(map[int64]*obs.Recorder, seeds)
	for s := base.Seed; s < base.Seed+seeds; s++ {
		recs[s] = obs.NewRecorder()
	}
	reps, err := Sweep(base, seeds, 2, func(seed int64) *obs.Recorder { return recs[seed] })
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		rec := recs[rep.Seed]
		if rec == nil {
			t.Fatalf("unexpected seed %d", rep.Seed)
		}
		if v := rec.Counter("simnet", "msgs_delivered_total").Value(); v == 0 {
			t.Errorf("seed %d recorder saw no delivered messages", rep.Seed)
		}
	}
}

// TestMinimizeParallelMatchesSequential: speculative parallel bisection must
// commit the exact search path the sequential bisection takes, producing a
// byte-identical minimized schedule and report.
func TestMinimizeParallelMatchesSequential(t *testing.T) {
	o := corruptionOnlyOptions(*chaosSeed)
	o.DisableChecksums = true

	sSched, sMin, sFull, err := MinimizeParallel(o, 1)
	if err != nil {
		t.Fatalf("sequential minimize: %v", err)
	}
	pSched, pMin, pFull, err := MinimizeParallel(o, 4)
	if err != nil {
		t.Fatalf("parallel minimize: %v", err)
	}
	if sFull == nil || len(sFull.Violations) == 0 {
		t.Fatal("expected the full corruption run to violate")
	}
	if !reflect.DeepEqual(sSched, pSched) {
		t.Fatalf("minimized schedules differ: sequential %d faults, parallel %d faults",
			len(sSched), len(pSched))
	}
	if a, b := sMin.LogText(), pMin.LogText(); a != b {
		t.Fatalf("minimized run logs differ (%d vs %d bytes)", len(a), len(b))
	}
	if !reflect.DeepEqual(sMin.Violations, pMin.Violations) {
		t.Fatalf("minimized violations differ:\nseq %v\npar %v", sMin.Violations, pMin.Violations)
	}
	if a, b := sFull.LogText(), pFull.LogText(); a != b {
		t.Fatalf("full run logs differ — the full run itself is nondeterministic")
	}
}
