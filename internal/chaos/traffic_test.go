package chaos

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ustore/internal/obs"
	"ustore/internal/runner"
	"ustore/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// trafficRun executes one traffic-mode run and fails the test on run errors
// or invariant violations.
func trafficRun(t *testing.T, o Options) *Report {
	t.Helper()
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("traffic run (storm=%v protect=%v): %v", o.Storm, o.Protect, err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("traffic run (storm=%v protect=%v) violations: %v", o.Storm, o.Protect, rep.Violations)
	}
	if rep.SLO == nil {
		t.Fatalf("traffic run returned no SLO report")
	}
	return rep
}

// TestTrafficProtectionBoundsStormTail is the PR's acceptance check: under
// the same seed and the same restore-storm arrival sequence, the protection
// stack must keep the premium class's storm p999 within 3x of its quiescent
// p999, while the unprotected twin collapses past 10x. The unprotected run
// also burns the power budget (all disks spinning); the protected run must
// hold the spinning-disk cap.
func TestTrafficProtectionBoundsStormTail(t *testing.T) {
	base := Options{Seed: *chaosSeed, Tenants: true, Storm: true}

	unprot := base
	prot := base
	prot.Protect = true

	repU := trafficRun(t, unprot)
	repP := trafficRun(t, prot)

	uQ := repU.SLO.Row(workload.ClassPremium, workload.PhaseQuiescent)
	uS := repU.SLO.Row(workload.ClassPremium, workload.PhaseStorm)
	pQ := repP.SLO.Row(workload.ClassPremium, workload.PhaseQuiescent)
	pS := repP.SLO.Row(workload.ClassPremium, workload.PhaseStorm)

	if uQ.P999 <= 0 || pQ.P999 <= 0 {
		t.Fatalf("premium quiescent p999 must be positive: unprotected %v, protected %v", uQ.P999, pQ.P999)
	}
	if uS.P999 <= 10*uQ.P999 {
		t.Errorf("unprotected premium storm p999 %v is not >10x quiescent %v — storm too weak to matter",
			uS.P999, uQ.P999)
	}
	if pS.P999 > 3*pQ.P999 {
		t.Errorf("protected premium storm p999 %v exceeds 3x quiescent %v — protection failed its SLO",
			pS.P999, pQ.P999)
	}

	// Power budget: the unprotected storm recalls every archived volume and
	// spins the whole shelf; the protected autoscaler must stay within
	// core's power budget (5 spinning) plus its inrush cap (1 spinning up).
	if repU.SLO.ActiveDisksMax != repU.SLO.TotalDisks {
		t.Errorf("unprotected storm should spin all %d disks, got max %d",
			repU.SLO.TotalDisks, repU.SLO.ActiveDisksMax)
	}
	const budget = 5 + 1
	if repP.SLO.ActiveDisksMax > budget {
		t.Errorf("protected run max active disks %d exceeds power budget %d",
			repP.SLO.ActiveDisksMax, budget)
	}

	// The protection has to be doing visible work: the lowest class absorbs
	// the storm as sheds/throttles instead of queueing behind premium.
	bS := repP.SLO.Row(workload.ClassBatch, workload.PhaseStorm)
	if bS.Shed+bS.Throttled == 0 {
		t.Errorf("protected storm shed/throttled nothing from the batch class: %+v", bS)
	}

	// Same-seed repeat of the protected run must be byte-identical in every
	// externalized artifact — the traffic engine extends the determinism
	// contract TestChaosSameSeedByteStability pins for fault runs.
	repP2 := trafficRun(t, prot)
	if a, b := repP.SLO.Text(), repP2.SLO.Text(); a != b {
		t.Errorf("same-seed protected runs produced different SLO reports:\n--- run1\n%s--- run2\n%s", a, b)
	}
	if a, b := repP.LogText(), repP2.LogText(); a != b {
		t.Errorf("same-seed protected runs produced different event logs (%d vs %d bytes)", len(a), len(b))
	}
}

// TestTrafficSweepParallelByteStability extends the worker-count determinism
// contract to traffic mode: a 2-seed protected-storm sweep on 2 workers must
// emit byte-identical summaries, logs, and metrics encodings to the same
// sweep run sequentially.
func TestTrafficSweepParallelByteStability(t *testing.T) {
	const seeds = 2
	base := Options{Seed: *chaosSeed, Tenants: true, Storm: true, Protect: true}

	runSweep := func(parallel int) ([]*Report, map[int64][]byte) {
		recs := make(map[int64]*obs.Recorder, seeds)
		for s := base.Seed; s < base.Seed+seeds; s++ {
			recs[s] = obs.NewRecorder()
		}
		reps, err := runner.MapErr(seeds, parallel, func(i int) (*Report, error) {
			o := base
			o.Seed += int64(i)
			o.Recorder = recs[o.Seed]
			return Run(o)
		})
		if err != nil {
			t.Fatalf("sweep (parallel=%d): %v", parallel, err)
		}
		metrics := make(map[int64][]byte, seeds)
		for seed, rec := range recs {
			var buf bytes.Buffer
			if err := rec.Registry().WritePrometheus(&buf); err != nil {
				t.Fatalf("WritePrometheus: %v", err)
			}
			metrics[seed] = buf.Bytes()
		}
		return reps, metrics
	}

	seq, seqMetrics := runSweep(1)
	par, parMetrics := runSweep(2)
	for i := 0; i < seeds; i++ {
		seed := base.Seed + int64(i)
		if seq[i].Seed != seed || par[i].Seed != seed {
			t.Fatalf("seed order broken at %d: seq %d par %d", i, seq[i].Seed, par[i].Seed)
		}
		if a, b := seq[i].SummaryText(), par[i].SummaryText(); a != b {
			t.Errorf("seed %d summaries differ across worker counts:\n--- sequential\n%s--- parallel\n%s", seed, a, b)
		}
		if a, b := seq[i].LogText(), par[i].LogText(); a != b {
			t.Errorf("seed %d event logs differ across worker counts (%d vs %d bytes)", seed, len(a), len(b))
		}
		if !bytes.Equal(seqMetrics[seed], parMetrics[seed]) {
			t.Errorf("seed %d Prometheus metrics differ across worker counts (%d vs %d bytes)",
				seed, len(seqMetrics[seed]), len(parMetrics[seed]))
		}
	}
}

// TestTrafficSLOGolden pins the exact SLO report and event log bytes of
// every traffic shape at seed 1: the protected restore storm (its SLO
// report is what ustore-chaos -tenants -storm -protect -slo-out writes and
// the CI traffic-smoke job diffs), the same storm unprotected, and
// protection without a storm. Its gray-day row pins a fault-schedule run
// the same way: the event log and summary of ustore-chaos -seed 1 -days 1
// -gray -mitigation -log (what it prints after its header line, diffed by
// the CI gray-smoke job) — the hedged-read, adaptive-timeout and breaker
// path the traffic rows do not take. Regenerate with:
//
//	go test ./internal/chaos -run TrafficSLOGolden -update
func TestTrafficSLOGolden(t *testing.T) {
	grayDay := DefaultOptions(1, 24*time.Hour)
	grayDay.GrayFaults, grayDay.Mitigation = true, true
	for _, tc := range []struct {
		name     string
		o        Options
		slo, log string // no SLO report: a fault-schedule run
	}{
		{"storm-protect", Options{Seed: 1, Tenants: true, Storm: true, Protect: true}, "slo_seed1.txt", "log_seed1.txt"},
		{"storm", Options{Seed: 1, Tenants: true, Storm: true}, "slo_storm_seed1.txt", "log_storm_seed1.txt"},
		{"protect", Options{Seed: 1, Tenants: true, Protect: true}, "slo_protect_seed1.txt", "log_protect_seed1.txt"},
		{"gray-day", grayDay, "", "gray_seed1.txt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slo == "" {
				rep, err := Run(tc.o)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, rep.LogText()+"\n"+rep.SummaryText(), tc.log)
				return
			}
			rep := trafficRun(t, tc.o)
			checkGolden(t, rep.SLO.Text(), tc.slo)
			checkGolden(t, rep.LogText()+"\n", tc.log)
		})
	}
}

func checkGolden(t *testing.T, got, name string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from its golden file.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}
