package chaos

import (
	"strings"
	"testing"
	"time"
)

// TestFleetUnitLossSmall runs the quick 8-unit/2-shard unit-loss scenario:
// load, kill u000 (shard 0's first replica — forces a leader failover),
// drain, verify — once with the engine's worker pool derived from the host
// and once pinned to two workers. CI's fleet-smoke job runs this same shape
// via ustore-chaos.
func TestFleetUnitLossSmall(t *testing.T) {
	for _, tc := range []struct {
		name          string
		seed          int64
		engineWorkers int
	}{
		{"seed5-auto", 5, 0},
		{"seed9-workers2", 9, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunFleet(FleetOptions{Seed: tc.seed, Units: 8, Shards: 2,
				UnitLoss: true, EngineWorkers: tc.engineWorkers})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("violations:\n%s", strings.Join(rep.Violations, "\n"))
			}
			if !rep.Drained {
				t.Fatalf("unit not drained:\n%s", strings.Join(rep.Log, "\n"))
			}
			if rep.Failed != 0 || rep.Allocated != rep.Opts.Volumes {
				t.Fatalf("load phase: %d allocated, %d failed, want %d/0",
					rep.Allocated, rep.Failed, rep.Opts.Volumes)
			}
			if rep.Resolvable != rep.Allocated {
				t.Fatalf("resolvable %d != allocated %d", rep.Resolvable, rep.Allocated)
			}
		})
	}
}

// TestFleetScaleUnitLoss is the fleet acceptance run: a 256-unit fleet
// (16384 disks, 16 metadata shards) loses a whole deploy unit and must
// re-replicate every affected volume onto survivors with the placement,
// shard-map and capacity invariants all holding.
func TestFleetScaleUnitLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("256-unit fleet run skipped in -short mode")
	}
	rep, err := RunFleet(FleetOptions{
		Seed:     1,
		Units:    256,
		Shards:   16,
		Clients:  32,
		Volumes:  512,
		UnitLoss: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Log) == 0 || !strings.Contains(rep.Log[0], "16384 disks") {
		t.Fatalf("expected a 16384-disk fleet, boot line: %q", rep.Log[:1])
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if !rep.Drained {
		t.Fatalf("unit not drained in %v:\n%s", rep.Opts.DrainTimeout, strings.Join(rep.Log, "\n"))
	}
	if rep.Failed != 0 || rep.Resolvable != 512 {
		t.Fatalf("load/verify: %d allocated, %d failed, %d resolvable",
			rep.Allocated, rep.Failed, rep.Resolvable)
	}
	t.Logf("drained u000 in %v, %d events", rep.DrainTime, rep.Events)
}

// TestFleetShardScaling measures allocation throughput at 1, 4 and 16
// shards on a fixed 48-unit fleet with offered load scaled to capacity
// (8 saturating closed-loop clients per shard). Each shard leader serializes
// metadata ops at OpServiceTime, so throughput must scale near-linearly
// with the shard count.
func TestFleetShardScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("shard scaling sweep skipped in -short mode")
	}
	tput := func(shards int) float64 {
		v, err := MeasureFleetAlloc(FleetOptions{
			Seed:       3,
			Units:      48,
			Shards:     shards,
			Clients:    8 * shards,
			VolumeSize: 8 << 20,
		}, 3*time.Second, 6*time.Second)
		if err != nil {
			t.Fatalf("%d shards: %s", shards, err)
		}
		t.Logf("%2d shards: %.0f allocs/sec", shards, v)
		return v
	}
	t1, t4, t16 := tput(1), tput(4), tput(16)
	// "Near-linear": at least 75% of perfect scaling at each step.
	if t4 < 3*t1 {
		t.Fatalf("4-shard throughput %.0f/s not near-linear over 1-shard %.0f/s", t4, t1)
	}
	if t16 < 12*t1 {
		t.Fatalf("16-shard throughput %.0f/s not near-linear over 1-shard %.0f/s", t16, t1)
	}
}

// TestFleetDeterministicReport proves a fleet run is a pure function of its
// options: two runs with the same seed produce byte-identical logs and
// summaries, down to the count of scheduler events fired.
func TestFleetDeterministicReport(t *testing.T) {
	o := FleetOptions{Seed: 11, Units: 8, Shards: 2, UnitLoss: true}
	a, err := RunFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(a.Log, "\n") != strings.Join(b.Log, "\n") {
		t.Fatalf("logs diverge:\n--- run A\n%s\n--- run B\n%s", strings.Join(a.Log, "\n"), strings.Join(b.Log, "\n"))
	}
	if a.SummaryText() != b.SummaryText() {
		t.Fatalf("summaries diverge:\n%s\nvs\n%s", a.SummaryText(), b.SummaryText())
	}
	if a.Events != b.Events {
		t.Fatalf("event counts diverge: %d vs %d", a.Events, b.Events)
	}
}
