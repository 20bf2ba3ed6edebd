package chaos

import (
	"strings"
	"testing"
)

// TestFleetFaultScheduleShape checks the schedule generator's contract: a
// pure function of options (same options, identical schedule), sorted by
// At, with the first slot move co-timed at t=0 with a crash of the source
// shard's leader (the straddle the redrive path depends on).
func TestFleetFaultScheduleShape(t *testing.T) {
	o := FleetOptions{Seed: 3, Units: 16, Shards: 4,
		ReplicaCrashes: 3, Partitions: 2, SlotMoves: 2}
	a, b := genFleetSchedule(o), genFleetSchedule(o)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedule lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatalf("schedule unsorted at %d: %v after %v", i, a[i], a[i-1])
		}
	}
	if a[0].Kind != FFMoveSlot || a[0].At != 0 {
		t.Fatalf("first fault should be the t=0 straddle move, got %v", a[0])
	}
	if a[1].Kind != FFCrashReplica || a[1].At != 0 || a[1].Replica != -1 ||
		a[1].Shard != a[0].Slot%o.Shards {
		t.Fatalf("second fault should crash the move source's leader at t=0, got %v", a[1])
	}
	// A fleet with one shard cannot move slots; the generator must drop them.
	for _, ft := range genFleetSchedule(FleetOptions{Seed: 3, Shards: 1, SlotMoves: 3, ReplicaCrashes: 1}) {
		if ft.Kind == FFMoveSlot {
			t.Fatalf("single-shard schedule contains a slot move: %v", ft)
		}
	}
}

// TestFleetFaultRecovery is the fleet chaos acceptance run: crash/restart
// cycles, partition windows (one straddling an in-flight MoveSlot), and a
// forced scheduler-leader failover, after which recovery must leave every
// invariant AND the no-lost-no-duplicated-volume model check green. -short
// runs a smaller fleet with the same fault mix; the full run is the
// 64-unit/8-shard shape from the issue's acceptance criteria.
func TestFleetFaultRecovery(t *testing.T) {
	o := FleetOptions{
		Seed:           5,
		Units:          64,
		Shards:         8,
		ReplicaCrashes: 3,
		Partitions:     2,
		SlotMoves:      2,
	}
	if testing.Short() {
		o.Units, o.Shards = 16, 4
	}
	schedule := genFleetSchedule(o.withDefaults())
	rep, err := RunFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations:\n%s\n--- log ---\n%s",
			strings.Join(rep.Violations, "\n"), strings.Join(rep.Log, "\n"))
	}
	if rep.FaultsApplied != len(schedule) {
		t.Fatalf("applied %d of %d scheduled faults", rep.FaultsApplied, len(schedule))
	}
	// The t=0 straddle (move + source-leader crash) must interrupt its move:
	// the redrive path has to actually run, not just exist.
	if rep.Redriven < 1 {
		t.Fatalf("no interrupted move re-driven; straddle did not interrupt:\n%s", strings.Join(rep.Log, "\n"))
	}
	if rep.Resolvable != rep.Allocated {
		t.Fatalf("resolvable %d != acknowledged %d", rep.Resolvable, rep.Allocated)
	}
	t.Logf("%d faults, %d allocs (%d degraded unavailable), %d redriven, map epoch %d",
		rep.FaultsApplied, rep.Allocated, rep.Unavailable, rep.Redriven, rep.MapEpoch)
}

// TestFleetFaultSkipRedriveMinimized plants the skipped-ledger-re-drive bug
// (recovery bumps the map epoch over an interrupted migration without
// re-driving its chain) and requires the minimizer to (a) catch it via the
// reference-model check and (b) shrink the violating schedule to the t=0
// straddle pair — at most 2 faults.
func TestFleetFaultSkipRedriveMinimized(t *testing.T) {
	o := FleetOptions{
		Seed:              5,
		Units:             16,
		Shards:            4,
		ReplicaCrashes:    2,
		Partitions:        1,
		SlotMoves:         2,
		InjectSkipRedrive: true,
	}
	schedule, minimized, full, err := MinimizeFleet(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Violations) == 0 {
		t.Fatalf("injected skip-redrive bug produced no violation:\n%s", strings.Join(full.Log, "\n"))
	}
	if minimized == nil || len(minimized.Violations) == 0 {
		t.Fatal("minimizer returned no violating prefix")
	}
	if len(schedule) > 2 {
		var lines []string
		for _, ft := range schedule {
			lines = append(lines, ft.String())
		}
		t.Fatalf("minimized schedule has %d faults, want <= 2:\n%s",
			len(schedule), strings.Join(lines, "\n"))
	}
	// The surviving pair must be the straddle: the move and its interrupter.
	if schedule[0].Kind != FFMoveSlot {
		t.Fatalf("minimized schedule does not start with the move: %v", schedule[0])
	}
	found := false
	for _, v := range minimized.Violations {
		if strings.Contains(v, "model:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("minimized violations never cite the reference model:\n%s",
			strings.Join(minimized.Violations, "\n"))
	}
	t.Logf("minimized to %d faults: %v (violation: %s)",
		len(schedule), schedule, minimized.Violations[0])
}

// TestFleetFaultEngineDeterminism extends the byte-determinism contract to
// fault runs: crash/partition/migration fault injection, jittered retries
// and all, must be a pure function of the seed at any engine worker count
// (0 = derived from the host).
func TestFleetFaultEngineDeterminism(t *testing.T) {
	o := FleetOptions{
		Seed:           9,
		Units:          16,
		Shards:         4,
		ReplicaCrashes: 2,
		Partitions:     1,
		SlotMoves:      2,
	}
	run := func(workers int) *FleetReport {
		oo := o
		oo.EngineWorkers = workers
		rep, err := RunFleet(oo)
		if err != nil {
			t.Fatalf("workers=%d: %s", workers, err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("workers=%d violations:\n%s", workers, strings.Join(rep.Violations, "\n"))
		}
		return rep
	}
	base := run(1)
	for _, workers := range []int{0, 8} {
		rep := run(workers)
		if strings.Join(rep.Log, "\n") != strings.Join(base.Log, "\n") {
			t.Fatalf("workers=%d: fault-run log diverges from workers=1:\n--- w1\n%s\n--- w%d\n%s",
				workers, strings.Join(base.Log, "\n"), workers, strings.Join(rep.Log, "\n"))
		}
		if rep.SummaryText() != base.SummaryText() {
			t.Fatalf("workers=%d: summary diverges:\n%s\nvs\n%s",
				workers, base.SummaryText(), rep.SummaryText())
		}
		if rep.Events != base.Events {
			t.Fatalf("workers=%d: event count %d != %d", workers, rep.Events, base.Events)
		}
	}
}

// TestFleetFaultLateCommitRegression pins the seed-1 repro of a real loss
// bug this suite caught: during a partition of two shard replicas, paxos
// leadership ping-pongs through the common peer, the shard leader's
// Allocate commit wedges behind the churn, the shard ELECTION fails over,
// and the new leader's rebuild runs before the old leader's commit finally
// applies — so the acknowledged record existed durably in the replicated
// tree but no leader's soft state ever held it. Fixed three ways: an
// election read barrier (rebuild only after a self-proposed command applies
// locally), durability-checked idempotent re-allocate/re-release replies,
// and leaders folding late-landing "/vol" tree applies into soft state via
// a store watch. Any regression in those paths loses a volume here.
func TestFleetFaultLateCommitRegression(t *testing.T) {
	o := FleetOptions{
		Seed:           1,
		Units:          64,
		Shards:         8,
		ReplicaCrashes: 3,
		Partitions:     2,
		SlotMoves:      2,
	}
	rep, err := RunFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Resolvable != rep.Allocated {
		t.Fatalf("resolvable %d != acknowledged %d", rep.Resolvable, rep.Allocated)
	}
}
