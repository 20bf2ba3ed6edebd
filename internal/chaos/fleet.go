package chaos

// Fleet-scale chaos: boots an internal/fleet control plane (sharded
// metadata, failure-domain placement, background repair scheduler), drives
// closed-loop allocation through client routers, kills a whole deploy unit,
// and verifies the fleet drains the dead unit onto survivors with every
// invariant intact. Like the cluster-scale harness, a run is a pure
// function of its options: same seed, byte-identical report at any worker
// count (cmd/ustore-chaos's TestSweepParallelMatchesSequential proves it).

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"ustore/internal/fleet"
	"ustore/internal/model"
	"ustore/internal/obs"
)

// FleetOptions parameterizes a fleet-scale chaos run.
type FleetOptions struct {
	// Seed drives the whole simulation.
	Seed int64
	// Units is the deploy-unit count (default 8; 64 disks per unit, so 256
	// units is a ≥16k-disk fleet). Below fleet.MinUnits(Shards) some shard
	// cannot place a volume.
	Units int
	// Shards is the metadata shard count (default 1).
	Shards int
	// Clients is the number of closed-loop allocating routers (default
	// 4 per shard).
	Clients int
	// VolumeSize is bytes per volume (default 64 MiB).
	VolumeSize int64
	// UnitLoss kills unit u000 — which hosts shard 0's first replica, so
	// the loss doubles as a leader-failover test — after the load phase
	// and requires the background scheduler to drain it.
	UnitLoss bool

	// Fault schedule knobs. All zero keeps the legacy run shape (no fault
	// phase); any non-zero adds a seeded transient-fault phase between load
	// and verify, executed by genFleetSchedule's schedule.
	//
	// ReplicaCrashes is the number of shard-replica crash/restart cycles.
	ReplicaCrashes int
	// Partitions is the number of partition/heal (or leader-isolation)
	// windows.
	Partitions int
	// SlotMoves is the number of schedule-driven slot migrations; the first
	// is co-timed with a crash of the source leader and the first partition
	// straddles another, exercising the RedriveMoves recovery path.
	// Requires Shards >= 2 to take effect.
	SlotMoves int
	// Recorder, when non-nil, collects metrics and traces from the run.
	Recorder *obs.Recorder `json:"-"`
	// EngineWorkers is accepted and ignored, like fleet.Config's field of
	// that name. The perf/ benchmark still sets it.
	EngineWorkers int
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Units <= 0 {
		o.Units = 8
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Clients <= 0 {
		o.Clients = 4 * o.Shards
	}
	if o.VolumeSize <= 0 {
		o.VolumeSize = 64 << 20
	}
	return o
}

// volumesPerUnit is how many volumes the load phase allocates per deploy
// unit.
const volumesPerUnit = 3

// drainTimeout bounds the virtual time a unit-loss run waits for the dead
// unit to drain.
const drainTimeout = 30 * time.Minute

// hasFaults reports whether the options ask for a transient-fault phase.
func (o FleetOptions) hasFaults() bool {
	return o.ReplicaCrashes > 0 || o.Partitions > 0 || o.SlotMoves > 0
}

// FleetReport is the outcome of a fleet chaos run.
type FleetReport struct {
	Seed       int64
	Opts       FleetOptions
	Log        []string
	Violations []string

	Allocated  int           // volumes placed (load + fault phases)
	Failed     int           // allocations that errored out
	Drained    bool          // dead unit fully drained (UnitLoss runs)
	DrainTime  time.Duration // virtual kill-to-drained latency
	Resolvable int           // volumes a fresh router resolved post-run
	MapEpoch   int64         // final authoritative shard-map epoch
	Events     uint64        // scheduler events fired (determinism witness)

	// Fault-phase outcomes (fault-schedule runs only).
	FaultsApplied int // schedule entries executed
	Unavailable   int // foreground ops that degraded to ErrShardUnavailable
	Redriven      int // interrupted slot moves re-driven during recovery
}

// SummaryText renders the block ustore-chaos prints for a fleet run.
func (r *FleetReport) SummaryText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet seed %d: %d units, %d shards, %d clients\n",
		r.Seed, r.Opts.Units, r.Opts.Shards, r.Opts.Clients)
	fmt.Fprintf(&b, "  load     %d allocated, %d failed, %d resolvable after faults\n",
		r.Allocated, r.Failed, r.Resolvable)
	if r.Opts.UnitLoss {
		fmt.Fprintf(&b, "  drain    u000 drained=%v in %v\n", r.Drained, r.DrainTime)
	}
	if r.Opts.hasFaults() {
		fmt.Fprintf(&b, "  faults   %d applied, %d ops degraded unavailable, %d moves redriven\n",
			r.FaultsApplied, r.Unavailable, r.Redriven)
	}
	fmt.Fprintf(&b, "  map      epoch %d; %d events fired\n", r.MapEpoch, r.Events)
	writeInvariants(&b, r.Violations)
	return b.String()
}

// fleetConfig maps chaos options onto a fleet.Config, leaving the fleet's
// own stretched control-plane timings in place.
func fleetConfig(o FleetOptions) fleet.Config {
	return fleet.Config{
		Units:    o.Units,
		Shards:   o.Shards,
		Seed:     o.Seed,
		Recorder: o.Recorder,
		// Jittered retries only for fault runs: legacy runs keep the fixed
		// delays their checked-in byte-stability records were made under.
		RetryJitter: o.hasFaults(),
	}
}

// RunFleet executes one fleet chaos run: boot, load, the seeded transient-
// fault phase (when the fault knobs ask for one), recovery with re-driven
// migrations and the fleet-level model check, optional unit loss, verify.
func RunFleet(o FleetOptions) (*FleetReport, error) {
	o = o.withDefaults()
	return runFleet(o, genFleetSchedule(o))
}

// RunFleetSchedule is RunFleet under an explicit fault schedule — the
// minimizer probes truncated prefixes through it. The recovery phase heals
// whatever a prefix leaves open, so every prefix is a well-formed run.
func RunFleetSchedule(o FleetOptions, schedule []FleetFault) (*FleetReport, error) {
	o = o.withDefaults()
	return runFleet(o, schedule)
}

func runFleet(o FleetOptions, schedule []FleetFault) (*FleetReport, error) {
	rep := &FleetReport{Seed: o.Seed, Opts: o}
	f := fleet.New(fleetConfig(o))
	rl := &runLog{now: f.Sched.Now}
	check := func(phase string) {
		for _, err := range []error{f.ValidateSpread(), f.ValidateShardMap(), f.ValidateCapacity()} {
			if err != nil {
				rl.violatef("fleet: %s invariant: %s", phase, err)
			}
		}
	}
	// Boot: settle until every shard has a leader.
	if ok, why := settleExplain(f, 10*time.Second, 3*time.Minute, leaderless(f)); !ok {
		return nil, fmt.Errorf("chaos: fleet boot settle timed out: %s", why)
	}
	rl.logf("fleet: booted %d units (%d disks), %d shards, map epoch %d",
		o.Units, f.Topo.NumDisks, o.Shards, f.AuthMap().Epoch)

	// Load phase: o.Clients routers allocate volumesPerUnit volumes per
	// unit closed-loop (client i owns volumes i, i+C, i+2C, …).
	routers := make([]*fleet.Router, o.Clients)
	for i := range routers {
		routers[i] = f.NewRouter(fmt.Sprintf("c%03d", i))
	}
	// ledger is the fleet-level reference model: every client-acknowledged
	// allocation enters it, and after recovery the shard leaders' holdings
	// are checked against it (no volume lost, duplicated, or misplaced).
	ledger := model.NewVolumeLedger()
	volumes := volumesPerUnit * o.Units
	pending := volumes
	var allocate func(cl, vol int)
	allocate = func(cl, vol int) {
		if vol >= volumes {
			return
		}
		name := fmt.Sprintf("v%04d", vol)
		routers[cl].Allocate(name, o.VolumeSize, "archive",
			func(_ []string, err error) {
				pending--
				if err != nil {
					rep.Failed++
					rl.logf("fleet: allocate %s failed: %s", name, err)
				} else {
					rep.Allocated++
					ledger.Alloc(name)
				}
				allocate(cl, vol+o.Clients)
			})
	}
	for i := range routers {
		allocate(i, i)
	}
	if ok, why := settleExplain(f, 10*time.Second, 10*time.Minute, func() string {
		if pending > 0 {
			return fmt.Sprintf("%d of %d allocations still pending", pending, volumes)
		}
		return ""
	}); !ok {
		rl.violatef("fleet: load phase stalled: %s", why)
	}
	rl.logf("fleet: load phase done: %d allocated, %d failed", rep.Allocated, rep.Failed)
	check("post-load")

	// Fault phase: apply the schedule at fixed quiescence boundaries while
	// foreground clients keep allocating, then heal, re-drive interrupted
	// migrations, and hold the fleet to the reference model.
	if len(schedule) > 0 {
		runFleetFaults(f, o, rep, rl, schedule, routers, ledger, check)
	}

	// Fault phase: lose a whole deploy unit, then wait for the background
	// schedulers to re-replicate its fragments onto survivors.
	if o.UnitLoss {
		const victim = "u000"
		killAt := f.Sched.Now()
		f.KillUnit(victim)
		rl.logf("fleet: killed unit %s (machine isolated, replicas crashed)", victim)
		drained, blocker := settleExplain(f, 30*time.Second, drainTimeout,
			func() string { return f.DrainBlocker(victim) })
		rep.Drained = drained
		rep.DrainTime = f.Sched.Now() - killAt
		if rep.Drained {
			rl.logf("fleet: unit %s drained in %v", victim, rep.DrainTime)
		} else {
			rl.violatef("fleet: unit %s not drained within %v: %s",
				victim, drainTimeout, blocker)
		}
		check("post-drain")
	}

	// Verify phase: a fresh router (cold map cache) must resolve every
	// volume with a full replica set: exactly the model ledger's live set
	// (fault-phase volumes included).
	verifyNames := ledger.Live()
	want := len(verifyNames)
	vr := f.NewRouter("verify")
	left := len(verifyNames)
	for _, name := range verifyNames {
		name := name
		vr.Lookup(name, func(disks []string, _ int64, err error) {
			left--
			if err == nil && len(disks) > 0 {
				rep.Resolvable++
			} else if err != nil {
				rl.logf("fleet: verify lookup %s failed: %s", name, err)
			}
		})
	}
	if ok, why := settleExplain(f, 10*time.Second, 5*time.Minute, func() string {
		if left > 0 {
			return fmt.Sprintf("%d lookups pending", left)
		}
		return ""
	}); !ok {
		rl.violatef("fleet: verify phase stalled: %s", why)
	}
	if rep.Resolvable != want {
		rl.violatef("fleet: only %d of %d live volumes resolvable", rep.Resolvable, want)
	}

	rep.MapEpoch = f.AuthMap().Epoch
	rep.Events = f.EventsFired()
	rl.logf("fleet run complete: %d violations", len(rl.Violations))
	rep.Log, rep.Violations = rl.Log, rl.Violations
	return rep, nil
}

// runFleetFaults executes the fault schedule against a booted, loaded
// fleet, then recovers: heal everything still open, settle leadership back,
// re-drive interrupted slot migrations, re-check invariants, and hold the
// surviving state to the reference-model ledger.
func runFleetFaults(
	f *fleet.Fleet, o FleetOptions, rep *FleetReport, rl *runLog, schedule []FleetFault,
	routers []*fleet.Router, ledger *model.VolumeLedger,
	check func(string),
) {
	st := newFleetFaultState(f)
	movesInFlight := 0
	onMove := func(slot, dst int) {
		movesInFlight++
		f.MoveSlot(slot, dst, func(err error) {
			movesInFlight--
			if err != nil {
				rl.logf("fleet: move slot %d -> shard %d interrupted: %s", slot, dst, err)
			} else {
				rl.logf("fleet: move slot %d -> shard %d completed", slot, dst)
			}
		})
	}

	// Foreground load under faults: two paced clients keep allocating (one
	// op per simulated second each — closed-loop with no think time would
	// flood tens of thousands of volumes into the ledger and drown the
	// verify sweep). Quorum loss must degrade to a typed, countable
	// ErrShardUnavailable — never a hang.
	stopLoad := false
	wvol := 0
	var faultAlloc func(cl int)
	faultAlloc = func(cl int) {
		if stopLoad {
			return
		}
		name := fmt.Sprintf("w%04d", wvol)
		wvol++
		routers[cl%len(routers)].Allocate(name, o.VolumeSize, "archive",
			func(_ []string, err error) {
				switch {
				case err == nil:
					rep.Allocated++
					ledger.Alloc(name)
				case errors.Is(err, fleet.ErrShardUnavailable):
					rep.Failed++
					rep.Unavailable++
				default:
					rep.Failed++
					rl.logf("fleet: fault-phase allocate %s failed: %s", name, err)
				}
				f.Sched.FireAfter(time.Second, func() { faultAlloc(cl) })
			})
	}
	for cl := 0; cl < 2 && cl < len(routers); cl++ {
		faultAlloc(cl)
	}

	window := fleetFaultWindow
	if last := schedule[len(schedule)-1].At; last > window {
		window = last
	}
	idx := 0
	for t := time.Duration(0); t <= window; t += fleetFaultStep {
		for idx < len(schedule) && schedule[idx].At <= t {
			desc := st.apply(schedule[idx], onMove)
			rep.FaultsApplied++
			rl.logf("fleet: fault: %s", desc)
			idx++
		}
		f.Settle(fleetFaultStep)
	}
	stopLoad = true
	rl.logf("fleet: fault window closed: %d faults applied, %d ops degraded unavailable",
		rep.FaultsApplied, rep.Unavailable)

	// Recovery: close every window the schedule (or a truncated minimizer
	// prefix) left open, then settle until leadership is whole and the
	// fault-phase move chains have reported back.
	healed, rejoined, restarted := st.healAll()
	rl.logf("fleet: recovery: healed %d partitions, rejoined %d units, restarted %d replicas",
		healed, rejoined, restarted)
	if ok, why := settleExplain(f, 10*time.Second, 5*time.Minute, func() string {
		if why := leaderless(f)(); why != "" {
			return why
		}
		if movesInFlight > 0 {
			return fmt.Sprintf("%d fault-phase slot moves still in flight", movesInFlight)
		}
		return ""
	}); !ok {
		rl.violatef("fleet: post-heal settle stalled: %s", why)
	}

	// Re-drive interrupted migrations from the admin intent ledger (the
	// durable freeze and export ledger below make every step idempotent).
	rep.Redriven = len(f.PendingMoves())
	redriveDone := false
	var redriveErr error
	f.RedriveMoves(func(err error) { redriveDone = true; redriveErr = err })
	if ok, why := settleExplain(f, 10*time.Second, 5*time.Minute, func() string {
		if !redriveDone {
			return fmt.Sprintf("%d interrupted slot moves still re-driving", rep.Redriven)
		}
		return ""
	}); !ok {
		rl.violatef("fleet: redrive stalled: %s", why)
	} else if redriveErr != nil {
		rl.violatef("fleet: redrive failed: %s", redriveErr)
	}
	if rep.Redriven > 0 {
		rl.logf("fleet: recovery: re-drove %d interrupted slot moves", rep.Redriven)
	}
	check("post-heal")

	// Reference-model check: every acknowledged volume must be held by
	// exactly one shard, the one the map routes it to.
	holders, err := f.VolumeHolders()
	if err != nil {
		rl.violatef("fleet: model check blocked: %s", err)
		return
	}
	am := f.AuthMap()
	for _, v := range ledger.Check(holders, func(vol string) int { return am.ShardOf(vol) }) {
		rl.violatef("fleet: model: %s", v)
	}
	rl.logf("fleet: model check done: %d live volumes against %d holders", ledger.Len(), len(holders))
}

// settleExplain advances the fleet in fixed step chunks until pending()
// reports nothing left ("") or the budget runs out; on timeout it returns
// false plus the last pending description, so callers name exactly which
// condition was still failing instead of a bare boolean. Fixed-size steps
// keep the event stream identical across runs regardless of when pending()
// empties.
func settleExplain(f *fleet.Fleet, step, max time.Duration, pending func() string) (bool, string) {
	for elapsed := time.Duration(0); ; elapsed += step {
		why := pending()
		if why == "" {
			return true, ""
		}
		if elapsed >= max {
			return false, why
		}
		f.Settle(step)
	}
}

// leaderless is a settleExplain condition: pending while any shard has no
// leader.
func leaderless(f *fleet.Fleet) func() string {
	return func() string {
		if k := f.LeaderlessShard(); k >= 0 {
			return fmt.Sprintf("shard %d leaderless", k)
		}
		return ""
	}
}

// MeasureFleetAlloc measures steady-state allocation throughput (volumes
// per simulated second) with saturating closed-loop clients, after a
// warmup. The shard-scaling acceptance sweep drives it at 1/4/16 shards.
func MeasureFleetAlloc(o FleetOptions, warmup, window time.Duration) (float64, error) {
	o = o.withDefaults()
	f := fleet.New(fleetConfig(o))
	if ok, why := settleExplain(f, 10*time.Second, 3*time.Minute, leaderless(f)); !ok {
		return 0, fmt.Errorf("chaos: fleet boot settle timed out: %s", why)
	}
	completed := 0
	for i := 0; i < o.Clients; i++ {
		r := f.NewRouter(fmt.Sprintf("m%03d", i))
		cl := i
		n := 0
		var next func()
		next = func() {
			vol := fmt.Sprintf("m%03d-%d", cl, n)
			n++
			r.Allocate(vol, o.VolumeSize, "bench", func(_ []string, err error) {
				if err == nil {
					completed++
				}
				next()
			})
		}
		next()
	}
	f.Settle(warmup)
	before := completed
	f.Settle(window)
	return float64(completed-before) / window.Seconds(), nil
}
