package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ustore/internal/chaos"
	"ustore/internal/fleet"
	"ustore/internal/model"
	"ustore/internal/obs"
	"ustore/internal/workload"
)

// repOut is what one repetition of a workload reports. Everything in it is
// simulated (a pure function of the seed), so it must be identical in every
// repetition of a run; counters is the per-layer detail the traced run
// prints.
type repOut struct {
	attempted  int           // foreground operations issued
	ok         int           // of those, the ones that succeeded
	simSeconds float64       // simulated length the ops are counted over
	simClock   float64       // simulated seconds the whole repetition covered
	p99        time.Duration // simulated p99 of the workload's primary op
	digest     string        // sha256 of the rendered report
	events     uint64        // scheduler events fired (0 when the run does not expose them)
	violations []string      // correctness-gate failures
	counters   map[string]float64
}

// workloadDef is one benchmark workload. run executes one full repetition
// (build + boot + run + verify); rec is nil except on the traced
// repetition, and workers is the fleet engine worker count (ignored by the
// single-unit workloads).
type workloadDef struct {
	name     string
	why      string
	loop     string // open or closed, with its rate or client count
	baseSeed int64
	// warm, when set, replaces run for the untimed warm-up repetition and
	// returns a value run's result must reproduce (fleet_alloc's
	// equivalence against chaos.MeasureFleetAlloc).
	warm func(seed int64) (float64, error)
	run  func(seed int64, rec *obs.Recorder, workers int, tr *tracer) (*repOut, error)
}

// Seeds are the ones the goldens and BENCH_pr7/8 use; -seed-offset adds to them.
var workloads = []workloadDef{
	{
		name:     "restore_storm",
		why:      "open loop, fixed rate: four tenant classes and 800-request recall waves onto spun-down disks; the unit data path (workload, core, policy, block, disk, simnet RPC) works, consensus and fleet idle",
		loop:     "open, at the scenario's fixed arrival rates; generator lateness 0 (arrivals are scheduled in simulated time)",
		baseSeed: 1,
		run:      runRestoreStorm,
	},
	{
		name:     "fleet_alloc",
		why:      "closed loop, 64 routers re-issuing Allocate on a 64-unit 8-shard fleet: every op is a Paxos commit, so paxos, coord, fleet, placement, simnet.Fabric and the engine dominate and the data path is idle",
		loop:     "closed, 64 routers",
		baseSeed: 9,
		warm:     warmFleetAlloc,
		run:      runFleetAlloc,
	},
	{
		name:     "fleet_churn",
		why:      "closed loop, same fleet, 90% Lookup / 5% Allocate / 5% Release, a unit kill and a slot move: reads bypass Paxos, so a commit-path gain must not show here; read-path, retry, drain or engine cost does",
		loop:     "closed, 64 routers",
		baseSeed: 9,
		run:      runFleetChurn,
	},
	{
		name:     "chaos_soak",
		why:      "8 simulated days of every fault family with gray faults and mitigation: the availability claim itself, and the failover, scrub, CRC, hedging and model-check layers the other three skip",
		loop:     "closed, paced: 4 replica-pair writers, auditors and hedged-read probers",
		baseSeed: 1,
		run:      runChaosSoak,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func digestOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quantileDur is the repo's percentile convention (chaos.p99,
// workload.quantile): the element at floor(len*perMille/1000) of the sorted
// set.
func quantileDur(sorted []time.Duration, perMille int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * perMille / 1000
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurs(s []time.Duration) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func simMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- restore_storm ---

// stormRatioLimit is the repo's own latency limit
// (TestTrafficProtectionBoundsStormTail): protected premium storm p999
// within 3x of its quiescent p999.
const stormRatioLimit = 3.0

func runRestoreStorm(seed int64, rec *obs.Recorder, _ int, tr *tracer) (*repOut, error) {
	o := chaos.Options{Seed: seed, Tenants: true, Storm: true, Protect: true, Recorder: rec}
	sp := tr.begin("chaos", "chaos.Run")
	rep, err := chaos.Run(o)
	sp.end()
	if err != nil {
		return nil, err
	}
	if rep.SLO == nil {
		return nil, errors.New("traffic run returned no SLO report")
	}
	slo := rep.SLO
	out := &repOut{violations: rep.Violations, counters: map[string]float64{}}
	shed, throttled := 0, 0
	for _, row := range slo.Rows {
		out.attempted += row.Total
		out.ok += row.OK
		shed += row.Shed
		throttled += row.Throttled
	}
	topts := workload.DefaultTrafficOptions(seed)
	out.simSeconds = (topts.Warmup + topts.Quiescent + topts.Storm + topts.Drain).Seconds()
	out.simClock = out.simSeconds // the boot settle before it is not exposed
	pS := slo.Row(workload.ClassPremium, workload.PhaseStorm)
	pQ := slo.Row(workload.ClassPremium, workload.PhaseQuiescent)
	out.p99 = pS.P99
	out.digest = digestOf(slo.Text(), rep.LogText())

	ratio := 0.0
	if pQ.P999 > 0 {
		ratio = float64(pS.P999) / float64(pQ.P999)
	}
	if pQ.P999 <= 0 || ratio > stormRatioLimit {
		out.violations = append(out.violations, fmt.Sprintf(
			"premium storm p999 %v vs quiescent p999 %v: ratio %.2f exceeds the %.0fx limit",
			pS.P999, pQ.P999, ratio, stormRatioLimit))
	}
	c := out.counters
	c["workload.requests_k"] = float64(out.attempted) / 1e3
	c["workload.premium_storm_p50_sim_ms"] = simMS(pS.P50)
	c["workload.premium_quiescent_p99_sim_ms"] = simMS(pQ.P99)
	c["workload.premium_storm_ratio"] = ratio
	c["workload.batch_storm_p99_sim_ms"] = simMS(slo.Row(workload.ClassBatch, workload.PhaseStorm).P99)
	c["workload.ingest_p99_sim_ms"] = simMS(slo.Row(workload.ClassIngest, workload.PhaseStorm).P99)
	c["workload.active_disks_max"] = float64(slo.ActiveDisksMax)
	c["workload.spinups"] = float64(slo.SpinUps)
	c["policy.shed"] = float64(shed)
	c["policy.throttled"] = float64(throttled)
	return out, nil
}

// --- chaos_soak ---

const soakDuration = 8 * 24 * time.Hour

func runChaosSoak(seed int64, rec *obs.Recorder, _ int, tr *tracer) (*repOut, error) {
	o := chaos.DefaultOptions(seed, soakDuration)
	o.GrayFaults = true
	o.Mitigation = true
	o.Recorder = rec
	sp := tr.begin("chaos", "chaos.Run")
	rep, err := chaos.Run(o)
	sp.end()
	if err != nil {
		return nil, err
	}
	s := rep.Stats
	out := &repOut{
		attempted:  s.WritesAcked + s.WritesFailed + s.ProbeReads,
		ok:         s.WritesAcked + s.ProbeReads - s.ProbeErrors,
		simSeconds: soakDuration.Seconds(),
		simClock:   soakDuration.Seconds(), // boot and drain around it are not exposed
		p99:        s.ProbeDegradedP99,
		digest:     digestOf(rep.SummaryText(), rep.LogText()),
		violations: rep.Violations,
		counters:   map[string]float64{},
	}
	c := out.counters
	c["chaos.faults_applied"] = float64(s.FaultsApplied)
	c["chaos.probe_healthy_p99_sim_ms"] = simMS(s.ProbeHealthyP99)
	c["model.ops_checked_k"] = float64(s.ModelOps) / 1e3
	c["core.scrub_scanned_k"] = float64(s.ScrubScanned) / 1e3
	c["core.hedge_reads_k"] = float64(s.Hedges) / 1e3
	c["core.hedge_wins"] = float64(s.HedgeWins)
	return out, nil
}

// --- fleet workloads ---

const (
	fleetUnits    = 64
	fleetShards   = 8
	fleetRouters  = 64
	fleetVolSize  = 64 << 20 // chaos.FleetOptions default
	allocWarmup   = 3 * time.Second
	allocWindow   = 6 * time.Second
	churnWindow   = 45 * time.Second
	churnPreload  = 8 // volumes each router owns before (and keeps during) the churn
	churnVictim   = "u000"
	drainStep     = 30 * time.Second
	drainTimeout  = 30 * time.Minute
	bootStep      = 10 * time.Second
	bootTimeout   = 3 * time.Minute
	defaultEngine = 2
)

func warmFleetAlloc(seed int64) (float64, error) {
	return chaos.MeasureFleetAlloc(chaos.FleetOptions{
		Seed: seed, Units: fleetUnits, Shards: fleetShards, Clients: fleetRouters,
		EngineWorkers: defaultEngine,
	}, allocWarmup, allocWindow)
}

// bootFleet builds the fleet the way chaos.fleetConfig does for a run with
// no fault schedule and settles until every shard has a leader.
func bootFleet(seed int64, rec *obs.Recorder, workers int, tr *tracer) (*fleet.Fleet, error) {
	sp := tr.begin("fleet", "fleet.New")
	f := fleet.New(fleet.Config{
		Units: fleetUnits, Shards: fleetShards, Seed: seed, Recorder: rec, EngineWorkers: workers,
	})
	sp.end()
	sp = tr.begin("fleet", "Fleet.Settle(boot)")
	defer sp.end()
	for elapsed := time.Duration(0); f.LeaderlessShard() >= 0; elapsed += bootStep {
		if elapsed >= bootTimeout {
			return nil, fmt.Errorf("fleet shard %d leaderless after boot settle", f.LeaderlessShard())
		}
		f.Settle(bootStep)
	}
	return f, nil
}

// runFleetAlloc is chaos.MeasureFleetAlloc's closed loop rebuilt from the
// fleet's public API so each Allocate can be timed; the warm-up repetition
// runs the original and the gate requires both to report the same rate.
func runFleetAlloc(seed int64, rec *obs.Recorder, workers int, tr *tracer) (*repOut, error) {
	f, err := bootFleet(seed, rec, workers, tr)
	if err != nil {
		return nil, err
	}
	measuring := false
	attempted, ok := 0, 0
	var lat []time.Duration
	for i := 0; i < fleetRouters; i++ {
		r := f.NewRouter(fmt.Sprintf("m%03d", i))
		cl, n := i, 0
		var next func()
		next = func() {
			vol := fmt.Sprintf("m%03d-%d", cl, n)
			n++
			start := f.Sched.Now()
			r.Allocate(vol, fleetVolSize, "bench", func(_ []string, err error) {
				if measuring {
					attempted++
					if err == nil {
						ok++
						lat = append(lat, f.Sched.Now()-start)
					}
				}
				next()
			})
		}
		next()
	}
	sp := tr.begin("fleet", "Fleet.Settle(warmup)")
	f.Settle(allocWarmup)
	sp.end()
	measuring = true
	sp = tr.begin("fleet", "Fleet.Settle(window)")
	f.Settle(allocWindow)
	sp.end()
	measuring = false

	out := &repOut{
		attempted: attempted, ok: ok, simSeconds: allocWindow.Seconds(),
		events: f.EventsFired(), counters: map[string]float64{},
	}
	sortDurs(lat)
	out.p99 = quantileDur(lat, 990)
	sp = tr.begin("fleet", "Fleet.Validate*")
	out.violations = fleetInvariants(f)
	sp.end()
	sp = tr.begin("obs", "Fleet.FinishObs")
	f.FinishObs()
	sp.end()
	out.counters["fleet.ops_k"] = float64(attempted) / 1e3
	out.counters["fleet.alloc_p50_sim_ms"] = simMS(quantileDur(lat, 500))
	out.counters["fleet.alloc_p99_sim_ms"] = simMS(out.p99)
	fleetEngineStats(f, out)
	out.digest = digestOf(fmt.Sprintf("fleet_alloc seed %d: %d attempted, %d ok, p50 %v p99 %v, %d events, map epoch %d",
		seed, attempted, ok, quantileDur(lat, 500), out.p99, out.events, f.AuthMap().Epoch))
	return out, nil
}

// fleetEngineStats reads the engine's public per-partition counters.
func fleetEngineStats(f *fleet.Fleet, out *repOut) {
	out.simClock = f.Sched.Now().Seconds()
	maxPending := 0
	for p := 0; f.Engine != nil && p < f.Engine.Parts(); p++ {
		if mp := f.Engine.Part(p).Stats().MaxPending; mp > maxPending {
			maxPending = mp
		}
	}
	out.counters["simtime.max_pending"] = float64(maxPending)
}

func fleetInvariants(f *fleet.Fleet) []string {
	var v []string
	for _, err := range []error{f.ValidateSpread(), f.ValidateShardMap(), f.ValidateCapacity()} {
		if err != nil {
			v = append(v, "fleet invariant: "+err.Error())
		}
	}
	return v
}

// churnRouter is one closed-loop client of fleet_churn: it owns its volumes
// and draws its op mix from its own rng, so the op sequence is a function
// of the seed alone.
type churnRouter struct {
	r    *fleet.Router
	id   int
	rng  *rand.Rand
	live []string
	next int // next fresh volume index
}

func (c *churnRouter) freshName() string {
	name := fmt.Sprintf("c%03d-%d", c.id, c.next)
	c.next++
	return name
}

func runFleetChurn(seed int64, rec *obs.Recorder, workers int, tr *tracer) (*repOut, error) {
	f, err := bootFleet(seed, rec, workers, tr)
	if err != nil {
		return nil, err
	}
	ledger := model.NewVolumeLedger()
	routers := make([]*churnRouter, fleetRouters)
	for i := range routers {
		routers[i] = &churnRouter{
			r: f.NewRouter(fmt.Sprintf("c%03d", i)), id: i,
			rng: rand.New(rand.NewSource(seed*1000003 + int64(i))),
		}
	}

	// Preload: every router allocates its own volumes, closed loop.
	pending := fleetRouters * churnPreload
	var preloadErrs []string
	for _, c := range routers {
		c := c
		var step func()
		step = func() {
			if c.next >= churnPreload {
				return
			}
			name := c.freshName()
			c.r.Allocate(name, fleetVolSize, "churn", func(_ []string, err error) {
				pending--
				if err != nil {
					preloadErrs = append(preloadErrs, fmt.Sprintf("preload %s: %v", name, err))
				} else {
					c.live = append(c.live, name)
					ledger.Alloc(name)
				}
				step()
			})
		}
		step()
	}
	sp := tr.begin("fleet", "Fleet.Settle(preload)")
	for elapsed := time.Duration(0); pending > 0 && elapsed < bootTimeout; elapsed += bootStep {
		f.Settle(bootStep)
	}
	sp.end()
	if pending > 0 || len(preloadErrs) > 0 {
		return nil, fmt.Errorf("fleet_churn preload: %d pending, errors %v", pending, preloadErrs)
	}

	// Churn window.
	const (
		opLookup = iota
		opAllocate
		opRelease
		numOps
	)
	opNames := [numOps]string{"lookup", "alloc", "release"}
	var lat [numOps][]time.Duration
	var attempted, okN [numOps]int
	unavailable := 0
	var opErrs []string
	running := true
	inflight := 0
	var issue func(c *churnRouter)
	issue = func(c *churnRouter) {
		if !running {
			return
		}
		inflight++
		start := f.Sched.Now()
		finish := func(op int, err error) {
			inflight--
			attempted[op]++
			switch {
			case err == nil:
				okN[op]++
				lat[op] = append(lat[op], f.Sched.Now()-start)
			case errors.Is(err, fleet.ErrShardUnavailable):
				unavailable++
			default:
				opErrs = append(opErrs, fmt.Sprintf("%s: %v", opNames[op], err))
			}
			issue(c)
		}
		draw := c.rng.Intn(100)
		switch {
		case draw >= 95 && len(c.live) > churnPreload:
			i := c.rng.Intn(len(c.live))
			name := c.live[i]
			c.live = append(c.live[:i], c.live[i+1:]...)
			c.r.Release(name, func(err error) {
				if err == nil {
					ledger.Release(name)
				}
				finish(opRelease, err)
			})
		case draw >= 90:
			name := c.freshName()
			c.r.Allocate(name, fleetVolSize, "churn", func(_ []string, err error) {
				if err == nil {
					c.live = append(c.live, name)
					ledger.Alloc(name)
				}
				finish(opAllocate, err)
			})
		default:
			name := c.live[c.rng.Intn(len(c.live))]
			c.r.Lookup(name, func(disks []string, _ int64, err error) {
				if err == nil && len(disks) == 0 {
					err = fmt.Errorf("lookup %s resolved no disks", name)
				}
				finish(opLookup, err)
			})
		}
	}
	for _, c := range routers {
		issue(c)
	}
	sp = tr.begin("fleet", "Fleet.Settle(churn)")
	f.Settle(churnWindow / 3)
	killAt := f.Sched.Now()
	f.KillUnit(churnVictim)
	f.Settle(churnWindow / 3)
	// Move the first slot to the next shard over: one full freeze ->
	// handoff -> install -> drop -> epoch-bump chain under load.
	moveDone := false
	var moveErr error
	f.MoveSlot(0, (f.AuthMap().Slots[0]+1)%fleetShards, func(err error) { moveDone, moveErr = true, err })
	f.Settle(churnWindow - 2*(churnWindow/3))
	running = false
	sp.end()

	// Let in-flight ops and the move finish, then wait for the background
	// schedulers to drain the dead unit.
	out := &repOut{counters: map[string]float64{}}
	sp = tr.begin("fleet", "Fleet.Settle(drain)")
	blocker := ""
	for elapsed := time.Duration(0); ; elapsed += drainStep {
		blocker = f.DrainBlocker(churnVictim)
		if blocker == "" && inflight == 0 && moveDone {
			break
		}
		if elapsed >= drainTimeout {
			out.violations = append(out.violations, fmt.Sprintf(
				"unit %s not drained within %v: %s (inflight %d, move done %v)",
				churnVictim, drainTimeout, blocker, inflight, moveDone))
			break
		}
		f.Settle(drainStep)
	}
	drain := f.Sched.Now() - killAt
	sp.end()
	if moveErr != nil {
		out.violations = append(out.violations, "MoveSlot: "+moveErr.Error())
	}
	for _, e := range opErrs {
		out.violations = append(out.violations, "op error: "+e)
	}

	sp = tr.begin("fleet", "Fleet.Validate*")
	out.violations = append(out.violations, fleetInvariants(f)...)
	sp.end()
	sp = tr.begin("model", "VolumeLedger.Check")
	if holders, err := f.VolumeHolders(); err != nil {
		out.violations = append(out.violations, "model check blocked: "+err.Error())
	} else {
		am := f.AuthMap()
		for _, v := range ledger.Check(holders, func(vol string) int { return am.ShardOf(vol) }) {
			out.violations = append(out.violations, "model: "+v)
		}
	}
	sp.end()
	sp = tr.begin("obs", "Fleet.FinishObs")
	f.FinishObs()
	sp.end()

	var all []time.Duration
	var b strings.Builder
	fmt.Fprintf(&b, "fleet_churn seed %d\n", seed)
	for op := 0; op < numOps; op++ {
		out.attempted += attempted[op]
		out.ok += okN[op]
		all = append(all, lat[op]...)
		sortDurs(lat[op])
		fmt.Fprintf(&b, "  %-8s %d attempted, %d ok, p50 %v p99 %v\n", opNames[op],
			attempted[op], okN[op], quantileDur(lat[op], 500), quantileDur(lat[op], 990))
	}
	sortDurs(all)
	out.p99 = quantileDur(all, 990)
	out.simSeconds = churnWindow.Seconds()
	out.events = f.EventsFired()
	fmt.Fprintf(&b, "  all      p99 %v; %d unavailable; drain %v; %d live volumes; map epoch %d; %d events\n",
		out.p99, unavailable, drain, ledger.Len(), f.AuthMap().Epoch, out.events)
	out.digest = digestOf(b.String())

	c := out.counters
	c["fleet.ops_k"] = float64(out.attempted) / 1e3
	c["fleet.unavailable"] = float64(unavailable)
	c["fleet.drain_sim_s"] = drain.Seconds()
	c["fleet.lookup_p50_sim_ms"] = simMS(quantileDur(lat[opLookup], 500))
	c["fleet.lookup_p99_sim_ms"] = simMS(quantileDur(lat[opLookup], 990))
	c["fleet.alloc_p50_sim_ms"] = simMS(quantileDur(lat[opAllocate], 500))
	c["fleet.alloc_p99_sim_ms"] = simMS(quantileDur(lat[opAllocate], 990))
	c["fleet.release_p99_sim_ms"] = simMS(quantileDur(lat[opRelease], 990))
	fleetEngineStats(f, out)
	return out, nil
}
