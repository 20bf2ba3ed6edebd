// Command ustore-chaos runs the deterministic chaos harness against a
// simulated UStore cluster and reports invariant violations.
//
//	ustore-chaos -seed 7 -days 100          # seeded all-fault soak
//	ustore-chaos -seed 7 -days 2 -log       # print the event log
//	ustore-chaos -seeds 8 -parallel 4       # sweep seeds 1..8 on 4 workers
//	ustore-chaos -no-checksums -minimize    # shrink a violating schedule
//	ustore-chaos -stale-lease -minimize     # model checker catches a seeded bug
//	ustore-chaos -gray -mitigation          # fail-slow faults + the mitigation stack
//	ustore-chaos -gray                      # same faults, unmitigated (tail comparison)
//	ustore-chaos -gray -mitigation -quarantine-blind -minimize  # quarantine checker demo
//	ustore-chaos -metrics-out m.json -trace-out t.json
//	ustore-chaos -days 30 -cpuprofile cpu.out
//	ustore-chaos -fleet -units 8 -shards 2 -unit-loss   # fleet-scale unit-loss run
//	ustore-chaos -fleet -units 48 -fleet-bench 1,4,16   # shard-scaling throughput sweep
//	ustore-chaos -fleet -units 64 -engine-workers 8     # same bytes, 8 engine workers
//	ustore-chaos -fleet -units 64 -shards 8 -crashes 3 -partitions 2 -moves 2
//	                                                    # fleet chaos: crash/partition/
//	                                                    # mid-migration fault schedule
//	ustore-chaos -fleet -shards 4 -crashes 2 -moves 2 -skip-redrive -minimize
//	                                                    # plant the skipped-redrive bug,
//	                                                    # shrink to the violating prefix
//	ustore-chaos -spec scenario.yaml                    # one declarative spec-file run
//
// -seeds N runs N consecutive seeds starting at -seed; -parallel P spreads
// independent runs over P workers (<1 = one per CPU). Every run is its own
// deterministic simulation, so the per-seed reports are byte-identical at
// any worker count, and -minimize speculatively probes bisection prefixes
// in parallel while committing the exact sequential search path. With
// -seeds > 1, -metrics-out / -trace-out write one file per seed (the seed
// number is inserted before the extension).
//
// -metrics-out writes the run's metrics registry as JSON (or Prometheus
// text with a .prom suffix); -trace-out writes a Chrome trace_event file
// loadable in chrome://tracing or https://ui.perfetto.dev. -cpuprofile /
// -memprofile write runtime/pprof profiles like go test's flags of the
// same names.
//
// Exit status 1 means at least one invariant was violated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ustore/internal/campaign"
	"ustore/internal/chaos"
	"ustore/internal/obs"
	"ustore/internal/prof"
	"ustore/internal/spec"
)

// writeMetrics dumps the registry to path: Prometheus text for .prom files,
// JSON otherwise.
func writeMetrics(rec *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".prom") {
		return rec.Registry().WritePrometheus(f)
	}
	return rec.Registry().WriteJSON(f)
}

func writeTrace(rec *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.Tracer().WriteChromeTrace(f)
}

// seedPath inserts ".seed<n>" before path's extension, so a sweep's
// per-seed outputs don't clobber each other: m.json -> m.seed7.json.
func seedPath(path string, seed int64) string {
	if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
		return fmt.Sprintf("%s.seed%d%s", path[:i], seed, path[i:])
	}
	return fmt.Sprintf("%s.seed%d", path, seed)
}

// mixHeader renders the run header: the effective fault mix and injected
// bugs, so a pasted report is self-describing (a gray run with mitigation
// off reads very differently from one with it on).
func mixHeader(o chaos.Options, seeds int) string {
	var fams []string
	add := func(on bool, name string) {
		if on {
			fams = append(fams, name)
		}
	}
	add(o.HostCrashes, "host-crashes")
	add(o.DiskFaults, "disk-faults")
	add(o.HubFaults, "hub-faults")
	add(o.NetFaults, "net-faults")
	add(o.Corruptions, "corruptions")
	add(o.GrayFaults, "gray-faults")
	if len(fams) == 0 {
		fams = append(fams, "none")
	}
	var mods []string
	add2 := func(on bool, name string) {
		if on {
			mods = append(mods, name)
		}
	}
	add2(o.Mitigation, "mitigation")
	add2(o.DisableChecksums, "no-checksums")
	add2(o.InjectStaleLease, "stale-lease")
	add2(o.InjectQuarantineBlind, "quarantine-blind")
	add2(o.Tenants, "tenants")
	add2(o.Storm, "storm")
	add2(o.Protect, "protect")
	h := fmt.Sprintf("ustore-chaos: seed %d", o.Seed)
	if seeds > 1 {
		h = fmt.Sprintf("ustore-chaos: seeds %d..%d", o.Seed, o.Seed+int64(seeds)-1)
	}
	h += fmt.Sprintf(", %.3g days, faults: %s", o.Duration.Hours()/24, strings.Join(fams, " "))
	if len(mods) > 0 {
		h += ", " + strings.Join(mods, " ")
	}
	return h
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		specPath    = flag.String("spec", "", "run one experiment spec file (YAML/JSON, no grid) instead of flag-built options; grids belong to ustore-campaign")
		seed        = flag.Int64("seed", 1, "schedule + simulation seed (first seed of a sweep)")
		seeds       = flag.Int("seeds", 1, "number of consecutive seeds to run")
		parallel    = flag.Int("parallel", 1, "workers for a seed sweep or -minimize probing (<1 = one per CPU)")
		days        = flag.Float64("days", 2, "fault-phase length in simulated days")
		noChecksums = flag.Bool("no-checksums", false, "disable per-block CRCs (silent corruption reaches clients)")
		staleLease  = flag.Bool("stale-lease", false, "inject the stale-lease failover bug (model-checker demo; pairs with -minimize)")
		gray        = flag.Bool("gray", false, "inject gray faults: fail-slow disks, USB link flaps/downgrades, host brownouts")
		mitigation  = flag.Bool("mitigation", false, "enable the detect-quarantine-hedge mitigation stack (usually with -gray)")
		quarBlind   = flag.Bool("quarantine-blind", false, "make the allocator ignore quarantine (invariant-checker demo; needs -mitigation)")
		fleetMode   = flag.Bool("fleet", false, "run the fleet-scale harness (sharded metadata control plane) instead of a fault schedule")
		units       = flag.Int("units", 8, "fleet mode: deploy units (64 disks each at defaults)")
		shards      = flag.Int("shards", 1, "fleet mode: metadata shards")
		unitLoss    = flag.Bool("unit-loss", false, "fleet mode: kill unit u000 after the load phase and require the repair schedulers to drain it")
		engWorkers  = flag.Int("engine-workers", 0, "fleet mode: goroutines executing each engine window (0 = one per CPU, capped at the partition count; results are byte-identical at any count)")
		crashes     = flag.Int("crashes", 0, "fleet mode: shard-replica crash/restart cycles in the fault schedule")
		partitions  = flag.Int("partitions", 0, "fleet mode: inter-unit partition (or leader-isolation) windows in the fault schedule")
		moves       = flag.Int("moves", 0, "fleet mode: schedule-driven slot migrations; the first is straddled by a source-leader crash (needs -shards >= 2)")
		faultWindow = flag.Duration("fault-window", 0, "fleet mode: fault phase length (default 2m when any fault knob is set)")
		skipRedrive = flag.Bool("skip-redrive", false, "fleet mode: plant the skipped-ledger-re-drive recovery bug (model-checker demo; pairs with -minimize)")
		fleetBench  = flag.String("fleet-bench", "", "fleet mode: comma-separated shard counts to measure allocation throughput for (e.g. 1,4,16)")
		benchOut    = flag.String("bench-out", "", "fleet mode: write the -fleet-bench JSON to this file (default stdout)")
		tenants     = flag.Bool("tenants", false, "run the multi-tenant traffic engine instead of a fault schedule (per-class SLO report)")
		storm       = flag.Bool("storm", false, "add the restore-storm waves to a -tenants run")
		protect     = flag.Bool("protect", false, "arm the admission/throttle/autoscale protection stack in a -tenants run")
		streamQuant = flag.Bool("stream-quantiles", false, "tenants mode: O(1)-memory P² streaming percentile estimators in the SLO report (percentiles approximate, counts and max exact)")
		sloOut      = flag.String("slo-out", "", "write the -tenants run's SLO report to this file")
		minimize    = flag.Bool("minimize", false, "on violation, bisect the schedule to the shortest violating prefix")
		showLog     = flag.Bool("log", false, "print the full event log")
		showSched   = flag.Bool("schedule", false, "print the generated fault schedule")
		metricsOut  = flag.String("metrics-out", "", "write end-of-run metrics to this file (JSON, or Prometheus text if it ends in .prom)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON file for chrome://tracing")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *specPath != "" {
		return runSpec(*specPath, *showSched, *showLog)
	}
	if *days <= 0 {
		fmt.Fprintln(os.Stderr, "ustore-chaos: -days must be positive")
		return 2
	}
	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "ustore-chaos: -seeds must be >= 1")
		return 2
	}
	// Only genuinely incompatible combinations are rejected. In particular
	// -stale-lease composes fine with -seeds: every seed of a sweep is an
	// independent deterministic run, so the injected bug simply rides along
	// in each of them.
	if *seeds > 1 && *minimize {
		fmt.Fprintln(os.Stderr, "ustore-chaos: -minimize works on a single seed (drop -seeds)")
		return 2
	}
	if *quarBlind && !*mitigation {
		fmt.Fprintln(os.Stderr, "ustore-chaos: -quarantine-blind needs -mitigation (without quarantine there is no allocator exclusion to ignore)")
		return 2
	}
	// Fleet-mode flag dependencies: the fleet harness replaces both the
	// fault schedule and the traffic engine, so its shaping flags need
	// -fleet and -fleet can't combine with the other run modes.
	if !*fleetMode {
		for _, dep := range []struct {
			set  bool
			name string
		}{{*unitLoss, "-unit-loss"}, {*fleetBench != "", "-fleet-bench"}, {*benchOut != "", "-bench-out"},
			{*engWorkers != 0, "-engine-workers"}, {*crashes != 0, "-crashes"},
			{*partitions != 0, "-partitions"}, {*moves != 0, "-moves"},
			{*faultWindow != 0, "-fault-window"}, {*skipRedrive, "-skip-redrive"}} {
			if dep.set {
				fmt.Fprintf(os.Stderr, "ustore-chaos: %s needs -fleet (it shapes the fleet run)\n", dep.name)
				return 2
			}
		}
	} else {
		// -minimize composes with -fleet: it bisects the fleet fault
		// schedule instead of the cluster one.
		for _, bad := range []struct {
			set  bool
			name string
		}{{*tenants, "-tenants"}, {*gray, "-gray"}, {*mitigation, "-mitigation"},
			{*staleLease, "-stale-lease"},
			{*quarBlind, "-quarantine-blind"}, {*noChecksums, "-no-checksums"},
			{*traceOut != "", "-trace-out"}} {
			if bad.set {
				fmt.Fprintf(os.Stderr, "ustore-chaos: %s cannot combine with -fleet\n", bad.name)
				return 2
			}
		}
	}

	// Traffic-mode flag dependencies: -storm/-protect/-slo-out shape a
	// tenant traffic run, and traffic mode replaces the fault schedule, so
	// it cannot combine with the fault-run-only modes.
	if !*tenants {
		for _, dep := range []struct {
			set  bool
			name string
		}{{*storm, "-storm"}, {*protect, "-protect"}, {*sloOut != "", "-slo-out"},
			{*streamQuant, "-stream-quantiles"}} {
			if dep.set {
				fmt.Fprintf(os.Stderr, "ustore-chaos: %s needs -tenants (it shapes the traffic run)\n", dep.name)
				return 2
			}
		}
	} else {
		for _, bad := range []struct {
			set  bool
			name string
		}{{*gray, "-gray"}, {*mitigation, "-mitigation"}, {*minimize, "-minimize"},
			{*staleLease, "-stale-lease"}, {*quarBlind, "-quarantine-blind"},
			{*noChecksums, "-no-checksums"}} {
			if bad.set {
				fmt.Fprintf(os.Stderr, "ustore-chaos: %s is a fault-run mode and cannot combine with -tenants\n", bad.name)
				return 2
			}
		}
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
		}
	}()

	if *fleetMode {
		base := chaos.FleetOptions{
			Seed: *seed, Units: *units, Shards: *shards, UnitLoss: *unitLoss,
			EngineWorkers: *engWorkers, ReplicaCrashes: *crashes,
			Partitions: *partitions, SlotMoves: *moves, FaultWindow: *faultWindow,
			InjectSkipRedrive: *skipRedrive,
		}
		return runFleetMode(base, *seeds, *parallel, *minimize,
			*fleetBench, *benchOut, *showLog, *metricsOut)
	}

	o := chaos.DefaultOptions(*seed, time.Duration(float64(24*time.Hour)*(*days)))
	o.DisableChecksums = *noChecksums
	o.InjectStaleLease = *staleLease
	o.GrayFaults = *gray
	o.Mitigation = *mitigation
	o.InjectQuarantineBlind = *quarBlind
	o.Tenants = *tenants
	o.Storm = *storm
	o.Protect = *protect
	o.StreamQuantiles = *streamQuant
	if *tenants {
		// Traffic mode replaces the fault schedule entirely.
		o.HostCrashes, o.DiskFaults, o.HubFaults, o.NetFaults, o.Corruptions = false, false, false, false, false
	}
	fmt.Println(mixHeader(o, *seeds))
	wantRec := *metricsOut != "" || *traceOut != ""

	if *seeds > 1 {
		return runSweep(o, *seeds, *parallel, wantRec, *metricsOut, *traceOut, *showSched, *showLog, *sloOut)
	}

	var rec *obs.Recorder
	if wantRec {
		rec = obs.NewRecorder()
		o.Recorder = rec
	}

	var rep *chaos.Report
	if *minimize {
		var sched []chaos.Fault
		var min *chaos.Report
		sched, min, rep, err = chaos.MinimizeParallel(o, *parallel)
		if err == nil && min != nil {
			fmt.Printf("minimized schedule: %d of %d faults still violate\n", len(sched), len(rep.Schedule))
			for _, f := range sched {
				fmt.Printf("  %-14v %s\n", f.At, f)
			}
			rep = min
		}
	} else {
		rep, err = chaos.Run(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
		return 2
	}
	if *metricsOut != "" {
		if werr := writeMetrics(rec, *metricsOut); werr != nil {
			fmt.Fprintf(os.Stderr, "ustore-chaos: writing metrics: %v\n", werr)
			return 2
		}
	}
	if *traceOut != "" {
		if werr := writeTrace(rec, *traceOut); werr != nil {
			fmt.Fprintf(os.Stderr, "ustore-chaos: writing trace: %v\n", werr)
			return 2
		}
	}

	if *sloOut != "" {
		if werr := writeSLO(rep, *sloOut); werr != nil {
			fmt.Fprintf(os.Stderr, "ustore-chaos: writing SLO report: %v\n", werr)
			return 2
		}
	}

	if *showSched {
		for _, f := range rep.Schedule {
			fmt.Printf("  %-14v %s\n", f.At, f)
		}
	}
	if *showLog {
		fmt.Println(rep.LogText())
	}
	fmt.Print(rep.SummaryText())
	if len(rep.Violations) > 0 {
		return 1
	}
	return 0
}

// runSpec executes one spec-file cell through the campaign compiler: the
// declarative path to exactly the run the flags would build. Grids are
// ustore-campaign's job — a gridded spec is rejected here so the two
// tools don't grow divergent sweep semantics.
func runSpec(path string, showSched, showLog bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
		return 2
	}
	f, err := spec.Parse(data, path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
		return 2
	}
	if len(f.Axes) > 0 {
		fmt.Fprintf(os.Stderr, "ustore-chaos: %s has a parameter grid; run it with ustore-campaign -spec %s\n", path, path)
		return 2
	}
	s := f.Spec
	switch s.Mode {
	case "faults", "traffic":
		o := campaign.CompileChaos(s)
		fmt.Println(mixHeader(o, 1))
		rep, err := chaos.Run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
			return 2
		}
		if showSched {
			for _, fa := range rep.Schedule {
				fmt.Printf("  %-14v %s\n", fa.At, fa)
			}
		}
		if showLog {
			fmt.Println(rep.LogText())
		}
		fmt.Print(rep.SummaryText())
		if len(rep.Violations) > 0 {
			return 1
		}
		return 0
	case "fleet":
		o := campaign.CompileFleet(s)
		fmt.Printf("ustore-chaos: fleet seed %d, %d units, %d shards, unit-loss=%v\n",
			o.Seed, o.Units, o.Shards, o.UnitLoss)
		rep, err := chaos.RunFleet(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
			return 2
		}
		if showLog {
			fmt.Println(rep.LogText())
		}
		fmt.Print(rep.SummaryText())
		if len(rep.Violations) > 0 {
			return 1
		}
		return 0
	default:
		fmt.Fprintf(os.Stderr, "ustore-chaos: spec mode %q runs under ustore-campaign, not ustore-chaos\n", s.Mode)
		return 2
	}
}

// runFleetMode executes the fleet-scale harness: a bench sweep when
// -fleet-bench is set, a schedule-minimizing run under -minimize, otherwise
// one run per seed.
func runFleetMode(base chaos.FleetOptions, seeds, parallel int, minimize bool,
	benchList, benchOut string, showLog bool, metricsOut string) int {
	if benchList != "" {
		return runFleetBench(base.Seed, base.Units, base.EngineWorkers, benchList, benchOut)
	}
	header := fmt.Sprintf("ustore-chaos: fleet seed %d", base.Seed)
	if seeds > 1 {
		header = fmt.Sprintf("ustore-chaos: fleet seeds %d..%d", base.Seed, base.Seed+int64(seeds)-1)
	}
	fmt.Printf("%s, %d units, %d shards, unit-loss=%v\n",
		header, base.Units, base.Shards, base.UnitLoss)
	if base.ReplicaCrashes > 0 || base.Partitions > 0 || base.SlotMoves > 0 {
		fmt.Printf("fleet faults: %d crashes, %d partitions, %d slot moves, skip-redrive=%v\n",
			base.ReplicaCrashes, base.Partitions, base.SlotMoves, base.InjectSkipRedrive)
	}

	if minimize {
		return runFleetMinimize(base, parallel, showLog)
	}

	var reps []*chaos.FleetReport
	if seeds > 1 {
		var err error
		reps, err = chaos.FleetSweep(base, seeds, parallel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
			return 2
		}
	} else {
		var rec *obs.Recorder
		if metricsOut != "" {
			rec = obs.NewRecorder()
			base.Recorder = rec
		}
		rep, err := chaos.RunFleet(base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
			return 2
		}
		if metricsOut != "" {
			if werr := writeMetrics(rec, metricsOut); werr != nil {
				fmt.Fprintf(os.Stderr, "ustore-chaos: writing metrics: %v\n", werr)
				return 2
			}
		}
		reps = []*chaos.FleetReport{rep}
	}

	violated := false
	for _, rep := range reps {
		if showLog {
			fmt.Println(rep.LogText())
		}
		fmt.Print(rep.SummaryText())
		if len(rep.Violations) > 0 {
			violated = true
		}
	}
	if violated {
		return 1
	}
	return 0
}

// runFleetMinimize runs the seeded fleet fault schedule and, on violation,
// bisects (with parallel speculative probes) for the shortest schedule
// prefix that still violates, then prints the surviving faults — the
// normal first step when a fleet chaos run goes red.
func runFleetMinimize(base chaos.FleetOptions, parallel int, showLog bool) int {
	sched, min, full, err := chaos.MinimizeFleet(base, parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
		return 2
	}
	if min == nil {
		if showLog {
			fmt.Println(full.LogText())
		}
		fmt.Print(full.SummaryText())
		return 0
	}
	fmt.Printf("minimized fleet schedule: %d of %d faults still violate\n",
		len(sched), full.FaultsApplied)
	for _, ft := range sched {
		fmt.Printf("  %s\n", ft)
	}
	if showLog {
		fmt.Println(min.LogText())
	}
	fmt.Print(min.SummaryText())
	return 1
}

// runFleetBench measures allocation throughput at each shard count in
// benchList (comma-separated) on a fixed fleet, emitting a JSON document to
// benchOut (stdout when empty). Offered load scales with capacity: 8
// saturating closed-loop clients per shard.
func runFleetBench(seed int64, units, engineWorkers int, benchList, benchOut string) int {
	const (
		warmup = 3 * time.Second
		window = 6 * time.Second
	)
	type point struct {
		Shards       int     `json:"shards"`
		Clients      int     `json:"clients"`
		AllocsPerSec float64 `json:"allocs_per_sec"`
		Speedup      float64 `json:"speedup_vs_1_shard"`
	}
	doc := struct {
		Bench     string  `json:"bench"`
		Seed      int64   `json:"seed"`
		Units     int     `json:"units"`
		WarmupSec float64 `json:"warmup_sec"`
		WindowSec float64 `json:"window_sec"`
		Points    []point `json:"points"`
	}{Bench: "fleet-alloc-shard-scaling", Seed: seed, Units: units,
		WarmupSec: warmup.Seconds(), WindowSec: window.Seconds()}
	for _, fld := range strings.Split(benchList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(fld))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "ustore-chaos: bad -fleet-bench shard count %q\n", fld)
			return 2
		}
		v, err := chaos.MeasureFleetAlloc(chaos.FleetOptions{
			Seed:          seed,
			Units:         units,
			Shards:        n,
			Clients:       8 * n,
			VolumeSize:    8 << 20,
			EngineWorkers: engineWorkers,
		}, warmup, window)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ustore-chaos: fleet bench %d shards: %v\n", n, err)
			return 2
		}
		p := point{Shards: n, Clients: 8 * n, AllocsPerSec: v, Speedup: 1}
		if len(doc.Points) > 0 {
			p.Speedup = v / doc.Points[0].AllocsPerSec
		}
		doc.Points = append(doc.Points, p)
		fmt.Fprintf(os.Stderr, "ustore-chaos: fleet bench %2d shards: %.0f allocs/sec\n", n, v)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
		return 2
	}
	out = append(out, '\n')
	if benchOut == "" {
		fmt.Print(string(out))
		return 0
	}
	if err := os.WriteFile(benchOut, out, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ustore-chaos: writing bench: %v\n", err)
		return 2
	}
	return 0
}

// writeSLO writes a traffic run's SLO report text to path.
func writeSLO(rep *chaos.Report, path string) error {
	if rep.SLO == nil {
		return fmt.Errorf("run produced no SLO report")
	}
	return os.WriteFile(path, []byte(rep.SLO.Text()), 0o644)
}

// runSweep executes a multi-seed sweep and prints each seed's summary in
// seed order. Exit status 1 if any seed violated an invariant.
func runSweep(base chaos.Options, seeds, parallel int, wantRec bool, metricsOut, traceOut string, showSched, showLog bool, sloOut string) int {
	var recs map[int64]*obs.Recorder
	var recFor func(seed int64) *obs.Recorder
	if wantRec {
		recs = make(map[int64]*obs.Recorder, seeds)
		for s := base.Seed; s < base.Seed+int64(seeds); s++ {
			recs[s] = obs.NewRecorder()
		}
		recFor = func(seed int64) *obs.Recorder { return recs[seed] }
	}

	reps, err := chaos.Sweep(base, seeds, parallel, recFor)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustore-chaos: %v\n", err)
		return 2
	}

	violated := false
	for _, rep := range reps {
		if metricsOut != "" {
			if werr := writeMetrics(recs[rep.Seed], seedPath(metricsOut, rep.Seed)); werr != nil {
				fmt.Fprintf(os.Stderr, "ustore-chaos: writing metrics: %v\n", werr)
				return 2
			}
		}
		if traceOut != "" {
			if werr := writeTrace(recs[rep.Seed], seedPath(traceOut, rep.Seed)); werr != nil {
				fmt.Fprintf(os.Stderr, "ustore-chaos: writing trace: %v\n", werr)
				return 2
			}
		}
		if sloOut != "" {
			if werr := writeSLO(rep, seedPath(sloOut, rep.Seed)); werr != nil {
				fmt.Fprintf(os.Stderr, "ustore-chaos: writing SLO report: %v\n", werr)
				return 2
			}
		}
		if showSched {
			for _, f := range rep.Schedule {
				fmt.Printf("  %-14v %s\n", f.At, f)
			}
		}
		if showLog {
			fmt.Println(rep.LogText())
		}
		fmt.Print(rep.SummaryText())
		if len(rep.Violations) > 0 {
			violated = true
		}
	}
	if violated {
		return 1
	}
	return 0
}
