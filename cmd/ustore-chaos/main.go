// Command ustore-chaos runs one scenario — a seeded fault schedule, a
// multi-tenant traffic storm, or a sharded-fleet control-plane run — against
// the simulated UStore cluster and reports invariant violations.
//
// The scenario is a spec (internal/spec): -spec FILE, or the empty document.
// Scenario flags are overrides of spec fields applied on top of it, so a flag
// line and the file saying the same thing are the same run, and the two mix:
//
//	ustore-chaos -seed 7 -days 100          # seeded all-fault soak
//	ustore-chaos -spec scenario.yaml -seed 5 -minimize   # a file, another seed, shrunk
//	ustore-chaos -gray -mitigation          # fail-slow faults + the mitigation stack
//	ustore-chaos -tenants -storm -protect -slo-out slo.txt
//	ustore-chaos -fleet -units 64 -shards 8 -crashes 3 -partitions 2 -moves 2
//	ustore-chaos -fleet -units 16 -shards 4 -crashes 2 -moves 2 -minimize
//	ustore-chaos -fleet -units 48 -fleet-bench 1,4,16   # shard-scaling throughput sweep
//
// The aliases table below maps each scenario flag to its spec path; defaults
// and value rules are spec.Default's and spec.Validate's, and a flag under
// faults., traffic. or fleet. needs that mode. What a spec cannot say stays a
// plain flag: how to run it (-seeds -parallel -minimize -fleet-bench), what
// to write (-schedule -metrics-out -trace-out -slo-out -bench-out
// -cpuprofile -memprofile), and -no-checksums, the checksum checker's
// negative control — a spec describes the correct system, so a run without
// its checksums is never a cached cell.
//
// Every run is compile -> run -> report (campaign.Compile, Scenario.Run); a
// single run is a sweep of one seed. -seeds N runs N consecutive seeds and
// -parallel P spreads them (or -minimize's speculative probes) over P workers
// (<1 = one per CPU); each run is its own deterministic simulation, so output
// is byte-identical at any worker count. With -seeds > 1 output files are
// written per seed (m.json -> m.seed7.json). -metrics-out takes a .prom
// suffix for Prometheus text; -trace-out writes a Chrome trace_event file.
//
// Exit status 1 means an invariant was violated, 2 a bad flag, spec or file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"ustore/internal/campaign"
	"ustore/internal/chaos"
	"ustore/internal/obs"
	"ustore/internal/prof"
	"ustore/internal/runner"
	"ustore/internal/spec"
)

// alias is a scenario flag: a command-line spelling of one spec field. It
// carries no default and no rule of its own — when set, its text overrides
// the field at path.
type alias struct {
	path  string
	bare  bool   // boolean: usable without a value
	mode  string // a bare flag that sets path to this, not to "true"
	usage string
}

// aliases is the name table: every scenario flag and the spec path it
// overrides.
var aliases = map[string]alias{
	"seed":       {path: "seed", usage: "schedule + simulation seed (first seed of a sweep)"},
	"days":       {path: "days", usage: "fault-phase length in simulated days"},
	"fleet":      {path: "mode", bare: true, mode: "fleet", usage: "run the fleet-scale harness (sharded metadata control plane) instead of a fault schedule"},
	"tenants":    {path: "mode", bare: true, mode: "traffic", usage: "run the multi-tenant traffic engine instead of a fault schedule (per-class SLO report)"},
	"gray":       {path: "faults.gray", bare: true, usage: "inject gray faults: fail-slow disks, USB link flaps/downgrades, host brownouts"},
	"mitigation": {path: "faults.mitigation", bare: true, usage: "enable the detect-quarantine-hedge mitigation stack (usually with -gray)"},
	"units":      {path: "fleet.units", usage: "deploy units (64 disks each; at least 3 per shard)"},
	"shards":     {path: "fleet.shards", usage: "metadata shards"},
	"unit-loss":  {path: "fleet.unit_loss", bare: true, usage: "kill unit u000 after the load phase and require the repair schedulers to drain it"},
	"crashes":    {path: "fleet.crashes", usage: "shard-replica crash/restart cycles in the fault schedule"},
	"partitions": {path: "fleet.partitions", usage: "inter-unit partition (or leader-isolation) windows in the fault schedule"},
	"moves":      {path: "fleet.slot_moves", usage: "schedule-driven slot migrations; the first is straddled by a source-leader crash (needs -shards >= 2)"},
	"storm":      {path: "traffic.storm", bare: true, usage: "add the restore-storm waves"},
	"protect":    {path: "traffic.protect", bare: true, usage: "arm the admission/throttle/autoscale protection stack"},
	"log":        {path: "output.log", bare: true, usage: "print the full event log"},
}

// cliModes names the modes each mode-specific flag that is not a spec field
// applies to; for an alias the mode is its path's section.
var cliModes = map[string][]string{
	"no-checksums": {"faults"}, "slo-out": {"traffic"}, "fleet-bench": {"fleet"}, "bench-out": {"fleet"},
	"trace-out": {"faults", "traffic"}, "minimize": {"faults", "fleet"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ustore-chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	for name, a := range aliases {
		usage := a.usage + " (spec: " + a.path + ")"
		if a.bare {
			fs.Bool(name, false, usage)
		} else {
			fs.String(name, "", usage)
		}
	}
	var (
		specPath    = fs.String("spec", "", "start from this spec file (YAML subset, no grid; grids belong to ustore-campaign) instead of the empty document")
		seeds       = fs.Int("seeds", 1, "number of consecutive seeds to run")
		parallel    = fs.Int("parallel", 1, "workers for a seed sweep or -minimize probing (<1 = one per CPU)")
		minimize    = fs.Bool("minimize", false, "on violation, bisect the schedule to the shortest violating prefix")
		noChecksums = fs.Bool("no-checksums", false, "disable per-block CRCs (silent corruption reaches clients)")
		fleetBench  = fs.String("fleet-bench", "", "fleet mode: comma-separated shard counts to measure allocation throughput for (e.g. 1,4,16)")
		benchOut    = fs.String("bench-out", "", "fleet mode: write the -fleet-bench JSON to this file (default stdout)")
		showSched   = fs.Bool("schedule", false, "print the generated fault schedule")
		sloOut      = fs.String("slo-out", "", "traffic mode: write the SLO report to this file")
		metricsOut  = fs.String("metrics-out", "", "write end-of-run metrics to this file (JSON, or Prometheus text if it ends in .prom)")
		traceOut    = fs.String("trace-out", "", "write a Chrome trace_event JSON file for chrome://tracing")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// say prints one diagnostic line; error paths read "return say(...)".
	say := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "ustore-chaos: "+format+"\n", a...)
		return 2
	}

	// The scenario: the document (the empty one still has to name its mode),
	// then each set flag as an override of it.
	doc, name := []byte("mode: faults\n"), "flags"
	if *specPath != "" {
		var err error
		if doc, err = os.ReadFile(*specPath); err != nil {
			return say("%v", err)
		}
		name = *specPath
	}
	f, err := spec.Parse(doc, name)
	if err != nil {
		return say("%v", err)
	}
	if len(f.Axes) > 0 {
		return say("%s has a parameter grid; run it with ustore-campaign -spec %s", name, name)
	}
	var set []*flag.Flag
	fs.Visit(func(fl *flag.Flag) { set = append(set, fl) })
	setBy := map[string]string{}
	for _, fl := range set {
		a, ok := aliases[fl.Name]
		text := fl.Value.String()
		if !ok || a.mode != "" && text != "true" {
			continue // not a scenario flag, or a mode switch left off
		}
		if other, dup := setBy[a.path]; dup {
			return say("-%s cannot combine with -%s (both set %s)", fl.Name, other, a.path)
		}
		setBy[a.path] = fl.Name
		if a.mode != "" {
			text = a.mode
		}
		if err := f.Override(a.path, text); err != nil {
			return say("-%s: %v", fl.Name, err)
		}
	}
	s := f.Spec
	if err := s.Validate(); err != nil {
		return say("%v", err)
	}

	// -no-checksums is the one thing a run carries that its spec does not.
	compile := func(seed int64) (campaign.Scenario, error) {
		sp := *s
		sp.Seed = seed
		sc, err := campaign.Compile(&sp)
		if err == nil && sc.Chaos != nil {
			sc.Chaos.DisableChecksums = *noChecksums
		}
		return sc, err
	}
	base, err := compile(s.Seed)
	if err != nil {
		return say("%v; fidelity and durability specs run under ustore-campaign", err)
	}

	// One mode rule for every mode-specific flag, then the two
	// combinations no mode explains.
	for _, fl := range set {
		want := cliModes[fl.Name]
		if sec, _, nested := strings.Cut(aliases[fl.Name].path, "."); nested && slices.Contains(spec.Modes, sec) {
			want = []string{sec}
		}
		if want != nil && !slices.Contains(want, s.Mode) {
			return say("-%s needs %s mode, and this is a %s run (-fleet, -tenants or the spec's mode select it)",
				fl.Name, strings.Join(want, " or "), s.Mode)
		}
	}
	switch {
	case *seeds < 1:
		return say("-seeds must be >= 1")
	case *seeds > 1 && *minimize:
		return say("-minimize works on a single seed (drop -seeds)")
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return say("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			say("%v", err)
		}
	}()

	if *fleetBench != "" {
		return runFleetBench(stdout, say, s.Seed, s.Fleet.Units, *fleetBench, *benchOut)
	}
	fmt.Fprint(stdout, header(s, *seeds, *noChecksums))

	// n seeds on the worker pool, a recorder each when a file wants one; a
	// single run is a sweep of 1, and -minimize is a single run that goes
	// through the minimizer instead of Scenario.Run.
	type seedRun struct {
		out *campaign.Outcome
		rec *obs.Recorder
	}
	runs, err := runner.MapErr(*seeds, *parallel, func(i int) (r seedRun, err error) {
		if *metricsOut != "" || *traceOut != "" {
			r.rec = obs.NewRecorder()
		}
		if *minimize {
			r.out, err = runMinimized(stdout, base, r.rec, *parallel)
			return r, err
		}
		sc, err := compile(s.Seed + int64(i))
		if err != nil {
			return r, err
		}
		r.out, err = sc.Run(r.rec)
		return r, err
	})
	if err != nil {
		return say("%v", err)
	}

	status := 0
	for i, r := range runs {
		outputs := []struct {
			path, what string
			write      func(io.Writer) error
		}{
			{*metricsOut, "metrics", func(w io.Writer) error {
				if strings.HasSuffix(*metricsOut, ".prom") {
					return r.rec.Registry().WritePrometheus(w)
				}
				return r.rec.Registry().WriteJSON(w)
			}},
			{*traceOut, "trace", func(w io.Writer) error { return r.rec.Tracer().WriteChromeTrace(w) }},
			{*sloOut, "SLO report", func(w io.Writer) error {
				_, err := io.WriteString(w, r.out.Chaos.SLO.Text())
				return err
			}},
		}
		for _, o := range outputs {
			if o.path == "" {
				continue
			}
			if *seeds > 1 {
				o.path = seedPath(o.path, s.Seed+int64(i))
			}
			if err := writeFile(o.path, o.write); err != nil {
				return say("writing %s: %v", o.what, err)
			}
		}
		if *showSched && r.out.Chaos != nil {
			printSchedule(stdout, r.out.Chaos.Schedule)
		}
		if s.Output.Log {
			fmt.Fprintln(stdout, strings.Join(r.out.Log, "\n"))
		}
		fmt.Fprint(stdout, r.out.Summary)
		if len(r.out.Violations) > 0 {
			status = 1
		}
	}
	return status
}

// failStopFamilies names the fault families every faults-mode run draws
// from.
const failStopFamilies = "host-crashes disk-faults hub-faults net-faults corruptions"

// header renders the run header from the spec — the effective fault mix and
// whether checksums are off, or the fleet shape — so a pasted report is
// self-describing (a gray run with mitigation off reads very differently
// from one with it on). Traffic mode replaces the fault schedule, so its mix
// is "none".
func header(s *spec.Spec, seeds int, noChecksums bool) string {
	who := fmt.Sprintf("seed %d", s.Seed)
	if seeds > 1 {
		who = fmt.Sprintf("seeds %d..%d", s.Seed, s.Seed+int64(seeds)-1)
	}
	if s.Mode == "fleet" {
		fl := s.Fleet
		h := fmt.Sprintf("ustore-chaos: fleet %s, %d units, %d shards, unit-loss=%v\n", who, fl.Units, fl.Shards, fl.UnitLoss)
		if fl.Crashes > 0 || fl.Partitions > 0 || fl.SlotMoves > 0 {
			h += fmt.Sprintf("fleet faults: %d crashes, %d partitions, %d slot moves\n",
				fl.Crashes, fl.Partitions, fl.SlotMoves)
		}
		return h
	}
	var fams string
	var mods []string
	add := func(on bool, name string) {
		if on {
			mods = append(mods, name)
		}
	}
	if s.Mode == "traffic" {
		fams, mods = "none", []string{"tenants"}
		add(s.Traffic.Storm, "storm")
		add(s.Traffic.Protect, "protect")
	} else {
		fams = failStopFamilies
		if s.Faults.Gray {
			fams += " gray-faults"
		}
		add(s.Faults.Mitigation, "mitigation")
		add(noChecksums, "no-checksums")
	}
	h := fmt.Sprintf("ustore-chaos: %s, %.3g days, faults: %s", who, s.Days, fams)
	if len(mods) > 0 {
		h += ", " + strings.Join(mods, " ")
	}
	return h + "\n"
}

// runMinimized runs the scenario's seeded schedule and, on violation,
// bisects (with parallel speculative probes) for the shortest prefix that
// still violates, prints the surviving faults — the normal first step when a
// run goes red — and hands back the minimized run in place of the full one.
func runMinimized(stdout io.Writer, sc campaign.Scenario, rec *obs.Recorder, parallel int) (*campaign.Outcome, error) {
	if sc.Fleet != nil {
		o := *sc.Fleet
		o.Recorder = rec
		sched, min, full, err := chaos.MinimizeFleet(o, parallel)
		if err != nil {
			return nil, err
		}
		if min == nil {
			return campaign.FleetOutcome(full), nil
		}
		fmt.Fprintf(stdout, "minimized fleet schedule: %d of %d faults still violate\n", len(sched), full.FaultsApplied)
		for _, ft := range sched {
			fmt.Fprintf(stdout, "  %s\n", ft)
		}
		return campaign.FleetOutcome(min), nil
	}
	o := *sc.Chaos
	o.Recorder = rec
	sched, min, full, err := chaos.MinimizeParallel(o, parallel)
	if err != nil {
		return nil, err
	}
	if min == nil {
		return campaign.ChaosOutcome(full), nil
	}
	fmt.Fprintf(stdout, "minimized schedule: %d of %d faults still violate\n", len(sched), len(full.Schedule))
	printSchedule(stdout, sched)
	return campaign.ChaosOutcome(min), nil
}

func printSchedule(w io.Writer, sched []chaos.Fault) {
	for _, f := range sched {
		fmt.Fprintf(w, "  %-14v %s\n", f.At, f)
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seedPath inserts ".seed<n>" before path's extension, so a sweep's
// per-seed outputs don't clobber each other: m.json -> m.seed7.json.
func seedPath(path string, seed int64) string {
	if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
		return fmt.Sprintf("%s.seed%d%s", path[:i], seed, path[i:])
	}
	return fmt.Sprintf("%s.seed%d", path, seed)
}
