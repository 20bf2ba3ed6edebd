// Command perf is UStore's single benchmark: four long workloads measured
// end to end with the recorder off, and a separate traced run that
// attributes the cost to layers from outside (public counters, runtime
// profiles, harness-side spans, layer probes). See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// nominalRepSeconds is the length of one repetition the --seconds budget is
// divided by. Repetitions are fixed work (a whole simulated scenario), so
// the count, not the length, follows the budget.
const nominalRepSeconds = 5

const (
	minReps = 3
	maxReps = 8
)

type config struct {
	workload   string
	seed       int64
	seedOffset int64
	seconds    int
	trace      bool
	selfcheck  bool
	describe   bool
	traceOut   string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "run one workload in this process (default: every workload, one process each)")
	fs.Int64Var(&c.seed, "seed", 0, "run label: echoed, never part of the input, because every scenario is pinned to its golden seed so that simulated results compare exactly (README: seeds)")
	fs.Int64Var(&c.seedOffset, "seed-offset", 0, "added to every scenario seed, for held-out checks of a claim on inputs not used while writing it")
	fs.IntVar(&c.seconds, "seconds", benchmarkRunSeconds, "measuring budget per workload: one repetition per 5 s, at least 3 and at most 8")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics with the recorder off")
	fs.BoolVar(&c.selfcheck, "selfcheck", false, "run the end-to-end set twice and fail if any metric differs by more than its bound")
	fs.BoolVar(&c.describe, "describe", false, "print BENCHMARK.json as the metric and workload catalogues define it, and exit")
	fs.StringVar(&c.traceOut, "trace-out", ".bench_build/perf_trace", "prefix of the Chrome trace JSON a traced run writes")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	c.trace = *trace == 1
	if c.workload != "" && findWorkload(c.workload) == nil {
		return c, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds < 1 || c.seconds > 600 {
		return c, fmt.Errorf("-seconds must be in 1..600, got %d", c.seconds)
	}
	if c.seedOffset < 0 {
		return c, fmt.Errorf("-seed-offset must not be negative, got %d", c.seedOffset)
	}
	if c.selfcheck && (c.trace || c.workload != "") {
		return c, fmt.Errorf("-selfcheck runs the whole end-to-end set; it takes neither -workload nor -trace 1")
	}
	return c, nil
}

func repsFor(seconds int) int {
	n := seconds / nominalRepSeconds
	if n < minReps {
		n = minReps
	}
	if n > maxReps {
		n = maxReps
	}
	return n
}

// pinRuntime fixes the knobs host timings depend on, whatever the
// environment says: two Ps (the measurement host has two CPUs), default GC
// pacing, no memory limit.
func pinRuntime() {
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "perf:", err)
		}
		os.Exit(2)
	}
	if cfg.describe {
		fmt.Print(benchmarkJSON())
		return
	}
	pinRuntime()
	switch {
	case cfg.selfcheck:
		err = selfcheck(cfg)
	case cfg.workload == "":
		err = runAll(cfg)
	default:
		err = runWorkload(cfg, findWorkload(cfg.workload))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf: FAIL:", err)
		os.Exit(1)
	}
}
