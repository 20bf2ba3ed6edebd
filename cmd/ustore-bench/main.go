// Command ustore-bench regenerates the paper's evaluation: every table and
// figure (§VI-§VII) plus the ablation studies, printed as aligned text
// tables with the paper's numbers alongside for comparison.
//
// Usage:
//
//	ustore-bench                 # all tables and figures
//	ustore-bench -exp fig6       # one experiment by ID
//	ustore-bench -ablate         # the design-choice ablations
//	ustore-bench -list           # list experiment IDs
//	ustore-bench -exp failover -trials 10 -parallel 4
//	ustore-bench -exp failover -metrics-out m.json -trace-out t.json
//	ustore-bench -exp hdfs -latency
//	ustore-bench -cpuprofile cpu.out -memprofile mem.out
//
// -trials sets the failover trial count; -parallel runs the multi-run
// experiments (fig6 points, failover trials) on that many workers — every
// run is an independent deterministic simulation, so the tables are
// byte-identical at any worker count. -metrics-out writes the metrics
// collected by the simulated experiments as JSON (or Prometheus text with
// a .prom suffix); -trace-out writes a Chrome trace_event file for
// chrome://tracing. Only the cluster-driving experiments (fig6, failover,
// hdfs) feed the recorder, and only when running sequentially (-parallel 1):
// one recorder cannot serve concurrent clusters. -cpuprofile / -memprofile
// write runtime/pprof profiles like go test's flags of the same names.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ustore/internal/bench"
	"ustore/internal/obs"
	"ustore/internal/prof"
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

// printLatencySummary renders p50/p99/p999 for every histogram the
// cluster-driving experiments recorded, via the registry's
// bucket-interpolated quantile extraction (error bounds are documented on
// obs.Histogram.Quantile: exact at bucket boundaries, otherwise within the
// bucket's width). Series order follows the registry snapshot, so the
// table is byte-stable for a given run.
func printLatencySummary(rec *obs.Recorder) {
	snap := rec.Registry().Snapshot()
	fmt.Println("latency quantiles (bucket-interpolated seconds histograms):")
	fmt.Printf("  %-52s %9s %11s %11s %11s\n", "series", "count", "p50", "p99", "p999")
	rows := 0
	for _, s := range snap.Metrics {
		if s.Type != "histogram" || s.Count == 0 {
			continue
		}
		name := strings.TrimPrefix(s.Name, s.Component+"_")
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		labels := make([]obs.Label, 0, len(keys))
		suffix := ""
		for i, k := range keys {
			labels = append(labels, obs.L(k, s.Labels[k]))
			if i == 0 {
				suffix = "{"
			} else {
				suffix += ","
			}
			suffix += k + "=" + s.Labels[k]
		}
		if suffix != "" {
			suffix += "}"
		}
		h := rec.Histogram(s.Component, name, labels...)
		q := func(p float64) string {
			return fmt.Sprintf("%.2fms", float64(h.QuantileDuration(p))/float64(time.Millisecond))
		}
		fmt.Printf("  %-52s %9d %11s %11s %11s\n", s.Name+suffix, s.Count, q(0.50), q(0.99), q(0.999))
		rows++
	}
	if rows == 0 {
		fmt.Println("  (no histogram samples recorded — only fig6, failover, and hdfs feed the recorder)")
	}
}

func writeTrace(rec *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.Tracer().WriteChromeTrace(f)
}

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "", "run a single experiment by ID")
	ablate := flag.Bool("ablate", false, "run the ablation studies instead")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	trials := flag.Int("trials", bench.DefaultTrials, "failover trial count")
	parallel := flag.Int("parallel", 1, "workers for multi-run experiments (<1 = one per CPU)")
	latency := flag.Bool("latency", false, "print p50/p99/p999 for every recorded latency histogram after the tables")
	metricsOut := flag.String("metrics-out", "", "write collected metrics to this file (JSON, or Prometheus text if it ends in .prom)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file for chrome://tracing")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustore-bench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "ustore-bench: %v\n", err)
		}
	}()

	var rec *obs.Recorder
	if *metricsOut != "" || *traceOut != "" || *latency {
		rec = obs.NewRecorder()
	}

	runners := map[string]func() *bench.Table{
		"table1":   bench.TableI,
		"table2":   bench.TableII,
		"fig5":     bench.Figure5,
		"duplex":   bench.DuplexHeadline,
		"fig6":     func() *bench.Table { return bench.Figure6(rec, *parallel) },
		"failover": func() *bench.Table { return bench.Failover(rec, *trials, *parallel) },
		"hdfs":     func() *bench.Table { return bench.HDFSSwitch(rec) },
		"table3":   bench.TableIII,
		"table4":   bench.TableIV,
		"table5":   bench.TableV,

		"ablate-topology":     bench.AblateTopology,
		"ablate-fanin":        bench.AblateFanIn,
		"ablate-singletree":   bench.AblateSingleTree,
		"ablate-heartbeat":    bench.AblateHeartbeat,
		"ablate-spindown":     bench.AblateSpinDown,
		"ablate-rebuild":      bench.AblateRebuild,
		"ablate-availability": bench.AblateAvailability,
		"ablate-powercurve":   bench.AblatePowerCurve,
	}

	if *list {
		for _, id := range []string{"table1", "table2", "fig5", "duplex", "fig6", "failover", "hdfs",
			"table3", "table4", "table5", "ablate-topology", "ablate-fanin",
			"ablate-singletree", "ablate-heartbeat", "ablate-spindown", "ablate-rebuild",
			"ablate-availability", "ablate-powercurve"} {
			fmt.Println(id)
		}
		return 0
	}

	switch {
	case *exp != "":
		run, ok := runners[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		fmt.Print(run().Render())
	case *ablate:
		for _, t := range bench.Ablations() {
			fmt.Print(t.Render())
			fmt.Println()
		}
	default:
		for _, t := range bench.All(rec, *trials, *parallel) {
			fmt.Print(t.Render())
			fmt.Println()
		}
	}

	if *latency {
		printLatencySummary(rec)
	}
	if *metricsOut != "" {
		if err := writeMetrics(rec, *metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "ustore-bench: writing metrics: %v\n", err)
			return 2
		}
	}
	if *traceOut != "" {
		if err := writeTrace(rec, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "ustore-bench: writing trace: %v\n", err)
			return 2
		}
	}
	return 0
}
