package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// metricDef is one catalogue entry; BENCHMARK.json repeats name, unit,
// direction and bound (metrics_test.go keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	lower  bool    // lower is better
	bound  float64 // end to end only: share of the parent's median it may worsen by
	define string  // end to end only
}

// endToEnd is what a user of the system sees: the first six cost a
// researcher host resources per simulated scenario, the last three are what
// a tenant of the modelled system gets.
var endToEnd = []metricDef{
	{"wall_s", "s", true, 0.25, "median wall time of one measured repetition (build + boot + run + verify)"},
	{"cpu_s", "s", true, 0.25, "median user+sys CPU of one repetition (getrusage): catches GC work hidden on the second core"},
	{"alloc_mb", "MB", true, 0.01, "median MemStats.TotalAlloc delta of one repetition"},
	{"mallocs_k", "1e3", true, 0.01, "median MemStats.Mallocs delta of one repetition"},
	{"peak_rss_mb", "MB", true, 0.25, "median resident-set high-water mark of one repetition (VmHWM, restarted before each after the freed heap is returned to the OS)"},
	{"setup_s", "s", true, 0.25, "process start to first measured repetition: runtime and package init plus the full untimed warm-up repetition"},
	{"sim_ops_per_s", "1/sim-s", false, 0.001, "foreground operations that succeeded per simulated second"},
	{"sim_p99_ms", "sim-ms", true, 0.001, "simulated p99 latency of the workload's primary operation"},
	{"ok_pct", "%", false, 0.001, "operations that succeeded as a share of those attempted; shed, throttled, unavailable and failed all count against it"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints every metric of defs by name and unit, then the result line
// (the last line of a run's output). It is reached only through the gate, so
// no operation ended outside what its scenario allows and failed is 0:
// requests the system shed, throttled or refused under an injected fault are
// outcomes the scenario asks for, and ok_pct carries their share.
func emit(o *repOut, defs []metricDef, vals map[string]float64) error {
	res := result{Correct: true, Attempted: o.attempted, Failed: 0, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		x := vals[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is %v", m.name, x)
		}
		res.Metrics[m.name] = metricValue{x, m.unit}
		fmt.Printf("  %-40s %16.4f %s\n", m.name, x, m.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// rep is one executed repetition.
type rep struct {
	host hostSample
	out  *repOut
}

func runRep(w *workloadDef, seed int64, workers int) (rep, error) {
	var r rep
	var err error
	r.host, err = measure(func() error {
		var e error
		r.out, e = w.run(seed, nil, workers, nil)
		return e
	})
	return r, err
}

// gate is the correctness gate over a run's repetitions: zero violations
// in every one, and simulated outcomes identical across them.
func gate(reps []rep) []string {
	var fails []string
	first := reps[0].out
	for i, r := range reps {
		for _, v := range r.out.violations {
			fails = append(fails, fmt.Sprintf("rep %d: violation: %s", i, v))
		}
		o := r.out
		if o.digest != first.digest || o.attempted != first.attempted || o.ok != first.ok || o.p99 != first.p99 {
			fails = append(fails, fmt.Sprintf(
				"rep %d diverged from rep 0: digest %.12s vs %.12s, attempted %d vs %d, ok %d vs %d, p99 %v vs %v",
				i, o.digest, first.digest, o.attempted, first.attempted, o.ok, first.ok, o.p99, first.p99))
		}
	}
	if first.attempted < 1 || first.ok < 1 || first.p99 <= 0 {
		fails = append(fails, fmt.Sprintf("degenerate run: attempted %d, ok %d, p99 %v", first.attempted, first.ok, first.p99))
	}
	return fails
}

func gateErr(w *workloadDef, fails []string) error {
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("%s: correctness gate failed:\n  %s", w.name, strings.Join(fails, "\n  "))
}

// warmUp runs the untimed repetition. For fleet_alloc it is
// chaos.MeasureFleetAlloc itself, whose rate the measured repetitions'
// own client loop must then reproduce exactly.
func warmUp(w *workloadDef, seed int64) (reps []rep, wantRate float64, err error) {
	if w.warm != nil {
		wantRate, err = w.warm(seed)
		return nil, wantRate, err
	}
	out, err := w.run(seed, nil, defaultEngine, nil)
	if err != nil {
		return nil, 0, err
	}
	// The warm-up's outcome joins the gate (its host cost does not).
	return []rep{{out: out}}, 0, nil
}

func opsPerSimSecond(o *repOut) float64 { return float64(o.ok) / o.simSeconds }

func checkRate(w *workloadDef, wantRate float64, o *repOut) []string {
	if w.warm == nil {
		return nil
	}
	if got := opsPerSimSecond(o); got != wantRate {
		return []string{fmt.Sprintf("%s reports %v ops per simulated second, chaos.MeasureFleetAlloc %v",
			w.name, got, wantRate)}
	}
	return nil
}

func wallOf(h hostSample) float64    { return h.wallS }
func cpuOf(h hostSample) float64     { return h.cpuS }
func allocOf(h hostSample) float64   { return h.allocMB }
func mallocsOf(h hostSample) float64 { return h.mallocsK }
func peakOf(h hostSample) float64    { return h.peakMB }

func col(reps []rep, f func(hostSample) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r.host)
	}
	return xs
}

func describe(name, unit string, xs []float64) string {
	s := sorted(xs)
	q1, q3 := quartiles(s) // a run has at least minReps samples
	return fmt.Sprintf("  %-12s median %.4f %s (min %.4f, q1 %.4f, q3 %.4f, max %.4f; reps %v)",
		name, median(s), unit, s[0], q1, q3, s[len(s)-1], xs)
}

func runWorkload(cfg config, w *workloadDef) error {
	seed := w.baseSeed + cfg.seedOffset
	if cfg.trace {
		return runTraced(cfg, w, seed)
	}
	gated, wantRate, err := warmUp(w, seed)
	if err != nil {
		return fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	setupS := sinceProcessStart()

	n := repsFor(cfg.seconds)
	measured := make([]rep, 0, n)
	for i := 0; i < n; i++ {
		r, err := runRep(w, seed, defaultEngine)
		if err != nil {
			return fmt.Errorf("%s rep %d: %w", w.name, i, err)
		}
		measured = append(measured, r)
	}
	gated = append(gated, measured...)
	fails := append(gate(gated), checkRate(w, wantRate, measured[0].out)...)
	if err := gateErr(w, fails); err != nil {
		return err
	}

	o := measured[0].out
	wall, cpu := col(measured, wallOf), col(measured, cpuOf)
	alloc, mallocs := col(measured, allocOf), col(measured, mallocsOf)
	peak := col(measured, peakOf)
	values := map[string]float64{
		"wall_s":        median(wall),
		"cpu_s":         median(cpu),
		"alloc_mb":      median(alloc),
		"mallocs_k":     median(mallocs),
		"peak_rss_mb":   median(peak),
		"setup_s":       setupS,
		"sim_ops_per_s": opsPerSimSecond(o),
		"sim_p99_ms":    simMS(o.p99),
		"ok_pct":        100 * float64(o.ok) / float64(o.attempted),
	}

	fmt.Printf("%s run %d, scenario seed %d: %d measured repetitions after 1 warm-up\n", w.name, cfg.seed, seed, n)
	fmt.Println(describe("wall_s", "s", wall))
	fmt.Println(describe("cpu_s", "s", cpu))
	fmt.Println(describe("alloc_mb", "MB", alloc))
	fmt.Println(describe("mallocs_k", "1e3", mallocs))
	fmt.Println(describe("peak_rss_mb", "MB", peak))
	fmt.Printf("  simulated    %d of %d ops ok over %.0f sim-s, p99 %v, %d events; identical in all %d repetitions\n",
		o.ok, o.attempted, o.simSeconds, o.p99, o.events, len(gated))
	fmt.Printf("  digest       %s\n", o.digest)
	fmt.Printf("  loop         %s\n", w.loop)

	return emit(o, endToEnd, values)
}
