package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"

	"ustore/internal/obs"
)

// untracedInTrace is how many measured, untraced repetitions a traced run
// makes first: the base the traced repetition's overhead and the per-event
// costs are taken against.
const untracedInTrace = 2

// registryView answers questions about a finished run's obs registry.
type registryView struct{ snap obs.Snapshot }

// sum adds a counter or gauge over all its label sets.
func (v registryView) sum(name string) float64 {
	t := 0.0
	for _, s := range v.snap.Metrics {
		if s.Name == name && s.Type != "histogram" {
			t += s.Value
		}
	}
	return t
}

// count is a histogram's observation count over all its label sets.
func (v registryView) count(name string) float64 {
	t := 0.0
	for _, s := range v.snap.Metrics {
		if s.Name == name {
			t += float64(s.Count)
		}
	}
	return t
}

// quantile merges a histogram's label sets and returns the upper bound of
// the bucket holding the q-quantile, in the histogram's unit (the
// registry's power-of-two buckets overestimate by at most 2x). 0 if empty.
func (v registryView) quantile(name string, q float64) float64 {
	var cum []uint64
	var les []string
	for _, s := range v.snap.Metrics {
		if s.Name != name || len(s.Buckets) == 0 {
			continue
		}
		if cum == nil {
			cum = make([]uint64, len(s.Buckets))
			for _, b := range s.Buckets {
				les = append(les, b.LE)
			}
		}
		for i, b := range s.Buckets {
			cum[i] += b.Cumulative
		}
	}
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(cum[len(cum)-1])))
	i := sort.Search(len(cum), func(i int) bool { return cum[i] >= rank })
	if i >= len(les) {
		i = len(les) - 1
	}
	if les[i] == "+Inf" && i > 0 { // overflow bucket: the last finite bound stands in
		i--
	}
	le, _ := strconv.ParseFloat(les[i], 64)
	return le
}

func runTraced(cfg config, w *workloadDef, seed int64) error {
	tr := newTracer()
	sp := tr.begin("perf", "warm-up")
	gated, wantRate, err := warmUp(w, seed)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s warm-up: %w", w.name, err)
	}

	// The base: two repetitions with the recorder off, as in the
	// end-to-end run. Both profiles are taken here, so the shares split up
	// the cost the end-to-end metrics report: the allocation profile is
	// always on and costs nothing extra, the CPU profiler (about 1%) runs
	// over the second repetition only.
	memBefore := memSnapshot()
	var cpuProf bytes.Buffer
	var base []rep
	for i := 0; i < untracedInTrace; i++ {
		profiled := i == untracedInTrace-1
		if profiled {
			if err := pprof.StartCPUProfile(&cpuProf); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		sp := tr.begin("perf", fmt.Sprintf("untraced rep %d", i))
		r, err := runRep(w, seed, defaultEngine)
		sp.end()
		if profiled {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return fmt.Errorf("%s untraced rep %d: %w", w.name, i, err)
		}
		base = append(base, r)
	}
	allocShares := shares(allocSamples(memBefore, memSnapshot()))
	cpuSamples, err := decodeCPUProfile(cpuProf.Bytes())
	if err != nil {
		return err
	}
	cpuShares := shares(cpuSamples)
	if cpuShares == nil || allocShares == nil {
		return fmt.Errorf("%s: empty profile (%d cpu stacks)", w.name, len(cpuSamples))
	}
	cpuProfiledS := 0.0
	for _, s := range cpuSamples {
		cpuProfiledS += s.value / 1e9
	}
	baseWall, baseCPU := median(col(base, wallOf)), median(col(base, cpuOf))
	baseAlloc, baseMallocs := median(col(base, allocOf)), median(col(base, mallocsOf))
	gated = append(gated, base...)

	// Fleet workloads: one repetition on a single engine worker. Its
	// simulated outcome must match (the engine is byte-deterministic at
	// any worker count) and its wall time gives the two-worker speed-up.
	speedup := 0.0
	if base[0].out.events > 0 {
		sp := tr.begin("perf", "workers=1 rep")
		r1, err := runRep(w, seed, 1)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s workers=1 rep: %w", w.name, err)
		}
		gated = append(gated, r1)
		speedup = r1.host.wallS / baseWall
	}

	// The probes go before the traced repetition: on the fleet its 65
	// partition recorders leave gigabytes of freed heap behind, and probes
	// run after that mostly measure page faults.
	probed, err := runProbes(tr)
	if err != nil {
		return err
	}

	// The traced repetition: a recorder attached, and spans around every
	// call into a layer. Its counters are the layers' work; its wall time
	// against the base is what the instrumentation costs.
	rec := obs.NewRecorder()
	var traced rep
	sp = tr.begin("perf", "traced rep")
	traced.host, err = measure(func() error {
		var e error
		traced.out, e = w.run(seed, rec, defaultEngine, tr)
		return e
	})
	sp.end()
	if err != nil {
		return fmt.Errorf("%s traced rep: %w", w.name, err)
	}
	gated = append(gated, traced)
	fails := append(gate(gated), checkRate(w, wantRate, traced.out)...)
	if err := gateErr(w, fails); err != nil {
		return err
	}

	// Assemble every catalogue metric: probes, the workload's own
	// counters, the registry, the profiles, the host samples.
	v := registryView{rec.Registry().Snapshot()}
	o := traced.out
	vals := map[string]float64{}
	for k, x := range probed {
		vals[k] = x
	}
	for k, x := range o.counters {
		vals[k] = x
	}
	listed := 0.0
	for _, l := range cpuShareLayers {
		vals[l+".cpu_share_pct"] = cpuShares[l]
		listed += cpuShares[l]
	}
	vals["perf.harness_cpu_share_pct"] = cpuShares[layerHarness]
	vals["runtime.background_share_pct"] = cpuShares[layerBackground]
	vals["other.cpu_share_pct"] = math.Max(0, 100-listed-cpuShares[layerHarness]-cpuShares[layerBackground])
	listed = 0
	for _, l := range allocShareLayers {
		vals[l+".alloc_share_pct"] = allocShares[l]
		listed += allocShares[l]
	}
	vals["other.alloc_share_pct"] = math.Max(0, 100-listed)

	events := float64(o.events)
	if events == 0 {
		events = v.sum("simtime_events_fired")
	}
	if _, ok := vals["simtime.max_pending"]; !ok {
		vals["simtime.max_pending"] = v.sum("simtime_max_pending")
	}
	vals["simtime.events_fired_k"] = events / 1e3
	if events > 0 {
		vals["simtime.cpu_us_per_event"] = baseCPU * 1e6 / events
		vals["simtime.alloc_b_per_event"] = baseAlloc * 1e6 / events
		vals["simtime.mallocs_per_event"] = baseMallocs * 1e3 / events
		vals["simtime.events_per_wall_s"] = events / baseWall
	}
	vals["simtime.sim_s_per_wall_s"] = o.simClock / baseWall
	vals["simtime.engine_w2_speedup"] = speedup
	vals["runtime.gc_cycles"] = median(col(base, func(h hostSample) float64 { return float64(h.gcCycles) }))
	vals["runtime.sys_cpu_s"] = median(col(base, func(h hostSample) float64 { return h.sysS }))
	vals["runtime.heap_peak_mb"] = base[len(base)-1].host.heapMB // HeapSys only grows

	vals["simnet.msgs_sent_k"] = v.sum("simnet_msgs_sent_total") / 1e3
	vals["simnet.bytes_mb"] = v.sum("simnet_bytes_total") / 1e6
	vals["simnet.msgs_dropped"] = v.sum("simnet_msgs_dropped_total")
	vals["simnet.rpc_timeouts"] = v.sum("simnet_rpc_timeouts_total")
	vals["simnet.rpc_retries"] = v.sum("simnet_rpc_retry_attempts_total")

	vals["core.failovers"] = v.sum("core_failovers_total")
	vals["core.failover_p50_sim_s"] = v.quantile("core_failover_seconds", 0.5)
	vals["core.heartbeats_k"] = v.sum("core_heartbeats_total") / 1e3
	vals["core.alloc_p99_sim_ms"] = 1e3 * v.quantile("core_alloc_seconds", 0.99)

	vals["fleet.op_p99_sim_ms"] = 1e3 * v.quantile("fleet_op_seconds", 0.99)
	vals["fleet.router_retries"] = v.sum("fleet_router_retries_total")
	vals["fleet.router_stale_retries"] = v.sum("fleet_router_stale_retries_total")
	vals["fleet.router_leader_rotations"] = v.sum("fleet_router_leader_rotations_total")
	vals["fleet.tasks"] = v.sum("fleet_tasks_total")

	vals["disk.ios_k"] = v.count("disk_io_seconds") / 1e3
	vals["disk.io_errors"] = v.sum("disk_io_errors_total")
	vals["disk.spinups"] = v.sum("disk_spinups_total")
	vals["disk.io_p99_sim_ms"] = 1e3 * v.quantile("disk_io_seconds", 0.99)
	vals["usb.enumerations"] = v.sum("usb_enumerations_total")
	vals["policy.admitted_k"] = v.sum("policy_admitted_total") / 1e3

	vals["obs.overhead_pct"] = 100 * (traced.host.wallS/baseWall - 1)
	vals["obs.trace_dropped"] = float64(rec.Tracer().Dropped())
	vals["chaos.violations"] = float64(len(o.violations))

	fmt.Printf("%s run %d, scenario seed %d: traced run (%d untraced repetitions, wall median %.4f s, %.2f cpu-s profiled; traced repetition %.4f s)\n",
		w.name, cfg.seed, seed, untracedInTrace, baseWall, cpuProfiledS, traced.host.wallS)
	fmt.Printf("  digest       %s\n", o.digest)
	fmt.Println("  harness spans (self time):")
	for i, s := range tr.spans {
		fmt.Printf("    %-10s %-28s %10.1f ms self %10.1f ms\n", s.layer, s.name,
			float64(s.end-s.start)/1e6, float64(tr.selfTime(i))/1e6)
	}
	path := cfg.traceOut + "_" + w.name + ".json"
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing the span trace: %w", err)
	}
	fmt.Printf("  spans written to %s (Chrome trace JSON)\n", path)
	return emit(o, perLayer, vals) // 0 where the workload does not touch the layer
}
