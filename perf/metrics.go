package main

import (
	"encoding/json"
	"strings"
)

// cpuShareLayers and allocShareLayers are the layers whose profile shares
// get a row of their own; every other package lands in other.*.
var cpuShareLayers = []string{
	"simtime", "simnet", "paxos", "coord", "core", "fleet", "placement", "block", "disk",
	"usb", "fabric", "obs", "policy", "workload", "model", "chaos", "faults",
}

var allocShareLayers = []string{
	"simtime", "simnet", "paxos", "coord", "core", "fleet", "placement", "block", "disk", "workload",
}

func lowerIsBetter(names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		name, unit, _ := strings.Cut(n, " ")
		out[i] = metricDef{name: name, unit: unit, lower: true}
	}
	return out
}

func higherIsBetter(names ...string) []metricDef {
	out := lowerIsBetter(names...)
	for i := range out {
		out[i].lower = false
	}
	return out
}

// perLayer is every metric a traced run prints, "name unit" each (no
// bounds: they explain, the end-to-end metrics judge). Layers are the
// package names under ustore/internal. A metric reads 0 on a workload that
// does not touch its layer (policy on the fleet workloads, say).
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, l := range cpuShareLayers {
		ms = append(ms, lowerIsBetter(l+".cpu_share_pct %")...)
	}
	ms = append(ms, lowerIsBetter(
		"other.cpu_share_pct %", "perf.harness_cpu_share_pct %", "runtime.background_share_pct %")...)
	for _, l := range allocShareLayers {
		ms = append(ms, lowerIsBetter(l+".alloc_share_pct %")...)
	}
	ms = append(ms, lowerIsBetter("other.alloc_share_pct %",
		"runtime.gc_cycles count", "runtime.sys_cpu_s s", "runtime.heap_peak_mb MB",

		"simtime.events_fired_k 1e3", "simtime.cpu_us_per_event us/event",
		"simtime.alloc_b_per_event B/event", "simtime.mallocs_per_event 1/event",
		"simtime.max_pending count",
		"simtime.probe_fire_ns ns", "simtime.probe_ticker_ns ns", "simtime.probe_engine_post_ns ns",

		"simnet.msgs_sent_k 1e3", "simnet.bytes_mb MB", "simnet.msgs_dropped count",
		"simnet.rpc_timeouts count", "simnet.rpc_retries count",
		"simnet.probe_rpc_ns ns", "simnet.probe_fabric_rpc_ns ns",

		"paxos.probe_commit_ns ns", "paxos.probe_commit_sim_ms sim-ms", "paxos.probe_msgs_per_commit count",
		"coord.probe_create_ns ns", "coord.probe_create_allocs count",

		"core.failovers count", "core.failover_p50_sim_s sim-s", "core.heartbeats_k 1e3",
		"core.scrub_scanned_k 1e3", "core.hedge_reads_k 1e3", "core.alloc_p99_sim_ms sim-ms",

		"fleet.ops_k 1e3", "fleet.op_p99_sim_ms sim-ms", "fleet.router_retries count",
		"fleet.router_stale_retries count", "fleet.router_leader_rotations count",
		"fleet.tasks count", "fleet.unavailable count", "fleet.drain_sim_s sim-s",
		"fleet.lookup_p50_sim_ms sim-ms", "fleet.lookup_p99_sim_ms sim-ms",
		"fleet.alloc_p50_sim_ms sim-ms", "fleet.alloc_p99_sim_ms sim-ms", "fleet.release_p99_sim_ms sim-ms",
		"fleet.probe_alloc_ns ns", "fleet.probe_lookup_ns ns",

		"placement.probe_spread_ns ns", "placement.probe_spread_allocs count",

		"block.probe_codec_ns_per_kb ns/KB", "block.probe_crc_rw_ns_per_kb ns/KB", "block.probe_alloc_b_per_kb B/KB",

		"disk.ios_k 1e3", "disk.io_errors count", "disk.spinups count", "disk.io_p99_sim_ms sim-ms",
		"disk.probe_submit_4k_ns ns", "disk.probe_submit_4m_ns ns", "disk.probe_alloc_b_per_io_4m B/io",
		"disk.probe_table2_err_pct %", "bench.fidelity_failures count",

		"usb.enumerations count", "usb.probe_fluid_ns ns",

		"obs.overhead_pct %", "obs.trace_dropped count",
		"obs.probe_counter_ns ns", "obs.probe_histogram_ns ns", "obs.probe_merge_ms ms",

		"policy.admitted_k 1e3", "policy.shed count", "policy.throttled count",
		"policy.probe_admit_ns ns", "policy.probe_bucket_ns ns",

		"workload.requests_k 1e3", "workload.premium_storm_p50_sim_ms sim-ms",
		"workload.premium_quiescent_p99_sim_ms sim-ms", "workload.premium_storm_ratio ratio",
		"workload.batch_storm_p99_sim_ms sim-ms", "workload.ingest_p99_sim_ms sim-ms",
		"workload.active_disks_max count", "workload.spinups count",
		"workload.probe_p2_observe_ns ns", "workload.probe_slo_report_ms ms",

		"model.ops_checked_k 1e3", "model.probe_check_ns_per_op ns",
		"chaos.faults_applied count", "chaos.violations count",
		"chaos.probe_healthy_p99_sim_ms sim-ms", "chaos.fixed_cost_s s",
		"spec.probe_parse_hash_ms ms", "campaign.probe_cached_replay_ms ms",
	)...)
	ms = append(ms, higherIsBetter(
		"simtime.events_per_wall_s 1/s", "simtime.sim_s_per_wall_s sim-s/s", "simtime.engine_w2_speedup ratio",
		"core.hedge_wins count",
		"ec.probe_encode_mb_per_s MB/s", "ec.probe_reconstruct_mb_per_s MB/s",
	)...)
	return ms
}()

// benchmarkRunSeconds is the measuring budget BENCHMARK.json asks the
// driver to pass as --seconds: four repetitions per run.
const benchmarkRunSeconds = 20

func direction(lower bool) string {
	if lower {
		return "lower"
	}
	return "higher"
}

// benchmarkJSON renders BENCHMARK.json from the catalogues (-describe
// prints it; TestBenchmarkJSONMatchesCatalogue holds the checked-in file
// to it).
func benchmarkJSON() string {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "perf/run.sh"},
		Paths:      []string{"perf"},
		RunSeconds: benchmarkRunSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.name, m.unit, direction(m.lower), m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.name, m.unit, direction(m.lower)})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return string(b) + "\n"
}
