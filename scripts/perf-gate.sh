#!/usr/bin/env bash
# Perf gate beside the frozen benchmark: runs every perf/ workload with the
# benchmark's own command (perf/run.sh --workload W --seed 1 --seconds 5
# --trace 0) and checks it two ways.
#
#   bash scripts/perf-gate.sh [REV]     # compare; exit 1 on any regression
#   bash scripts/perf-gate.sh -update   # regenerate testdata/perf_baseline.json
#
# Host-independent facts are checked against testdata/perf_baseline.json:
# on every run the printed digest, sim_ops_per_s, sim_p99_ms and ok_pct
# equal it, the correctness gate passes and no operation fails.
#
# Allocations are checked against REV (default HEAD), exported from git and
# run on this machine beside a plain copy of the working tree's files (git
# ls-files -co --exclude-standard), so neither side's go build stamps VCS
# state the other's does not: three interleaved REV/working-tree pairs per
# workload, and the working tree's median alloc_mb and mallocs_k may be at
# most 1 % above REV's (BENCHMARK.json's bound). A recorded figure would not
# carry across hosts or Go versions. The simulation runs on one goroutine, so
# what is left of the run-to-run spread is the Go runtime's own: on a 2-CPU
# host, ten runs of the current tree measured mallocs_k at 205.66-205.67 on
# fleet_alloc, 715.25-715.26 on fleet_churn, 16.88-16.92 on restore_storm
# and 62.21-62.22 on chaos_soak (--seconds 20).
#
# Time is reported, not gated: per workload, each side's median and
# quartiles of cpu_s, wall_s and setup_s, and in how many pairs the working
# tree was lower. CPU moves with the host and the run-to-run spread is
# still being measured. Each side's build cache is warmed by one discarded
# run first, because perf/run.sh builds before it runs and setup_s counts
# a cold build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
baseline=testdata/perf_baseline.json
workloads="restore_storm fleet_alloc fleet_churn chaos_soak"
exact="digest sim_ops_per_s sim_p99_ms ok_pct"
bounded="alloc_mb mallocs_k"
timed="cpu_s wall_s setup_s"
pairs=3
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run DIR W OUT: one run of workload W from the checkout in DIR, its printed
# digest and result line reduced to the gate's fields in OUT.json.
run() {
	bash "$1/perf/run.sh" --workload "$2" --seed 1 --seconds 5 --trace 0 >"$3.txt"
	tail -1 "$3.txt" | jq --arg digest "$(awk '$1 == "digest" {print $2; exit}' "$3.txt")" '{
		digest: $digest, correct: .correct, failed: .failed,
		sim_ops_per_s: .metrics.sim_ops_per_s.value, sim_p99_ms: .metrics.sim_p99_ms.value,
		ok_pct: .metrics.ok_pct.value, alloc_mb: .metrics.alloc_mb.value,
		mallocs_k: .metrics.mallocs_k.value, cpu_s: .metrics.cpu_s.value,
		wall_s: .metrics.wall_s.value, setup_s: .metrics.setup_s.value}' >"$3.json"
}

# spread K FILES...: "median (q1-q3)" of field K over the files, each
# quantile interpolated between the two nearest runs.
spread() {
	local k=$1
	shift
	jq -rs --arg k "$k" 'map(.[$k]) | sort | . as $a | length as $n |
		def q(p): (p * ($n - 1)) as $x | ($x | floor) as $i |
			$a[$i] + ($a[[$i + 1, $n - 1] | min] - $a[$i]) * ($x - $i) | . * 1000 | round / 1000;
		"\(q(0.5)) (\(q(0.25))-\(q(0.75)))"' "$@"
}

if [ "${1:-}" = "-update" ]; then
	for w in $workloads; do
		echo "perf-gate: $w" >&2
		run . "$w" "$tmp/$w"
		jq --arg w "$w" '{($w): {digest, sim_ops_per_s, sim_p99_ms, ok_pct}}' "$tmp/$w.json" >"$tmp/$w.base"
	done
	jq -s '{command: "bash perf/run.sh --workload W --seed 1 --seconds 5 --trace 0",
		regenerate: "bash scripts/perf-gate.sh -update", workloads: add}' "$tmp"/*.base >"$baseline"
	echo "perf-gate: wrote $baseline" >&2
	exit 0
fi

rev=${1:-HEAD}
mkdir "$tmp/rev" "$tmp/now"
git archive "$rev" | tar -x -C "$tmp/rev"
git ls-files -co --exclude-standard -z | while IFS= read -r -d '' f; do
	if [ -e "$f" ]; then # a tracked file the tree deleted is not copied
		printf '%s\0' "$f"
	fi
done | tar --null -T - -cf - | tar -x -C "$tmp/now"
echo "perf-gate: warming both build caches" >&2
for dir in "$tmp/rev" "$tmp/now"; do
	bash "$dir/perf/run.sh" --workload restore_storm --seed 1 --seconds 1 --trace 0 >/dev/null
done
status=0
for w in $workloads; do
	echo "perf-gate: $w, $pairs pairs against $rev" >&2
	for i in $(seq "$pairs"); do
		run "$tmp/rev" "$w" "$tmp/rev-$w-$i"
		run "$tmp/now" "$w" "$tmp/now-$w-$i"
	done
	now=("$tmp/now-$w-"*.json)
	if [ "$(jq -s 'all(.correct == true and .failed == 0)' "${now[@]}")" != true ]; then
		echo "$w: gate not correct or failed operations: $(jq -sc 'map({correct, failed})' "${now[@]}")"
		status=1
	fi
	for k in $exact; do
		got=$(jq -sc --arg k "$k" 'map(.[$k]) | unique' "${now[@]}")
		want=$(jq -c --arg w "$w" --arg k "$k" '[.workloads[$w][$k]]' "$baseline")
		if [ "$got" != "$want" ]; then
			echo "$w: $k $got, baseline $want"
			status=1
		fi
	done
	line="$w: digest $(jq -r .digest "${now[0]}" | cut -c1-16)"
	for k in $bounded; do
		median() { jq -s --arg k "$k" 'map(.[$k]) | sort | .[length / 2 | floor]' "$@"; }
		base=$(median "$tmp/rev-$w-"*.json)
		got=$(median "${now[@]}")
		if ! jq -en --argjson got "$got" --argjson base "$base" '$got <= $base * 1.01' >/dev/null; then
			echo "$w: median $k $got is more than 1 % above $rev's $base"
			status=1
		fi
		line+=", $k $got ($rev $base)"
	done
	echo "$line"
	for k in $timed; do
		won=0
		for i in $(seq "$pairs"); do
			if jq -en --arg k "$k" --slurpfile r "$tmp/rev-$w-$i.json" --slurpfile n "$tmp/now-$w-$i.json" \
				'$n[0][$k] < $r[0][$k]' >/dev/null; then
				won=$((won + 1))
			fi
		done
		echo "  $k median (quartiles): $(spread "$k" "${now[@]}"), $rev $(spread "$k" "$tmp/rev-$w-"*.json); lower in $won/$pairs pairs (not gated)"
	done
done
[ "$status" -eq 0 ] && echo "perf-gate: every workload matches $baseline and allocates within 1 % of $rev"
exit "$status"
