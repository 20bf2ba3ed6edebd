#!/usr/bin/env bash
# Production-coverage sweep: which functions in internal/ does no entry point
# ever run?
#
# Builds every main package (cmd/*, examples/*, perf) with
# `-cover -coverpkg=./...`, drives them through the fixed invocation list
# below under one GOCOVERDIR, and prints every function in internal/ that was
# never entered (0.0 % in `go tool covdata func`) and is not listed in
# scripts/coverage-allowlist.txt. The list is every ustore-chaos and
# ustore-campaign line in .github/workflows/ci.yml and README.md, -no-checksums
# and the go run entries of mutants_test.go (the checkers' planted bugs, each
# with -minimize), a full ustore-bench plus -ablate/-latency/.prom output,
# an empirical-model chaos spec, a fleet fault run in which commit guards
# fire, both ustore-sim scenarios, the examples, and each perf workload
# traced.
#
#   bash scripts/coverage-sweep.sh [WORKDIR]
#
# WORKDIR (default: a fresh temporary directory) receives the binaries, the
# coverage counters, every output file and `func.txt`, the full per-function
# table. Run it from anywhere; it runs from the repository root.
#
# Exit status 0: every never-entered function is allowlisted, and every
# allowlist entry names a function that exists and is still never entered.
# Exit status 1 otherwise; the offending lines are printed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
work=${1:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
bin=$work/bin cov=$work/cov out=$work/out
rm -rf "$bin" "$cov" "$out"
mkdir -p "$bin" "$cov" "$out"
allow=$root/scripts/coverage-allowlist.txt

echo "building instrumented entry points into $bin" >&2
for pkg in cmd/* examples/*/ perf; do
	pkg=${pkg%/}
	go build -cover -coverpkg=./... -o "$bin/$(basename "$pkg")" "./$pkg"
done

# run WANT CMD...: run CMD with coverage on, stdout and stderr to a numbered
# log, and fail the sweep unless it exits WANT (1 for -no-checksums, 2 for refused input).
n=0
run() {
	local want=$1 status=0
	shift
	n=$((n + 1))
	echo "[$n] $*" >&2
	GOCOVERDIR=$cov "$@" >"$out/$n.log" 2>&1 || status=$?
	if [ "$status" -ne "$want" ]; then
		echo "coverage-sweep: [$n] $* exited $status, want $want; log: $out/$n.log" >&2
		exit 1
	fi
}

chaos=$bin/ustore-chaos
# ci.yml
run 0 "$chaos" -seed 1 -days 1 -metrics-out "$out/metrics.json" -trace-out "$out/trace.json"
run 0 "$chaos" -seed 1 -days 1 -gray -mitigation -metrics-out "$out/gray.json"
run 0 "$chaos" -seed 1 -days 1 -gray -mitigation -log
run 0 "$chaos" -seed 1 -days 8 -gray -mitigation -log
run 0 "$chaos" -seed 4 -days 8 -gray -mitigation -log
run 0 "$chaos" -tenants -storm -protect -seed 1 -slo-out "$out/slo.txt"
run 0 "$chaos" -tenants -storm -seed 1 -slo-out "$out/slo-storm.txt"
run 0 "$chaos" -fleet -units 8 -shards 2 -unit-loss -log
run 0 "$chaos" -fleet -units 48 -seed 3 -fleet-bench 1,4,16 -bench-out "$out/bench.json"
run 0 "$chaos" -fleet -units 64 -seed 9 -fleet-bench 8 -bench-out "$out/bench-a.json"
printf 'mode: faults\ndays: 0.5\nseed: 3\nfaults:\n  gray: true\n  mitigation: true\n' >"$out/one.yaml"
run 0 "$chaos" -seed 3 -days 0.5 -gray -mitigation
run 0 "$chaos" -spec "$out/one.yaml"
run 0 "$chaos" -spec "$out/one.yaml" -seed 4
run 0 "$chaos" -seed 2 -days 0.25 -seeds 4 -parallel 2
run 0 "$chaos" -seed 2 -days 0.25 -cpuprofile "$out/cpu.out" -memprofile "$out/mem.out"
run 0 "$chaos" -fleet -units 16 -shards 4 -crashes 2 -partitions 1 -moves 2 -log
# A commit guard fires only when a commit is lost for 4*electionTTL: this
# fault schedule loses two (the runs above lose none).
run 0 "$chaos" -fleet -units 8 -shards 2 -crashes 6 -partitions 6 -seed 2
# README.md
run 0 "$chaos" -seed 7 -days 2 -metrics-out "$out/m7.prom" -trace-out "$out/t7.json"
run 0 "$chaos" -spec "$out/one.yaml" -seed 5 -minimize
run 0 "$chaos" -fleet -units 256 -shards 16 -unit-loss
run 0 "$chaos" -fleet -units 64 -shards 8 -unit-loss
run 0 "$chaos" -fleet -units 64 -shards 8 -crashes 3 -partitions 2 -moves 2
run 0 "$chaos" -days 30 -seeds 8 -parallel 2
run 0 "$chaos" -tenants -storm -seed 1
run 0 "$chaos" -seed 1 -days 1 -schedule
# an empirical-failure-model chaos spec, its name a quoted string with an
# escape
printf 'mode: faults\nname: "aged\\tdisks"\nseed: 5\ndays: 2\nfailure:\n  model: empirical\n  age_years: 3\n' >"$out/empirical.yaml"
run 0 "$chaos" -spec "$out/empirical.yaml" -metrics-out "$out/empirical.json"
# a JSON spec is refused (exit 2) by both spec readers
printf '{"mode": "faults"}\n' >"$out/spec.json"
run 2 "$chaos" -spec "$out/spec.json"
# checksums off, shrunk by -minimize (exit 1: the checker fires)
run 1 "$chaos" -no-checksums -minimize -parallel 2
# the planted bugs: TestMutants builds each go run entry with -cover into
# GOCOVERDIR and requires it to fail the way the entry says (no -cli entry is
# a smoke entry, so USTORE_MUTANTS=all)
run 0 env USTORE_MUTANTS=all go test -count=1 -run 'TestMutants/.*-cli$' .

campaign=$bin/ustore-campaign
cat >"$out/mini.yaml" <<'EOF'
name: mini
mode: durability
seed: 9
durability:
  disks: 128
  trials: 2
grid:
  durability.scheme: [r2, r3]
  failure.model: [constant, empirical]
EOF
run 0 "$campaign" -spec "$out/mini.yaml" -cache "$out/cache" -out "$out/run1.txt"
run 0 "$campaign" -spec "$out/mini.yaml" -cache "$out/cache" -out "$out/run2.txt"
run 0 "$campaign" -spec "$out/mini.yaml" -cells
run 0 "$campaign" -spec examples/experiments.yaml -cache "$out/cache"
run 0 "$campaign" -spec examples/durability.yaml -cache "$out/cache"
run 2 "$campaign" -spec "$out/spec.json"

bench=$bin/ustore-bench
run 0 "$bench" -parallel 2 -metrics-out "$out/bench.prom" -trace-out "$out/bench-trace.json"
run 0 "$bench" -ablate
run 0 "$bench" -exp hdfs -latency
run 0 "$bench" -exp failover -trials 10 -parallel 2
run 0 "$bench" -list

for s in crash switch; do
	run 0 "$bin/ustore-sim" -scenario "$s" -stats
done
run 0 "$bin/fabric-plan"

for ex in examples/*/; do
	run 0 "$bin/$(basename "$ex")"
done

for w in restore_storm fleet_alloc fleet_churn chaos_soak; do
	run 0 "$bin/perf" -workload "$w" -seed 1 -seconds 1 -trace 1 -trace-out "$out/perf_trace"
done

go tool covdata func -i="$cov" >"$work/func.txt"

# Never-entered functions in internal/, as "file func" with the module prefix
# and line number dropped so the key survives edits elsewhere in the file.
awk '$NF == "0.0%" && $1 ~ /^ustore\/internal\// {
	split($1, p, ":"); sub(/^ustore\//, "", p[1]); print p[1], $2
}' "$work/func.txt" | sort >"$work/dead.txt"
awk '$1 ~ /^ustore\/internal\// {
	split($1, p, ":"); sub(/^ustore\//, "", p[1]); print p[1], $2
}' "$work/func.txt" | sort -u >"$work/all.txt"

# Allowlist lines are "file func  # reason: text"; the reason is one of four.
status=0
grep -v '^[[:space:]]*\(#\|$\)' "$allow" >"$work/allow.raw" || true
if bad=$(grep -Ev '^[^ ]+ [^ ]+ +# (input-error|reference|perf-api|roadmap-[0-9]+): .+$' "$work/allow.raw"); then
	echo "allowlist lines without 'file func  # reason: text' (reason: input-error | reference | perf-api | roadmap-N):"
	echo "$bad"
	status=1
fi
awk '{print $1, $2}' "$work/allow.raw" | sort >"$work/allow.txt"

total=$(wc -l <"$work/all.txt")
never=$(wc -l <"$work/dead.txt")
echo "never-entered functions in internal/: $never of $total"
awk '{print $1}' "$work/dead.txt" | xargs -rn1 dirname | sort | uniq -c | sort -rn | awk '{printf "  %-24s %d\n", $2, $1}'
# Each never-entered function with its allowlisted reason, if any.
awk 'NR == FNR {k = $1 " " $2; sub(/^[^#]*# */, ""); why[k] = $0; next}
	{printf "  %-60s %s\n", $1 " " $2, ($1 " " $2 in why) ? why[$1 " " $2] : "NOT ALLOWLISTED"}' \
	"$work/allow.raw" "$work/dead.txt"

if unlisted=$(comm -23 "$work/dead.txt" "$work/allow.txt" | grep .); then
	echo "never entered and not on scripts/coverage-allowlist.txt (give each a production caller, delete it, or allowlist it with a reason):"
	echo "$unlisted" | sed 's/^/  /'
	status=1
fi
if stale=$(comm -13 "$work/dead.txt" "$work/allow.txt" | grep .); then
	echo "allowlisted but entered by the sweep, or gone (drop the line):"
	echo "$stale" | sed 's/^/  /'
	status=1
fi
[ "$status" -eq 0 ] && echo "every never-entered function is allowlisted with a reason"
exit "$status"
