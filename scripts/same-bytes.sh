#!/usr/bin/env bash
# Byte-identity check against a revision: builds ustore-chaos and
# ustore-campaign at REV (exported with git archive) and from the working
# tree, runs every invocation of the list below with both, and compares
# each run's stdout, exit status and every file it writes. It names each
# invocation whose output moved, with the files that differ.
#
#   bash scripts/same-bytes.sh [REV]     # default HEAD
#
# A commit that moves an invocation on purpose declares it in
# testdata/same-bytes-moves.txt: one invocation a line, its name and then
# the cause. The script exits 1 when an invocation moves that is not
# declared, when a declared one does not move, and when a declared name is
# not an invocation. So the next commit that moves nothing empties the
# file again. A change meant to leave every simulated result alone runs it
# against its parent (HEAD^ once committed). The two sides run at once,
# about a minute in all on a 2-CPU host, most of it the two builds. The
# script uses mktemp -d; set TMPDIR to keep its files where you want them.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
rev=${1:-HEAD}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# One invocation a line: its name, then the tool (chaos or campaign) and
# its arguments. Each runs in a directory of its own, so relative output
# paths land there. Both sides read the working tree's campaign specs.
invocations="
fleet-unit-loss-8     chaos -fleet -units 8 -shards 2 -unit-loss -log -metrics-out m.json
fleet-unit-loss-256   chaos -fleet -units 256 -unit-loss -metrics-out m.json
fleet-faults-8        chaos -fleet -units 8 -shards 2 -crashes 2 -partitions 1 -moves 2 -log -metrics-out m.json
fleet-faults-16       chaos -fleet -units 16 -shards 4 -crashes 2 -partitions 1 -moves 2 -log -metrics-out m.json
fleet-partitions-16   chaos -fleet -units 16 -shards 4 -partitions 3 -moves 1 -log -metrics-out m.json
fleet-guards-8        chaos -fleet -units 8 -shards 2 -crashes 6 -partitions 6 -seed 2 -log -metrics-out m.json
fleet-guards-16       chaos -fleet -units 16 -shards 4 -crashes 4 -partitions 4 -unit-loss -seed 1 -log -metrics-out m.json
fleet-64-seed5        chaos -fleet -units 64 -shards 8 -crashes 2 -partitions 1 -moves 2 -seed 5 -log -metrics-out m.json
fleet-64-seed5-loss   chaos -fleet -units 64 -shards 8 -crashes 2 -partitions 1 -moves 2 -seed 5 -unit-loss -log -metrics-out m.json
fleet-bench-48        chaos -fleet -units 48 -seed 3 -fleet-bench 1,4,16 -bench-out b.json
fleet-bench-64        chaos -fleet -units 64 -seed 9 -fleet-bench 8 -bench-out b.json
sweep-4-seeds         chaos -seed 2 -days 0.25 -seeds 4 -parallel 2 -metrics-out m.json
gray-day              chaos -seed 1 -days 1 -gray -mitigation -log -metrics-out m.json
soak8-seed1           chaos -seed 1 -days 8 -gray -mitigation -log -metrics-out m.json
soak8-seed4           chaos -seed 4 -days 8 -gray -mitigation -log -metrics-out m.json
storm-protect         chaos -tenants -storm -protect -seed 1 -slo-out slo.txt -metrics-out m.json
storm                 chaos -tenants -storm -seed 1 -slo-out slo.txt -metrics-out m.json
campaign-experiments  campaign -spec $root/examples/experiments.yaml -cache cache -out report.txt
campaign-durability   campaign -spec $root/examples/durability.yaml -cache cache -out report.txt
"

# side NAME: every invocation with NAME's binaries, into $tmp/NAME/<invocation>;
# stderr, which may carry timings, goes beside it and is not compared.
side() {
	local name tool args rc
	while read -r name tool args; do
		[ -n "$name" ] || continue
		mkdir -p "$tmp/$1/$name"
		rc=0
		# shellcheck disable=SC2086 # args is a word list
		(cd "$tmp/$1/$name" && exec "$tmp/bin/$1-$tool" $args >stdout 2>"$tmp/$1-$name.stderr") || rc=$?
		echo "exit $rc" >"$tmp/$1/$name/status"
	done <<<"$invocations"
}

mkdir -p "$tmp/src" "$tmp/bin"
git archive "$rev" | tar -x -C "$tmp/src"
echo "same-bytes: building $rev and the working tree" >&2
for tool in chaos campaign; do
	(cd "$tmp/src" && go build -o "$tmp/bin/rev-$tool" "./cmd/ustore-$tool")
	go build -o "$tmp/bin/now-$tool" "./cmd/ustore-$tool"
done
echo "same-bytes: running $(grep -c . <<<"$invocations") invocations on both" >&2
side rev &
side now
wait

# declared: the names testdata/same-bytes-moves.txt declares, one a line.
declared=$(sed 's/#.*//' testdata/same-bytes-moves.txt | awk 'NF { print $1 }')
bad=0
for name in $declared; do
	if ! grep -q "^$name " <<<"$invocations"; then
		echo "declared but not an invocation: $name"
		bad=$((bad + 1))
	fi
done
moved=0
while read -r name _; do
	[ -n "$name" ] || continue
	is_declared=0
	grep -qx "$name" <<<"$declared" && is_declared=1
	if ! out=$(diff -rq "$tmp/rev/$name" "$tmp/now/$name"); then
		moved=$((moved + 1))
		if [ "$is_declared" = 1 ]; then
			echo "moved as declared: $name"
		else
			echo "moved: $name"
			bad=$((bad + 1))
		fi
		sed "s|$tmp/||g; s|^|  |" <<<"$out"
	elif [ "$is_declared" = 1 ]; then
		echo "declared but byte-identical: $name"
		bad=$((bad + 1))
	fi
done <<<"$invocations"
if [ "$bad" -gt 0 ]; then
	echo "same-bytes: $bad invocation(s) differ from testdata/same-bytes-moves.txt against $rev ($moved moved)"
	exit 1
fi
if [ "$moved" -gt 0 ]; then
	echo "same-bytes: $moved invocation(s) moved against $rev, each as declared"
else
	echo "same-bytes: every invocation is byte-identical to $rev"
fi
