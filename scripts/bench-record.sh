#!/usr/bin/env bash
# Records one perfbench entry in a BENCH_<pr>.json trajectory file. It
# runs `bash perfbench/run.sh` for every workload (fig8, frontend,
# campaign) with --trace 0 and --trace 1 and appends the result lines,
# with a descriptor of the machine and the commit measured, as one
# entry of the output file (created when missing). Run it from the root
# of the checkout to measure:
#
#   bash scripts/bench-record.sh --pr 16 --label change [--seconds 30] [--seed 1] [--out FILE]
#
# To record a before/after pair, run it once in a checkout of the parent
# commit and once in the change, with the same --out. --out defaults to
# BENCH_<pr>.json in the current directory. Needs jq.
set -euo pipefail

pr="" label="" seconds=30 seed=1 out=""
while [ $# -gt 0 ]; do
	case "$1" in
	--pr) pr=$2; shift 2 ;;
	--label) label=$2; shift 2 ;;
	--seconds) seconds=$2; shift 2 ;;
	--seed) seed=$2; shift 2 ;;
	--out) out=$2; shift 2 ;;
	*) echo "bench-record: unknown argument $1" >&2; exit 2 ;;
	esac
done
if [ -z "$pr" ] || [ -z "$label" ]; then
	echo "usage: bash scripts/bench-record.sh --pr N --label NAME [--seconds S] [--seed N] [--out FILE]" >&2
	exit 2
fi
out=${out:-BENCH_$pr.json}

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
	commit="$commit-dirty"
fi
machine=$(jq -n \
	--argjson nproc "$(nproc)" \
	--argjson gomaxprocs "${GOMAXPROCS:-$(nproc)}" \
	--arg cpu "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)" \
	--arg mhz "$(sed -n 's/^cpu MHz[[:space:]]*: //p' /proc/cpuinfo | head -1)" \
	--arg go "$(go env GOVERSION)" \
	--arg os "$(go env GOOS)/$(go env GOARCH)" \
	'{nproc: $nproc, gomaxprocs: $gomaxprocs, cpu_model: $cpu, cpu_mhz: $mhz,
	  go_version: $go, os: $os}')

runs='[]'
for workload in fig8 frontend campaign; do
	for trace in 0 1; do
		echo "bench-record: $workload --trace $trace ($seconds s)" >&2
		line=$(bash perfbench/run.sh --workload "$workload" --seed "$seed" \
			--seconds "$seconds" --trace "$trace" | tail -1)
		runs=$(jq -c --arg w "$workload" --argjson t "$trace" --argjson r "$line" \
			'. + [{workload: $w, trace: $t, result: $r}]' <<<"$runs")
	done
done

entry=$(jq -n --arg name "$label" --arg commit "$commit" \
	--arg recorded "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	--argjson seed "$seed" --argjson seconds "$seconds" \
	--argjson machine "$machine" --argjson runs "$runs" \
	'{"label": $name, commit: $commit, recorded: $recorded, seed: $seed,
	  seconds: $seconds, machine: $machine, runs: $runs}')
if [ -f "$out" ]; then
	doc=$(jq --argjson e "$entry" '.entries += [$e]' "$out")
else
	doc=$(jq -n --argjson pr "$pr" --argjson e "$entry" '{pr: $pr, entries: [$e]}')
fi
printf '%s\n' "$doc" >"$out.tmp"
mv "$out.tmp" "$out"
echo "bench-record: wrote entry \"$label\" ($commit) to $out" >&2
