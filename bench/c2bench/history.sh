#!/usr/bin/env bash
# Same-host history: builds this benchmark against a base commit and against
# HEAD, runs the end-to-end workloads on both, and appends every result to
# bench/c2bench/history/<hostname>.jsonl (run.py --record lines, labelled
# with the commit).
#
#   bench/c2bench/history.sh [BASE [SEED...]]
#
# BASE defaults to 947e538, the last commit before linearization-witness
# tracing, so the history carries that layer's cost as a same-host number.
# SEEDs default to 1 2 3; every run uses run.py's default length.
#
# Each side is a throwaway tree exported with `git archive` under
# build-c2bench/history/ (the repository's own worktree list is untouched),
# with this checkout's bench/c2bench copied in, so both sides run identical
# benchmark code. Runs alternate which side goes first, workload by workload.
# Store APIs newer than BASE (the witness trace, shard heat) are detected at
# compile time; the traced metrics that need them are reported as absent.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
base=${1:-947e538}
shift || true
seeds=${*:-1 2 3}
out="$here/history/$(hostname).jsonl"
work="$root/build-c2bench/history"

export_tree() {
  local rev=$1 dir=$2
  rm -rf "$dir"
  mkdir -p "$dir"
  git -C "$root" archive "$rev" | tar -x -C "$dir"
  rm -rf "$dir/bench/c2bench"
  mkdir -p "$dir/bench"
  cp -r "$here" "$dir/bench/c2bench"
}

revs=("$base" HEAD)
dirs=()
labels=()
for rev in "${revs[@]}"; do
  sha=$(git -C "$root" rev-parse --short "$rev")
  dir="$work/$sha"
  export_tree "$rev" "$dir"
  dirs+=("$dir")
  labels+=("$sha")
  # Build up front so no measured run pays for compilation.
  python3 "$dir/bench/c2bench/run.py" --smoke > /dev/null
done

n=0
for seed in $seeds; do
  for w in ingest request audit grow; do
    order=(0 1)
    if (( n % 2 )); then order=(1 0); fi
    n=$((n + 1))
    for i in "${order[@]}"; do
      python3 "${dirs[$i]}/bench/c2bench/run.py" --workload "$w" --seed "$seed" \
        --record "$out" --label "${labels[$i]}" > /dev/null
    done
  done
done
echo "appended $((n * 2)) runs to $out"
echo "compare: python3 $here/compare.py <(grep '\"label\": \"${labels[0]}\"' $out) <(grep '\"label\": \"${labels[1]}\"' $out)"
