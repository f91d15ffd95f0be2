#!/usr/bin/env bash
# Same-host perf gate: alternates two builds of the `perf` benchmark and fails
# when the second is slower than the first beyond the bounds in BENCHMARK.json.
#
# Usage: .github/perf-gate.sh PARENT_PERF HEAD_PERF [PAIRS] [SECONDS]
#
# PARENT_PERF and HEAD_PERF are `perf` binaries built from the parent commit
# and from the change (perf/README.md "Comparing two commits"). For every
# workload in BENCHMARK.json the script runs PAIRS pairs (default 5, at least
# 5) at the held-out seed 7, SECONDS (default 2) per run, and swaps which
# binary goes first on each pair. It fails when
#   - a run exits non-zero, or its result line reads `correct: false` or
#     `failed > 0`;
#   - a HEAD median of an end-to-end metric is worse than the parent's median
#     by more than that metric's `bound`, in the metric's `better` direction.
# Needs bash and jq.
set -euo pipefail

if (($# < 2 || $# > 4)); then
  echo "usage: $0 PARENT_PERF HEAD_PERF [PAIRS] [SECONDS]" >&2
  exit 2
fi
parent=$1
head=$2
pairs=${3:-5}
seconds=${4:-2}
if ! [[ $pairs =~ ^[0-9]+$ ]] || ((pairs < 5)); then
  echo "perf-gate: PAIRS must be a whole number of at least 5, not '$pairs'" >&2
  exit 2
fi
bench="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
seed=7
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
failures=0

# Runs one side once and appends its result line to $out/<workload>.<side>.
run() {
  local side=$1 bin=$2 workload=$3 pair=$4 text result summary status=0
  text=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds") || status=$?
  result=$(tail -n 1 <<<"$text")
  if ((status != 0)) || ! jq -e '.correct == true and .failed == 0' <<<"$result" >/dev/null 2>&1; then
    summary=$(jq -c '{correct, attempted, failed}' <<<"$result" 2>/dev/null || true)
    echo "FAIL $workload pair $pair $side: perf exited $status, result ${summary:-missing}"
    failures=$((failures + 1))
    return
  fi
  echo "$result" >>"$out/$workload.$side"
  echo "     $workload pair $pair $side: $(jq -c '.metrics | map_values(.value)' <<<"$result")"
}

for workload in $(jq -r '.workloads[].name' "$bench"); do
  : >"$out/$workload.parent"
  : >"$out/$workload.head"
  for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
      run parent "$parent" "$workload" "$pair"
      run head "$head" "$workload" "$pair"
    else
      run head "$head" "$workload" "$pair"
      run parent "$parent" "$workload" "$pair"
    fi
  done
  # One line per end-to-end metric: ok or FAIL, both medians, and how much
  # worse HEAD is as a share of the parent's median (negative: better). A
  # side with no correct run has already failed above.
  verdicts=$(jq -rn --arg workload "$workload" \
    --slurpfile parent "$out/$workload.parent" \
    --slurpfile head "$out/$workload.head" \
    --slurpfile bench "$bench" '
    def median: sort | if length % 2 == 1 then .[length / 2 | floor]
                       else (.[length / 2 - 1] + .[length / 2]) / 2 end;
    def percent: . * 1000 | round / 10 + 0;
    if ($parent | length) == 0 or ($head | length) == 0 then empty else
    $bench[0].end_to_end[] as $m
    | [$parent[].metrics[$m.name].value | numbers] as $p
    | [$head[].metrics[$m.name].value | numbers] as $h
    | if ($p | length) == 0 or ($h | length) == 0 then
        "FAIL \($workload) \($m.name): no value (parent \($p | length) values, HEAD \($h | length) values)"
      else
        ($p | median) as $pm | ($h | median) as $hm
        | ((if $m.better == "lower" then $hm - $pm
            elif $m.better == "higher" then $pm - $hm
            else error("\($m.name): better is \($m.better)") end) / $pm) as $worse
        | "\(if $worse > $m.bound then "FAIL" else "ok  " end) \($workload) \($m.name) (\($m.better) is better): parent median \($pm), HEAD median \($hm), HEAD worse by \($worse | percent)% (bound \($m.bound | percent)%)"
      end
    end')
  echo "$verdicts"
  failures=$((failures + $(grep -c '^FAIL' <<<"$verdicts" || true)))
done

if ((failures > 0)); then
  echo "perf-gate: $failures failure(s); see the FAIL lines above" >&2
  exit 1
fi
echo "perf-gate: every run correct, every end-to-end median within its bound"
