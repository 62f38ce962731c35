#!/usr/bin/env bash
# Check that two source checkouts agree on every simulated number of the
# benchmark: for each workload in BENCHMARK.json, each seed S in 1, 2
# and 3 and each T in 0 and 1, run
#
#   python3 perfbench/run.py --workload W --seed S --seconds 1 --trace T
#
# in both checkouts. With --trace 0, compare correct, attempted, failed
# and the seven simulated end-to-end metrics. With --trace 1, compare
# correct and every per-layer metric whose unit in BENCHMARK.json is
# count, bytes or mJ: the work counts (net.*, crypto.*, smr.*,
# checkpoint.*, ...) and the energy split, which a change that keeps the
# end-to-end numbers can still move. Several seeds, because which paths
# a run takes (chain sync on the crash-chase workload, for one) depends
# on the seed. The host metrics are wall-clock and are not compared.
#
#   tools/compare_perfbench.sh BASE_DIR HEAD_DIR
#
# CARGO_TARGET_DIR is unset, so each checkout builds its benchmark into
# its own .bench_build. Exits 0 when every workload matches at every
# seed; otherwise prints each difference and exits 1. Exits 2 if a run
# fails.
set -eu

usage="usage: compare_perfbench.sh BASE_DIR HEAD_DIR"
base=$(cd "${1:?$usage}" && pwd)
head=$(cd "${2:?$usage}" && pwd)
unset CARGO_TARGET_DIR
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

workloads=$(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$head/BENCHMARK.json")

# The fields compared, one "name=value" line each, from the last stdout
# line of run.py.
summarize() {  # RUN_STDOUT TRACE
  python3 -c '
import json, sys
lines = open(sys.argv[1]).read().strip().splitlines()
out = json.loads(lines[-1])
if sys.argv[2] == "1":
    units = {m["name"]: m["unit"]
             for m in json.load(open(sys.argv[3]))["per_layer"]}
    correct = out["correct"]
    print(f"correct={correct!r}")
    for name, unit in units.items():
        if unit in ("count", "bytes", "mJ"):
            value = out["metrics"][name]["value"]
            print(f"{name}={value!r}")
    sys.exit(0)
for key in ("correct", "attempted", "failed"):
    print(f"{key}={out[key]!r}")
for name in ("energy_per_request_mj", "energy_per_block_mj",
             "latency_p50_ms", "latency_p99_ms", "goodput_rps",
             "failed_request_frac", "max_stall_ms"):
    value = out["metrics"][name]["value"]
    print(f"{name}={value!r}")' "$1" "$2" "$head/BENCHMARK.json"
}

run_one() {  # CHECKOUT SIDE WORKLOAD SEED TRACE
  local log="$out/$2.$3.$4.$5"
  local rc=0
  (cd "$1" && python3 perfbench/run.py --workload "$3" --seed "$4" \
    --seconds 1 --trace "$5") >"$log.stdout" 2>"$log.stderr" || rc=$?
  # run.py exits 1 for a run that fails a correctness check: that is a
  # result to compare. Any other failure ends the comparison.
  if [ "$rc" -gt 1 ] || ! summarize "$log.stdout" "$5" >"$log.txt"; then
    cat "$log.stderr" >&2
    echo "compare_perfbench: $3 seed $4 trace $5 failed in $1 (exit $rc)" >&2
    exit 2
  fi
}

status=0
for w in $workloads; do
  for seed in 1 2 3; do
    for trace in 0 1; do
      run_one "$base" base "$w" "$seed" "$trace"
      run_one "$head" head "$w" "$seed" "$trace"
      name="$w seed $seed trace $trace"
      if diff -u --label "base $name" --label "head $name" \
          "$out/base.$w.$seed.$trace.txt" "$out/head.$w.$seed.$trace.txt"; then
        echo "identical: $name"
      else
        status=1
      fi
    done
  done
done
exit "$status"
