#!/usr/bin/env bash
# Run every figure/table bench in smoke mode with a fixed thread count
# and collect the observability artifacts into one directory:
#
#   tools/run_bench_smoke.sh BUILD_DIR OUT_DIR [--json-only]
#
# Writes BENCH_<bench>.json (+ .prom Prometheus exposition and .trace
# Chrome trace unless --json-only) per bench. The smoke matrix is
# deterministic — per-bench default seeds, fixed grids — so the output
# is byte-identical run to run; that is what makes the committed
# bench/baselines/ tree and the bench_diff CI gate meaningful.
#
# Regenerate the committed baselines after an intentional metrics
# change:
#   cmake --build build -j && tools/run_bench_smoke.sh build bench/baselines --json-only
set -eu

build_dir=${1:?usage: run_bench_smoke.sh BUILD_DIR OUT_DIR [--json-only]}
out_dir=${2:?usage: run_bench_smoke.sh BUILD_DIR OUT_DIR [--json-only]}
json_only=${3:-}

repo_dir=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out_dir"

for src in "$repo_dir"/bench/*.cpp; do
  name=$(basename "$src" .cpp)
  extra=()
  if [ "$json_only" != "--json-only" ]; then
    extra=(--prom-out "$out_dir/BENCH_$name.prom"
           --trace-out "$out_dir/BENCH_$name.trace")
  fi
  "$build_dir/bench_$name" --smoke --threads 2 \
    --json-out "$out_dir/BENCH_$name.json" "${extra[@]}" >/dev/null
  echo "ok: $name"
done
