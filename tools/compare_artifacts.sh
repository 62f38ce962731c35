#!/usr/bin/env bash
# Check that two builds emit byte-identical artifacts: every bench's
# smoke-mode JSON, Prometheus exposition and Chrome trace (through
# run_bench_smoke.sh), and every example's stdout.
#
#   tools/compare_artifacts.sh BUILD_A BUILD_B
#
# Typical use: build the parent commit and the change in two trees, then
# compare them to show that a refactor moves no simulated number. Exits 0
# when every artifact matches; otherwise lists each file that differs, or
# exists on one side only, and exits 1. Exits 2 if a run fails.
set -eu

usage="usage: compare_artifacts.sh BUILD_A BUILD_B"
build_a=$(cd "${1:?$usage}" && pwd)
build_b=$(cd "${2:?$usage}" && pwd)
repo_dir=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

collect() {  # BUILD_DIR OUT_DIR
  "$repo_dir/tools/run_bench_smoke.sh" "$1" "$2" >/dev/null || return
  for src in "$repo_dir"/examples/*.cpp; do
    name=$(basename "$src" .cpp)
    (cd "$2" && "$1/example_$name" >"example_$name.stdout") || return
  done
}

collect_or_die() {  # BUILD_DIR SIDE
  if ! collect "$1" "$out/$2" 2>"$out/stderr.log"; then
    cat "$out/stderr.log" >&2
    echo "compare_artifacts: a run from $1 failed" >&2
    exit 2
  fi
}

collect_or_die "$build_a" a
collect_or_die "$build_b" b
if diff -rq "$out/a" "$out/b"; then
  echo "identical: $(ls "$out/a" | wc -l) artifacts"
else
  exit 1
fi
