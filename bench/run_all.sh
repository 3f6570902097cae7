#!/usr/bin/env bash
# Runs bench_micro_perf (google-benchmark) from a finished build with JSON
# output to BENCH_micro.json at the repo root — the machine-readable perf
# trajectory that future optimisation PRs diff against. The paper tables are
# `byterobust reproduce`.
#
#   bench/run_all.sh [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
micro="${build_dir}/bench/bench_micro_perf"

if [[ ! -x "${micro}" ]]; then
  echo "error: ${micro} not built — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

echo "== bench_micro_perf -> BENCH_micro.json"
"${micro}" --benchmark_format=json --benchmark_out="${repo_root}/BENCH_micro.json" \
    --benchmark_out_format=json > /dev/null
echo "done: $(wc -c < "${repo_root}/BENCH_micro.json") bytes in BENCH_micro.json"
