#!/usr/bin/env bash
# The one documented entry point: build the benchmark, run the suite, check
# that two sets of runs agree.
#
#   benchmark/run.sh                 two full sets, seed 1, then `agree`
#   benchmark/run.sh --smoke         one set, same code paths at 1e4 events / 2k requests
#   benchmark/run.sh --seed 7 --trace --sets 1
#
# Every argument is passed to `cypress-benchmark run` (see README.md).
# Results, traces and scratch files stay under benchmark/out/ (git-ignored);
# scratch directories are removed when a workload succeeds.
set -euo pipefail
cd "$(dirname "$0")/.."

args=("$@")
# Two sets and `agree` by default; a smoke run is too short to agree with
# itself and only shows that every code path works.
if [[ " ${args[*]-} " != *" --sets "* && " ${args[*]-} " != *" --smoke "* ]]; then
    args+=(--sets 2)
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- run "${args[@]}"
