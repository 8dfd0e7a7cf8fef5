#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark crate (offline, its own
# workspace) and runs it from the repository root:
#
#   benchmark/run.sh [--seed 42]            every workload, untraced then traced;
#                                           prints every metric, verifies outputs,
#                                           writes benchmark/out/, exits non-zero
#                                           if any operation failed
#   benchmark/run.sh --smoke                the same on shrunken worlds, < 10 s
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           one run; last stdout line is the result
#   benchmark/run.sh compare A.json B.json  two result sets against the bounds
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/aitf-benchmark" "$@"
