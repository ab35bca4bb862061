#!/bin/sh
# The benchmark's own gate: formatting, lints, and the smoke test (every
# workload --quick in both modes, checked against ../BENCHMARK.json).
set -eux
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
