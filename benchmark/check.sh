#!/usr/bin/env bash
# The checks CI would run on this package (`.github/` is outside what
# the benchmark's own change may touch): format, lints, the package's
# tests, and a one-pass smoke of all four workloads, end to end and
# traced. Run from anywhere; builds offline.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --release --manifest-path "$manifest"
cargo build --offline --release --manifest-path "$manifest"

for workload in serve_small exec_large plan_churn model_sim; do
  for trace in 0 1; do
    echo "== $workload --trace $trace --quick"
    cargo run --offline --release --quiet --manifest-path "$manifest" -- \
      --workload "$workload" --seed 3 --seconds 1 --trace "$trace" --quick | tail -n 1
  done
done
echo "benchmark/check.sh: all checks passed"
