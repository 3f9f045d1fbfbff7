#!/usr/bin/env bash
# Build `bap` and the benchmark from source, then run one benchmark
# invocation with the given arguments, e.g.
#
#   bash crates/bench/src/bin/bap-benchmark/run.sh --workload serve-tcp --seed 42
#
# Run it from the repository root (results land in ./results/benchmark/).
# Both executables come from the repository workspace in one build, under
# its one release profile, into $CARGO_TARGET_DIR (default: target/; a
# `.bench_build` target directory is ignored by git too), so `bap` and
# `bap-benchmark` end up side by side. Cargo's output goes to stderr;
# stdout carries only the benchmark's report.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p bankaware --bin bap -p bap-bench --bin bap-benchmark >&2

exec "$CARGO_TARGET_DIR/release/bap-benchmark" "$@"
