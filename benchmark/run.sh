#!/usr/bin/env bash
# Build what the benchmark needs from source, then run one workload:
#
#   bash benchmark/run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
#
# Builds go to $CARGO_TARGET_DIR (default: the repository's target/). Cargo's
# output goes to stderr; stdout carries the run header, one line per metric
# and, last, the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "benchmark/run.sh: not in a checkout of the repository (no Cargo.toml and crates/)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# The programs under test: the soak harness and the fleet daemon.
cargo build --release --offline --quiet --bin soak --bin eccparityd >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/eccparity-benchmark" "$@"
