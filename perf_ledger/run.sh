#!/usr/bin/env bash
# Builds perf_ledger from source (offline, release) and runs it with the
# given arguments, from the root of the repository checkout:
#
#   bash perf_ledger/run.sh --workload serve-warm --seed 7 --seconds 25 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default perf_ledger/target); cargo's
# output goes to standard error, so standard output carries only the
# benchmark's own report.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path perf_ledger/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-perf_ledger/target}/release/perf_ledger" "$@"
