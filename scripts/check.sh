#!/usr/bin/env bash
# Offline CI gate: format, release build, and tests — all without network
# access or a Cargo registry cache (the workspace has no external deps).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> public API surface drift gate"
scripts/api_surface.sh | diff -u scripts/api_surface.txt - || {
  echo "public API surface drifted from scripts/api_surface.txt;"
  echo "if the change is intentional, regenerate it with:"
  echo "  scripts/api_surface.sh > scripts/api_surface.txt"
  exit 1
}

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --offline --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> kernel bit-identity suites on release codegen (glaive-nn, glaive-gnn lib tests)"
cargo test -q --release --offline -p glaive-nn -p glaive-gnn --lib

echo "==> whole-suite injection bit identity (faultsim ignored tests, release)"
cargo test --release --offline -p glaive-faultsim -- --ignored

echo "==> every estimator train_models fits, pinned at the train workload's shape (release)"
cargo test --release --offline --test model_identity -- --ignored

echo "==> lowered interpreter against the reference interpreter (sim ignored tests, release)"
cargo test --release --offline -p glaive-sim -- --ignored

echo "==> quick-mode smoke run (paper_results: all six paper artefacts)"
GLAIVE_QUICK=1 cargo run -q --release --offline -p glaive-bench \
  --bin paper_results >/dev/null

echo "==> model-server smoke run (train --quick, serve, query, shutdown)"
SMOKE_DIR="$(mktemp -d)"
SMOKE_MODEL="$SMOKE_DIR/smoke.model"
SMOKE_LOG="$SMOKE_DIR/serve.log"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo run -q --release --offline -p glaive-cli -- \
  train "$SMOKE_MODEL" lu --quick --stride 16 --instances 1 >/dev/null
cargo run -q --release --offline -p glaive-cli -- \
  serve "$SMOKE_MODEL" --addr 127.0.0.1:0 >"$SMOKE_LOG" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^listening on //p' "$SMOKE_LOG" | head -n1)"
  [ -n "$ADDR" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SMOKE_LOG"; exit 1; }
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never reported its address"; cat "$SMOKE_LOG"; exit 1; }
cargo run -q --release --offline -p glaive-cli -- \
  query "$ADDR" lu --stride 16 --top 5 >/dev/null
# The same query under seeded fault injection: corrupted/short/dropped
# frames on the client connection must be retried, never mis-served.
GLAIVE_CHAOS_SEED=0xC4A05EED GLAIVE_CHAOS_RATE=0.0002 \
  cargo run -q --release --offline -p glaive-cli -- \
  query "$ADDR" lu --stride 16 --top 5 --patience 60 >/dev/null
# Budgeted protection set: the same query twice must render the same
# bytes — the greedy selector and the golden timing profile are both
# deterministic end to end.
cargo run -q --release --offline -p glaive-cli -- \
  budget "$ADDR" lu --stride 16 --overhead-pct 5 >"$SMOKE_DIR/budget1.txt"
cargo run -q --release --offline -p glaive-cli -- \
  budget "$ADDR" lu --stride 16 --overhead-pct 5 >"$SMOKE_DIR/budget2.txt"
cmp "$SMOKE_DIR/budget1.txt" "$SMOKE_DIR/budget2.txt" \
  || { echo "budget query was not deterministic"; exit 1; }
grep -q "protect " "$SMOKE_DIR/budget1.txt" \
  || { echo "budget query rendered no selection"; cat "$SMOKE_DIR/budget1.txt"; exit 1; }
cargo run -q --release --offline -p glaive-cli -- query "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"

GCLI="./target/release/glaive-cli"

echo "==> CLI model cache (train twice into a fresh cache, compare with --no-cache)"
# The second run must read the model the first one stored, and both must
# be byte-identical to a model trained without the cache.
MC_DIR="$SMOKE_DIR/model-cache"
mkdir -p "$MC_DIR"
for run in first second; do
  GLAIVE_CACHE_DIR="$MC_DIR/cache" "$GCLI" train "$MC_DIR/$run.model" lu \
    --quick --stride 16 --instances 1 --verbose >/dev/null 2>"$MC_DIR/$run.log"
done
grep -q '^\[cache\] model lu: hit$' "$MC_DIR/second.log" \
  || { echo "second train did not hit the model cache"; cat "$MC_DIR/second.log"; exit 1; }
"$GCLI" train "$MC_DIR/uncached.model" lu --quick --stride 16 --instances 1 \
  --no-cache >/dev/null 2>&1
cmp "$MC_DIR/first.model" "$MC_DIR/uncached.model" \
  && cmp "$MC_DIR/second.model" "$MC_DIR/uncached.model" \
  || { echo "a cached CLI model differs from the uncached one"; exit 1; }

echo "==> campaign fabric smoke run (coordinate + 2 workers, kill, --resume)"
# The coordinator is run from the prebuilt binary (not `cargo run`) so that
# SIGKILL hits the coordinator itself rather than a cargo wrapper.
FAB_DIR="$SMOKE_DIR/fabric"
mkdir -p "$FAB_DIR"
"$GCLI" campaign blackscholes --out "$FAB_DIR/serial.bin" >/dev/null

start_coordinator() {
  GLAIVE_CACHE_DIR="$FAB_DIR" "$GCLI" campaign coordinate blackscholes \
    --workers-listen 127.0.0.1:0 --chunk 8 --checkpoint-interval 64 \
    --resume --out "$FAB_DIR/dist.bin" >"$1" 2>&1 &
  COORD_PID=$!
  CADDR=""
  for _ in $(seq 1 100); do
    CADDR="$(sed -n 's/^coordinating on //p' "$1" | head -n1)"
    [ -n "$CADDR" ] && break
    kill -0 "$COORD_PID" 2>/dev/null || { cat "$1"; exit 1; }
    sleep 0.1
  done
  [ -n "$CADDR" ] || { echo "coordinator never reported its address"; cat "$1"; exit 1; }
}

# First attempt: let the fleet make checkpointed progress, then SIGKILL the
# coordinator mid-campaign.
start_coordinator "$FAB_DIR/coord1.log"
"$GCLI" campaign worker --connect "$CADDR" >/dev/null 2>&1 &
W1=$!
"$GCLI" campaign worker --connect "$CADDR" >/dev/null 2>&1 &
W2=$!
for _ in $(seq 1 200); do
  ls "$FAB_DIR"/ckpt-*.bin >/dev/null 2>&1 && break
  kill -0 "$COORD_PID" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$COORD_PID" 2>/dev/null || true
wait "$COORD_PID" 2>/dev/null || true
wait "$W1" 2>/dev/null || true
wait "$W2" 2>/dev/null || true

# Second attempt resumes from the checkpoint and must complete with a
# ground truth byte-identical to the serial campaign.
start_coordinator "$FAB_DIR/coord2.log"
"$GCLI" campaign worker --connect "$CADDR" >/dev/null 2>&1 &
W1=$!
"$GCLI" campaign worker --connect "$CADDR" >/dev/null 2>&1 &
W2=$!
wait "$COORD_PID" || { cat "$FAB_DIR/coord2.log"; exit 1; }
wait "$W1" 2>/dev/null || true
wait "$W2" 2>/dev/null || true
cmp "$FAB_DIR/serial.bin" "$FAB_DIR/dist.bin" \
  || { echo "distributed ground truth diverged from serial"; exit 1; }

echo "==> chaos smoke run (coordinate + 2 chaos workers, byte-compare vs serial)"
# A fixed seed makes the fault schedule replayable: delays, short ops,
# corrupted bytes and hard disconnects on every worker connection, yet
# the merged ground truth must still equal the serial bytes exactly.
# The rate is deliberately lower than the in-process soak's: every CLI
# session re-receives the multi-KB Welcome job frame, so a high per-byte
# rate would kill most sessions at the handshake and stretch the smoke
# from seconds to hours (progress keeps resetting the patience budget).
CHAOS_DIR="$SMOKE_DIR/chaos"
mkdir -p "$CHAOS_DIR"
GLAIVE_CACHE_DIR="$CHAOS_DIR" "$GCLI" campaign coordinate blackscholes \
  --workers-listen 127.0.0.1:0 --chunk 64 --out "$CHAOS_DIR/chaos.bin" \
  >"$CHAOS_DIR/coord.log" 2>&1 &
COORD_PID=$!
CADDR=""
for _ in $(seq 1 100); do
  CADDR="$(sed -n 's/^coordinating on //p' "$CHAOS_DIR/coord.log" | head -n1)"
  [ -n "$CADDR" ] && break
  kill -0 "$COORD_PID" 2>/dev/null || { cat "$CHAOS_DIR/coord.log"; exit 1; }
  sleep 0.1
done
[ -n "$CADDR" ] || { echo "chaos coordinator never reported its address"; exit 1; }
GLAIVE_CHAOS_SEED=0xC4A05EED GLAIVE_CHAOS_RATE=0.0002 "$GCLI" \
  campaign worker --connect "$CADDR" --patience 120 >"$CHAOS_DIR/w1.log" 2>&1 &
W1=$!
GLAIVE_CHAOS_SEED=0xC4A05EED GLAIVE_CHAOS_RATE=0.0002 "$GCLI" \
  campaign worker --connect "$CADDR" --patience 120 >"$CHAOS_DIR/w2.log" 2>&1 &
W2=$!
wait "$COORD_PID" || { cat "$CHAOS_DIR/coord.log"; exit 1; }
wait "$W1" 2>/dev/null || true
wait "$W2" 2>/dev/null || true
cmp "$FAB_DIR/serial.bin" "$CHAOS_DIR/chaos.bin" \
  || { echo "chaos ground truth diverged from serial"; exit 1; }
grep -q "^chaos: injected" "$CHAOS_DIR/w1.log" "$CHAOS_DIR/w2.log" \
  || { echo "workers reported no injected faults; chaos smoke is vacuous"; exit 1; }

echo "==> chaos soak (chaos_soak --quick: fleet + serve under seeded faults)"
GLAIVE_QUICK=1 cargo run -q --release --offline -p glaive-bench \
  --bin chaos_soak -- --out "$CHAOS_DIR/BENCH_7.json" >/dev/null
grep -q '"identical": true' "$CHAOS_DIR/BENCH_7.json" \
  || { echo "chaos soak reported a divergence"; exit 1; }

echo "==> benchmark smoke (perf_ledger --workload all --smoke)"
# Every workload at tiny sizes with its oracles on: the fi workload
# compares every pass's ground-truth bytes and replays sampled injections,
# the serve workloads compare predictions with serial inference. A failed
# check exits non-zero.
bash perf_ledger/run.sh --workload all --smoke >/dev/null

echo "==> benchmark unit tests (perf_ledger: percentiles, ledger balance, request generator)"
cargo test -q --release --offline --manifest-path perf_ledger/Cargo.toml

echo "==> data-parallel training determinism smoke (2 threads vs serial, byte-compare)"
# --no-cache so the second run cannot satisfy itself from the model cache:
# both models must really be trained, then match byte-for-byte. Three
# programs give three training graphs, so at 2 threads each epoch really
# spreads over two threads.
"$GCLI" train "$SMOKE_DIR/serial.model" dijkstra,astar,streamcluster --quick --stride 16 \
  --instances 1 --train-threads 1 --no-cache >/dev/null
"$GCLI" train "$SMOKE_DIR/threaded.model" dijkstra,astar,streamcluster --quick --stride 16 \
  --instances 1 --train-threads 2 --no-cache >/dev/null
cmp "$SMOKE_DIR/serial.model" "$SMOKE_DIR/threaded.model" \
  || { echo "2-thread training diverged from serial"; exit 1; }

echo "All checks passed."
