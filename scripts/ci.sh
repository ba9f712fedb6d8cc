#!/usr/bin/env bash
# Hermetic CI gate: the workspace must build, test and compile its benches
# OFFLINE, with no crates.io dependencies. A dependency creeping back into
# any Cargo.toml fails here immediately (`--offline` + empty registry).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo tree: dependency graph must contain only workspace members"
externals=$(cargo tree --offline --workspace --edges normal,build,dev \
  | grep -oE '[a-zA-Z0-9_-]+ v[0-9][^ ]*' \
  | awk '{print $1}' | sort -u \
  | grep -vE '^(banscore|banscore-suite|btc-attack|btc-bench|btc-detect|btc-lint|btc-netsim|btc-node|btc-par|btc-wire)$' \
  || true)
if [ -n "$externals" ]; then
  echo "ERROR: external crates in the dependency graph:" >&2
  echo "$externals" >&2
  exit 1
fi

echo "==> release build (offline, warnings are errors)"
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace

echo "==> btc-lint: determinism / panic-safety / ban-exhaustiveness gate"
# Same RUSTFLAGS as the build step so the release cache is reused. The gate
# consumes the machine-readable --json output: the findings array must be
# empty, and the call-graph stats must show the analyzer actually resolved a
# workspace-sized graph (a lexer/parser regression that silently dropped all
# functions would otherwise pass as "clean").
lint_json="target/lint.json"
RUSTFLAGS="-D warnings" cargo run --release --offline -q -p btc-lint -- --json \
  > "$lint_json" || true
if ! grep -q '"findings":\[\]' "$lint_json"; then
  echo "ERROR: btc-lint reported findings:" >&2
  RUSTFLAGS="-D warnings" cargo run --release --offline -q -p btc-lint >&2 || true
  exit 1
fi
fn_count=$(sed -n 's/.*"functions":\([0-9]*\).*/\1/p' "$lint_json")
edge_count=$(sed -n 's/.*"edges":\([0-9]*\).*/\1/p' "$lint_json")
if [ -z "$fn_count" ] || [ "$fn_count" -lt 100 ] || [ "$edge_count" -lt 100 ]; then
  echo "ERROR: btc-lint call graph implausibly small (functions=$fn_count edges=$edge_count)" >&2
  exit 1
fi
echo "    lint clean: call graph $fn_count functions / $edge_count edges OK"

echo "==> tests (offline)"
cargo test -q --offline --workspace

echo "==> benchmark package: builds and passes its tests against the workspace"
# benchmark/ is its own [workspace] that path-depends on the crates above,
# so the workspace build never compiles it. Building it here makes a
# public-API change it consumes fail this gate, not the benchmark run.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> benches compile (offline)"
cargo bench --offline --workspace --no-run

echo "==> bench smoke: 1-iteration run must emit JSON records"
smoke_json=$(mktemp)
trap 'rm -f "$smoke_json"' EXIT
BANSCORE_BENCH_SAMPLES=2 BANSCORE_BENCH_WARMUP_MS=1 BANSCORE_BENCH_SAMPLE_MS=1 \
  BANSCORE_BENCH_JSON="$smoke_json" \
  cargo bench --offline -p btc-bench --bench wire_throughput
BANSCORE_BENCH_SAMPLES=2 BANSCORE_BENCH_WARMUP_MS=1 BANSCORE_BENCH_SAMPLE_MS=1 \
  BANSCORE_BENCH_JSON="$smoke_json" \
  cargo bench --offline -p btc-bench --bench msgpath
BANSCORE_BENCH_SAMPLES=2 BANSCORE_BENCH_WARMUP_MS=1 BANSCORE_BENCH_SAMPLE_MS=1 \
  BANSCORE_BENCH_JSON="$smoke_json" \
  cargo bench --offline -p btc-bench --bench reputation
if ! grep -q '"median_ns"' "$smoke_json"; then
  echo "ERROR: bench smoke produced no JSON records (BANSCORE_BENCH_JSON broken?)" >&2
  exit 1
fi
if ! grep -q '"group":"msgpath"' "$smoke_json"; then
  echo "ERROR: msgpath bench emitted no records" >&2
  exit 1
fi
if ! grep -q '"group":"reputation"' "$smoke_json"; then
  echo "ERROR: reputation bench emitted no records" >&2
  exit 1
fi
echo "    $(wc -l < "$smoke_json") bench records OK"

echo "==> jobs matrix: repro output must be byte-identical at --jobs 1 vs --jobs 4"
# Only the simulation-derived experiments are gated: table2/fig11 time
# wall-clock costs and differ between ANY two runs, serial or not. The
# job count 4 is fixed (not nproc) so the pool's stealing path is
# exercised even on a single-core runner. `faults` doubles as the
# fault-matrix smoke: the quick grid re-runs every attack under packet
# loss, jitter and churn with fixed seeds, so any nondeterminism in the
# fault layer, the retransmission path or the reconnect backoff shows up
# as a diff here. (The single-point bit-equality contract is also a
# test: crates/core/tests/parallel_equivalence.rs.) `reputation` runs the
# three-way trust-tier sweep, so the tier engine's decay/graylist float
# arithmetic is held to the same bit-identity bar.
out1=$(mktemp) out4=$(mktemp)
trap 'rm -f "$smoke_json" "$out1" "$out4"' EXIT
deterministic="table1 fig6 table3 fig8 fig10 evasion faults reputation counter"
cargo run --release --offline -p btc-bench --bin repro -- \
  --quick --jobs 1 $deterministic > "$out1"
cargo run --release --offline -p btc-bench --bin repro -- \
  --quick --jobs 4 $deterministic > "$out4"
if ! diff -u "$out1" "$out4"; then
  echo "ERROR: repro output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
echo "    $(wc -l < "$out1") output lines identical across job counts OK"

echo "==> serve smoke: sharded service must be byte-identical at 1 vs 4 shards"
# The serve scenario prints one deterministic `digest shards=N <hex>` line
# per (case, shard count); wall-clock lines are prefixed [wall] and are
# not compared. A digest mismatch means the sharded per-peer service
# diverged from the serial run — the determinism contract is broken.
# Cases fan out over --jobs and each case fans its shards out again, so
# the non-[wall] output is also diffed at --jobs 1 vs --jobs 4 to pin the
# nested fan-out byte for byte.
serve_out=$(mktemp) serve_out1=$(mktemp)
trap 'rm -f "$smoke_json" "$out1" "$out4" "$serve_out" "$serve_out1"' EXIT
cargo run --release --offline -p btc-bench --bin repro -- \
  --quick --jobs 1 serve > "$serve_out1"
cargo run --release --offline -p btc-bench --bin repro -- \
  --quick --jobs 4 serve > "$serve_out"
if ! diff -u <(grep -v '^  \[wall\] ' "$serve_out1") <(grep -v '^  \[wall\] ' "$serve_out"); then
  echo "ERROR: serve output differs between --jobs 1 and --jobs 4" >&2
  exit 1
fi
d1=$(grep -E '^  digest shards=1 ' "$serve_out" | awk '{print $3}')
d4=$(grep -E '^  digest shards=4 ' "$serve_out" | awk '{print $3}')
if [ -z "$d1" ] || [ "$d1" != "$d4" ]; then
  echo "ERROR: serve digests differ between 1 and 4 shards" >&2
  grep -E '^  digest' "$serve_out" >&2 || true
  exit 1
fi
if grep -E '^  (streaming vs batch|node aggregate)' "$serve_out" \
    | grep -vE 'agree=yes|([0-9]+)/\1 cells' | grep -q .; then
  echo "ERROR: streaming verdicts disagree with the batch engine" >&2
  grep -E '^  (streaming vs batch|node aggregate)' "$serve_out" >&2
  exit 1
fi
echo "    $(echo "$d1" | wc -l) case digests identical across shard counts OK"

echo "==> swarm smoke: sharded netsim must be byte-identical at 1 vs 4 workers"
# The swarm scenario prints one deterministic `digest workers=N <hex>` line
# per (case, worker count); wall-clock lines are prefixed [wall] and are
# not compared. A digest mismatch means the conservative-lookahead shard
# runtime diverged from the serial event loop — the bit-identity contract
# of crates/netsim/src/shard.rs is broken. The quick grid times 1 and 4
# workers on a small topology, so this doubles as the shard-matrix smoke.
swarm_out=$(mktemp)
trap 'rm -f "$smoke_json" "$out1" "$out4" "$serve_out" "$serve_out1" "$swarm_out"' EXIT
cargo run --release --offline -p btc-bench --bin repro -- \
  --quick swarm > "$swarm_out"
s1=$(grep -E '^  digest workers=1 ' "$swarm_out" | awk '{print $3}')
s4=$(grep -E '^  digest workers=4 ' "$swarm_out" | awk '{print $3}')
if [ -z "$s1" ] || [ "$s1" != "$s4" ]; then
  echo "ERROR: swarm digests differ between 1 and 4 workers" >&2
  grep -E '^  digest' "$swarm_out" >&2 || true
  exit 1
fi
if grep -q 'DIVERGED' "$swarm_out"; then
  echo "ERROR: swarm outcome counters diverged across worker counts" >&2
  grep -E 'DIVERGED' "$swarm_out" >&2
  exit 1
fi
echo "    $(echo "$s1" | wc -l) case digests identical across worker counts OK"

echo "CI OK: hermetic build, tests green, benches compile, bench smoke emits JSON,"
echo "       parallel sweeps reproduce the serial output byte for byte,"
echo "       sharded streaming service reproduces the serial digests,"
echo "       sharded netsim reproduces the serial digests at every worker count."
