#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, a warning-free
# clippy pass over every target (benches and tests included), a
# round-trip smoke test of the yali-serve daemon, and the benchmark's own
# test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings

# The ml suite again with SIMD dispatch forced off: every GEMM consumer
# must be green on the blocked scalar fallback too (the bit-oracle
# proptests then exercise scalar-vs-scalar, which is cheap).
YALI_SIMD=0 cargo test -q -p yali-ml

# The ml + core suites again with the artifact store live at a tempdir:
# the read-through layer must be invisible to every test that passed
# without it (the plain `cargo test` above already covers YALI_STORE
# unset).
store_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir"' EXIT
YALI_STORE="$store_dir/artifacts" cargo test -q -p yali-ml -p yali-core

# The profiler's golden-fixture round trip: parse the committed trace,
# re-export it, demand a byte-identical Chrome file. Catches any drift
# in the trace schema, the parser, or the exporter.
target/release/yali-prof selfcheck

# The committed reports against every gate: diffing a report against
# itself runs the absolute gates alone (the same table scripts/bench.sh
# holds fresh reports to), so a regenerated baseline that breaks one
# fails here, not only after a bench run.
for f in RUNSTATS_*.json BENCH_*.json; do
  target/release/yali-prof diff "$f" "$f"
done

# The multi-process stitcher's golden fixture: merge the two committed
# shard captures and demand a byte-identical Chrome file. Catches drift
# in the preamble clock handshake, lane remapping, or the merged export.
merged_out="$(mktemp -u).json"
target/release/yali-prof merge \
  crates/prof/fixtures/golden_shard0.jsonl \
  crates/prof/fixtures/golden_shard1.jsonl \
  -o "$merged_out" >/dev/null
cmp "$merged_out" crates/prof/fixtures/golden_merged_chrome.json \
  || { echo "yali-prof merge drifted from the golden fixture" >&2; exit 1; }
rm -f "$merged_out"

# The serving smoke test: boot the daemon on an ephemeral port with a
# tiny corpus, round-trip a liveness probe, a classification, and an
# anti-virus scan through the CLI client, then shut it down gracefully.
# Every client call runs under `timeout`, so a hung daemon fails the
# script instead of wedging it.
serve_bin=target/release/yali-serve
serve_log="$(mktemp)"
"$serve_bin" serve --addr 127.0.0.1:0 --models lr --classes 4 --per-class 6 \
  >"$serve_log" 2>&1 &
serve_pid=$!
cleanup_serve() {
  kill "$serve_pid" 2>/dev/null || true
  rm -f "$serve_log"
}
trap 'cleanup_serve; rm -rf "$store_dir"' EXIT
serve_addr=""
for _ in $(seq 1 100); do
  serve_addr="$(sed -n 's/^yali-serve: listening on //p' "$serve_log")"
  [ -n "$serve_addr" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log" >&2; exit 1; }
  sleep 0.1
done
[ -n "$serve_addr" ] || { echo "yali-serve never reported its port" >&2; exit 1; }
timeout 30 "$serve_bin" ping --addr "$serve_addr"
timeout 30 "$serve_bin" classify --addr "$serve_addr" --model lr \
  --code 'int f(int a) { return a * a + 3; }' | grep -q '^label '
timeout 30 "$serve_bin" scan --addr "$serve_addr" \
  --code 'int f(int a) { return a + 1; }' | grep -q '^malware '
# Live telemetry: the structured metrics op reports the lanes and a
# window header, and the top dashboard renders one frame non-interactively.
timeout 30 "$serve_bin" metrics --addr "$serve_addr" | grep -q '^window '
timeout 30 "$serve_bin" metrics --addr "$serve_addr" | grep -q '^lr '
timeout 30 "$serve_bin" top --addr "$serve_addr" --iterations 1 | grep -q 'yali-serve top'
# The flight recorder: a live dump must satisfy the strict yali-prof
# parser and feed the standard views — that is the recorder's contract.
flight_dump="$(mktemp -u).jsonl"
timeout 30 "$serve_bin" dump-trace --addr "$serve_addr" --out "$flight_dump"
grep -q '"ev":"recorder"' "$flight_dump"
target/release/yali-prof top "$flight_dump" --top 5
target/release/yali-prof export --chrome "$flight_dump" -o "$flight_dump.chrome.json"
rm -f "$flight_dump" "$flight_dump.chrome.json"
timeout 30 "$serve_bin" shutdown --addr "$serve_addr"
# A graceful shutdown means the process exits on its own.
serve_rc=0
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "yali-serve did not exit after shutdown" >&2
  exit 1
fi
wait "$serve_pid" || serve_rc=$?
[ "$serve_rc" -eq 0 ] || { echo "yali-serve exited with $serve_rc" >&2; cat "$serve_log" >&2; exit 1; }
echo "serve smoke: ok (daemon on $serve_addr answered ping/classify/scan and drained)"

# The benchmark's own tests: its smoke test runs every workload, traced
# and untraced, against the committed golden digests. A change that
# breaks the benchmark's build, its checks, or a public item it imports
# fails here rather than only when the benchmark itself runs.
cargo test --release --offline --manifest-path crates/bench/src/bin/yali-benchmark/Cargo.toml

# Optional benchmark smoke: YALI_SMOKE=1 scripts/tier1.sh also runs the
# throughput + training benches and sanity-checks their JSON reports.
if [ "${YALI_SMOKE:-0}" = "1" ]; then
  scripts/bench.sh --smoke
fi
