#!/usr/bin/env bash
# Runs the engine benchmark suite, then holds every report it writes at
# the repo root to the gates:
#
#   scripts/bench.sh          throughput + training + inference + store
#                             + serving benches (BENCH_*.json plus their
#                             companion RUNSTATS_*.json run reports);
#                             analyze the TRACE_*.jsonl captures with
#                             yali-prof (profile + Chrome export +
#                             cross-process latency attribution); run a
#                             two-worker instrumented yali-grid sweep
#                             (RUNSTATS_grid.json) and stitch its shard
#                             traces into one Chrome timeline; finally
#                             `yali-prof diff` each of the eleven reports
#                             against the one committed before the run.
#                             That one diff is the gate engine: it holds
#                             each report to its baseline and, on its own,
#                             to every absolute gate (thresholds: one
#                             table in crates/prof/src/diff.rs)
#   scripts/bench.sh --smoke  the same pass (the benches are already
#                             sized for smoke runs: Scale::SMALL corpora,
#                             10 Criterion samples) — the flag states
#                             intent for CI hooks like tier1.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
  ""|--smoke) ;;
  *) echo "usage: scripts/bench.sh [--smoke]" >&2; exit 2 ;;
esac

# Snapshot the committed reports before the benches overwrite them: the
# gates at the end of this script diff each fresh report against the
# baseline that was here when the run started.
reports=(RUNSTATS_engine.json RUNSTATS_train.json RUNSTATS_infer.json RUNSTATS_store.json
         RUNSTATS_serve.json RUNSTATS_grid.json
         BENCH_engine.json BENCH_train.json BENCH_infer.json BENCH_store.json
         BENCH_serve.json)
baseline_dir="$(mktemp -d)"
trap 'rm -rf "$baseline_dir"' EXIT
for f in "${reports[@]}"; do
  [ -f "$f" ] && cp "$f" "$baseline_dir/$f"
done

cargo bench --bench throughput
cargo bench --bench training
cargo bench --bench inference
cargo bench --bench store
cargo bench --bench serve

# Trace analysis: every bench also wrote an untimed TRACE_*.jsonl
# capture. The strict parser accepting it proves balanced spans and
# monotone per-thread seqs; the Chrome export is what Perfetto loads.
cargo build --release -q -p yali-prof
prof=target/release/yali-prof
for t in TRACE_engine.jsonl TRACE_train.jsonl TRACE_infer.jsonl TRACE_store.jsonl \
         TRACE_serve.jsonl; do
  [ -f "$t" ] || { echo "$t: missing trace capture" >&2; exit 1; }
  "$prof" top "$t" --top 10
  "$prof" export --chrome "$t"
done

# Cross-process latency attribution: the serve bench's traced pass sent
# trace contexts over the wire, so the capture must let yali-prof walk a
# request from its client.request span through the server's queue-wait /
# batch-fill / infer / reply hops. An attribution failing to find a
# context-carrying client span means the propagation plumbing broke.
"$prof" cross-path TRACE_serve.jsonl

# The fleet sweep: a two-worker instrumented yali-grid run writes
# RUNSTATS_grid.json (merged fleet + per-shard run reports, gated below)
# and one trace capture per process, which must stitch into one Chrome
# timeline.
cargo build --release -q -p yali-grid
grid_dir="$(mktemp -d)"
trap 'rm -rf "$baseline_dir" "$grid_dir"' EXIT
YALI_OBS=1 YALI_TRACE="$grid_dir/grid.jsonl" target/release/yali-grid run \
  --workers 2 --out "$grid_dir/grid.json" --runstats RUNSTATS_grid.json \
  --games game0 --evaders none --models knn,rf --rounds 2 \
  --classes 3 --per-class 4
"$prof" merge "$grid_dir/grid.jsonl" "$grid_dir/grid.jsonl.shard0" \
  "$grid_dir/grid.jsonl.shard1" -o "$grid_dir/fleet_chrome.json"

# The gates: diff each fresh report against the baseline snapshotted at
# the top of this script. `yali-prof diff` holds it to that baseline
# (loose bands: Criterion sizes iteration counts adaptively, so counters
# move a few x between runs) and to every absolute gate on its own. A
# report with no committed baseline is diffed against itself, so its
# absolute gates still run. Every failure names its metric, value and
# threshold; the script fails after all eleven reports are checked.
status=0
for f in "${reports[@]}"; do
  old="$baseline_dir/$f"
  [ -f "$old" ] || old="$f"
  "$prof" diff "$old" "$f" || status=1
done
exit "$status"
