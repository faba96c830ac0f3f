#!/usr/bin/env bash
# Runs the engine benchmark suite and sanity-checks the JSON reports it
# writes at the repo root:
#
#   scripts/bench.sh          throughput + training + inference + store
#                             + serving benches, then verify
#                             BENCH_engine.json, BENCH_train.json,
#                             BENCH_infer.json, BENCH_store.json and
#                             BENCH_serve.json plus their companion
#                             RUNSTATS_*.json run reports, the
#                             observability overhead gate (the
#                             instrumented-but-disabled sweep must land
#                             within 5% of itself with YALI_OBS=1), and
#                             the store resume gate (warm-from-disk
#                             replay >= 10x over cold);
#                             finally analyze the TRACE_*.jsonl captures
#                             with yali-prof (profile + Chrome export +
#                             cross-process latency attribution), run a
#                             two-worker instrumented yali-grid sweep and
#                             gate its fleet report (fleet counters ==
#                             shard sums, straggler/drift via `yali-prof
#                             diff`, shard traces stitch into one Chrome
#                             timeline), and run `yali-prof diff` against
#                             the reports committed before the run
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

# Every report gate below is a python3 check: without python3 they would
# pass without checking anything, so refuse to start instead.
command -v python3 >/dev/null 2>&1 \
  || { echo "scripts/bench.sh: python3 is required for the report gates" >&2; exit 1; }

# Snapshot the committed reports before the benches overwrite them: the
# regression watch at the end of this script diffs each fresh report
# against the baseline that was here when the run started.
baseline_dir="$(mktemp -d)"
trap 'rm -rf "$baseline_dir"' EXIT
for f in RUNSTATS_engine.json RUNSTATS_train.json RUNSTATS_infer.json RUNSTATS_store.json \
         RUNSTATS_serve.json RUNSTATS_grid.json \
         BENCH_engine.json BENCH_train.json BENCH_infer.json BENCH_store.json \
         BENCH_serve.json; do
  [ -f "$f" ] && cp "$f" "$baseline_dir/$f"
done

cargo bench --bench throughput
cargo bench --bench training
cargo bench --bench inference
cargo bench --bench store
cargo bench --bench serve

# check_json FILE KEY... — the report parses, carries every KEY, records
# no degenerate (non-positive) timing, and every batched inference mode
# is at least as fast as its serial baseline.
check_json() {
  local file="$1"
  shift
  python3 - "$file" "$@" <<'EOF'
import json
import sys

path, keys = sys.argv[1], sys.argv[2:]
with open(path) as f:
    report = json.load(f)
for key in keys:
    if key not in report:
        sys.exit(f"{path}: missing key {key!r}")
modes = report.get("modes", [])
if not modes:
    sys.exit(f"{path}: no benchmark modes recorded")
for m in modes:
    # The store bench's modes carry no serial baseline; default the
    # speedup to a passing value for reports that don't record one.
    speedup = m.get("speedup_vs_serial", 1.0)
    if not (m["mean_ns"] > 0 and speedup > 0):
        sys.exit(f"{path}: degenerate timing in {m['name']}")
    if "batched" in m["name"] and not speedup >= 1.0:
        sys.exit(
            f"{path}: batched mode {m['name']} slower than serial "
            f"({speedup:.2f}x)"
        )
print(f"{path}: ok ({len(modes)} modes)")
EOF
}

check_json BENCH_engine.json speedup_serial_to_parallel_cached obs_overhead_pct embed_cache transform_cache
check_json BENCH_train.json speedup_serial_to_parallel_cached model_cache gemm_simd_kernel
check_json BENCH_infer.json speedup_serial_to_batched speedup_serial_to_batched_parallel n_queries
check_json BENCH_store.json speedup_cold_to_warm_disk bytes_on_disk disk_hit_ratio store_entries
check_json BENCH_serve.json qps_serial_to_batched p99_batched_over_serial n_clients requests_per_client live

# check_runstats FILE — the companion run report is well-formed JSON with
# coherent cache counters (hits + misses >= inserts, ratio in [0, 1]),
# non-negative phase wall times, and pool utilization in [0, 1].
check_runstats() {
  local file="$1"
  python3 - "$file" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
if not report.get("obs_enabled"):
    sys.exit(f"{path}: report written without observability enabled")
for name, c in report["caches"].items():
    if c["hits"] + c["misses"] < c["inserts"]:
        sys.exit(f"{path}: cache {name}: hits+misses < inserts")
    if not 0.0 <= c["hit_ratio"] <= 1.0:
        sys.exit(f"{path}: cache {name}: hit_ratio {c['hit_ratio']} out of range")
for name, p in report["phases"].items():
    if p["total_ns"] < 0 or p["max_ns"] < 0 or p["mean_ns"] < 0:
        sys.exit(f"{path}: phase {name}: negative wall time")
    if p["count"] > 0 and p["total_ns"] == 0:
        sys.exit(f"{path}: phase {name}: {p['count']} entries but zero time")
util = report["pool"]["utilization"]
if not 0.0 <= util <= 1.0:
    sys.exit(f"{path}: pool utilization {util} out of range")
store = report.get("store")
if store is not None and store.get("active"):
    if not 0.0 <= store["disk_hit_ratio"] <= 1.0:
        sys.exit(f"{path}: store disk_hit_ratio {store['disk_hit_ratio']} out of range")
    if store["disk_hits"] + store["disk_misses"] < store["published"]:
        sys.exit(f"{path}: store hits+misses < published")
print(
    f"{path}: ok ({len(report['caches'])} caches, {len(report['phases'])} phases, "
    f"pool utilization {util:.2f})"
)
EOF
}

check_runstats RUNSTATS_engine.json
check_runstats RUNSTATS_train.json
check_runstats RUNSTATS_infer.json
check_runstats RUNSTATS_store.json
check_runstats RUNSTATS_serve.json

# The observability overhead gate: with YALI_OBS unset every count!/span!
# call site must stay a single relaxed load, so the instrumented sweep's
# obs-on mode may cost at most 5% over the identical obs-off mode (the
# true cost measures well under 1%; the margin covers per-run code-layout
# and scheduler noise this box cannot resolve any tighter).
python3 - <<'EOF'
import json

with open("BENCH_engine.json") as f:
    report = json.load(f)
pct = report["obs_overhead_pct"]
if pct > 5.0:
    raise SystemExit(f"BENCH_engine.json: obs-on overhead {pct:.2f}% exceeds the 5% gate")
print(f"observability overhead gate: ok ({pct:.2f}% <= 5%)")
EOF

# The SIMD kernel floor: the dispatched GEMM kernel must beat the blocked
# scalar kernel by at least 4x at the MLP-forward shape. Skipped (with a
# note) when CPU detection picked the scalar kernel — there is nothing to
# gate on a machine with no SIMD units, and tier-1 already proves the
# scalar path correct.
python3 - <<'EOF'
import json

with open("BENCH_train.json") as f:
    report = json.load(f)
kernel = report["gemm_simd_kernel"]
if kernel == "scalar":
    print("gemm simd floor: skipped (dispatch chose the scalar kernel)")
    raise SystemExit(0)
mean = {m["name"]: m["mean_ns"] for m in report["modes"]}
ratio = mean["gemm/blocked"] / mean["gemm/simd"]
if ratio < 4.0:
    raise SystemExit(
        f"BENCH_train.json: gemm/simd ({kernel}) only {ratio:.2f}x over "
        f"gemm/blocked, below the 4x floor"
    )
print(f"gemm simd floor: ok ({kernel} {ratio:.2f}x over blocked, >= 4x)")
EOF

# The artifact-store resume gate: replaying the store bench's sweep from
# a populated store in a cold-cache process must beat recomputing it from
# scratch by at least 10x, and the replay must actually come from disk
# (hit ratio well above chance), or resuming an interrupted sweep is not
# worth the I/O.
python3 - <<'EOF'
import json

with open("BENCH_store.json") as f:
    report = json.load(f)
speedup = report["speedup_cold_to_warm_disk"]
ratio = report["disk_hit_ratio"]
if speedup < 10.0:
    raise SystemExit(
        f"BENCH_store.json: warm-disk replay only {speedup:.2f}x over cold, "
        f"below the 10x floor"
    )
if ratio < 0.5:
    raise SystemExit(f"BENCH_store.json: disk hit ratio {ratio:.3f} below 0.5")
if report["bytes_on_disk"] <= 0:
    raise SystemExit("BENCH_store.json: empty store after the sweep")
print(f"store resume gate: ok ({speedup:.2f}x >= 10x, hit ratio {ratio:.3f})")
EOF

# The serving gate: deadline batching must sustain at least 2x the QPS of
# one-request-per-dispatch serial serving at a no-worse tail (the bench
# checks every served verdict bit-identical to direct predict while
# measuring, so this is a pure throughput/latency gate). The companion
# RUNSTATS must be coherent with itself: every batched row recorded a
# queue wait, the batch-size histogram is non-empty, and no batch
# exceeded INFER_CHUNK (32) rows.
python3 - <<'EOF'
import json

with open("BENCH_serve.json") as f:
    report = json.load(f)
ratio = report["qps_serial_to_batched"]
if ratio < 2.0:
    raise SystemExit(
        f"BENCH_serve.json: batched serving only {ratio:.2f}x the serial QPS, "
        f"below the 2x floor"
    )
p99 = report["p99_batched_over_serial"]
if p99 > 1.0:
    raise SystemExit(
        f"BENCH_serve.json: batched p99 is {p99:.2f}x the serial p99 "
        f"(batching must not cost tail latency under saturation)"
    )
modes = {m["name"]: m for m in report["modes"]}
for name in ("serve/serial", "serve/batched"):
    m = modes.get(name)
    if m is None:
        raise SystemExit(f"BENCH_serve.json: missing mode {name}")
    if not (0 < m["p50_ns"] <= m["p95_ns"] <= m["p99_ns"]):
        raise SystemExit(f"BENCH_serve.json: {name}: percentiles not monotone")
    if m["qps"] <= 0:
        raise SystemExit(f"BENCH_serve.json: {name}: degenerate QPS")

with open("RUNSTATS_serve.json") as f:
    stats = json.load(f)
counters = stats["counters"]
phases = stats["phases"]
rows = counters.get("serve.batch.rows", 0)
batches = counters.get("serve.batches", 0)
if batches == 0 or rows == 0:
    raise SystemExit("RUNSTATS_serve.json: instrumented pass dispatched no batches")
waits = phases.get("serve.queue_wait_ns", {}).get("count", 0)
if waits != rows:
    raise SystemExit(
        f"RUNSTATS_serve.json: queue-wait samples ({waits}) != batched rows ({rows})"
    )
sizes = phases.get("serve.batch_size", {})
if sizes.get("count", 0) != batches:
    raise SystemExit(
        f"RUNSTATS_serve.json: batch-size samples ({sizes.get('count', 0)}) "
        f"!= batches ({batches})"
    )
# The batch-size recorder stores row counts; its max is the largest batch.
if sizes.get("max_ns", 0) > 32:
    raise SystemExit(
        f"RUNSTATS_serve.json: a batch carried {sizes['max_ns']} rows (> INFER_CHUNK)"
    )
by_trigger = sum(
    counters.get(k, 0)
    for k in ("serve.batches.full", "serve.batches.deadline", "serve.batches.drain")
)
if by_trigger != batches:
    raise SystemExit(
        f"RUNSTATS_serve.json: trigger counts ({by_trigger}) != batches ({batches})"
    )
print(
    f"serve gate: ok ({ratio:.2f}x QPS >= 2x, p99 ratio {p99:.2f}, "
    f"{batches} batches / {rows} rows coherent)"
)

# The live-telemetry gate: the daemon's own windowed view of the measured
# round must be populated and coherent with the client-observed
# percentiles (server-side enqueue-to-reply sits below client latency but
# within a loose envelope of it), and the always-armed flight recorder
# must cost at most 5% (measured by paired off/on rounds in the bench).
live = report["live"]
if live["window_count"] <= 0:
    raise SystemExit("BENCH_serve.json: live window saw no traffic")
overhead = live["recorder_overhead_pct"]
if overhead > 5.0:
    raise SystemExit(
        f"BENCH_serve.json: flight-recorder overhead {overhead:.2f}% exceeds the 5% gate"
    )
wp99 = live["windowed_p99_ns"]
lo = modes["serve/batched"]["p50_ns"] / 8.0
hi = 4.0 * max(modes["serve/serial"]["p99_ns"], modes["serve/batched"]["p99_ns"])
if not lo <= wp99 <= hi:
    raise SystemExit(
        f"BENCH_serve.json: windowed p99 {wp99:.0f}ns outside the "
        f"[{lo:.0f}, {hi:.0f}]ns envelope of the client percentiles"
    )
if live["recorder_events"] <= 0:
    raise SystemExit("BENCH_serve.json: the always-instrumented daemon recorded no spans")
print(
    f"serve live gate: ok (windowed p99 {wp99/1e6:.2f}ms in envelope, "
    f"{live['window_count']} rows, recorder overhead {overhead:.2f}% <= 5%)"
)
EOF

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

# The fleet observability gate: a two-worker instrumented yali-grid
# sweep writes RUNSTATS_grid.json (merged fleet + per-shard run reports)
# and one trace capture per process. Three checks: the fleet counters
# are exactly the sum of the shard counters, `yali-prof diff` holds the
# straggler/drift gates (against the committed baseline when present),
# and the per-process captures stitch into one Chrome timeline.
cargo build --release -q -p yali-grid
grid_dir="$(mktemp -d)"
trap 'rm -rf "$baseline_dir" "$grid_dir"' EXIT
YALI_OBS=1 YALI_TRACE="$grid_dir/grid.jsonl" target/release/yali-grid run \
  --workers 2 --out "$grid_dir/grid.json" --runstats RUNSTATS_grid.json \
  --games game0 --evaders none --models knn,rf --rounds 2 \
  --classes 3 --per-class 4
python3 - RUNSTATS_grid.json <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
shards = report["shards"]
if report["n_shards"] != len(shards) or len(shards) != 2:
    sys.exit(f"{path}: expected 2 shard sections, found {len(shards)}")
fleet = report["fleet"]["counters"]
if not fleet:
    sys.exit(f"{path}: merged fleet recorded no counters")
for name, total in fleet.items():
    by_shard = sum(s["report"]["counters"].get(name, 0) for s in shards)
    if by_shard != total:
        sys.exit(f"{path}: counter {name}: fleet {total} != shard sum {by_shard}")
print(f"fleet coherence: ok ({len(fleet)} counters == shard sums across {len(shards)} shards)")
EOF
grid_baseline="$baseline_dir/RUNSTATS_grid.json"
[ -f "$grid_baseline" ] || grid_baseline=RUNSTATS_grid.json
# The smoke sweep finishes in milliseconds, so per-phase means are pure
# scheduler noise run over run; the floor mutes them. What this diff
# actually gates — deterministic fleet counters, the straggler ceiling,
# the per-shard drift band — is unaffected by the floor.
"$prof" diff "$grid_baseline" RUNSTATS_grid.json --min-phase-ns 10000000
"$prof" merge "$grid_dir/grid.jsonl" "$grid_dir/grid.jsonl.shard0" \
  "$grid_dir/grid.jsonl.shard1" -o "$grid_dir/fleet_chrome.json"

# The run-over-run regression watch: diff each fresh report against the
# baseline snapshotted at the top of this script. Thresholds are loose
# (Criterion sizes iteration counts adaptively, so absolute counters
# move a few x between runs) but a real regression — a cache that
# stopped hitting, a phase that blew up, a speedup that collapsed —
# fails the script with the offending metric named.
for f in RUNSTATS_engine.json RUNSTATS_train.json RUNSTATS_infer.json RUNSTATS_store.json \
         RUNSTATS_serve.json \
         BENCH_engine.json BENCH_train.json BENCH_infer.json BENCH_store.json \
         BENCH_serve.json; do
  if [ -f "$baseline_dir/$f" ]; then
    "$prof" diff "$baseline_dir/$f" "$f"
  else
    echo "$f: no committed baseline, skipping diff (first run?)"
  fi
done
