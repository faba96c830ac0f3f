//! The gate engine: holds a `RUNSTATS_*.json` run report, a
//! `BENCH_*.json` benchmark report or the `RUNSTATS_grid.json` fleet
//! report to every bound `scripts/bench.sh` and `scripts/tier1.sh`
//! enforce, in two kinds of check:
//!
//! - **relative**, the new report against its baseline: counter deltas,
//!   phase-time ratios, cache hit-ratio drops, speedup, p99 and qps
//!   floors, and every key, mode and shard section the baseline has must
//!   persist;
//! - **absolute**, the new report on its own: coherent cache, phase,
//!   pool, store and serve counters, the observability-overhead, SIMD,
//!   store-resume, serving and live-telemetry gates, and fleet counters
//!   that equal their sums over the shards.
//!
//! Every threshold sits in the table below. A report diffed against
//! itself passes every relative check, so `diff F F` runs the absolute
//! gates alone. Each failure names the metric, its value and the
//! threshold it broke.

use serde_json::Value;

/// The highest `RUNSTATS.json` `schema_version` this analyzer understands
/// (kept in lockstep with `yali_core::report::RUNSTATS_SCHEMA_VERSION`).
pub const MAX_SUPPORTED_SCHEMA: u64 = 4;

// --- Thresholds ------------------------------------------------------------
//
// The relative limits are loose enough that an unmodified tree re-running
// its benches passes (Criterion picks iteration counts adaptively, so raw
// counters legitimately scale by a few x between runs) but tight enough
// that a real regression — a cache that stopped hitting, a phase that got
// an order of magnitude slower, a parallel mode that fell back to serial —
// fails with the offending metric named.

/// A counter may grow or shrink by at most this factor.
const MAX_COUNTER_RATIO: f64 = 8.0;
/// Counters with both sides below this floor are ignored (tiny counts are
/// all noise).
const MIN_COUNTER: u64 = 16;
/// A phase's mean wall time may grow by at most this factor.
const MAX_PHASE_RATIO: f64 = 10.0;
/// Phases with an old mean below this many nanoseconds are ignored
/// (sub-threshold spans measure clock overhead, not work).
const MIN_PHASE_NS: f64 = 50_000.0;
/// The fleet report's phase floor: its smoke sweep finishes in
/// milliseconds, so shorter per-phase means are scheduler noise run over
/// run. The fleet gates below do not depend on it.
const FLEET_MIN_PHASE_NS: f64 = 10_000_000.0;
/// A cache or store hit ratio may drop by at most this much (absolute).
const MAX_HIT_DROP: f64 = 0.15;
/// A mode's speedup_vs_serial must stay at least this fraction of its
/// baseline.
const MIN_SPEEDUP_RATIO: f64 = 0.5;
/// A serving mode's p99 latency, and the live windowed p99, may grow by at
/// most this factor.
const MAX_P99_RATIO: f64 = 3.0;
/// A serving mode's qps, and the live rolling qps, must stay at least this
/// fraction of the baseline.
const MIN_QPS_RATIO: f64 = 0.5;
/// Fleet: the slowest shard's wall may exceed the median shard's by at most
/// this factor.
const MAX_STRAGGLER_RATIO: f64 = 3.0;
/// Fleet: each shard's share of a fleet counter may drift from the even
/// split (`fleet / n_shards`) by at most this factor in either direction.
const MAX_SHARD_DRIFT: f64 = 4.0;

// The absolute limits.

/// A hit ratio or the pool utilization.
const UNIT: Limit = Limit::In(0.0, 1.0);
/// A wall time.
const NON_NEGATIVE: Limit = Limit::Ge(0.0);
/// A timing, speedup, throughput or count of work that must have happened.
const POSITIVE: Limit = Limit::Gt(0.0);
/// A `*batched*` mode is at least as fast as its serial baseline.
const BATCHED_SPEEDUP: Limit = Limit::Ge(1.0);
/// The dispatched SIMD GEMM over the blocked scalar kernel at the
/// MLP-forward shape (not held when dispatch chose the scalar kernel:
/// there is nothing to gate on a machine without SIMD units).
const SIMD_OVER_BLOCKED: Limit = Limit::Ge(4.0);
/// The largest serve batch, in rows (`INFER_CHUNK`).
const MAX_BATCH_ROWS: Limit = Limit::Le(32.0);
/// The live windowed p99 (server-side enqueue to reply) lies in
/// [batched p50 / this, …]: below client latency, within a loose envelope.
const LIVE_P99_FLOOR_DIVISOR: f64 = 8.0;
/// … and at most this times the larger client p99 of the two serve modes.
const LIVE_P99_CEILING_FACTOR: f64 = 4.0;
/// Top-level BENCH fields, held whenever a report carries them.
const BENCH_FIELDS: [(&str, Limit); 6] = [
    // With YALI_OBS unset every count!/span! site is one relaxed load, so
    // the instrumented sweep's obs-on mode costs at most 5% over obs-off.
    ("obs_overhead_pct", Limit::Le(5.0)),
    // Resuming a sweep from a populated store beats recomputing it by
    // 10x, and the replay comes from disk.
    ("speedup_cold_to_warm_disk", Limit::Ge(10.0)),
    ("disk_hit_ratio", Limit::Ge(0.5)),
    ("bytes_on_disk", POSITIVE),
    // Deadline batching sustains 2x the serial QPS at a no-worse tail.
    ("qps_serial_to_batched", Limit::Ge(2.0)),
    ("p99_batched_over_serial", Limit::Le(1.0)),
];
/// BENCH_serve's `live` section: the daemon's windowed view saw traffic,
/// and the always-armed flight recorder recorded spans at most 5% cost.
const LIVE_FIELDS: [(&str, Limit); 3] = [
    ("window_count", POSITIVE),
    ("recorder_overhead_pct", Limit::Le(5.0)),
    ("recorder_events", POSITIVE),
];

/// A bound one metric must hold.
#[derive(Clone, Copy)]
enum Limit {
    Gt(f64),
    Ge(f64),
    Le(f64),
    Eq(f64),
    In(f64, f64),
}

impl Limit {
    fn holds(self, v: f64) -> bool {
        match self {
            Limit::Gt(x) => v > x,
            Limit::Ge(x) => v >= x,
            Limit::Le(x) => v <= x,
            Limit::Eq(x) => v == x,
            Limit::In(lo, hi) => lo <= v && v <= hi,
        }
    }
}

impl std::fmt::Display for Limit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Limit::Gt(x) => write!(f, "> {x}"),
            Limit::Ge(x) => write!(f, ">= {x}"),
            Limit::Le(x) => write!(f, "<= {x}"),
            Limit::Eq(x) => write!(f, "== {x}"),
            Limit::In(lo, hi) => write!(f, "in [{lo}, {hi}]"),
        }
    }
}

/// Flags `metric` unless `value` holds `limit`. A missing field reads as
/// NaN, which holds no limit.
fn gate(out: &mut Vec<Violation>, metric: impl Into<String>, value: f64, limit: Limit) {
    if !limit.holds(value) {
        let value = if value.is_nan() { "missing".to_string() } else { value.to_string() };
        out.push(Violation {
            metric: metric.into(),
            detail: format!("{value}, outside the limit {limit}"),
        });
    }
}

/// A number, or NaN when the field is absent or not a number.
fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// The members of a JSON object (none for anything else).
fn entries(v: &Value) -> impl Iterator<Item = (&String, &Value)> {
    v.as_object().into_iter().flatten()
}

/// The elements of a JSON array (none for anything else).
fn items(v: &Value) -> &[Value] {
    v.as_array().map_or(&[], Vec::as_slice)
}

/// One threshold breach: the metric that moved and how.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The metric that breached (`counter game.rounds.game1`,
    /// `cache embed hit_ratio`, `phase game.fit mean_ns`, …).
    pub metric: String,
    /// Its value (old and new for a relative check) and the threshold that
    /// was crossed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "REGRESSION {}: {}", self.metric, self.detail)
    }
}

/// What kind of report a JSON document is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// A `RUNSTATS_*.json` run report (caches/phases/pool/counters).
    RunStats,
    /// A `BENCH_*.json` benchmark report (modes with speedups).
    Bench,
    /// A `RUNSTATS_grid.json` fleet report (merged fleet + per-shard
    /// sections from a sharded `yali-grid run`).
    Fleet,
}

/// Detects the report kind from its top-level keys.
pub fn detect_kind(v: &Value) -> Result<ReportKind, String> {
    if v.get("fleet").as_object().is_some() && v.get("shards").as_array().is_some() {
        Ok(ReportKind::Fleet)
    } else if v.get("phases").as_object().is_some() && v.get("caches").as_object().is_some() {
        Ok(ReportKind::RunStats)
    } else if v.get("modes").as_array().is_some() {
        Ok(ReportKind::Bench)
    } else {
        Err("report is neither a RUNSTATS (caches+phases) nor a BENCH (modes) nor a fleet \
             (fleet+shards) document"
            .into())
    }
}

fn schema_version(v: &Value) -> u64 {
    // Reports written before the field existed are schema 1.
    v.get("schema_version").as_u64().unwrap_or(1)
}

/// Gates `new` against its baseline `old` (same kind) and on its own.
/// Returns the list of threshold breaches (empty = the gate passes) or an
/// error when the documents are not comparable at all.
pub fn diff_values(old: &Value, new: &Value) -> Result<Vec<Violation>, String> {
    let kind = detect_kind(old)?;
    let new_kind = detect_kind(new)?;
    if kind != new_kind {
        return Err(format!("cannot compare {kind:?} against {new_kind:?}"));
    }
    match kind {
        ReportKind::RunStats => {
            let mut out = diff_runstats(old, new, MIN_PHASE_NS)?;
            gate_runstats(&mut out, new);
            Ok(out)
        }
        ReportKind::Bench => {
            let mut out = diff_bench(old, new);
            gate_bench(&mut out, new);
            Ok(out)
        }
        ReportKind::Fleet => diff_fleet(old, new),
    }
}

/// Fleet reports: the merged `fleet` section diffs like any RUNSTATS
/// document (above the fleet phase floor), the new report keeps the
/// baseline's number of shard sections, and fleet-only gates apply to the
/// **new** report on its own — `n_shards` matches its sections, every
/// fleet counter is the sum of its shard counters, the straggler ceiling
/// (slowest shard wall vs. median) holds, and no shard carries a share of
/// a fleet counter further than [`MAX_SHARD_DRIFT`] from the even split.
fn diff_fleet(old: &Value, new: &Value) -> Result<Vec<Violation>, String> {
    let mut out = diff_runstats(old.get("fleet"), new.get("fleet"), FLEET_MIN_PHASE_NS)?;

    let shards = items(new.get("shards"));
    let n_old = items(old.get("shards")).len() as f64;
    gate(&mut out, "fleet shard sections", shards.len() as f64, Limit::Eq(n_old));
    gate(&mut out, "fleet n_shards", num(new.get("n_shards")), Limit::Eq(shards.len() as f64));
    let fleet_counters = new.get("fleet").get("counters");
    gate(&mut out, "fleet counters", entries(fleet_counters).count() as f64, POSITIVE);
    for (name, total) in entries(fleet_counters) {
        let by_shard: f64 = shards
            .iter()
            .map(|s| s.get("report").get("counters").get(name).as_f64().unwrap_or(0.0))
            .sum();
        let metric = format!("fleet counter {name} vs shard sum");
        gate(&mut out, metric, num(total), Limit::Eq(by_shard));
    }

    if let Some(r) = new.get("straggler_ratio").as_f64() {
        if r > MAX_STRAGGLER_RATIO {
            out.push(Violation {
                metric: "fleet straggler_ratio".into(),
                detail: format!(
                    "slowest shard ran {r:.2}x the median shard wall (ceiling \
                     {MAX_STRAGGLER_RATIO:.1}x)"
                ),
            });
        }
    }

    let n = shards.len().max(1) as f64;
    for (name, fv) in entries(fleet_counters) {
        if name.ends_with("_ns") {
            continue;
        }
        let Some(total) = fv.as_u64() else { continue };
        let expect = total as f64 / n;
        if expect < MIN_COUNTER as f64 {
            continue;
        }
        for sh in shards {
            let Some(c) = sh.get("report").get("counters").get(name).as_u64() else {
                continue;
            };
            let ratio = c as f64 / expect;
            if !(1.0 / MAX_SHARD_DRIFT..=MAX_SHARD_DRIFT).contains(&ratio) {
                out.push(Violation {
                    metric: format!(
                        "shard {} counter {name}",
                        sh.get("shard").as_u64().unwrap_or(0)
                    ),
                    detail: format!(
                        "{c} vs an even split of {expect:.0} ({ratio:.2}x outside the \
                         {MAX_SHARD_DRIFT:.0}x drift band)"
                    ),
                });
            }
        }
    }
    Ok(out)
}

fn diff_runstats(old: &Value, new: &Value, min_phase_ns: f64) -> Result<Vec<Violation>, String> {
    let (vo, vn) = (schema_version(old), schema_version(new));
    if vo > MAX_SUPPORTED_SCHEMA || vn > MAX_SUPPORTED_SCHEMA {
        return Err(format!(
            "unsupported RUNSTATS schema_version (old {vo}, new {vn}; this yali-prof understands \
             up to {MAX_SUPPORTED_SCHEMA})"
        ));
    }
    let mut out = Vec::new();
    if vn < vo {
        out.push(Violation {
            metric: "schema_version".into(),
            detail: format!("regressed from {vo} to {vn}"),
        });
    }

    // Counter deltas. Timing-sum counters (`*_ns`) scale with wall time,
    // not with work, so they are exempt; everything else must stay within
    // MAX_COUNTER_RATIO in either direction.
    let new_counters = new.get("counters");
    for (name, ov) in entries(old.get("counters")) {
        if name.ends_with("_ns") {
            continue;
        }
        let (Some(o), Some(n)) = (ov.as_u64(), new_counters.get(name).as_u64()) else {
            continue;
        };
        if o < MIN_COUNTER && n < MIN_COUNTER {
            continue;
        }
        if o > 0 && n == 0 {
            out.push(Violation {
                metric: format!("counter {name}"),
                detail: format!("disappeared (old {o}, new 0)"),
            });
            continue;
        }
        if o == 0 {
            continue; // newly exercised series: fine
        }
        let ratio = n as f64 / o as f64;
        if !(1.0 / MAX_COUNTER_RATIO..=MAX_COUNTER_RATIO).contains(&ratio) {
            out.push(Violation {
                metric: format!("counter {name}"),
                detail: format!(
                    "old {o}, new {n} ({ratio:.2}x outside the {MAX_COUNTER_RATIO:.0}x band)"
                ),
            });
        }
    }

    // Cache hit-ratio drift.
    let new_caches = new.get("caches").as_object();
    for (name, oc) in entries(old.get("caches")) {
        let Some(nc) = new_caches.and_then(|m| m.get(name)) else {
            out.push(Violation {
                metric: format!("cache {name}"),
                detail: "missing from the new report".into(),
            });
            continue;
        };
        let (Some(o), Some(n)) = (oc.get("hit_ratio").as_f64(), nc.get("hit_ratio").as_f64())
        else {
            continue;
        };
        if o - n > MAX_HIT_DROP {
            out.push(Violation {
                metric: format!("cache {name} hit_ratio"),
                detail: format!(
                    "dropped from {o:.3} to {n:.3} (more than the {MAX_HIT_DROP:.2} allowance)"
                ),
            });
        }
    }

    // Artifact-store hit-ratio drift (schema 3+). Only comparable when
    // both runs had a store attached — a run without one legitimately
    // reports zeros.
    let (os, ns) = (old.get("store"), new.get("store"));
    if os.get("active").as_bool() == Some(true) && ns.get("active").as_bool() == Some(true) {
        if let (Some(o), Some(n)) = (
            os.get("disk_hit_ratio").as_f64(),
            ns.get("disk_hit_ratio").as_f64(),
        ) {
            if o - n > MAX_HIT_DROP {
                out.push(Violation {
                    metric: "store disk_hit_ratio".into(),
                    detail: format!(
                        "dropped from {o:.3} to {n:.3} (more than the {MAX_HIT_DROP:.2} \
                         allowance)"
                    ),
                });
            }
        }
    }

    // Phase-time ratios: per-entry means, so adaptive iteration counts
    // cancel out.
    let new_phases = new.get("phases");
    for (name, op) in entries(old.get("phases")) {
        // A phase may vanish when its code path is off.
        let (Some(o), Some(n)) = (
            op.get("mean_ns").as_f64(),
            new_phases.get(name).get("mean_ns").as_f64(),
        ) else {
            continue;
        };
        if o < min_phase_ns {
            continue;
        }
        let ratio = n / o;
        if ratio > MAX_PHASE_RATIO {
            out.push(Violation {
                metric: format!("phase {name} mean_ns"),
                detail: format!(
                    "slowed from {o:.0}ns to {n:.0}ns ({ratio:.1}x > {MAX_PHASE_RATIO:.0}x)"
                ),
            });
        }
    }
    Ok(out)
}

/// A run report on its own: observability was on, cache, phase, pool and
/// store counters are coherent, and a report that saw serving has serve
/// counters that agree with each other.
fn gate_runstats(out: &mut Vec<Violation>, r: &Value) {
    if r.get("obs_enabled").as_bool() != Some(true) {
        out.push(Violation {
            metric: "obs_enabled".into(),
            detail: "report written without observability enabled (needs true)".into(),
        });
    }
    for (name, c) in entries(r.get("caches")) {
        let looked_up = num(c.get("hits")) + num(c.get("misses"));
        let inserts = Limit::Ge(num(c.get("inserts")));
        gate(out, format!("cache {name} hits+misses vs inserts"), looked_up, inserts);
        gate(out, format!("cache {name} hit_ratio"), num(c.get("hit_ratio")), UNIT);
    }
    for (name, p) in entries(r.get("phases")) {
        for field in ["total_ns", "max_ns", "mean_ns"] {
            gate(out, format!("phase {name} {field}"), num(p.get(field)), NON_NEGATIVE);
        }
        if num(p.get("count")) > 0.0 {
            gate(out, format!("phase {name} total_ns"), num(p.get("total_ns")), POSITIVE);
        }
    }
    gate(out, "pool utilization", num(r.get("pool").get("utilization")), UNIT);
    let store = r.get("store");
    if store.get("active").as_bool() == Some(true) {
        gate(out, "store disk_hit_ratio", num(store.get("disk_hit_ratio")), UNIT);
        let looked_up = num(store.get("disk_hits")) + num(store.get("disk_misses"));
        let published = Limit::Ge(num(store.get("published")));
        gate(out, "store disk_hits+disk_misses vs published", looked_up, published);
    }

    let counters = r.get("counters");
    if !entries(counters).any(|(name, _)| name.starts_with("serve.")) {
        return;
    }
    let count = |name: &str| counters.get(name).as_f64().unwrap_or(0.0);
    let samples = |phase: &str, field: &str| {
        r.get("phases").get(phase).get(field).as_f64().unwrap_or(0.0)
    };
    let (rows, batches) = (count("serve.batch.rows"), count("serve.batches"));
    gate(out, "counter serve.batches", batches, POSITIVE);
    gate(out, "counter serve.batch.rows", rows, POSITIVE);
    // Every batched row recorded one queue wait, and every batch one size.
    let waits = samples("serve.queue_wait_ns", "count");
    gate(out, "serve.queue_wait_ns samples vs serve.batch.rows", waits, Limit::Eq(rows));
    let sizes = samples("serve.batch_size", "count");
    gate(out, "serve.batch_size samples vs serve.batches", sizes, Limit::Eq(batches));
    // The batch-size recorder stores row counts; its max is the largest batch.
    let largest = samples("serve.batch_size", "max_ns");
    gate(out, "serve.batch_size largest batch rows", largest, MAX_BATCH_ROWS);
    let by_trigger = count("serve.batches.full")
        + count("serve.batches.deadline")
        + count("serve.batches.drain");
    let metric = "serve.batches.{full,deadline,drain} vs serve.batches";
    gate(out, metric, by_trigger, Limit::Eq(batches));
}

fn diff_bench(old: &Value, new: &Value) -> Vec<Violation> {
    let mut out = Vec::new();
    for (key, _) in entries(old) {
        if !new.as_object().is_some_and(|n| n.contains_key(key)) {
            out.push(Violation {
                metric: format!("key {key}"),
                detail: "missing from the new report".into(),
            });
        }
    }
    let new_modes = items(new.get("modes"));
    for om in items(old.get("modes")) {
        let Some(name) = om.get("name").as_str() else {
            continue;
        };
        let Some(nm) = new_modes.iter().find(|m| m.get("name").as_str() == Some(name)) else {
            out.push(Violation {
                metric: format!("mode {name}"),
                detail: "missing from the new report".into(),
            });
            continue;
        };
        if let (Some(o), Some(n)) = (
            om.get("speedup_vs_serial").as_f64(),
            nm.get("speedup_vs_serial").as_f64(),
        ) {
            if o > 0.0 && n < o * MIN_SPEEDUP_RATIO {
                out.push(Violation {
                    metric: format!("mode {name} speedup_vs_serial"),
                    detail: format!(
                        "fell from {o:.2}x to {n:.2}x (below {:.0}% of the baseline)",
                        MIN_SPEEDUP_RATIO * 100.0
                    ),
                });
            }
        }
        // Serving modes (BENCH_serve.json) additionally carry tail-latency
        // and throughput fields; both sides must have them to compare — a
        // plain throughput bench without percentiles is not penalized.
        if let (Some(o), Some(n)) = (om.get("p99_ns").as_f64(), nm.get("p99_ns").as_f64()) {
            if o > 0.0 && n > o * MAX_P99_RATIO {
                out.push(Violation {
                    metric: format!("mode {name} p99_ns"),
                    detail: format!(
                        "tail latency grew from {o:.0}ns to {n:.0}ns ({:.1}x > \
                         {MAX_P99_RATIO:.1}x ceiling)",
                        n / o
                    ),
                });
            }
        }
        if let (Some(o), Some(n)) = (om.get("qps").as_f64(), nm.get("qps").as_f64()) {
            if o > 0.0 && n < o * MIN_QPS_RATIO {
                out.push(Violation {
                    metric: format!("mode {name} qps"),
                    detail: format!(
                        "throughput fell from {o:.1} to {n:.1} qps (below {:.0}% of the baseline)",
                        MIN_QPS_RATIO * 100.0
                    ),
                });
            }
        }
    }

    // The top-level `live` section (BENCH_serve.json): the daemon's own
    // windowed telemetry, sampled over the bench run. The same tail/
    // throughput thresholds apply, and the same both-sides-present rule —
    // a zero means "window was empty when sampled", which this relative
    // check leaves to the absolute live gates below.
    let positive = |v: &Value, k: &str| v.get("live").get(k).as_f64().filter(|&v| v > 0.0);
    if let (Some(o), Some(n)) = (positive(old, "windowed_p99_ns"), positive(new, "windowed_p99_ns"))
    {
        if n > o * MAX_P99_RATIO {
            out.push(Violation {
                metric: "live windowed_p99_ns".into(),
                detail: format!(
                    "live tail grew from {o:.0}ns to {n:.0}ns ({:.1}x > {MAX_P99_RATIO:.1}x \
                     ceiling)",
                    n / o
                ),
            });
        }
    }
    if let (Some(o), Some(n)) = (positive(old, "rolling_qps"), positive(new, "rolling_qps")) {
        if n < o * MIN_QPS_RATIO {
            out.push(Violation {
                metric: "live rolling_qps".into(),
                detail: format!(
                    "live throughput fell from {o:.1} to {n:.1} qps (below {:.0}% of the \
                     baseline)",
                    MIN_QPS_RATIO * 100.0
                ),
            });
        }
    }
    out
}

/// A benchmark report on its own: every mode timed real work, batched
/// modes beat serial, and the report's headline fields, SIMD floor,
/// serving percentiles and live section hold their limits.
fn gate_bench(out: &mut Vec<Violation>, b: &Value) {
    let modes = items(b.get("modes"));
    gate(out, "modes", modes.len() as f64, POSITIVE);
    for m in modes {
        let name = m.get("name").as_str().unwrap_or("?");
        gate(out, format!("mode {name} mean_ns"), num(m.get("mean_ns")), POSITIVE);
        // The store bench's modes carry no serial baseline: an absent
        // speedup counts as 1.
        let speedup = m.get("speedup_vs_serial").as_f64().unwrap_or(1.0);
        let floor = if name.contains("batched") { BATCHED_SPEEDUP } else { POSITIVE };
        gate(out, format!("mode {name} speedup_vs_serial"), speedup, floor);
    }
    let mode = |name: &str| modes.iter().find(|m| m.get("name").as_str() == Some(name));
    let field = |name: &str, f: &str| mode(name).map_or(f64::NAN, |m| num(m.get(f)));

    for (key, limit) in BENCH_FIELDS {
        if let Some(v) = b.as_object().and_then(|o| o.get(key)) {
            gate(out, key, num(v), limit);
        }
    }
    if let Some(kernel) = b.get("gemm_simd_kernel").as_str().filter(|&k| k != "scalar") {
        let ratio = field("gemm/blocked", "mean_ns") / field("gemm/simd", "mean_ns");
        gate(out, format!("gemm/blocked over gemm/simd ({kernel})"), ratio, SIMD_OVER_BLOCKED);
    }
    if b.get("qps_serial_to_batched").as_f64().is_some() {
        // A lost serve mode is the relative check's to name.
        for name in ["serve/serial", "serve/batched"].into_iter().filter(|n| mode(n).is_some()) {
            let (p50, p95) = (field(name, "p50_ns"), field(name, "p95_ns"));
            gate(out, format!("mode {name} p50_ns"), p50, POSITIVE);
            gate(out, format!("mode {name} p95_ns"), p95, Limit::Ge(p50));
            gate(out, format!("mode {name} p99_ns"), field(name, "p99_ns"), Limit::Ge(p95));
            gate(out, format!("mode {name} qps"), field(name, "qps"), POSITIVE);
        }
    }
    let live = b.get("live");
    if live.as_object().is_some() {
        for (key, limit) in LIVE_FIELDS {
            gate(out, format!("live {key}"), num(live.get(key)), limit);
        }
        let lo = field("serve/batched", "p50_ns") / LIVE_P99_FLOOR_DIVISOR;
        let hi = LIVE_P99_CEILING_FACTOR
            * field("serve/serial", "p99_ns").max(field("serve/batched", "p99_ns"));
        let metric = "live windowed_p99_ns vs client percentiles";
        gate(out, metric, num(live.get("windowed_p99_ns")), Limit::In(lo, hi));
    }
}

/// Reads, parses, and gates two report files.
pub fn diff_files(old_path: &str, new_path: &str) -> Result<Vec<Violation>, String> {
    let read = |path: &str| -> Result<Value, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    diff_values(&read(old_path)?, &read(new_path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runstats(rounds: u64, hit_ratio: f64, fit_mean: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{
              "schema_version": 2,
              "obs_enabled": true,
              "caches": {{"embed": {{"hits": 100, "misses": 10, "inserts": 10,
                                      "hit_ratio": {hit_ratio}}}}},
              "phases": {{"game.fit": {{"count": 40, "mean_ns": {fit_mean},
                                        "max_ns": {fit_mean}, "total_ns": 1}}}},
              "pool": {{"utilization": 0.5}},
              "counters": {{"game.rounds.game1": {rounds}, "par.busy_ns": 999999}}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_runstats_pass() {
        let v = runstats(120, 0.9, 1_000_000.0);
        assert!(diff_values(&v, &v)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn mild_run_to_run_noise_passes() {
        let old = runstats(120, 0.90, 1_000_000.0);
        let new = runstats(260, 0.85, 1_900_000.0); // ~2x counters, small drift
        assert!(diff_values(&old, &new)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn perturbed_counter_fails_and_names_the_metric() {
        let old = runstats(120, 0.9, 1_000_000.0);
        let new = runstats(120 * 100, 0.9, 1_000_000.0);
        let violations = diff_values(&old, &new).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "counter game.rounds.game1");
        assert!(violations[0].to_string().contains("REGRESSION"));
        // The other direction (collapse) also trips.
        let new = runstats(1, 0.9, 1_000_000.0);
        let violations = diff_values(&old, &new).unwrap();
        assert_eq!(violations[0].metric, "counter game.rounds.game1");
    }

    #[test]
    fn timing_counters_are_exempt() {
        let old = runstats(120, 0.9, 1_000_000.0);
        let new: Value = serde_json::from_str(
            r#"{"schema_version":2,"obs_enabled":true,"caches":{"embed":{"hits":100,"misses":10,"inserts":10,"hit_ratio":0.9}},"phases":{},"pool":{"utilization":0.5},"counters":{"game.rounds.game1":120,"par.busy_ns":1}}"#,
        )
        .unwrap();
        // par.busy_ns went from 999999 to 1: no violation (it ends in _ns).
        assert!(diff_values(&old, &new)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn cache_hit_ratio_drop_fails() {
        let old = runstats(120, 0.95, 1_000_000.0);
        let new = runstats(120, 0.40, 1_000_000.0);
        let violations = diff_values(&old, &new).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "cache embed hit_ratio");
    }

    #[test]
    fn phase_blowup_fails_but_fast_phases_are_ignored() {
        let old = runstats(120, 0.9, 1_000_000.0);
        let new = runstats(120, 0.9, 20_000_000.0);
        let violations = diff_values(&old, &new).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "phase game.fit mean_ns");
        // A sub-floor phase can blow up freely (it measures overhead).
        let old = runstats(120, 0.9, 100.0);
        let new = runstats(120, 0.9, 40_000.0);
        assert!(diff_values(&old, &new)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bench_speedup_floor() {
        let mk = |speedup: f64| -> Value {
            serde_json::from_str(&format!(
                r#"{{"modes":[{{"name":"sweep/parallel_cached","mean_ns":5.0,"speedup_vs_serial":{speedup}}}]}}"#
            ))
            .unwrap()
        };
        assert!(diff_values(&mk(2.2), &mk(1.8)).unwrap().is_empty());
        let violations = diff_values(&mk(2.2), &mk(0.6)).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "mode sweep/parallel_cached speedup_vs_serial");
        // A mode vanishing is itself a regression.
        let gone: Value = serde_json::from_str(r#"{"modes":[]}"#).unwrap();
        let violations = diff_values(&mk(2.2), &gone).unwrap();
        assert_eq!(violations[0].metric, "mode sweep/parallel_cached");
    }

    #[test]
    fn serve_bench_p99_ceiling_and_qps_floor() {
        let mk = |p99: f64, qps: f64| -> Value {
            serde_json::from_str(&format!(
                r#"{{"modes":[{{"name":"serve/batched","mean_ns":5.0,"speedup_vs_serial":2.5,
                     "p99_ns":{p99},"qps":{qps}}}]}}"#
            ))
            .unwrap()
        };
        // Mild drift on both axes passes.
        assert!(diff_values(&mk(2_000_000.0, 900.0), &mk(4_000_000.0, 700.0))
            .unwrap()
            .is_empty());
        // Tail latency past the ceiling fails and names the mode.
        let violations =
            diff_values(&mk(2_000_000.0, 900.0), &mk(9_000_000.0, 900.0)).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "mode serve/batched p99_ns");
        // Throughput under the floor fails.
        let violations =
            diff_values(&mk(2_000_000.0, 900.0), &mk(2_000_000.0, 300.0)).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "mode serve/batched qps");
        // Reports without the serving fields are not penalized.
        let plain: Value = serde_json::from_str(
            r#"{"modes":[{"name":"serve/batched","mean_ns":5.0,"speedup_vs_serial":2.5}]}"#,
        )
        .unwrap();
        assert!(diff_values(&plain, &plain).unwrap().is_empty());
        assert!(diff_values(&plain, &mk(2_000_000.0, 900.0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn live_section_gates_windowed_tail_and_rolling_qps() {
        let mk = |p99: f64, qps: f64| -> Value {
            serde_json::from_str(&format!(
                r#"{{"modes":[{{"name":"serve/batched","mean_ns":5.0,"p50_ns":2.8e6,
                                 "p99_ns":4.4e6}}],
                     "live":{{"windowed_p99_ns":{p99},"rolling_qps":{qps},"window_count":64,
                              "recorder_events":900,"recorder_overhead_pct":0.5}}}}"#
            ))
            .unwrap()
        };
        assert!(diff_values(&mk(2e6, 900.0), &mk(4e6, 700.0))
            .unwrap()
            .is_empty());
        let violations = diff_values(&mk(2e6, 900.0), &mk(9e6, 900.0)).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "live windowed_p99_ns");
        let violations = diff_values(&mk(2e6, 900.0), &mk(2e6, 100.0)).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "live rolling_qps");
        // An empty window (0) on either side or a baseline without the
        // section never trips the relative checks. A new window with no
        // p99 breaks the absolute envelope, and a lost section is a lost key.
        assert!(diff_values(&mk(0.0, 0.0), &mk(9e6, 1.0))
            .unwrap()
            .is_empty());
        let violations = diff_values(&mk(2e6, 900.0), &mk(0.0, 0.0)).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "live windowed_p99_ns vs client percentiles");
        let plain: Value =
            serde_json::from_str(r#"{"modes":[{"name":"serve/batched","mean_ns":5.0}]}"#).unwrap();
        assert!(diff_values(&plain, &mk(2e6, 900.0)).unwrap().is_empty());
        let violations = diff_values(&mk(2e6, 900.0), &plain).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "key live");
    }

    fn fleet(rounds0: u64, rounds1: u64, straggler: f64) -> Value {
        let fleet_rounds = rounds0 + rounds1;
        serde_json::from_str(&format!(
            r#"{{
              "schema_version": 4,
              "n_shards": 2,
              "straggler_ratio": {straggler},
              "fleet": {{
                "schema_version": 4,
                "caches": {{"embed": {{"hits": 100, "misses": 10, "hit_ratio": 0.9}}}},
                "phases": {{"grid.worker": {{"count": 2, "mean_ns": 1000000.0, "total_ns": 2000000}}}},
                "counters": {{"game.rounds.game1": {fleet_rounds}}}
              }},
              "shards": [
                {{"shard": 0, "wall_ns": 1000, "points": 4,
                  "report": {{"counters": {{"game.rounds.game1": {rounds0}}}}}}},
                {{"shard": 1, "wall_ns": 1200, "points": 4,
                  "report": {{"counters": {{"game.rounds.game1": {rounds1}}}}}}}
              ]
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn balanced_fleet_passes_and_is_detected() {
        let v = fleet(100, 110, 1.2);
        assert_eq!(detect_kind(&v).unwrap(), ReportKind::Fleet);
        assert!(diff_values(&v, &v)
            .unwrap()
            .is_empty());
        // Fleet vs plain RUNSTATS is not comparable.
        let rs = runstats(100, 0.9, 1_000_000.0);
        assert!(diff_values(&v, &rs).is_err());
    }

    #[test]
    fn straggler_ceiling_gates_the_new_fleet() {
        let old = fleet(100, 110, 1.2);
        let new = fleet(100, 110, 5.0);
        let violations = diff_values(&old, &new).unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "fleet straggler_ratio");
    }

    #[test]
    fn shard_drift_outside_the_band_gates() {
        let old = fleet(100, 110, 1.2);
        // Shard 1 got starved: 4 rounds against shard 0's 206.
        let new = fleet(206, 4, 1.2);
        let violations = diff_values(&old, &new).unwrap();
        assert!(
            violations
                .iter()
                .any(|v| v.metric == "shard 1 counter game.rounds.game1"),
            "{violations:?}"
        );
        // The fleet totals also diff like any RUNSTATS document.
        let collapsed = fleet(1, 1, 1.0);
        let violations = diff_values(&old, &collapsed).unwrap();
        assert!(
            violations
                .iter()
                .any(|v| v.metric == "counter game.rounds.game1"),
            "{violations:?}"
        );
    }

    #[test]
    fn schema_version_handling() {
        let old = runstats(120, 0.9, 1_000_000.0);
        // Future schema: not comparable at all.
        let mut future = runstats(120, 0.9, 1_000_000.0);
        if let Value::Object(o) = &mut future {
            o.insert("schema_version".into(), Value::Number(99.0));
        }
        assert!(diff_values(&old, &future).is_err());
        // Pre-versioned reports (schema 1) still compare.
        let mut v1 = runstats(120, 0.9, 1_000_000.0);
        if let Value::Object(o) = &mut v1 {
            o.remove("schema_version");
        }
        assert!(diff_values(&v1, &old)
            .unwrap()
            .is_empty());
        // Downgrading the writer is flagged.
        let violations = diff_values(&old, &v1).unwrap();
        assert_eq!(violations[0].metric, "schema_version");
    }

    #[test]
    fn mismatched_or_unknown_documents_error() {
        let rs = runstats(1, 0.9, 1.0);
        let bench: Value = serde_json::from_str(r#"{"modes":[]}"#).unwrap();
        let junk: Value = serde_json::from_str(r#"{"x":1}"#).unwrap();
        assert!(diff_values(&rs, &bench).is_err());
        assert!(diff_values(&junk, &junk).is_err());
    }
}
