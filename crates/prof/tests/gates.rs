//! The gate engine against the committed reports at the repository root:
//! each report passes every gate as committed, and for each of the 34
//! checks `scripts/bench.sh` relies on, pushing one field of one report
//! past that check's threshold yields exactly that violation, naming the
//! metric and the threshold.

use serde_json::Value;
use yali_prof::diff_values;

fn committed(file: &str) -> Value {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The member at `path`: an object key, or an array element by its
/// `name` field or its index.
fn at<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(v, |v, key| match v {
        Value::Object(o) => o.get_mut(*key).unwrap_or_else(|| panic!("no key {key}")),
        Value::Array(a) => {
            let i = a
                .iter()
                .position(|m| m.get("name").as_str() == Some(key))
                .or_else(|| key.parse().ok())
                .unwrap_or_else(|| panic!("no element {key}"));
            &mut a[i]
        }
        _ => panic!("{key}: not a container"),
    })
}

fn num(v: &mut Value, path: &[&str]) -> f64 {
    at(v, path).as_f64().unwrap()
}

fn set(v: &mut Value, path: &[&str], x: f64) {
    *at(v, path) = Value::Number(x);
}

/// Removes the last element of `path` from its parent.
fn remove(v: &mut Value, path: &[&str]) {
    let (key, parent) = path.split_last().unwrap();
    match at(v, parent) {
        Value::Object(o) => assert!(o.remove(*key).is_some(), "no key {key}"),
        Value::Array(a) => a.retain(|m| m.get("name").as_str() != Some(key)),
        _ => panic!("{key}: not a container"),
    }
}

/// One check: which report to break, how, whether it is held against the
/// committed baseline (else the broken report is diffed against itself,
/// so only absolute gates can fire), and the violation it must yield.
struct Case {
    check: u32,
    file: &'static str,
    against_baseline: bool,
    mutate: fn(&mut Value),
    metric: &'static str,
    limit: &'static str,
}

const fn case(
    check: u32,
    file: &'static str,
    against_baseline: bool,
    mutate: fn(&mut Value),
    metric: &'static str,
    limit: &'static str,
) -> Case {
    Case { check, file, against_baseline, mutate, metric, limit }
}

const RS_ENGINE: &str = "RUNSTATS_engine.json";
const RS_TRAIN: &str = "RUNSTATS_train.json";
const RS_INFER: &str = "RUNSTATS_infer.json";
const RS_STORE: &str = "RUNSTATS_store.json";
const RS_SERVE: &str = "RUNSTATS_serve.json";
const RS_GRID: &str = "RUNSTATS_grid.json";
const B_ENGINE: &str = "BENCH_engine.json";
const B_TRAIN: &str = "BENCH_train.json";
const B_INFER: &str = "BENCH_infer.json";
const B_STORE: &str = "BENCH_store.json";
const B_SERVE: &str = "BENCH_serve.json";
const REPORTS: [&str; 11] = [
    RS_ENGINE, RS_TRAIN, RS_INFER, RS_STORE, RS_SERVE, RS_GRID, B_ENGINE, B_TRAIN, B_INFER, B_STORE,
    B_SERVE,
];

const CASES: [Case; 34] = [
    case(1, B_INFER, true, |v| remove(v, &["n_queries"]), "key n_queries", "missing"),
    case(2, B_INFER, false, |v| *at(v, &["modes"]) = Value::Array(Vec::new()), "modes", "> 0"),
    case(3, B_ENGINE, false, |v| set(v, &["modes", "embed/serial", "mean_ns"], 0.0),
        "mode embed/serial mean_ns", "> 0"),
    case(4, B_INFER, false, |v| set(v, &["modes", "infer/batched", "speedup_vs_serial"], 0.9),
        "mode infer/batched speedup_vs_serial", ">= 1"),
    case(5, RS_ENGINE, false, |v| *at(v, &["obs_enabled"]) = Value::Bool(false),
        "obs_enabled", "needs true"),
    case(6, RS_ENGINE, false, |v| {
        let hits = num(v, &["caches", "embed", "hits"]);
        let misses = num(v, &["caches", "embed", "misses"]);
        set(v, &["caches", "embed", "inserts"], hits + misses + 1.0)
    }, "cache embed hits+misses vs inserts", ">= "),
    case(7, RS_TRAIN, false, |v| set(v, &["caches", "embed", "hit_ratio"], 1.5),
        "cache embed hit_ratio", "in [0, 1]"),
    case(8, RS_INFER, false, |v| set(v, &["phases", "ml.infer.chunk_ns", "mean_ns"], -1.0),
        "phase ml.infer.chunk_ns mean_ns", ">= 0"),
    case(9, RS_TRAIN, false, |v| set(v, &["phases", "embed.batch", "total_ns"], 0.0),
        "phase embed.batch total_ns", "> 0"),
    case(10, RS_INFER, false, |v| set(v, &["pool", "utilization"], 1.5),
        "pool utilization", "in [0, 1]"),
    case(11, RS_STORE, false, |v| set(v, &["store", "disk_hit_ratio"], 1.5),
        "store disk_hit_ratio", "in [0, 1]"),
    case(12, RS_STORE, false, |v| {
        let looked_up = num(v, &["store", "disk_hits"]) + num(v, &["store", "disk_misses"]);
        set(v, &["store", "published"], looked_up + 1.0)
    }, "store disk_hits+disk_misses vs published", ">= "),
    case(13, B_ENGINE, false, |v| set(v, &["obs_overhead_pct"], 6.0), "obs_overhead_pct", "<= 5"),
    case(14, B_TRAIN, false, |v| {
        *at(v, &["gemm_simd_kernel"]) = Value::String("avx2".into());
        let blocked = num(v, &["modes", "gemm/blocked", "mean_ns"]);
        set(v, &["modes", "gemm/simd", "mean_ns"], blocked / 3.9)
    }, "gemm/blocked over gemm/simd (avx2)", ">= 4"),
    case(15, B_STORE, false, |v| set(v, &["speedup_cold_to_warm_disk"], 9.0),
        "speedup_cold_to_warm_disk", ">= 10"),
    case(16, B_STORE, false, |v| set(v, &["disk_hit_ratio"], 0.4), "disk_hit_ratio", ">= 0.5"),
    case(17, B_STORE, false, |v| set(v, &["bytes_on_disk"], 0.0), "bytes_on_disk", "> 0"),
    case(18, B_SERVE, false, |v| set(v, &["qps_serial_to_batched"], 1.9),
        "qps_serial_to_batched", ">= 2"),
    case(19, B_SERVE, false, |v| set(v, &["p99_batched_over_serial"], 1.1),
        "p99_batched_over_serial", "<= 1"),
    case(20, B_SERVE, true, |v| remove(v, &["modes", "serve/serial"]), "mode serve/serial",
        "missing"),
    case(21, B_SERVE, false, |v| {
        let p99 = num(v, &["modes", "serve/batched", "p99_ns"]);
        set(v, &["modes", "serve/batched", "p95_ns"], p99 + 1.0)
    }, "mode serve/batched p99_ns", ">= "),
    case(22, B_SERVE, false, |v| set(v, &["modes", "serve/serial", "qps"], 0.0),
        "mode serve/serial qps", "> 0"),
    case(23, RS_SERVE, false, |v| {
        set(v, &["counters", "serve.batch.rows"], 0.0);
        set(v, &["phases", "serve.queue_wait_ns", "count"], 0.0)
    }, "counter serve.batch.rows", "> 0"),
    case(24, RS_SERVE, false, |v| {
        let waits = num(v, &["phases", "serve.queue_wait_ns", "count"]);
        set(v, &["phases", "serve.queue_wait_ns", "count"], waits + 1.0)
    }, "serve.queue_wait_ns samples vs serve.batch.rows", "== "),
    case(25, RS_SERVE, false, |v| {
        let sizes = num(v, &["phases", "serve.batch_size", "count"]);
        set(v, &["phases", "serve.batch_size", "count"], sizes + 1.0)
    }, "serve.batch_size samples vs serve.batches", "== "),
    case(26, RS_SERVE, false, |v| set(v, &["phases", "serve.batch_size", "max_ns"], 33.0),
        "serve.batch_size largest batch rows", "<= 32"),
    case(27, RS_SERVE, false, |v| {
        let full = num(v, &["counters", "serve.batches.full"]);
        set(v, &["counters", "serve.batches.full"], full + 1.0)
    }, "serve.batches.{full,deadline,drain} vs serve.batches", "== "),
    case(28, B_SERVE, false, |v| set(v, &["live", "window_count"], 0.0), "live window_count",
        "> 0"),
    case(29, B_SERVE, false, |v| set(v, &["live", "recorder_overhead_pct"], 6.0),
        "live recorder_overhead_pct", "<= 5"),
    case(30, B_SERVE, false, |v| set(v, &["live", "windowed_p99_ns"], 1.0),
        "live windowed_p99_ns vs client percentiles", "in ["),
    case(31, B_SERVE, false, |v| set(v, &["live", "recorder_events"], 0.0),
        "live recorder_events", "> 0"),
    case(32, RS_GRID, true, |v| set(v, &["n_shards"], 3.0), "fleet n_shards", "== 2"),
    case(33, RS_GRID, false, |v| *at(v, &["fleet", "counters"]) = Value::Object(Default::default()),
        "fleet counters", "> 0"),
    case(34, RS_GRID, false, |v| {
        let items = num(v, &["shards", "1", "report", "counters", "par.items"]);
        set(v, &["shards", "1", "report", "counters", "par.items"], items + 1.0)
    }, "fleet counter par.items vs shard sum", "== "),
];

#[test]
fn committed_reports_pass_every_gate() {
    for file in REPORTS {
        let report = committed(file);
        let violations = diff_values(&report, &report).unwrap();
        assert!(violations.is_empty(), "{file}: {violations:?}");
    }
}

#[test]
fn each_check_flags_exactly_its_own_breach() {
    for (i, c) in CASES.iter().enumerate() {
        assert_eq!(c.check as usize, i + 1, "cases run in check order");
        let baseline = committed(c.file);
        let mut broken = baseline.clone();
        (c.mutate)(&mut broken);
        let old = if c.against_baseline { &baseline } else { &broken };
        let violations = diff_values(old, &broken).unwrap();
        let [v] = violations.as_slice() else {
            panic!("check {} on {}: want one violation, got {violations:?}", c.check, c.file);
        };
        assert_eq!(v.metric, c.metric, "check {}: {v}", c.check);
        assert!(v.detail.contains(c.limit), "check {}: {v} names no {:?}", c.check, c.limit);
    }
}
