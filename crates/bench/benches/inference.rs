//! Inference-path throughput: all six trained vector models classifying
//! the Scale::SMALL sweep's challenge pool (the whole corpus under six
//! evaders), timed in three configurations —
//!
//! * `infer/serial` — the pre-batching behavior: one `predict` call per
//!   sample on one thread;
//! * `infer/batched` — `predict_batch` on one thread: the GEMM-backed
//!   chunk kernels (whole-matrix forwards, the distance-matrix knn,
//!   tree-by-tree forest votes) with no parallelism;
//! * `infer/batched_parallel` — `predict_batch` with the engine's worker
//!   pool, chunks fanned out on `yali-par`.
//!
//! All three modes produce identical labels (enforced at startup and by
//! the `prop_infer` determinism proptest). Writes `BENCH_infer.json` at
//! the repo root.

use std::time::Duration;

use criterion::Criterion;
use yali_core::{transform_all, Corpus, Sample, Scale, Transformer};
use yali_ml::{ModelKind, TrainConfig, VectorClassifier};

/// The challenge evaders: a representative slice of Figure 4's column
/// (identity, optimizer, and the O-LLVM passes).
const EVADERS: [Transformer; 6] = [
    Transformer::None,
    Transformer::Opt(yali_opt::OptLevel::O2),
    Transformer::Opt(yali_opt::OptLevel::O3),
    Transformer::Ir(yali_obf::IrObf::Ollvm),
    Transformer::Ir(yali_obf::IrObf::Fla),
    Transformer::Ir(yali_obf::IrObf::Sub),
];

fn embed(samples: &[&Sample], t: Transformer, seed: u64) -> Vec<Vec<f64>> {
    transform_all(samples, t, seed)
        .iter()
        .map(yali_embed::histogram)
        .collect()
}

#[derive(serde::Serialize)]
struct ModeOut {
    name: String,
    mean_ns: f64,
    median_ns: f64,
    min_ns: f64,
    speedup_vs_serial: f64,
}

#[derive(serde::Serialize)]
struct Report {
    description: String,
    workload: String,
    threads_parallel: usize,
    n_queries: usize,
    models: Vec<String>,
    modes: Vec<ModeOut>,
    speedup_serial_to_batched: f64,
    speedup_serial_to_batched_parallel: f64,
}

fn main() {
    let scale = Scale::SMALL;
    let corpus = Corpus::poj(scale.classes, scale.per_class, 77);
    let (train, _) = corpus.split(0.8, 7);
    let xtr = embed(&train, Transformer::None, 1);
    let ytr: Vec<usize> = train.iter().map(|s| s.class).collect();
    let models: Vec<VectorClassifier> = ModelKind::ALL
        .iter()
        .map(|&k| VectorClassifier::fit(k, &xtr, &ytr, corpus.n_classes, &TrainConfig::default()))
        .collect();

    // The challenge pool: every corpus sample under every evader — the
    // shape of a sweep's evaluation phase.
    let all: Vec<&Sample> = corpus.samples.iter().collect();
    let mut queries: Vec<Vec<f64>> = Vec::new();
    for (i, &t) in EVADERS.iter().enumerate() {
        queries.extend(embed(&all, t, 100 + i as u64));
    }

    // Per-sample loop vs batched API; both sum the labels so the work
    // cannot be optimized away.
    let serial_pass = || {
        let mut acc = 0usize;
        for clf in &models {
            for q in &queries {
                acc += clf.predict(q);
            }
        }
        acc
    };
    let batched_pass = || {
        let mut acc = 0usize;
        for clf in &models {
            acc += clf.predict_batch(&queries).iter().sum::<usize>();
        }
        acc
    };
    assert_eq!(serial_pass(), batched_pass(), "modes must agree on labels");

    let parallel_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);

    let mut c = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    std::env::set_var("YALI_THREADS", "1");
    c.bench_function("infer/serial", |b| b.iter(serial_pass));
    c.bench_function("infer/batched", |b| b.iter(batched_pass));
    std::env::set_var("YALI_THREADS", parallel_threads.to_string());
    c.bench_function("infer/batched_parallel", |b| b.iter(batched_pass));

    // One instrumented pass for the companion run report (chunk latency
    // histogram, batch counters, pool utilization).
    yali_obs::set_enabled(true);
    let _ = batched_pass();
    let runstats_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../RUNSTATS_infer.json");
    yali_core::RunReport::collect()
        .write(runstats_path)
        .expect("write RUNSTATS_infer.json");
    yali_obs::set_enabled(false);

    // One untimed traced pass for `yali-prof` (separate from the report
    // pass above so the JSONL sink's mutex writes never taint the
    // RUNSTATS phase timings).
    let trace_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRACE_infer.jsonl");
    yali_obs::set_trace_path(Some(trace_path));
    yali_obs::set_enabled(true);
    {
        // `predict_batch` itself only records histograms (the per-chunk
        // latency), so give the capture a root span to hang the pool's
        // region events under.
        let _pass = yali_obs::span!("bench.infer.pass");
        let _ = batched_pass();
    }
    yali_obs::set_enabled(false);
    yali_obs::set_trace_path(None);
    std::env::remove_var("YALI_THREADS");

    let mean_of = |name: &str| {
        c.summaries()
            .iter()
            .find(|s| s.id == name)
            .map(|s| s.mean_ns)
            .expect("bench summary")
    };
    let serial_mean = mean_of("infer/serial");
    let modes: Vec<ModeOut> = c
        .summaries()
        .iter()
        .map(|s| ModeOut {
            name: s.id.clone(),
            mean_ns: s.mean_ns,
            median_ns: s.median_ns,
            min_ns: s.min_ns,
            speedup_vs_serial: serial_mean / s.mean_ns,
        })
        .collect();
    let speedup_of = |name: &str| {
        modes
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.speedup_vs_serial)
            .unwrap_or(0.0)
    };
    let speedup_batched = speedup_of("infer/batched");
    let speedup_batched_parallel = speedup_of("infer/batched_parallel");
    let report = Report {
        description: "batched inference engine: six trained vector models classifying the \
                      Scale::SMALL corpus under six evaders, serial per-sample vs batched \
                      (1 thread) vs batched+parallel"
            .to_string(),
        workload: format!(
            "{} classes x {} per class, {} evaders, {} queries x {} models per pass",
            scale.classes,
            scale.per_class,
            EVADERS.len(),
            corpus.samples.len() * EVADERS.len(),
            ModelKind::ALL.len()
        ),
        threads_parallel: parallel_threads,
        n_queries: corpus.samples.len() * EVADERS.len(),
        models: ModelKind::ALL.iter().map(|m| m.name().to_string()).collect(),
        modes,
        speedup_serial_to_batched: speedup_batched,
        speedup_serial_to_batched_parallel: speedup_batched_parallel,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_infer.json");
    std::fs::write(path, json + "\n").expect("write BENCH_infer.json");
    println!(
        "infer serial -> batched: {:.2}x, -> batched_parallel: {:.2}x (report at {})",
        report.speedup_serial_to_batched,
        report.speedup_serial_to_batched_parallel,
        path
    );
}
