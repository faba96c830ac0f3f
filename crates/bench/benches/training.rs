//! Training-path throughput: the gradient-trained classifiers (mlp, cnn)
//! inside a Scale::SMALL game sweep, timed in three engine configurations
//! — serial with caching disabled (`YALI_THREADS=1 YALI_CACHE=0`, the
//! pre-engine behavior), parallel with a cold model store, and parallel
//! with a warm model store (the steady state of a sweep that revisits
//! design points, where [`yali_core::engine::ModelCache`] answers every
//! fit with a deserialized model). A `gemm` group times the kernel
//! family at an MLP-forward-sized shape: a naive triple loop
//! (`gemm/serial`), the blocked scalar kernel pinned explicitly
//! (`gemm/blocked`), and the process's dispatched SIMD kernel
//! (`gemm/simd`) — each gemm mode also reports GFLOP/s, and the report
//! names which kernel `gemm/simd` ran.
//!
//! Writes `BENCH_train.json` at the repo root with per-mode timings,
//! speedups over each group's serial mode, and the model-store counters.

use std::time::Duration;

use criterion::Criterion;
use yali_core::{engine, play, ClassifierSpec, Corpus, Game, GameConfig, Scale, Transformer};
use yali_ml::Matrix;
use yali_ml::ModelKind;
use yali_ml::{active_kernel, GemmKernel};

const MODELS: [ModelKind; 2] = [ModelKind::Mlp, ModelKind::Cnn];
const EVADER: Transformer = Transformer::Ir(yali_obf::IrObf::Ollvm);

/// Plays the training-heavy grid: every round's corpus against both
/// gradient-trained models in games 0 and 1 (same trained classifier per
/// round+model — exactly the replay pattern the model store serves).
fn sweep(corpora: &[Corpus]) -> f64 {
    let mut total = 0.0;
    for game in [Game::Game0, Game::Game1] {
        for model in MODELS {
            for (round, corpus) in corpora.iter().enumerate() {
                let cfg = GameConfig::game0(ClassifierSpec::histogram(model), round as u64)
                    .with_game(game, EVADER);
                total += play(corpus, &cfg).accuracy;
            }
        }
    }
    total
}

/// Naive triple-loop matmul: the kernel the blocked GEMM replaced, kept
/// here as the benchmark baseline.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for kk in 0..a.cols {
            let av = a.get(i, kk);
            for j in 0..b.cols {
                let cur = out.get(i, j);
                out.set(i, j, cur + av * b.get(kk, j));
            }
        }
    }
    out
}

#[derive(serde::Serialize)]
struct ModeOut {
    name: String,
    mean_ns: f64,
    median_ns: f64,
    min_ns: f64,
    speedup_vs_serial: f64,
    /// Arithmetic throughput, only for the gemm modes (`2·m·k·n` flops
    /// over the mean time); `null` for the sweep modes.
    gflops: Option<f64>,
}

#[derive(serde::Serialize)]
struct CacheOut {
    hits: u64,
    misses: u64,
    inserts: u64,
    entries: usize,
    hit_rate: f64,
}

impl From<engine::CacheStats> for CacheOut {
    fn from(s: engine::CacheStats) -> CacheOut {
        CacheOut {
            hits: s.hits,
            misses: s.misses,
            inserts: s.inserts,
            entries: s.entries,
            hit_rate: s.hit_ratio(),
        }
    }
}

#[derive(serde::Serialize)]
struct Report {
    description: String,
    workload: String,
    threads_parallel: usize,
    modes: Vec<ModeOut>,
    /// Which kernel family member `gemm/simd` dispatched to (per-process
    /// CPU detection; "scalar" when no SIMD kernel is available).
    gemm_simd_kernel: String,
    speedup_serial_to_parallel_cached: f64,
    model_cache: CacheOut,
}

fn main() {
    let scale = Scale::SMALL;
    let corpora: Vec<Corpus> = (0..scale.rounds)
        .map(|r| Corpus::poj(scale.classes, scale.per_class, 60 + r as u64))
        .collect();
    let parallel_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);

    let mut c = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));

    // GEMM micro-measure at an MLP-forward shape (batch x features times
    // features x hidden); "serial" is the naive triple loop, "blocked"
    // pins the scalar kernel, "simd" is whatever the process dispatched
    // (the widest kernel this CPU runs).
    let ga = Matrix::from_fn(96, 128, |r, cc| ((r * 31 + cc * 7) % 13) as f64 * 0.25 - 1.5);
    let gb = Matrix::from_fn(128, 96, |r, cc| ((r * 17 + cc * 3) % 11) as f64 * 0.5 - 2.0);
    let gemm_flops = 2.0 * 96.0 * 128.0 * 96.0;
    c.bench_function("gemm/serial", |b| b.iter(|| naive_matmul(&ga, &gb)));
    c.bench_function("gemm/blocked", |b| {
        b.iter(|| ga.matmul_with_kernel(&gb, GemmKernel::Scalar))
    });
    c.bench_function("gemm/simd", |b| b.iter(|| ga.matmul(&gb)));

    // The pre-engine configuration: one thread, no caching at all.
    std::env::set_var("YALI_THREADS", "1");
    std::env::set_var("YALI_CACHE", "0");
    c.bench_function("train/serial", |b| b.iter(|| sweep(&corpora)));
    std::env::remove_var("YALI_CACHE");

    std::env::set_var("YALI_THREADS", parallel_threads.to_string());
    c.bench_function("train/parallel", |b| {
        b.iter(|| {
            engine::clear_caches();
            sweep(&corpora)
        })
    });

    engine::clear_caches();
    c.bench_function("train/parallel_cached", |b| b.iter(|| sweep(&corpora)));

    // One instrumented pass over the warm store for the companion run
    // report (epoch counters, GEMM counts, phase wall times).
    yali_obs::set_enabled(true);
    let _ = sweep(&corpora);
    let runstats_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../RUNSTATS_train.json");
    yali_core::RunReport::collect()
        .write(runstats_path)
        .expect("write RUNSTATS_train.json");
    yali_obs::set_enabled(false);

    // One untimed traced pass for `yali-prof` (separate from the report
    // pass above so the JSONL sink's mutex writes never taint the
    // RUNSTATS phase timings).
    let trace_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRACE_train.jsonl");
    yali_obs::set_trace_path(Some(trace_path));
    yali_obs::set_enabled(true);
    let _ = sweep(&corpora);
    yali_obs::set_enabled(false);
    yali_obs::set_trace_path(None);
    std::env::remove_var("YALI_THREADS");

    // Speedups are relative to the same group's serial mode.
    let serial_mean = |group: &str| {
        c.summaries()
            .iter()
            .find(|s| s.id == format!("{group}/serial"))
            .map(|s| s.mean_ns)
            .expect("serial summary")
    };
    let modes: Vec<ModeOut> = c
        .summaries()
        .iter()
        .map(|s| ModeOut {
            name: s.id.clone(),
            mean_ns: s.mean_ns,
            median_ns: s.median_ns,
            min_ns: s.min_ns,
            speedup_vs_serial: serial_mean(s.id.split('/').next().unwrap()) / s.mean_ns,
            gflops: s.id.starts_with("gemm/").then(|| gemm_flops / s.mean_ns),
        })
        .collect();
    let cached_speedup = modes
        .iter()
        .find(|m| m.name == "train/parallel_cached")
        .map(|m| m.speedup_vs_serial)
        .unwrap_or(0.0);

    let report = Report {
        description: "gradient-training sweep (games 0-1 x {mlp,cnn} x ollvm evader at \
                      Scale::SMALL), serial / parallel+cold-store / parallel+warm-store, \
                      plus the GEMM kernel family (naive / blocked scalar / dispatched \
                      SIMD, GFLOP/s each) at 96x128x96"
            .to_string(),
        workload: format!(
            "{} classes x {} per class, {} rounds, {} plays per sweep",
            scale.classes,
            scale.per_class,
            scale.rounds,
            2 * MODELS.len() * scale.rounds
        ),
        threads_parallel: parallel_threads,
        modes,
        gemm_simd_kernel: active_kernel().name().to_string(),
        speedup_serial_to_parallel_cached: cached_speedup,
        model_cache: engine::ModelCache::global().stats().into(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
    std::fs::write(path, json + "\n").expect("write BENCH_train.json");
    println!(
        "train serial -> parallel_cached speedup: {cached_speedup:.2}x (report at {path})"
    );
}
