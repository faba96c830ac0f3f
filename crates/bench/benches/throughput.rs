//! Engine throughput: the Scale::SMALL full-game sweep (4 games × 3
//! models × the O-LLVM evader) timed in three engine configurations —
//! serial with caching disabled (`YALI_CACHE=0`, the pre-engine
//! behavior), parallel with cold caches, and parallel with warm caches
//! (the steady state of a grid sweep, where every repeated
//! transform/embedding is answered by the content-addressed caches).
//!
//! Writes `BENCH_engine.json` at the repo root with per-mode timings,
//! speedups over the serial baseline, and the final cache statistics.

use std::time::Duration;

use criterion::Criterion;
use yali_core::{
    engine, play, transform_all, ClassifierSpec, Corpus, Game, GameConfig, Sample, Scale,
    Transformer,
};
use yali_embed::EmbeddingKind;
use yali_ml::ModelKind;

const MODELS: [ModelKind; 3] = [ModelKind::Knn, ModelKind::Svm, ModelKind::Lr];
const EVADER: Transformer = Transformer::Ir(yali_obf::IrObf::Ollvm);

/// Plays every cell of the sweep grid and returns the summed accuracy
/// (consumed via black_box so nothing is optimized away). Corpora are
/// built once outside the timed region: the benchmark measures the
/// engine's transform/embed/fit pipeline, not the synthetic dataset
/// generator.
fn sweep(corpora: &[Corpus]) -> f64 {
    let mut total = 0.0;
    for game in Game::ALL {
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

/// Embeds every module of the corpus with ir2vec (the most expensive
/// vector embedding).
fn embed_all(modules: &[yali_ir::Module]) -> usize {
    engine::par_map(modules, |_, m| engine::embed_cached(m, EmbeddingKind::Ir2Vec)).len()
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
    speedup_serial_to_parallel_cached: f64,
    obs_overhead_pct: f64,
    embed_cache: CacheOut,
    transform_cache: CacheOut,
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

    let refs: Vec<&Sample> = corpora[0].samples.iter().collect();
    let modules = transform_all(&refs, Transformer::None, 0);

    // The pre-engine configuration: one thread, no caching at all.
    std::env::set_var("YALI_THREADS", "1");
    std::env::set_var("YALI_CACHE", "0");
    c.bench_function("embed/serial", |b| b.iter(|| embed_all(&modules)));
    c.bench_function("sweep/serial", |b| b.iter(|| sweep(&corpora)));
    std::env::remove_var("YALI_CACHE");

    std::env::set_var("YALI_THREADS", parallel_threads.to_string());
    c.bench_function("embed/parallel", |b| {
        b.iter(|| {
            engine::clear_caches();
            embed_all(&modules)
        })
    });
    c.bench_function("sweep/parallel", |b| {
        b.iter(|| {
            engine::clear_caches();
            sweep(&corpora)
        })
    });

    engine::clear_caches();
    c.bench_function("embed/parallel_cached", |b| b.iter(|| embed_all(&modules)));
    engine::clear_caches();
    c.bench_function("sweep/parallel_cached", |b| b.iter(|| sweep(&corpora)));

    // The same warm-cache sweep with observability live, reported as its
    // own mode. (The 5% `obs_overhead_pct` gate is computed from the
    // interleaved per-cell paired measurement below, not from these two
    // modes — they are timed too far apart to subtract cleanly on a
    // noisy box.)
    yali_obs::set_enabled(true);
    c.bench_function("sweep/obs_on", |b| b.iter(|| sweep(&corpora)));
    let runstats_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../RUNSTATS_engine.json");
    yali_core::RunReport::collect()
        .write(runstats_path)
        .expect("write RUNSTATS_engine.json");
    yali_obs::set_enabled(false);

    // The overhead gate's own measurement. Criterion times the obs-off
    // and obs-on modes tens of seconds apart, which on a small shared box
    // lets clock drift (thermal, scheduler) swamp the sub-1% cost being
    // gated — run-to-run the mode-vs-mode delta swings well past ±10% in
    // both directions, and even whole-sweep interleaving (90 ms units)
    // left ±6% swings because noise here arrives in multi-100ms spikes.
    // So interleave at the finest natural unit instead: each grid cell
    // (one `play()`, a few ms) is timed obs-off and obs-on back to back,
    // inside the same noise regime, with the order alternating per round.
    // Noise is strictly additive (preemption, cache pollution), so each
    // cell's per-mode *minimum* over the rounds is its least-contaminated
    // cost estimate, and the gate takes the median of the per-cell
    // minima ratios: a real obs regression lifts every cell's ratio
    // (the instrumentation is spread across the whole pipeline), while
    // one cell whose minimum never saw a quiet window can't move the
    // median the way it moved a duration-weighted sum.
    let cells: Vec<(Game, ModelKind, usize)> = Game::ALL
        .into_iter()
        .flat_map(|g| MODELS.into_iter().map(move |m| (g, m)))
        .flat_map(|(g, m)| (0..corpora.len()).map(move |r| (g, m, r)))
        .collect();
    let time_cell = |&(game, model, round): &(Game, ModelKind, usize), on: bool| {
        let cfg = GameConfig::game0(ClassifierSpec::histogram(model), round as u64)
            .with_game(game, EVADER);
        yali_obs::set_enabled(on);
        let t = std::time::Instant::now();
        std::hint::black_box(play(&corpora[round], &cfg));
        let ns = t.elapsed().as_nanos() as f64;
        yali_obs::set_enabled(false);
        ns
    };
    let mut off_min = vec![f64::INFINITY; cells.len()];
    let mut on_min = vec![f64::INFINITY; cells.len()];
    for pass in 0..16 {
        for (ci, cell) in cells.iter().enumerate() {
            if (pass + ci) % 2 == 0 {
                off_min[ci] = off_min[ci].min(time_cell(cell, false));
                on_min[ci] = on_min[ci].min(time_cell(cell, true));
            } else {
                on_min[ci] = on_min[ci].min(time_cell(cell, true));
                off_min[ci] = off_min[ci].min(time_cell(cell, false));
            }
        }
    }
    let mut cell_ratios: Vec<f64> = on_min
        .iter()
        .zip(&off_min)
        .map(|(on, off)| on / off)
        .collect();
    cell_ratios.sort_by(|a, b| a.total_cmp(b));
    let obs_overhead_pct = (cell_ratios[cell_ratios.len() / 2] - 1.0) * 100.0;

    // One untimed traced pass for `yali-prof`. The JSONL sink takes a
    // mutex per event, so it must never be live inside a Criterion-timed
    // mode — it would blow the 5% obs-overhead gate on `sweep/obs_on`.
    let trace_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRACE_engine.jsonl");
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
        })
        .collect();
    let cached_speedup = modes
        .iter()
        .find(|m| m.name == "sweep/parallel_cached")
        .map(|m| m.speedup_vs_serial)
        .unwrap_or(0.0);
    let report = Report {
        description: "embed-all (ir2vec over the corpus) and the Scale::SMALL full-game \
                      sweep (4 games x {knn,svm,lr} x ollvm evader), each serial / \
                      parallel / parallel+cache"
            .to_string(),
        workload: format!(
            "{} classes x {} per class, {} rounds, {} plays per sweep",
            scale.classes,
            scale.per_class,
            scale.rounds,
            Game::ALL.len() * MODELS.len() * scale.rounds
        ),
        threads_parallel: parallel_threads,
        modes,
        speedup_serial_to_parallel_cached: cached_speedup,
        obs_overhead_pct,
        embed_cache: engine::EmbedCache::global().stats().into(),
        transform_cache: engine::TransformCache::global().stats().into(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, json + "\n").expect("write BENCH_engine.json");
    println!(
        "serial -> parallel_cached speedup: {cached_speedup:.2}x, \
         obs-on overhead: {obs_overhead_pct:.2}% (report at {path})"
    );
}
