//! The pipeline workloads: grids of `yali_core::play` calls on seeded
//! POJ corpora, with the engine caches cleared before every grid, and —
//! on `store-resume` — the artifact store attached.
//!
//! A traced run rebuilds each play from the public calls `play` itself
//! makes (split, transform, fit, transform, the Game-3 normalizer,
//! classify) with a span around each, and checks that every rebuilt play
//! scores exactly what `play` scored.

use std::path::PathBuf;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use yali_core::arena::fit_classifier_cached;
use yali_core::engine::{self, CacheStats, EmbedCache, ModelCache, TransformCache};
use yali_core::store::{self, StoreStats};
use yali_core::{
    play, transform_all, ClassifierSpec, Corpus, Game, GameConfig, Sample, Scale, Transformer,
};
use yali_embed::EmbeddingKind;
use yali_ml::ModelKind;

use crate::report::Run;
use crate::stats::{self, derive};
use crate::trace::Tracer;
use crate::Config;

/// The seed the committed golden digests were taken with.
pub const DEFAULT_SEED: u64 = 1;

/// `<workload> <gemm kernel> <digest>` lines for `DEFAULT_SEED`.
const GOLDEN: &str = include_str!("../golden.txt");

/// Corpora (and rounds) per grid.
const ROUNDS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pipeline {
    /// 4 games × 9 evaders × {knn, rf, lr, svm} × 2 rounds = 288 plays.
    GameGrid,
    /// Games 0 and 2 (ollvm) × {mlp, cnn}, plus Game 0 dgcnn on cdfg,
    /// × 2 rounds = 10 plays.
    TrainNn,
    /// The game grid into a fresh artifact store, then replayed from it.
    StoreResume,
}

/// One play of a grid: which corpus, which game.
struct Cell {
    round: usize,
    cfg: GameConfig,
}

/// One POJ-style corpus per round, `Scale::SMALL` sized (8 problems × 12
/// solutions). Problems are ranked by the printed IR size of two
/// reference solutions and cut into one stratum per corpus class; the
/// seed draws one problem per stratum, dealing strata to the corpora in
/// turn. Drawing from the whole pool, as `Corpus::poj` does, swings the
/// total program size — and the work per grid — by ±12% from seed to
/// seed; the strata hold it to about ±3%.
pub fn corpora(seed: u64) -> Vec<Corpus> {
    let s = Scale::SMALL;
    let n = yali_dataset::NUM_PROBLEMS;
    let mut ranked: Vec<(usize, usize)> = (0..n)
        .map(|p| {
            let size = [0u64, 1 << 8]
                .iter()
                .map(|&author| {
                    yali_ir::print_module(&yali_minic::lower(&yali_dataset::solution(p, author)))
                        .len()
                })
                .sum();
            (size, p)
        })
        .collect();
    ranked.sort_unstable();
    let strata = ROUNDS * s.classes;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(derive(seed, 100));
    let picks: Vec<usize> = (0..strata)
        .map(|i| ranked[rng.gen_range(i * n / strata..(i + 1) * n / strata)].1)
        .collect();
    (0..ROUNDS)
        .map(|round| {
            let author_seed = derive(seed, round as u64);
            let problems: Vec<usize> = picks.iter().skip(round).step_by(ROUNDS).copied().collect();
            let samples = problems
                .iter()
                .enumerate()
                .flat_map(|(class, &pid)| {
                    (0..s.per_class as u64).map(move |author| Sample {
                        class,
                        program: yali_dataset::solution(pid, author_seed ^ (author << 8)),
                    })
                })
                .collect();
            Corpus {
                samples,
                n_classes: problems.len(),
            }
        })
        .collect()
}

fn cells(p: Pipeline, seed: u64) -> Vec<Cell> {
    let ollvm = Transformer::Ir(yali_obf::IrObf::Ollvm);
    let mut cells = Vec::new();
    let mut add = |round: usize, spec: ClassifierSpec, game: Game, evader: Transformer| {
        let cfg = GameConfig::game0(spec, derive(seed, round as u64)).with_game(game, evader);
        cells.push(Cell { round, cfg });
    };
    match p {
        Pipeline::TrainNn => {
            for round in 0..ROUNDS {
                for model in [ModelKind::Mlp, ModelKind::Cnn] {
                    add(
                        round,
                        ClassifierSpec::histogram(model),
                        Game::Game0,
                        Transformer::None,
                    );
                    add(round, ClassifierSpec::histogram(model), Game::Game2, ollvm);
                }
                let dgcnn = ClassifierSpec::zhang_net(EmbeddingKind::Cdfg);
                add(round, dgcnn, Game::Game0, Transformer::None);
            }
        }
        _ => {
            for game in Game::ALL {
                for evader in Transformer::EVADERS {
                    for model in [ModelKind::Knn, ModelKind::Rf, ModelKind::Lr, ModelKind::Svm] {
                        for round in 0..ROUNDS {
                            add(round, ClassifierSpec::histogram(model), game, evader);
                        }
                    }
                }
            }
        }
    }
    cells
}

/// `play` rebuilt from its public calls, one span per stage. Returns
/// `(correct, total)` and the number of challenges the normalizer ran on.
fn rebuilt_play(corpus: &Corpus, cfg: &GameConfig, t: &mut Tracer) -> ((usize, usize), usize) {
    let (train, test) = t.time("core.split", || corpus.split(cfg.train_fraction, cfg.seed));
    let train_labels: Vec<usize> = train.iter().map(|s| s.class).collect();
    let train_transform = match cfg.game {
        Game::Game0 | Game::Game1 => Transformer::None,
        Game::Game2 => cfg.evader,
        Game::Game3 => cfg.normalizer,
    };
    let train_modules = t.time("core.transform", || {
        transform_all(&train, train_transform, cfg.seed ^ 0x7431)
    });
    let clf = t.time("core.fit", || {
        fit_classifier_cached(
            &cfg.classifier,
            &train_modules,
            &train_labels,
            corpus.n_classes,
        )
    });
    let evader = match cfg.game {
        Game::Game0 => Transformer::None,
        _ => cfg.evader,
    };
    let mut challenges = t.time("core.transform", || {
        transform_all(&test, evader, cfg.seed ^ 0xEEAD)
    });
    let mut normalized = 0;
    if let (Game::Game3, Transformer::Opt(level)) = (cfg.game, cfg.normalizer) {
        t.time("opt.normalize", || {
            engine::par_for_each_mut(&mut challenges, |_, m| yali_opt::optimize(m, level));
        });
        normalized = challenges.len();
    }
    let pred = t.time("core.classify", || clf.classify_all(&challenges));
    // Freeing what a stage built is that stage's cost.
    t.time("core.fit", || drop(clf));
    t.time("core.transform", || drop((train_modules, challenges)));
    let correct = pred
        .iter()
        .zip(&test)
        .filter(|(p, s)| **p == s.class)
        .count();
    ((correct, test.len()), normalized)
}

/// One pass over a grid's cells.
struct GridRun {
    results: Vec<(usize, usize)>,
    lat_ms: Vec<f64>,
    /// Challenges the Game-3 normalizer ran on (traced passes only).
    normalized: usize,
}

/// `StoreResume`'s fill: a cold grid into a fresh store, then a sync.
struct Fill {
    grid: GridRun,
    wall_s: f64,
    store: Option<StoreStats>,
}

/// One repetition: the timed grid, plus the fill it replays on
/// `StoreResume`.
struct Rep {
    grid: GridRun,
    fill: Option<Fill>,
    caches: [CacheStats; 3],
    /// The replayed store's activity, on `StoreResume`.
    store: Option<StoreStats>,
}

impl Rep {
    fn results(&self) -> impl Iterator<Item = &Vec<(usize, usize)>> {
        std::iter::once(&self.grid.results).chain(self.fill.as_ref().map(|f| &f.grid.results))
    }

    fn wall_s(&self) -> f64 {
        self.grid.lat_ms.iter().sum::<f64>() / 1e3 + self.fill.as_ref().map_or(0.0, |f| f.wall_s)
    }
}

/// Runs `f` inside span `name` when there is a tracer.
fn span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> R,
) -> R {
    let id = tracer.as_deref_mut().map(|t| t.open(name));
    let out = f(tracer);
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
        t.close(id);
    }
    out
}

struct Bench {
    p: Pipeline,
    cells: Vec<Cell>,
    corpora: Vec<Corpus>,
    work_dir: PathBuf,
    dirs: usize,
}

impl Bench {
    /// Plays every cell once, timing each play; traced, through
    /// `rebuilt_play` under a `bench.play` span.
    fn play_grid(&self, mut tracer: Option<&mut Tracer>) -> GridRun {
        let mut run = GridRun {
            results: Vec::with_capacity(self.cells.len()),
            lat_ms: Vec::with_capacity(self.cells.len()),
            normalized: 0,
        };
        for cell in &self.cells {
            let corpus = &self.corpora[cell.round];
            let t0 = Instant::now();
            let r = match tracer.as_deref_mut() {
                Some(t) => {
                    let id = t.open("bench.play");
                    let (r, n) = rebuilt_play(corpus, &cell.cfg, t);
                    t.close(id);
                    run.normalized += n;
                    r
                }
                None => {
                    let g = play(corpus, &cell.cfg);
                    ((g.accuracy * g.n_test as f64).round() as usize, g.n_test)
                }
            };
            run.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            run.results.push(r);
        }
        run
    }

    /// A plain grid from cold caches: the warm-up and the reference
    /// every repetition must reproduce.
    fn reference(&self) -> Vec<(usize, usize)> {
        engine::clear_caches();
        self.play_grid(None).results
    }

    /// One timed repetition from cold caches. On `StoreResume` it first
    /// fills a fresh store (the set-up a resuming user waited for), then
    /// reopens it and replays; the reopen is charged to the first play.
    fn rep(&mut self, mut tracer: Option<&mut Tracer>) -> Rep {
        let tracer = &mut tracer;
        self.dirs += 1;
        let dir = self.work_dir.join(format!("store-{}", self.dirs));
        let fill = (self.p == Pipeline::StoreResume).then(|| {
            engine::clear_caches();
            let t0 = Instant::now();
            store::set_store_dir(Some(&dir)).expect("open a fresh artifact store");
            let grid = span(tracer, "bench.grid", |tr| {
                let grid = self.play_grid(tr.as_deref_mut());
                span(tr, "store.sync", |_| store::sync_active());
                grid
            });
            let store = store::active_stats();
            store::set_store_dir(None).expect("detach the store");
            Fill {
                grid,
                wall_s: t0.elapsed().as_secs_f64(),
                store,
            }
        });
        engine::clear_caches();
        let grid = span(tracer, "bench.grid", |tr| {
            let t0 = Instant::now();
            if fill.is_some() {
                span(tr, "store.open", |_| {
                    store::set_store_dir(Some(&dir)).expect("reopen the artifact store")
                });
            }
            let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut grid = self.play_grid(tr.as_deref_mut());
            grid.lat_ms[0] += reopen_ms;
            grid
        });
        let caches = [
            TransformCache::global().stats(),
            EmbedCache::global().stats(),
            ModelCache::global().stats(),
        ];
        let store = store::active_stats();
        store::set_store_dir(None).expect("detach the store");
        let _ = std::fs::remove_dir_all(&dir);
        Rep {
            grid,
            fill,
            caches,
            store,
        }
    }
}

/// Counts the plays of `got` that differ from `want`, saying how many.
fn mismatches(what: &str, got: &[(usize, usize)], want: &[(usize, usize)]) -> usize {
    let bad = got.iter().zip(want).filter(|(g, w)| g != w).count() + want.len().abs_diff(got.len());
    if bad > 0 {
        eprintln!(
            "yali-benchmark: {what}: {bad} of {} plays differ from the reference grid",
            want.len()
        );
    }
    bad
}

fn check_golden(p: Pipeline, seed: u64, reference: &[(usize, usize)], run: &mut Run) {
    if seed != DEFAULT_SEED {
        return;
    }
    let name = if p == Pipeline::TrainNn {
        "train-nn"
    } else {
        "game-grid"
    };
    let kernel = yali_ml::active_kernel().name();
    let got = format!("{:016x}", stats::digest(reference));
    let want = GOLDEN.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(name) && f.next() == Some(kernel))
            .then(|| f.next())
            .flatten()
    });
    match want {
        Some(want) if want == got => {}
        Some(want) => {
            run.ops(0, reference.len());
            run.problem(format!(
                "{name} digest {got} is not the committed {want} ({kernel} kernel)"
            ));
        }
        None => eprintln!(
            "yali-benchmark: note: no committed {name} digest for the {kernel} GEMM kernel, \
             golden check skipped (this run: {name} {kernel} {got})"
        ),
    }
}

pub fn run(p: Pipeline, cfg: &Config, run: &mut Run) {
    let t0 = Instant::now();
    let built = corpora(cfg.seed);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let mut bench = Bench {
        p,
        cells: cells(p, cfg.seed),
        corpora: built,
        work_dir: cfg.work_dir.clone(),
        dirs: 0,
    };
    let reference = bench.reference();
    run.ops(reference.len(), 0);
    check_golden(p, cfg.seed, &reference, run);
    let check = |run: &mut Run, what: &str, rep: &Rep| {
        for results in rep.results() {
            run.ops(results.len(), mismatches(what, results, &reference));
        }
    };

    if run.trace() {
        let plain = bench.rep(None);
        check(run, "untraced repetition", &plain);
        let mut tracer = Tracer::new();
        let traced = bench.rep(Some(&mut tracer));
        check(run, "rebuilt plays", &traced);
        record_layers(run, &tracer, &plain, &traced);
        if let Err(e) = tracer.write(&cfg.trace_dir) {
            eprintln!(
                "yali-benchmark: cannot write the trace to {}: {e}",
                cfg.trace_dir.display()
            );
        }
        return;
    }

    let mut lat_ms = Vec::new();
    let mut fills = Vec::new();
    let t0 = Instant::now();
    loop {
        let rep = bench.rep(None);
        check(run, "repetition", &rep);
        lat_ms.extend(&rep.grid.lat_ms);
        fills.extend(rep.fill.map(|f| f.wall_s));
        // The ~30 ms set-up is sampled again after every repetition, so
        // its median spans the same stretch of host speed as the grids.
        let t1 = Instant::now();
        std::hint::black_box(corpora(cfg.seed));
        setup_s.push(t1.elapsed().as_secs_f64());
        if t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    // On `StoreResume` the set-up a user waits for is the store fill.
    if !fills.is_empty() {
        setup_s = fills;
    }
    lat_ms.sort_by(f64::total_cmp);
    run.set("setup_s", stats::median(&setup_s));
    run.set("latency_p50_ms", stats::percentile(&lat_ms, 50.0));
    run.set("latency_p90_ms", stats::percentile(&lat_ms, 90.0));
    run.set(
        "ops_per_s",
        lat_ms.len() as f64 / (lat_ms.iter().sum::<f64>() / 1e3),
    );
    eprintln!(
        "yali-benchmark: {} plays over {} grids, {} set-ups",
        lat_ms.len(),
        lat_ms.len() / bench.cells.len(),
        setup_s.len()
    );
}

fn record_layers(run: &mut Run, tracer: &Tracer, plain: &Rep, traced: &Rep) {
    run.set(
        "bench.trace_overhead_pct",
        (traced.wall_s() / plain.wall_s() - 1.0) * 100.0,
    );
    run.set("bench.unattributed_share", tracer.unattributed_share());
    for (metric, span) in [
        ("core.split.share", "core.split"),
        ("core.transform.share", "core.transform"),
        ("core.fit.share", "core.fit"),
        ("core.classify.share", "core.classify"),
        ("opt.normalize.share", "opt.normalize"),
        ("store.open.share", "store.open"),
        ("store.sync.share", "store.sync"),
    ] {
        run.set(metric, tracer.self_share(span));
    }
    let fill = traced.fill.as_ref();
    let normalized = traced.grid.normalized + fill.map_or(0, |f| f.grid.normalized);
    run.set("opt.normalize.modules", normalized as f64);
    let [transform, embed, model] = traced.caches;
    run.set("core.cache.transform_hit_ratio", transform.hit_ratio());
    run.set("core.cache.embed_hit_ratio", embed.hit_ratio());
    run.set("core.cache.model_hit_ratio", model.hit_ratio());
    run.set("core.cache.transform_misses", transform.misses as f64);
    run.set("core.cache.embed_misses", embed.misses as f64);
    run.set("core.cache.model_misses", model.misses as f64);
    // Writes over the fill and the replay; reads and the hit ratio over
    // the replay, whose lookups are the ones that can hit.
    if let (Some(fill), Some(replay)) = (fill.and_then(|f| f.store), traced.store) {
        let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
        run.set(
            "store.write_mb",
            mib(fill.bytes_written + replay.bytes_written),
        );
        run.set(
            "store.published",
            (fill.published + replay.published) as f64,
        );
        run.set("store.read_mb", mib(replay.bytes_read));
        let lookups = replay.disk_hits + replay.disk_misses;
        if lookups > 0 {
            run.set(
                "store.disk_hit_ratio",
                replay.disk_hits as f64 / lookups as f64,
            );
        }
    }
}
