//! Engine determinism: a fixed-seed game must produce byte-identical
//! results at every thread count, with cold or warm caches, and with the
//! caches bypassed. This is the contract that lets the experiment engine
//! parallelize and cache without perturbing any figure.

use proptest::prelude::*;
use yali_core::engine::{self, CacheStats, ModelCache};
use yali_core::{
    play, ClassifierSpec, Corpus, EmbedCache, Game, GameConfig, NormalizeCache, TransformCache,
    Transformer,
};
use yali_ml::ModelKind;

// YALI_THREADS, YALI_CACHE, the global caches and the yali-obs
// enabled/trace state are process-global; the tests that touch any of them
// serialize here so none can observe another mid-flip (an in-flight game
// would otherwise write span opens into a trace that detaches before the
// matching closes, or add to another test's cache counters).
static GLOBAL_STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn cache_stats() -> [CacheStats; 4] {
    [
        TransformCache::global().stats(),
        EmbedCache::global().stats(),
        NormalizeCache::global().stats(),
        ModelCache::global().stats(),
    ]
}

fn play_once(seed: u64, game: Game) -> String {
    let corpus = Corpus::poj(3, 8, seed);
    // Rotate models so the RNG-seeded (rf), deterministic (knn), and
    // gradient-trained (mlp — the data-parallel minibatch path, and a
    // model-store round trip through serialized weights) trainers are all
    // exercised.
    let model = match seed % 3 {
        0 => ModelKind::Rf,
        1 => ModelKind::Knn,
        _ => ModelKind::Mlp,
    };
    let cfg = GameConfig::game0(ClassifierSpec::histogram(model), seed)
        .with_game(game, Transformer::Ir(yali_obf::IrObf::Ollvm));
    format!("{:?}", play(&corpus, &cfg))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    // All thread-count manipulation lives in this single test function so
    // no concurrently running test can observe a half-set YALI_THREADS.
    #[test]
    fn fixed_seed_games_are_identical_across_threads_and_caches(
        seed in 0u64..64,
        game_idx in 0usize..4,
    ) {
        let game = Game::ALL[game_idx];
        let _lock = GLOBAL_STATE.lock().unwrap();
        let run = |threads: &str, cold: bool| {
            std::env::set_var("YALI_THREADS", threads);
            if cold {
                engine::clear_caches();
            }
            let out = play_once(seed, game);
            std::env::remove_var("YALI_THREADS");
            out
        };
        let serial_cold = run("1", true);
        let serial_stats = cache_stats();
        let parallel_cold = run("8", true);
        prop_assert_eq!(&serial_cold, &parallel_cold, "1 vs 8 threads, cold caches");
        // Each missed key is filled once per batch, whatever the threads.
        // Under `YALI_STORE` the second run is cold in memory only: its
        // model comes from disk, so its training set is never embedded.
        if yali_core::store::active().is_none() {
            prop_assert_eq!(serial_stats, cache_stats(), "cache counters, 1 vs 8 threads");
        }
        let parallel_warm = run("8", false);
        prop_assert_eq!(&serial_cold, &parallel_warm, "cold vs warm caches");
        let serial_warm = run("1", false);
        prop_assert_eq!(&serial_cold, &serial_warm, "serial replay on warm caches");
        std::env::set_var("YALI_CACHE", "0");
        let uncached = run("8", false);
        std::env::remove_var("YALI_CACHE");
        prop_assert_eq!(&serial_cold, &uncached, "YALI_CACHE=0");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    // The observability contract: flipping YALI_OBS/YALI_TRACE on must not
    // change a single byte of any result — instrumentation only times and
    // counts, it never reschedules work. Uses the programmatic overrides
    // (set_enabled/set_trace_path) so this test cannot race other tests on
    // process-global environment variables.
    #[test]
    fn observability_never_perturbs_results(
        seed in 0u64..32,
        game_idx in 0usize..4,
    ) {
        let game = Game::ALL[game_idx];
        let _lock = GLOBAL_STATE.lock().unwrap();
        yali_obs::set_enabled(false);
        let plain = play_once(seed, game);

        let trace_path = std::env::temp_dir().join(format!(
            "yali_trace_determinism_{seed}_{game_idx}.jsonl"
        ));
        let trace_path = trace_path.to_str().unwrap().to_string();
        yali_obs::set_enabled(true);
        yali_obs::set_trace_path(Some(&trace_path));
        let observed = play_once(seed, game);
        yali_obs::set_trace_path(None);
        yali_obs::set_enabled(false);

        prop_assert_eq!(&plain, &observed, "YALI_OBS=1 + trace changed a result");

        // The trace itself must be sane: non-empty, one JSON object per
        // line, with matching span open/close counts.
        let text = std::fs::read_to_string(&trace_path).expect("trace written");
        let _ = std::fs::remove_file(&trace_path);
        let (mut opens, mut closes) = (0usize, 0usize);
        for line in text.lines() {
            let v = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
            match v["ev"].as_str() {
                Some("open") => opens += 1,
                Some("close") => closes += 1,
                _ => {}
            }
        }
        prop_assert!(opens > 0, "an instrumented game emitted no spans");
        prop_assert_eq!(opens, closes, "unbalanced span events");
    }
}

#[test]
fn par_map_with_matches_serial_on_real_embeddings() {
    // The same transform + embed pipeline, explicitly at several thread
    // counts via par_map_with (no env involved, but it fills the global
    // caches).
    let _lock = GLOBAL_STATE.lock().unwrap();
    let corpus = Corpus::poj(2, 6, 21);
    let refs: Vec<&yali_core::Sample> = corpus.samples.iter().collect();
    let modules = yali_core::transform_all(&refs, Transformer::None, 3);
    let serial: Vec<String> = engine::par_map_with(1, &modules, |_, m| {
        format!("{:?}", engine::embed_cached(m, yali_embed::EmbeddingKind::Ir2Vec))
    });
    for threads in [2, 4, 9] {
        let par: Vec<String> = engine::par_map_with(threads, &modules, |_, m| {
            format!("{:?}", engine::embed_cached(m, yali_embed::EmbeddingKind::Ir2Vec))
        });
        assert_eq!(serial, par, "{threads} threads");
    }
}
