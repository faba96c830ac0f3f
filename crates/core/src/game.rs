//! The four adversarial games (paper, Section 2, Figure 1).
//!
//! | game | classifier trains on | evader transforms challenges | classifier normalizes |
//! |------|----------------------|------------------------------|-----------------------|
//! | 0 (symmetric) | plain 0.8 split | no | no |
//! | 1 (asymmetric) | plain 0.8 split | yes | no |
//! | 2 (symmetric) | evader-transformed 0.8 split | yes | no |
//! | 3 (asymmetric) | normalizer-transformed 0.8 split | yes | yes (challenges too) |

use crate::arena::{fit_classifier_cached, transform_shared, ClassifierSpec, Corpus};
use crate::transformer::Transformer;
use serde::Serialize;

/// Which of the paper's four games to play.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Game {
    /// No transformation anywhere.
    Game0,
    /// The evader transforms challenges; the classifier is unaware.
    Game1,
    /// Classifier and evader share the same transformation.
    Game2,
    /// The evader obfuscates; the classifier normalizes with an optimizer.
    Game3,
}

impl Game {
    /// All four games.
    pub const ALL: [Game; 4] = [Game::Game0, Game::Game1, Game::Game2, Game::Game3];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Game::Game0 => "game0",
            Game::Game1 => "game1",
            Game::Game2 => "game2",
            Game::Game3 => "game3",
        }
    }
}

impl std::fmt::Display for Game {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A full game configuration (Definition 2.4 instantiated).
#[derive(Clone)]
pub struct GameConfig {
    /// Which game.
    pub game: Game,
    /// The classifier design point.
    pub classifier: ClassifierSpec,
    /// The evader's transformation (ignored in Game 0).
    pub evader: Transformer,
    /// The classifier's normalizer (Game 3 only; the paper uses `-O3`).
    pub normalizer: Transformer,
    /// Train fraction (the paper's games use 0.8).
    pub train_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl GameConfig {
    /// A Game-0 configuration with the given classifier.
    pub fn game0(classifier: ClassifierSpec, seed: u64) -> GameConfig {
        GameConfig {
            game: Game::Game0,
            classifier,
            evader: Transformer::None,
            normalizer: Transformer::Opt(yali_opt::OptLevel::O3),
            train_fraction: 0.8,
            seed,
        }
    }

    /// Same configuration, different game/evader.
    pub fn with_game(mut self, game: Game, evader: Transformer) -> GameConfig {
        self.game = game;
        self.evader = evader;
        self
    }
}

/// The outcome of one game round.
#[derive(Debug, Clone, Serialize)]
pub struct GameResult {
    /// Challenge accuracy (hits / tries, Definition 2.4's winning rate).
    pub accuracy: f64,
    /// Macro F1 (equals accuracy on balanced sets up to rounding).
    pub f1: f64,
    /// Training-set size.
    pub n_train: usize,
    /// Challenge-set size.
    pub n_test: usize,
    /// Classifier model memory proxy, in bytes.
    pub model_bytes: usize,
}

/// Plays one game (Definition 2.4): the evader transforms each challenge
/// `s` into `s' = E(s)`, the classifier guesses `C(s')`, and the result
/// reports the classifier's hit rate.
pub fn play(corpus: &Corpus, config: &GameConfig) -> GameResult {
    // Per-game round counters feed `RunReport`'s round table; `name()`
    // returns `&'static str` but the counter macro wants a literal.
    match config.game {
        Game::Game0 => yali_obs::count!("game.rounds.game0", 1),
        Game::Game1 => yali_obs::count!("game.rounds.game1", 1),
        Game::Game2 => yali_obs::count!("game.rounds.game2", 1),
        Game::Game3 => yali_obs::count!("game.rounds.game3", 1),
    }
    let _round = yali_obs::span!("game.round");
    let (train, test) = corpus.split(config.train_fraction, config.seed);
    let train_labels: Vec<usize> = train.iter().map(|s| s.class).collect();
    let test_labels: Vec<usize> = test.iter().map(|s| s.class).collect();

    // What the classifier trains on.
    let train_transform = match config.game {
        Game::Game0 | Game::Game1 => Transformer::None,
        Game::Game2 => config.evader,
        Game::Game3 => config.normalizer,
    };
    // Modules travel as shared handles: a cache hit copies a pointer, and
    // the model key and embed cache read the hash each handle carries.
    let train_modules = {
        let _s = yali_obs::span!("game.transform_train");
        transform_shared(&train, train_transform, config.seed ^ 0x7431)
    };
    // Through the model store: replayed design points (sweeps, repeated
    // games on one corpus) load the trained classifier instead of
    // retraining it.
    let clf = {
        let _s = yali_obs::span!("game.fit");
        fit_classifier_cached(
            &config.classifier,
            &train_modules,
            &train_labels,
            corpus.n_classes,
        )
    };

    // What the evader hands over.
    let evader = match config.game {
        Game::Game0 => Transformer::None,
        _ => config.evader,
    };
    let mut challenge_modules = {
        let _s = yali_obs::span!("game.transform_challenge");
        transform_shared(&test, evader, config.seed ^ 0xEEAD)
    };
    // Game 3: the classifier re-optimizes every challenge it receives,
    // through the normalizer cache the models of a grid cell share.
    if config.game == Game::Game3 {
        if let Transformer::Opt(level) = config.normalizer {
            let _s = yali_obs::span!("game.normalize");
            challenge_modules = crate::engine::normalize_all(&challenge_modules, level);
        }
    }

    let pred: Vec<usize> = {
        let _s = yali_obs::span!("game.infer");
        clf.classify_all(&challenge_modules)
    };
    GameResult {
        accuracy: yali_ml::accuracy(&pred, &test_labels),
        f1: yali_ml::macro_f1(&pred, &test_labels, corpus.n_classes),
        n_train: train.len(),
        n_test: test.len(),
        model_bytes: clf.memory_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yali_ml::ModelKind;

    fn small_corpus() -> Corpus {
        Corpus::poj(4, 10, 11)
    }

    #[test]
    fn game0_beats_chance_comfortably() {
        let corpus = small_corpus();
        let cfg = GameConfig::game0(ClassifierSpec::histogram(ModelKind::Rf), 3);
        let r = play(&corpus, &cfg);
        assert_eq!(r.n_test, 8);
        assert!(r.accuracy > 0.5, "accuracy {}", r.accuracy);
        assert!(r.model_bytes > 0);
    }

    #[test]
    fn game1_with_ollvm_hurts_an_unaware_classifier() {
        let corpus = small_corpus();
        let base = GameConfig::game0(ClassifierSpec::histogram(ModelKind::Rf), 3);
        let g0 = play(&corpus, &base);
        let g1 = play(
            &corpus,
            &base.clone().with_game(
                Game::Game1,
                Transformer::Ir(yali_obf::IrObf::Ollvm),
            ),
        );
        assert!(
            g1.accuracy <= g0.accuracy,
            "game1 {} should not beat game0 {}",
            g1.accuracy,
            g0.accuracy
        );
    }

    #[test]
    fn game2_recovers_much_of_game0() {
        // The game-2-beats-game-1 claim is statistical: on an 8-sample
        // challenge set a single seed can flip it, so compare means over a
        // few seeds.
        let corpus = small_corpus();
        let evader = Transformer::Ir(yali_obf::IrObf::Ollvm);
        let (mut a1, mut a2) = (0.0, 0.0);
        let seeds = [5u64, 6, 7];
        for &seed in &seeds {
            let base = GameConfig::game0(ClassifierSpec::histogram(ModelKind::Rf), seed);
            a1 += play(&corpus, &base.clone().with_game(Game::Game1, evader)).accuracy;
            a2 += play(&corpus, &base.clone().with_game(Game::Game2, evader)).accuracy;
        }
        let (a1, a2) = (a1 / seeds.len() as f64, a2 / seeds.len() as f64);
        assert!(a2 >= a1, "mean game2 {a2} should not trail mean game1 {a1}");
    }

    #[test]
    fn f1_tracks_accuracy_on_balanced_corpora() {
        let corpus = small_corpus();
        let cfg = GameConfig::game0(ClassifierSpec::histogram(ModelKind::Knn), 1);
        let r = play(&corpus, &cfg);
        assert!((r.accuracy - r.f1).abs() < 0.25, "acc {} vs f1 {}", r.accuracy, r.f1);
    }

    #[test]
    fn results_are_reproducible() {
        let corpus = small_corpus();
        let cfg = GameConfig::game0(ClassifierSpec::histogram(ModelKind::Rf), 77);
        let a = play(&corpus, &cfg);
        let b = play(&corpus, &cfg);
        assert_eq!(a.accuracy, b.accuracy);
    }
}
