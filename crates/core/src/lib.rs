//! # yali-core
//!
//! The game-based framework of "A Game-Based Framework to Compare Program
//! Classifiers and Evaders" (CGO 2023): four adversarial games matching
//! program classifiers against evaders.
//!
//! - [`game`] — Games 0–3 (Definition 2.4, Figure 1): symmetric and
//!   asymmetric matches between a classifier and an evader;
//! - [`arena`] — the classification arena: corpora, classifier design
//!   points (embedding × model × normalizer), training and challenge
//!   plumbing;
//! - [`transformer`] — the players' transformations: optimization levels,
//!   O-LLVM passes, and Zhang-style source strategies;
//! - [`discover`] — RQ7: identifying the transformer itself;
//! - [`malware_exp`] — RQ8: MIRAI-family identification;
//! - [`av`] — the signature-scanner stand-in for VirusTotal;
//! - [`scale`] — workload scaling (`YALI_SCALE=small|medium|paper`);
//! - [`engine`] — the parallel experiment engine: a deterministic
//!   scoped-thread map (`YALI_THREADS`) and a content-addressed embedding
//!   cache;
//! - [`report`] — aggregates the `yali-obs` registry and the engine's
//!   cache counters into a [`report::RunReport`] (`RUNSTATS.json`);
//! - [`store`] — the persistent content-addressed artifact store
//!   (`YALI_STORE=dir`): the caches read through it, so embeddings,
//!   transformed modules, and trained models outlive the process and can
//!   be shared by the workers of a sharded `yali-grid` sweep.
//!
//! # Quickstart
//!
//! ```
//! use yali_core::{Corpus, GameConfig, ClassifierSpec, play, Game, Transformer};
//! use yali_ml::ModelKind;
//!
//! // A small POJ-style corpus: 4 classes, 8 solutions each.
//! let corpus = Corpus::poj(4, 8, 42);
//! // Game 0: no evader.
//! let cfg = GameConfig::game0(ClassifierSpec::histogram(ModelKind::Rf), 42);
//! let r0 = play(&corpus, &cfg);
//! // Game 1: the evader obfuscates with O-LLVM.
//! let cfg1 = cfg.clone().with_game(Game::Game1, Transformer::Ir(yali_obf::IrObf::Ollvm));
//! let r1 = play(&corpus, &cfg1);
//! assert!(r0.accuracy >= r1.accuracy);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod av;
pub mod discover;
pub mod engine;
pub mod game;
pub mod malware_exp;
pub mod report;
pub mod scale;
pub mod store;
pub mod transformer;

pub use arena::{
    fit_vector_cached, transform_all, transform_shared, ClassifierSpec, Corpus, ModelChoice,
    Sample, TrainedClassifier,
};
pub use av::SignatureScanner;
pub use discover::{discover_transformer, DiscoverDataset, DiscoverResult};
pub use engine::{
    embed_cached, par_map, par_map_with, CacheStats, EmbedCache, HashedModule, NormalizeCache,
    SharedModule, TransformCache,
};
pub use game::{play, Game, GameConfig, GameResult};
pub use malware_exp::{malware_round, MalwareCorpus, MalwarePoint, MALWARE_TRANSFORMERS};
pub use report::{FleetReport, RunReport, ShardReport, RUNSTATS_SCHEMA_VERSION};
pub use scale::Scale;
pub use store::{ArtifactStore, Namespace, StoreStats};
pub use transformer::{SourceStrategy, Transformer};
