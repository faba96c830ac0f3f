//! The classification arena: corpora, classifier specifications, and the
//! embedding/training plumbing shared by all four games.
//!
//! Per-sample work (transformation, embedding, classification) runs on the
//! [`crate::engine`]: it fans out over scoped threads and answers repeated
//! embeddings from the content-addressed cache, without changing any
//! result.

use crate::engine::{self, HashedModule, SharedModule};
use crate::transformer::Transformer;
use yali_embed::{Embedding, EmbeddingKind};
use yali_ir::Fnv64;
use yali_minic::Program;
use yali_ml::serialize::{ByteReader, ByteWriter};
use yali_ml::{Dgcnn, DgcnnConfig, GraphSample, ModelKind, TrainConfig, VectorClassifier};

/// One labelled solution: a source program plus its problem class.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The problem class (`0..n_classes`).
    pub class: usize,
    /// The solution, kept at source level so source evaders can run.
    pub program: Program,
}

/// A labelled corpus of solutions.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The samples.
    pub samples: Vec<Sample>,
    /// Number of problem classes.
    pub n_classes: usize,
}

impl Corpus {
    /// Builds a perfectly balanced POJ-104-style corpus: `per_class`
    /// author solutions for each of `n_classes` problems (the paper's
    /// 104 × 500; scale down for quick runs).
    ///
    /// Problem classes are chosen deterministically from `seed` when
    /// `n_classes < 104` (the paper samples 32 random classes for RQ1).
    pub fn poj(n_classes: usize, per_class: usize, seed: u64) -> Corpus {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut class_ids: Vec<usize> = (0..yali_dataset::NUM_PROBLEMS).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
        class_ids.shuffle(&mut rng);
        class_ids.truncate(n_classes);
        let mut samples = Vec::with_capacity(n_classes * per_class);
        for (label, &pid) in class_ids.iter().enumerate() {
            for author in 0..per_class {
                samples.push(Sample {
                    class: label,
                    program: yali_dataset::solution(pid, seed ^ (author as u64) << 8),
                });
            }
        }
        Corpus {
            samples,
            n_classes,
        }
    }

    /// A stratified train/test split (the paper's 375/125 per class is
    /// `train_fraction = 0.75`; games 0–3 use 0.8).
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Vec<&Sample>, Vec<&Sample>) {
        let refs: Vec<&Sample> = self.samples.iter().collect();
        let labels: Vec<usize> = self.samples.iter().map(|s| s.class).collect();
        let (tr, _, te, _) = yali_ml::train_test_split(&refs, &labels, train_fraction, seed);
        (tr, te)
    }
}

/// Which stochastic model a classifier uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelChoice {
    /// One of the six array-input models.
    Vector(ModelKind),
    /// Zhang et al.'s graph network (graph embeddings only).
    Dgcnn,
}

impl ModelChoice {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelChoice::Vector(m) => m.name(),
            ModelChoice::Dgcnn => "dgcnn",
        }
    }
}

impl std::fmt::Display for ModelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A classifier design point: embedding × model (Figure 3's grid).
#[derive(Debug, Clone)]
pub struct ClassifierSpec {
    /// The program embedding.
    pub embedding: EmbeddingKind,
    /// The model.
    pub model: ModelChoice,
    /// Training knobs (epochs, trees, seeds).
    pub train: TrainConfig,
    /// DGCNN knobs, used when `model` is [`ModelChoice::Dgcnn`].
    pub dgcnn: DgcnnConfig,
}

impl ClassifierSpec {
    /// A histogram + given model classifier with default training knobs.
    pub fn histogram(model: ModelKind) -> ClassifierSpec {
        ClassifierSpec {
            embedding: EmbeddingKind::Histogram,
            model: ModelChoice::Vector(model),
            train: TrainConfig::default(),
            dgcnn: DgcnnConfig::default(),
        }
    }

    /// The graph/array-appropriate network for an embedding: dgcnn on
    /// graphs, cnn on arrays — the paper's RQ1 setup.
    pub fn zhang_net(embedding: EmbeddingKind) -> ClassifierSpec {
        let model = if embedding.is_graph() {
            ModelChoice::Dgcnn
        } else {
            ModelChoice::Vector(ModelKind::Cnn)
        };
        ClassifierSpec {
            embedding,
            model,
            train: TrainConfig::default(),
            dgcnn: DgcnnConfig::default(),
        }
    }
}

/// A trained classifier, ready to be challenged.
pub enum TrainedClassifier {
    /// Array-model classifier.
    Vector(VectorClassifier, EmbeddingKind),
    /// Graph-model classifier.
    Graph(Box<Dgcnn>, EmbeddingKind),
}

fn graph_sample(e: Embedding) -> GraphSample {
    match e {
        Embedding::Graph(g) => GraphSample {
            feats: g.feats,
            edges: g.edges.iter().map(|&(s, d, _)| (s, d)).collect(),
        },
        Embedding::Vector(_) => unreachable!("graph embedding expected"),
    }
}

fn vector_sample(e: Embedding) -> Vec<f64> {
    match e {
        Embedding::Vector(v) => v,
        Embedding::Graph(_) => unreachable!("vector embedding expected"),
    }
}

impl TrainedClassifier {
    /// Trains `spec` on the given (already transformed) training modules,
    /// owned or shared ([`engine::SharedModule`]); their embeddings come
    /// through [`engine::embed_all`].
    ///
    /// # Panics
    ///
    /// Panics when a vector model is paired with a graph embedding (the
    /// paper's Figure 3: only dgcnn accepts graphs) or the set is empty.
    pub fn fit<M: HashedModule>(
        spec: &ClassifierSpec,
        modules: &[M],
        labels: &[usize],
        n_classes: usize,
    ) -> TrainedClassifier {
        match spec.model {
            ModelChoice::Dgcnn => {
                assert!(
                    spec.embedding.is_graph(),
                    "dgcnn requires a graph embedding"
                );
                let graphs: Vec<GraphSample> = {
                    let _s = yali_obs::span!("embed.batch");
                    let embedded = engine::embed_all(modules, spec.embedding);
                    embedded.into_iter().map(graph_sample).collect()
                };
                let _s = yali_obs::span!("train.fit");
                let model = Dgcnn::fit(&graphs, labels, n_classes, &spec.dgcnn);
                TrainedClassifier::Graph(Box::new(model), spec.embedding)
            }
            ModelChoice::Vector(kind) => {
                assert!(
                    !spec.embedding.is_graph(),
                    "{kind} cannot consume graph embeddings"
                );
                let x: Vec<Vec<f64>> = {
                    let _s = yali_obs::span!("embed.batch");
                    let embedded = engine::embed_all(modules, spec.embedding);
                    embedded.into_iter().map(vector_sample).collect()
                };
                let _s = yali_obs::span!("train.fit");
                let model = VectorClassifier::fit(kind, &x, labels, n_classes, &spec.train);
                TrainedClassifier::Vector(model, spec.embedding)
            }
        }
    }

    /// Classifies one challenge module. Pure: a trained classifier can be
    /// challenged from many threads at once.
    pub fn classify(&self, m: &impl HashedModule) -> usize {
        match self {
            TrainedClassifier::Vector(model, kind) => {
                model.predict(&vector_sample(engine::embed_cached(m, *kind)))
            }
            TrainedClassifier::Graph(model, kind) => {
                model.predict(&graph_sample(engine::embed_cached(m, *kind)))
            }
        }
    }

    /// Classifies a whole challenge set, preserving order: embeddings come
    /// through the engine's embed cache ([`engine::embed_all`]), then the
    /// whole batch runs through the model's batched inference path
    /// ([`VectorClassifier::predict_batch`] / [`Dgcnn::predict_batch`]) —
    /// GEMM-backed chunked kernels whose labels are identical to a
    /// per-module [`TrainedClassifier::classify`] loop at any
    /// `YALI_THREADS`.
    pub fn classify_all<M: HashedModule>(&self, modules: &[M]) -> Vec<usize> {
        match self {
            TrainedClassifier::Vector(model, kind) => {
                let xs: Vec<Vec<f64>> = {
                    let _s = yali_obs::span!("embed.batch");
                    let embedded = engine::embed_all(modules, *kind);
                    embedded.into_iter().map(vector_sample).collect()
                };
                let _s = yali_obs::span!("infer.batch");
                model.predict_batch(&xs)
            }
            TrainedClassifier::Graph(model, kind) => {
                let gs: Vec<GraphSample> = {
                    let _s = yali_obs::span!("embed.batch");
                    let embedded = engine::embed_all(modules, *kind);
                    embedded.into_iter().map(graph_sample).collect()
                };
                let _s = yali_obs::span!("infer.batch");
                model.predict_batch(&gs)
            }
        }
    }

    /// Approximate model memory (Figure 7's second panel).
    pub fn memory_bytes(&self) -> usize {
        match self {
            TrainedClassifier::Vector(model, _) => model.memory_bytes(),
            TrainedClassifier::Graph(model, _) => model.memory_bytes(),
        }
    }

    /// Serializes the trained classifier for the engine's
    /// [`engine::ModelCache`]. Weights travel as `f64` bit patterns, so
    /// the deserialized classifier's predictions are byte-identical.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            TrainedClassifier::Vector(model, kind) => {
                w.put_u8(1);
                w.put_u8(embed_tag(*kind));
                w.put_bytes(&model.to_bytes());
            }
            TrainedClassifier::Graph(model, kind) => {
                w.put_u8(2);
                w.put_u8(embed_tag(*kind));
                w.put_bytes(&model.to_bytes());
            }
        }
        w.into_bytes()
    }

    /// Deserializes a classifier written by [`TrainedClassifier::to_bytes`].
    ///
    /// # Panics
    ///
    /// Panics on a malformed blob (a model-store bug, not an input error).
    pub fn from_bytes(bytes: &[u8]) -> TrainedClassifier {
        let mut r = ByteReader::new(bytes);
        let tag = r.get_u8();
        let kind = embed_from_tag(r.get_u8());
        let blob = r.get_bytes();
        assert!(r.is_done(), "trailing bytes in model blob");
        match tag {
            1 => TrainedClassifier::Vector(VectorClassifier::from_bytes(&blob), kind),
            2 => TrainedClassifier::Graph(Box::new(Dgcnn::from_bytes(&blob)), kind),
            t => panic!("unknown trained-classifier tag {t}"),
        }
    }
}

fn embed_tag(kind: EmbeddingKind) -> u8 {
    EmbeddingKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL") as u8
}

fn embed_from_tag(tag: u8) -> EmbeddingKind {
    EmbeddingKind::ALL[tag as usize]
}

/// Digest of everything [`TrainedClassifier::fit`] consumes: the design
/// point (embedding, model, training knobs) and the training set (module
/// content hashes, labels, class count). Two calls with equal keys train
/// byte-identical classifiers.
fn classifier_key<M: HashedModule>(
    spec: &ClassifierSpec,
    modules: &[M],
    labels: &[usize],
    n_classes: usize,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("classifier-v1");
    h.write_str(spec.embedding.name());
    h.write_str(spec.model.name());
    h.write_u64(spec.train.seed);
    h.write_u64(spec.train.epochs as u64);
    h.write_u64(spec.train.n_trees as u64);
    h.write_u64(spec.train.k as u64);
    if let ModelChoice::Dgcnn = spec.model {
        // DGCNN knobs only matter for graph models; hashing them always
        // would needlessly split otherwise-identical vector design points.
        h.write_u64(spec.dgcnn.channels.len() as u64);
        for &c in &spec.dgcnn.channels {
            h.write_u64(c as u64);
        }
        h.write_u64(spec.dgcnn.k as u64);
        h.write_u64(spec.dgcnn.dense as u64);
        h.write_u64(spec.dgcnn.dropout.to_bits());
        h.write_u64(spec.dgcnn.epochs as u64);
        h.write_u64(spec.dgcnn.batch as u64);
        h.write_u64(spec.dgcnn.lr.to_bits());
        h.write_u64(spec.dgcnn.seed);
    }
    h.write_u64(n_classes as u64);
    h.write_u64(modules.len() as u64);
    for m in modules {
        h.write_u64(m.content_hash());
    }
    for &l in labels {
        h.write_u64(l as u64);
    }
    h.finish()
}

/// [`TrainedClassifier::fit`] through the engine's model store: a sweep
/// that revisits a design point (same spec, same training modules) loads
/// the serialized model instead of retraining. The key reads each
/// module's content hash, which a [`engine::SharedModule`] carries. Under
/// `YALI_CACHE=0` this is exactly `fit`.
pub fn fit_classifier_cached<M: HashedModule>(
    spec: &ClassifierSpec,
    modules: &[M],
    labels: &[usize],
    n_classes: usize,
) -> TrainedClassifier {
    if !engine::caching_enabled() {
        return TrainedClassifier::fit(spec, modules, labels, n_classes);
    }
    let key = classifier_key(spec, modules, labels, n_classes);
    let store = engine::ModelCache::global();
    if let Some(blob) = store.get(key) {
        return TrainedClassifier::from_bytes(&blob);
    }
    let clf = TrainedClassifier::fit(spec, modules, labels, n_classes);
    store.insert(key, clf.to_bytes());
    clf
}

/// [`VectorClassifier::fit`] through the engine's model store, for
/// experiments that train directly on feature vectors (transformer
/// discovery, the malware scanner). The key digests the full feature
/// matrix via `f64` bit patterns, so only exact re-training is answered
/// from the store.
pub fn fit_vector_cached(
    model: ModelKind,
    x: &[Vec<f64>],
    y: &[usize],
    n_classes: usize,
    config: &TrainConfig,
) -> VectorClassifier {
    if !engine::caching_enabled() {
        return VectorClassifier::fit(model, x, y, n_classes, config);
    }
    let mut h = Fnv64::new();
    h.write_str("vector-v1");
    h.write_str(model.name());
    h.write_u64(config.seed);
    h.write_u64(config.epochs as u64);
    h.write_u64(config.n_trees as u64);
    h.write_u64(config.k as u64);
    h.write_u64(n_classes as u64);
    h.write_u64(x.len() as u64);
    for row in x {
        h.write_u64(row.len() as u64);
        for &v in row {
            h.write_u64(v.to_bits());
        }
    }
    for &l in y {
        h.write_u64(l as u64);
    }
    let key = h.finish();
    let store = engine::ModelCache::global();
    if let Some(blob) = store.get(key) {
        return VectorClassifier::from_bytes(&blob);
    }
    let clf = VectorClassifier::fit(model, x, y, n_classes, config);
    store.insert(key, clf.to_bytes());
    clf
}

/// Materializes transformed IR modules for a set of samples through the
/// engine's transform cache ([`engine::transform_batch`]), as shared
/// handles. Each sample's transformation seed depends only on its index,
/// so the output is identical at every thread count, cached or cold.
pub fn transform_shared(samples: &[&Sample], t: Transformer, seed: u64) -> Vec<SharedModule> {
    let _s = yali_obs::span!("transform.batch");
    let jobs: Vec<(&Program, u64)> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| (&s.program, seed ^ ((i as u64) << 16)))
        .collect();
    engine::transform_batch(&jobs, t)
}

/// [`transform_shared`] as owned modules: each one is copied out of the
/// cache that still holds it.
pub fn transform_all(samples: &[&Sample], t: Transformer, seed: u64) -> Vec<yali_ir::Module> {
    let shared = transform_shared(samples, t, seed);
    shared.into_iter().map(SharedModule::into_module).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_balanced_and_deterministic() {
        let c = Corpus::poj(4, 6, 9);
        assert_eq!(c.samples.len(), 24);
        for class in 0..4 {
            assert_eq!(c.samples.iter().filter(|s| s.class == class).count(), 6);
        }
        let c2 = Corpus::poj(4, 6, 9);
        assert_eq!(
            yali_minic::print(&c.samples[0].program),
            yali_minic::print(&c2.samples[0].program)
        );
    }

    #[test]
    fn split_is_stratified() {
        let c = Corpus::poj(3, 10, 1);
        let (tr, te) = c.split(0.8, 7);
        assert_eq!(tr.len(), 24);
        assert_eq!(te.len(), 6);
    }

    #[test]
    fn histogram_rf_classifier_learns_a_small_corpus() {
        let c = Corpus::poj(3, 10, 2);
        let (tr, te) = c.split(0.8, 3);
        let train_modules = transform_all(&tr, Transformer::None, 0);
        let labels: Vec<usize> = tr.iter().map(|s| s.class).collect();
        let spec = ClassifierSpec::histogram(ModelKind::Rf);
        let clf = TrainedClassifier::fit(&spec, &train_modules, &labels, 3);
        let test_modules = transform_all(&te, Transformer::None, 1);
        let pred: Vec<usize> = clf.classify_all(&test_modules);
        let truth: Vec<usize> = te.iter().map(|s| s.class).collect();
        let acc = yali_ml::accuracy(&pred, &truth);
        assert!(acc > 0.5, "accuracy {acc} too low for 3 separable classes");
    }

    #[test]
    #[should_panic(expected = "graph embedding")]
    fn vector_model_rejects_graph_embedding() {
        let c = Corpus::poj(2, 3, 0);
        let (tr, _) = c.split(0.8, 0);
        let ms = transform_all(&tr, Transformer::None, 0);
        let labels: Vec<usize> = tr.iter().map(|s| s.class).collect();
        let spec = ClassifierSpec {
            embedding: EmbeddingKind::Cfg,
            model: ModelChoice::Vector(ModelKind::Rf),
            train: TrainConfig::default(),
            dgcnn: DgcnnConfig::default(),
        };
        let _ = TrainedClassifier::fit(&spec, &ms, &labels, 2);
    }
}
