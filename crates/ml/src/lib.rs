//! # yali-ml
//!
//! From-scratch stochastic classification models for the yali reproduction
//! of "A Game-Based Framework to Compare Program Classifiers and Evaders"
//! (CGO 2023) — the paper's Figure 3 model column:
//!
//! | model | implementation |
//! |-------|----------------|
//! | `rf` | [`forest::RandomForest`] — bagged CART trees |
//! | `svm` | [`linear::LinearModel`] with hinge loss (one-vs-rest) |
//! | `knn` | [`knn::Knn`] |
//! | `lr` | [`linear::LinearModel`] with softmax loss |
//! | `mlp` | [`mlp::Mlp`] — one hidden layer of 100 ReLU units |
//! | `cnn` | [`cnn::Cnn`] — Zhang et al.'s array-input network |
//! | `dgcnn` | [`dgcnn::Dgcnn`] — graph convolutions + SortPooling |
//!
//! [`ModelKind`] + [`VectorClassifier`] give the six array-input models a
//! single train/predict interface; the DGCNN has its own graph API.
//!
//! # Example
//!
//! ```
//! use yali_ml::{ModelKind, VectorClassifier, TrainConfig};
//! let x = vec![vec![0.0], vec![0.1], vec![5.0], vec![5.1]];
//! let y = vec![0, 0, 1, 1];
//! let mut clf = VectorClassifier::fit(ModelKind::Rf, &x, &y, 2, &TrainConfig::default());
//! assert_eq!(clf.predict(&[0.05]), 0);
//! assert_eq!(clf.predict(&[4.9]), 1);
//! ```

#![warn(missing_docs)]

pub mod cnn;
pub mod dgcnn;
pub mod forest;
pub mod knn;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod nn;
pub mod serialize;
pub mod tree;

pub use cnn::{Cnn, CnnConfig};
pub use dgcnn::{Dgcnn, DgcnnConfig, GraphSample};
pub use forest::{ForestConfig, RandomForest};
pub use knn::Knn;
pub use linalg::{active_kernel, GemmKernel, Matrix};
pub use linear::{LinearConfig, LinearLoss, LinearModel};
pub use metrics::{accuracy, confusion, macro_f1};
pub use mlp::{Mlp, MlpConfig};

/// One of the six array-input models (Figure 3's model column minus the
/// graph-only dgcnn).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Random forest.
    Rf,
    /// Linear support-vector machine (one-vs-rest hinge).
    Svm,
    /// k-nearest neighbours.
    Knn,
    /// Multinomial logistic regression.
    Lr,
    /// Multi-layer perceptron (100 hidden ReLU units).
    Mlp,
    /// Zhang et al.'s CNN for array inputs.
    Cnn,
}

impl ModelKind {
    /// All six models, in the paper's usual display order.
    pub const ALL: [ModelKind; 6] = [
        ModelKind::Rf,
        ModelKind::Svm,
        ModelKind::Knn,
        ModelKind::Lr,
        ModelKind::Mlp,
        ModelKind::Cnn,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Rf => "rf",
            ModelKind::Svm => "svm",
            ModelKind::Knn => "knn",
            ModelKind::Lr => "lr",
            ModelKind::Mlp => "mlp",
            ModelKind::Cnn => "cnn",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Samples per chunk in the batched inference dispatch. The decomposition
/// of a batch into chunks is a function of the batch length alone — never
/// of the thread count — so `predict_batch` returns identical bits at any
/// `YALI_THREADS`.
pub const INFER_CHUNK: usize = 32;

/// Fixed-size chunk dispatch for batched inference: splits `n` items into
/// [`INFER_CHUNK`]-sized chunks, maps every chunk with `f(lo, hi)` on the
/// `yali-par` worker pool, and concatenates the per-chunk results in index
/// order. `f` must depend only on the chunk bounds, which makes the output
/// independent of `threads`.
pub(crate) fn chunked_map<R: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize, usize) -> Vec<R> + Sync,
) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    let bounds: Vec<(usize, usize)> = (0..n)
        .step_by(INFER_CHUNK)
        .map(|lo| (lo, (lo + INFER_CHUNK).min(n)))
        .collect();
    yali_obs::count!("ml.infer.batches", 1);
    yali_obs::count!("ml.infer.samples", n as u64);
    // Per-chunk latency is timed only when observability is on; the chunk
    // decomposition itself never changes, so results stay bit-identical.
    let timed = |lo: usize, hi: usize| {
        if yali_obs::enabled() {
            let t0 = std::time::Instant::now();
            let out = f(lo, hi);
            yali_obs::record!("ml.infer.chunk_ns", t0.elapsed().as_nanos() as u64);
            out
        } else {
            f(lo, hi)
        }
    };
    if bounds.len() == 1 || threads <= 1 {
        return bounds.into_iter().flat_map(|(lo, hi)| timed(lo, hi)).collect();
    }
    yali_par::par_map_with(threads, &bounds, |_, &(lo, hi)| timed(lo, hi))
        .into_iter()
        .flatten()
        .collect()
}

/// Scale/seed knobs shared by every model's trainer. Hashable so the
/// experiment engine's trained-model store can key on it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TrainConfig {
    /// RNG seed.
    pub seed: u64,
    /// Epoch count for the gradient-trained models.
    pub epochs: usize,
    /// Trees in the forest.
    pub n_trees: usize,
    /// Neighbours for knn.
    pub k: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            seed: 0,
            epochs: 40,
            n_trees: 40,
            k: 5,
        }
    }
}

/// A trained array-input classifier of any [`ModelKind`].
pub enum VectorClassifier {
    /// Random forest.
    Rf(RandomForest),
    /// Linear model (svm or lr).
    Linear(LinearModel),
    /// k-nearest neighbours.
    Knn(Knn),
    /// Multi-layer perceptron.
    Mlp(Mlp),
    /// Convolutional network.
    Cnn(Cnn),
}

impl VectorClassifier {
    /// Trains the chosen model on `(x, y)` with labels in `0..n_classes`.
    ///
    /// # Panics
    ///
    /// Panics on an empty training set.
    pub fn fit(
        kind: ModelKind,
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        config: &TrainConfig,
    ) -> VectorClassifier {
        match kind {
            ModelKind::Rf => VectorClassifier::Rf(RandomForest::fit(
                x,
                y,
                n_classes,
                &ForestConfig {
                    n_trees: config.n_trees,
                    seed: config.seed,
                    ..Default::default()
                },
            )),
            ModelKind::Svm => VectorClassifier::Linear(LinearModel::fit(
                x,
                y,
                n_classes,
                LinearLoss::Hinge,
                &LinearConfig {
                    epochs: config.epochs,
                    seed: config.seed,
                    ..Default::default()
                },
            )),
            ModelKind::Lr => VectorClassifier::Linear(LinearModel::fit(
                x,
                y,
                n_classes,
                LinearLoss::Softmax,
                &LinearConfig {
                    epochs: config.epochs,
                    seed: config.seed,
                    ..Default::default()
                },
            )),
            ModelKind::Knn => VectorClassifier::Knn(Knn::fit(x, y, n_classes, config.k)),
            ModelKind::Mlp => VectorClassifier::Mlp(Mlp::fit(
                x,
                y,
                n_classes,
                &MlpConfig {
                    epochs: config.epochs,
                    seed: config.seed,
                    ..Default::default()
                },
            )),
            ModelKind::Cnn => VectorClassifier::Cnn(Cnn::fit(
                x,
                y,
                n_classes,
                &CnnConfig {
                    epochs: config.epochs,
                    seed: config.seed,
                    ..Default::default()
                },
            )),
        }
    }

    /// Predicts the class of one sample. Pure: a trained classifier can
    /// serve predictions from many threads at once. Every model routes
    /// this through its batched kernel on a one-sample chunk, so a
    /// [`VectorClassifier::predict_batch`] call and a loop of `predict`
    /// produce identical bits.
    pub fn predict(&self, x: &[f64]) -> usize {
        match self {
            VectorClassifier::Rf(m) => m.predict(x),
            VectorClassifier::Linear(m) => m.predict(x),
            VectorClassifier::Knn(m) => m.predict(x),
            VectorClassifier::Mlp(m) => m.predict(x),
            VectorClassifier::Cnn(m) => m.predict(x),
        }
    }

    /// Labels for one chunk of samples through the model's batched kernel.
    fn predict_chunk(&self, xs: &[&[f64]]) -> Vec<usize> {
        match self {
            VectorClassifier::Rf(m) => m.predict_chunk(xs),
            VectorClassifier::Linear(m) => m.predict_chunk(xs),
            VectorClassifier::Knn(m) => m.predict_chunk(xs),
            VectorClassifier::Mlp(m) => m.predict_chunk(xs),
            VectorClassifier::Cnn(m) => m.predict_chunk(xs),
        }
    }

    /// Per-class probabilities for one chunk of samples.
    fn proba_chunk(&self, xs: &[&[f64]]) -> Vec<Vec<f64>> {
        match self {
            VectorClassifier::Rf(m) => m.proba_chunk(xs),
            VectorClassifier::Linear(m) => m.proba_chunk(xs),
            VectorClassifier::Knn(m) => m.proba_chunk(xs),
            VectorClassifier::Mlp(m) => m.proba_chunk(xs),
            VectorClassifier::Cnn(m) => m.proba_chunk(xs),
        }
    }

    /// Predicts a whole batch through the GEMM-backed batched kernels:
    /// dense models forward whole chunk matrices, knn forms a
    /// query×train distance matrix, and the forest votes tree-by-tree —
    /// all in fixed [`INFER_CHUNK`]-sample chunks dispatched on the
    /// `yali-par` worker pool and merged in index order. The returned
    /// labels are identical to a per-sample [`VectorClassifier::predict`]
    /// loop at any `YALI_THREADS`.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        self.predict_batch_with_threads(xs, yali_par::worker_count())
    }

    /// [`VectorClassifier::predict_batch`] with an explicit worker count;
    /// the chunk decomposition is fixed, so results do not depend on
    /// `threads`.
    pub fn predict_batch_with_threads(&self, xs: &[Vec<f64>], threads: usize) -> Vec<usize> {
        let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        self.predict_batch_refs(&refs, threads)
    }

    /// [`VectorClassifier::predict_batch`] over borrowed rows: the entry
    /// point for callers (the `yali-serve` batcher) whose queries arrive
    /// scattered across owners and must be batched without copying each
    /// feature vector into a fresh `Vec<Vec<f64>>`. Same contract: fixed
    /// [`INFER_CHUNK`]-sized chunks on the worker pool, merged in index
    /// order, labels bit-identical to a per-sample `predict` loop.
    pub fn predict_batch_refs(&self, xs: &[&[f64]], threads: usize) -> Vec<usize> {
        chunked_map(xs.len(), threads, |lo, hi| self.predict_chunk(&xs[lo..hi]))
    }

    /// Per-class probabilities for a whole batch, where the model defines
    /// them: vote shares for rf and knn, softmax scores for lr, mlp and
    /// cnn. Returns `None` for the hinge-loss svm — its margins are not
    /// probabilities. Batched and chunk-dispatched like
    /// [`VectorClassifier::predict_batch`].
    pub fn predict_proba_batch(&self, xs: &[Vec<f64>]) -> Option<Vec<Vec<f64>>> {
        if matches!(self, VectorClassifier::Linear(m) if m.loss() == LinearLoss::Hinge) {
            return None;
        }
        let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        Some(chunked_map(refs.len(), yali_par::worker_count(), |lo, hi| {
            self.proba_chunk(&refs[lo..hi])
        }))
    }

    /// Predicts a whole test set (batched; see
    /// [`VectorClassifier::predict_batch`]).
    pub fn predict_all(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        self.predict_batch(xs)
    }

    /// Approximate resident bytes of the fitted model (Figure 7's memory
    /// comparison).
    pub fn memory_bytes(&self) -> usize {
        match self {
            VectorClassifier::Rf(m) => m.memory_bytes(),
            VectorClassifier::Linear(m) => m.memory_bytes(),
            VectorClassifier::Knn(m) => m.memory_bytes(),
            VectorClassifier::Mlp(m) => m.memory_bytes(),
            VectorClassifier::Cnn(m) => m.memory_bytes(),
        }
    }

    /// Serializes the trained classifier for the experiment engine's
    /// model store. Blobs are prefixed with [`serialize::CODEC_VERSION`];
    /// weights round-trip via [`f64::to_bits`], so a deserialized model
    /// classifies byte-identically to the original.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = serialize::ByteWriter::new();
        w.put_u8(serialize::CODEC_VERSION);
        match self {
            VectorClassifier::Rf(m) => {
                w.put_u8(1);
                m.write(&mut w);
            }
            VectorClassifier::Linear(m) => {
                w.put_u8(2);
                m.write(&mut w);
            }
            VectorClassifier::Knn(m) => {
                w.put_u8(3);
                m.write(&mut w);
            }
            VectorClassifier::Mlp(m) => {
                w.put_u8(4);
                m.write(&mut w);
            }
            VectorClassifier::Cnn(m) => {
                w.put_u8(5);
                m.write(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Deserializes a classifier written by [`VectorClassifier::to_bytes`].
    ///
    /// # Panics
    ///
    /// Panics on a malformed blob (a model-store bug, not an input error).
    pub fn from_bytes(bytes: &[u8]) -> VectorClassifier {
        let mut r = serialize::ByteReader::new(bytes);
        let version = r.get_u8();
        assert_eq!(
            version,
            serialize::CODEC_VERSION,
            "model blob codec version {version} does not match this binary"
        );
        let out = match r.get_u8() {
            1 => VectorClassifier::Rf(RandomForest::read(&mut r)),
            2 => VectorClassifier::Linear(LinearModel::read(&mut r)),
            3 => VectorClassifier::Knn(Knn::read(&mut r)),
            4 => VectorClassifier::Mlp(Mlp::read(&mut r)),
            5 => VectorClassifier::Cnn(Cnn::read(&mut r)),
            tag => panic!("unknown classifier tag {tag} in model blob"),
        };
        assert!(r.is_done(), "trailing bytes in model blob");
        out
    }
}

/// Splits `(x, y)` into train/test by taking every sample whose index mod
/// `denom` is below `num` for training — a deterministic, class-stratified
/// 80/20-style split when samples are grouped by class.
pub fn train_test_split<T: Clone>(
    x: &[T],
    y: &[usize],
    train_fraction: f64,
    seed: u64,
) -> (Vec<T>, Vec<usize>, Vec<T>, Vec<usize>) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    // Stratify per class.
    let mut by_class: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &yi) in y.iter().enumerate() {
        by_class.entry(yi).or_default().push(i);
    }
    let (mut xtr, mut ytr, mut xte, mut yte) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (_, mut idx) in by_class {
        idx.shuffle(&mut rng);
        let cut = ((idx.len() as f64) * train_fraction).round() as usize;
        for (pos, &i) in idx.iter().enumerate() {
            if pos < cut {
                xtr.push(x[i].clone());
                ytr.push(y[i]);
            } else {
                xte.push(x[i].clone());
                yte.push(y[i]);
            }
        }
    }
    (xtr, ytr, xte, yte)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize, classes: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..classes {
            for k in 0..n_per {
                let j = (k as f64 * 0.77).fract() - 0.5;
                x.push(vec![c as f64 * 6.0 + j, (c * c) as f64 + j]);
                y.push(c);
            }
        }
        (x, y)
    }

    #[test]
    fn all_six_models_learn_blobs() {
        let (x, y) = blobs(24, 3);
        for kind in ModelKind::ALL {
            let clf = VectorClassifier::fit(kind, &x, &y, 3, &TrainConfig::default());
            let pred = clf.predict_all(&x);
            let acc = accuracy(&pred, &y);
            assert!(acc > 0.9, "{kind} accuracy {acc}");
            assert!(clf.memory_bytes() > 0, "{kind} memory");
        }
    }

    #[test]
    fn split_is_stratified() {
        let (x, y) = blobs(10, 4);
        let (xtr, ytr, xte, yte) = train_test_split(&x, &y, 0.8, 1);
        assert_eq!(xtr.len(), 32);
        assert_eq!(xte.len(), 8);
        for c in 0..4 {
            assert_eq!(ytr.iter().filter(|&&v| v == c).count(), 8);
            assert_eq!(yte.iter().filter(|&&v| v == c).count(), 2);
        }
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let (x, y) = blobs(10, 2);
        let a = train_test_split(&x, &y, 0.8, 7);
        let b = train_test_split(&x, &y, 0.8, 7);
        assert_eq!(a.1, b.1);
        assert_eq!(a.3, b.3);
    }

    #[test]
    fn serialization_round_trips_every_model_kind() {
        let (x, y) = blobs(24, 3);
        let cfg = TrainConfig {
            epochs: 5,
            ..Default::default()
        };
        for kind in ModelKind::ALL {
            let clf = VectorClassifier::fit(kind, &x, &y, 3, &cfg);
            let bytes = clf.to_bytes();
            let restored = VectorClassifier::from_bytes(&bytes);
            assert_eq!(
                clf.predict_all(&x),
                restored.predict_all(&x),
                "{kind} predictions must survive the round trip"
            );
            assert_eq!(restored.to_bytes(), bytes, "{kind} re-serialization is stable");
        }
    }

    #[test]
    fn model_names() {
        let names: Vec<&str> = ModelKind::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["rf", "svm", "knn", "lr", "mlp", "cnn"]);
    }
}
