//! Reduced-precision inference: an int8 twin of the GEMM-backed models
//! (lr, svm, mlp).
//!
//! Training and ordinary inference stay `f64` — ModelCache keys and the
//! determinism proptests depend on it. An [`Int8Classifier`] is built
//! *from* a trained [`VectorClassifier`] by quantizing its weights once
//! per model (per-row absmax codes, [`crate::linalg::quant`]);
//! activations are quantized dynamically per batch row, products
//! accumulate exactly in `i32`, and bias, ReLU and argmax run on the
//! dequantized `f64` scores.
//!
//! The int8 path is *opt-in* and gated: the property tests in this
//! module train models on generated corpora and require label agreement
//! with the f64 verdicts of at least 99.5%, and `BENCH_infer.json`
//! re-checks that agreement on its corpus at bench time. Only the
//! models whose inference is a pure dense pipeline get a twin — rf and
//! knn have no weight matrix to quantize, and the cnn's im2col path
//! stays f64 — so [`Int8Classifier::from_model`] returns `None` for
//! those.
//!
//! The classifier reuses the same fixed [`crate::INFER_CHUNK`]
//! decomposition as the f64 batch engine, so its labels are identical
//! at any `YALI_THREADS`.

use crate::linalg::quant::{matmul_t_dequant, QuantMatrix};
use crate::linalg::{argmax, Matrix};
use crate::linear::Scaler;
use crate::serialize::{ByteReader, ByteWriter, CODEC_VERSION};
use crate::{chunked_map, VectorClassifier};

/// Blob tag of a one-stage (lr / svm) twin.
const TAG_LINEAR: u8 = 1;
/// Blob tag of a multi-stage (mlp) twin.
const TAG_MLP: u8 = 2;

/// One dense stage of the int8 pipeline.
struct DenseI8 {
    w: QuantMatrix,
    b: Vec<f64>,
}

/// The blob tag for a pipeline of `n` stages: one stage is a linear
/// model, more are an mlp.
fn tag_of(n: usize) -> u8 {
    if n == 1 {
        TAG_LINEAR
    } else {
        TAG_MLP
    }
}

fn put_quant(w: &mut ByteWriter, q: &QuantMatrix) {
    let (rows, cols, codes, scales) = q.parts();
    w.put_usize(rows);
    w.put_usize(cols);
    w.put_i8s(codes);
    w.put_f64s(scales);
}

fn get_quant(r: &mut ByteReader) -> QuantMatrix {
    let rows = r.get_usize();
    let cols = r.get_usize();
    let codes = r.get_i8s();
    let scales = r.get_f64s();
    QuantMatrix::from_parts(rows, cols, codes, scales)
}

/// Standardizes one chunk of queries into an `f64` matrix.
fn scaled64(scaler: &Scaler, xs: &[&[f64]]) -> Matrix {
    let rows: Vec<Vec<f64>> = xs.iter().map(|x| scaler.transform(x)).collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    Matrix::from_rows(&refs)
}

/// An int8 inference twin of a trained lr/svm/mlp: weights quantized
/// once per row, activations quantized per batch row, exact `i32`
/// accumulation, dequantized `f64` bias/ReLU/argmax.
pub struct Int8Classifier {
    scaler: Scaler,
    /// Dense stages in forward order, ReLU between consecutive stages.
    stages: Vec<DenseI8>,
}

impl Int8Classifier {
    /// Quantizes a trained model, or `None` when the model has no dense
    /// pipeline to quantize (rf, knn, cnn). A linear model is the
    /// one-stage case.
    pub fn from_model(model: &VectorClassifier) -> Option<Int8Classifier> {
        let (scaler, stages): (&Scaler, Vec<(&Matrix, &[f64])>) = match model {
            VectorClassifier::Linear(m) => {
                let (w, b, scaler) = m.lowp_parts();
                (scaler, vec![(w, b)])
            }
            VectorClassifier::Mlp(m) => {
                let (scaler, net) = m.lowp_parts();
                (scaler, net.layers.iter().filter_map(|l| l.dense_params()).collect())
            }
            _ => return None,
        };
        let stages = stages
            .into_iter()
            .map(|(w, b)| DenseI8 { w: QuantMatrix::from_f64(w), b: b.to_vec() })
            .collect();
        Some(Int8Classifier { scaler: scaler.clone(), stages })
    }

    /// Labels for one chunk of queries.
    fn predict_chunk(&self, xs: &[&[f64]]) -> Vec<usize> {
        if xs.is_empty() {
            return Vec::new();
        }
        let mut cur = scaled64(&self.scaler, xs);
        for (i, d) in self.stages.iter().enumerate() {
            cur = matmul_t_dequant(&QuantMatrix::from_f64(&cur), &d.w, &d.b);
            if i + 1 < self.stages.len() {
                cur.map_inplace(|v| v.max(0.0));
            }
        }
        (0..cur.rows).map(|r| argmax(cur.row(r))).collect()
    }

    /// Labels for a whole batch, chunk-dispatched like
    /// [`VectorClassifier::predict_batch`] (identical at any thread
    /// count).
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        self.predict_batch_with_threads(xs, yali_par::worker_count())
    }

    /// [`Int8Classifier::predict_batch`] with an explicit worker count.
    pub fn predict_batch_with_threads(&self, xs: &[Vec<f64>], threads: usize) -> Vec<usize> {
        let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        chunked_map(refs.len(), threads, |lo, hi| self.predict_chunk(&refs[lo..hi]))
    }

    /// Approximate resident bytes (codes + scales + biases).
    pub fn memory_bytes(&self) -> usize {
        self.stages.iter().map(|d| d.w.memory_bytes() + d.b.len() * 8).sum()
    }

    /// Serializes the classifier (codec-versioned, i8 codes + f64
    /// scales).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(CODEC_VERSION);
        w.put_u8(tag_of(self.stages.len()));
        self.scaler.write(&mut w);
        w.put_usize(self.stages.len());
        for d in &self.stages {
            put_quant(&mut w, &d.w);
            w.put_f64s(&d.b);
        }
        w.into_bytes()
    }

    /// Deserializes a classifier written by [`Int8Classifier::to_bytes`].
    ///
    /// # Panics
    ///
    /// Panics on a malformed blob or codec-version mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Int8Classifier {
        let mut r = ByteReader::new(bytes);
        let version = r.get_u8();
        assert_eq!(version, CODEC_VERSION, "int8 blob codec version {version} unsupported");
        let tag = r.get_u8();
        let scaler = Scaler::read(&mut r);
        let n = r.get_usize();
        let stages: Vec<DenseI8> = (0..n)
            .map(|_| DenseI8 { w: get_quant(&mut r), b: r.get_f64s() })
            .collect();
        assert!(r.is_done(), "trailing bytes in int8 model blob");
        assert_eq!(tag, tag_of(n), "int8 classifier tag {tag} does not fit {n} stages");
        Int8Classifier { scaler, stages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelKind, TrainConfig};
    use proptest::prelude::*;

    /// A labeled blob corpus: training points plus jittered queries.
    #[allow(clippy::type_complexity)]
    fn corpus(
        seed: u64,
        classes: usize,
        per_class: usize,
        spread: f64,
    ) -> (Vec<Vec<f64>>, Vec<usize>, Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut qx = Vec::new();
        let mut qy = Vec::new();
        for c in 0..classes {
            for k in 0..per_class {
                let j = ((seed.wrapping_mul(31).wrapping_add((c * per_class + k) as u64) % 97)
                    as f64
                    / 97.0
                    - 0.5)
                    * spread;
                let base = vec![
                    c as f64 * 6.0 + j,
                    -(c as f64) * 4.0 + j * 0.5,
                    (c * c) as f64 + j * 0.25,
                    j,
                ];
                x.push(base.clone());
                y.push(c);
                // Two jittered queries per training point.
                for q in 0..2 {
                    let mut v = base.clone();
                    v[q] += j * 0.3 + 0.05;
                    qx.push(v);
                    qy.push(c);
                }
            }
        }
        (x, y, qx, qy)
    }

    fn agreement(a: &[usize], b: &[usize]) -> f64 {
        assert_eq!(a.len(), b.len());
        if a.is_empty() {
            return 1.0;
        }
        a.iter().zip(b).filter(|(x, y)| x == y).count() as f64 / a.len() as f64
    }

    const REDUCIBLE: [ModelKind; 3] = [ModelKind::Lr, ModelKind::Svm, ModelKind::Mlp];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        // The int8 accuracy-delta gate: on generated corpora, quantized
        // verdicts agree with the f64 verdicts on at least 99.5% of
        // queries, for every model with an int8 twin.
        #[test]
        fn reduced_precision_agrees_with_f64_verdicts(
            seed in 0u64..1000,
            spread in 0.5f64..2.0,
        ) {
            let (x, y, qx, _) = corpus(seed, 3, 35, spread);
            prop_assert!(qx.len() >= 200, "corpus must exercise many queries");
            let cfg = TrainConfig { epochs: 8, seed, ..Default::default() };
            for kind in REDUCIBLE {
                let clf = VectorClassifier::fit(kind, &x, &y, 3, &cfg);
                let want = clf.predict_batch(&qx);

                let q8 = Int8Classifier::from_model(&clf).expect("int8 twin");
                let a8 = agreement(&q8.predict_batch(&qx), &want);
                prop_assert!(a8 >= 0.995, "{kind} int8 agreement {a8}");
            }
        }
    }

    #[test]
    fn reduced_twins_round_trip_and_shrink() {
        let (x, y, qx, _) = corpus(3, 3, 16, 1.0);
        let cfg = TrainConfig { epochs: 6, seed: 3, ..Default::default() };
        for kind in REDUCIBLE {
            let clf = VectorClassifier::fit(kind, &x, &y, 3, &cfg);

            let q = Int8Classifier::from_model(&clf).unwrap();
            let q2 = Int8Classifier::from_bytes(&q.to_bytes());
            assert_eq!(q.predict_batch(&qx), q2.predict_batch(&qx), "{kind} int8 round trip");
            assert_eq!(q2.to_bytes(), q.to_bytes(), "{kind} int8 re-serialization");
            // The blob still tags linear and mlp twins apart.
            let want_tag = if kind == ModelKind::Mlp { TAG_MLP } else { TAG_LINEAR };
            assert_eq!(q.to_bytes()[1], want_tag, "{kind} blob tag");

            // Narrower storage really is narrower: the int8 codes, per-row
            // scales and biases sit well under the f64 model (which also
            // counts its scaler and, for the mlp, its optimizer state).
            assert!(
                q.memory_bytes() < clf.memory_bytes(),
                "{kind}: int8 {} !< f64 {}",
                q.memory_bytes(),
                clf.memory_bytes()
            );
        }
    }

    #[test]
    fn batch_labels_do_not_depend_on_threads() {
        let (x, y, qx, _) = corpus(5, 3, 16, 1.2);
        let cfg = TrainConfig { epochs: 6, seed: 5, ..Default::default() };
        let clf = VectorClassifier::fit(ModelKind::Mlp, &x, &y, 3, &cfg);
        let q = Int8Classifier::from_model(&clf).unwrap();
        assert_eq!(
            q.predict_batch_with_threads(&qx, 1),
            q.predict_batch_with_threads(&qx, 4)
        );
    }

    #[test]
    fn models_without_a_dense_pipeline_have_no_twin() {
        let (x, y, _, _) = corpus(1, 2, 10, 1.0);
        let cfg = TrainConfig { epochs: 2, n_trees: 4, ..Default::default() };
        for kind in [ModelKind::Rf, ModelKind::Knn, ModelKind::Cnn] {
            let clf = VectorClassifier::fit(kind, &x, &y, 2, &cfg);
            assert!(Int8Classifier::from_model(&clf).is_none(), "{kind}");
        }
    }
}
