//! Linear models: multinomial logistic regression (`lr`) and a one-vs-rest
//! linear SVM (`svm`), both trained with mini-batch Adam on standardized
//! features.

use crate::linalg::{argmax, dot, softmax_inplace, Adam, Matrix};
use crate::serialize::{ByteReader, ByteWriter};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Feature standardization parameters (mean/std per column), shared by the
/// gradient-trained models — raw opcode counts span orders of magnitude.
#[derive(Debug, Clone)]
pub struct Scaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Scaler {
    /// Fits per-column mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics on an empty set.
    pub fn fit(x: &[Vec<f64>]) -> Scaler {
        assert!(!x.is_empty());
        let d = x[0].len();
        let n = x.len() as f64;
        let mut mean = vec![0.0; d];
        for row in x {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0; d];
        for row in x {
            for k in 0..d {
                std[k] += (row[k] - mean[k]).powi(2) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt();
            if *s < 1e-9 {
                *s = 1.0;
            }
        }
        Scaler { mean, std }
    }

    /// Standardizes one row.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Serializes the scaler for the model store.
    pub fn write(&self, out: &mut ByteWriter) {
        out.put_f64s(&self.mean);
        out.put_f64s(&self.std);
    }

    /// Reads a scaler back from a model-store blob.
    pub fn read(r: &mut ByteReader) -> Scaler {
        Scaler {
            mean: r.get_f64s(),
            std: r.get_f64s(),
        }
    }
}

/// Shared training hyperparameters for the linear models.
#[derive(Debug, Clone)]
pub struct LinearConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LinearConfig {
    fn default() -> Self {
        LinearConfig {
            epochs: 60,
            batch: 32,
            lr: 0.05,
            l2: 1e-4,
            seed: 0,
        }
    }
}

/// Which loss the linear model trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearLoss {
    /// Multinomial cross-entropy (logistic regression).
    Softmax,
    /// One-vs-rest hinge loss (linear SVM).
    Hinge,
}

/// A fitted linear classifier: weights `W (classes × features)` + bias.
/// The weights live in one flattened row-major [`Matrix`] so a whole
/// batch of standardized rows scores in a single
/// [`Matrix::matmul_t_bias`] pass.
#[derive(Debug, Clone)]
pub struct LinearModel {
    w: Matrix,
    b: Vec<f64>,
    scaler: Scaler,
    loss: LinearLoss,
}

impl LinearModel {
    /// Trains a linear classifier.
    ///
    /// # Panics
    ///
    /// Panics on an empty training set.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        loss: LinearLoss,
        config: &LinearConfig,
    ) -> LinearModel {
        assert!(!x.is_empty(), "empty training set");
        let scaler = Scaler::fit(x);
        let xs: Vec<Vec<f64>> = x.iter().map(|r| scaler.transform(r)).collect();
        let d = xs[0].len();
        let mut w = vec![vec![0.0; d]; n_classes];
        let mut b = vec![0.0; n_classes];
        let mut opt_w: Vec<Adam> = (0..n_classes).map(|_| Adam::new(d, config.lr)).collect();
        let mut opt_b = Adam::new(n_classes, config.lr);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch) {
                let mut gw = vec![vec![0.0; d]; n_classes];
                let mut gb = vec![0.0; n_classes];
                for &i in chunk {
                    let xi = &xs[i];
                    let yi = y[i];
                    match loss {
                        LinearLoss::Softmax => {
                            let mut scores: Vec<f64> =
                                (0..n_classes).map(|c| dot(&w[c], xi) + b[c]).collect();
                            softmax_inplace(&mut scores);
                            for c in 0..n_classes {
                                let err = scores[c] - if c == yi { 1.0 } else { 0.0 };
                                for k in 0..d {
                                    gw[c][k] += err * xi[k];
                                }
                                gb[c] += err;
                            }
                        }
                        LinearLoss::Hinge => {
                            for c in 0..n_classes {
                                let t = if c == yi { 1.0 } else { -1.0 };
                                let margin = t * (dot(&w[c], xi) + b[c]);
                                if margin < 1.0 {
                                    for k in 0..d {
                                        gw[c][k] -= t * xi[k];
                                    }
                                    gb[c] -= t;
                                }
                            }
                        }
                    }
                }
                let scale = 1.0 / chunk.len() as f64;
                for c in 0..n_classes {
                    for k in 0..d {
                        gw[c][k] = gw[c][k] * scale + config.l2 * w[c][k];
                    }
                    gb[c] *= scale;
                    opt_w[c].step(&mut w[c], &gw[c]);
                }
                opt_b.step(&mut b, &gb);
            }
        }
        let rows: Vec<&[f64]> = w.iter().map(|r| r.as_slice()).collect();
        LinearModel {
            w: Matrix::from_rows(&rows),
            b,
            scaler,
            loss,
        }
    }

    /// Predicts the highest-scoring class, through the same batched GEMM
    /// kernel as [`LinearModel::predict_chunk`] on a one-row chunk.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_chunk(&[x])[0]
    }

    /// Raw class scores `X·Wᵀ + b` for one chunk of samples.
    fn scores_chunk(&self, xs: &[&[f64]]) -> Matrix {
        let scaled: Vec<Vec<f64>> = xs.iter().map(|x| self.scaler.transform(x)).collect();
        let refs: Vec<&[f64]> = scaled.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs).matmul_t_bias(&self.w, &self.b)
    }

    /// Labels for one chunk of samples (argmax score per row).
    pub(crate) fn predict_chunk(&self, xs: &[&[f64]]) -> Vec<usize> {
        if xs.is_empty() {
            return Vec::new();
        }
        let scores = self.scores_chunk(xs);
        (0..scores.rows).map(|r| argmax(scores.row(r))).collect()
    }

    /// Softmax probabilities for one chunk of samples. Only meaningful
    /// for [`LinearLoss::Softmax`]; hinge margins are not probabilities,
    /// and the public batch API returns `None` for the svm instead of
    /// calling this.
    pub(crate) fn proba_chunk(&self, xs: &[&[f64]]) -> Vec<Vec<f64>> {
        if xs.is_empty() {
            return Vec::new();
        }
        let mut scores = self.scores_chunk(xs);
        let mut out = Vec::with_capacity(scores.rows);
        for r in 0..scores.rows {
            let row = scores.row_mut(r);
            softmax_inplace(row);
            out.push(row.to_vec());
        }
        out
    }

    /// Which loss this model was trained with.
    pub fn loss(&self) -> LinearLoss {
        self.loss
    }

    /// Approximate resident bytes (weights + biases + scaler).
    pub fn memory_bytes(&self) -> usize {
        self.w.data.len() * 8 + self.b.len() * 8 + self.scaler.mean.len() * 16
    }

    /// Serializes the fitted model for the model store.
    pub fn write(&self, out: &mut ByteWriter) {
        out.put_u8(match self.loss {
            LinearLoss::Softmax => 0,
            LinearLoss::Hinge => 1,
        });
        out.put_usize(self.w.rows);
        for r in 0..self.w.rows {
            out.put_f64s(self.w.row(r));
        }
        out.put_f64s(&self.b);
        self.scaler.write(out);
    }

    /// Reads a fitted model back from a model-store blob.
    pub fn read(r: &mut ByteReader) -> LinearModel {
        let loss = match r.get_u8() {
            0 => LinearLoss::Softmax,
            _ => LinearLoss::Hinge,
        };
        let n = r.get_usize();
        let rows: Vec<Vec<f64>> = (0..n).map(|_| r.get_f64s()).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let w = Matrix::from_rows(&refs);
        let b = r.get_f64s();
        let scaler = Scaler::read(r);
        LinearModel { w, b, scaler, loss }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..3 {
            for k in 0..30 {
                let j = (k as f64 * 0.37).fract() - 0.5;
                x.push(vec![c as f64 * 4.0 + j, -(c as f64) * 3.0 + j * 0.5]);
                y.push(c);
            }
        }
        (x, y)
    }

    #[test]
    fn logistic_regression_separates_blobs() {
        let (x, y) = blobs();
        let m = LinearModel::fit(&x, &y, 3, LinearLoss::Softmax, &LinearConfig::default());
        let pred: Vec<usize> = x.iter().map(|v| m.predict(v)).collect();
        assert!(crate::metrics::accuracy(&pred, &y) > 0.97);
    }

    #[test]
    fn svm_separates_blobs() {
        let (x, y) = blobs();
        let m = LinearModel::fit(&x, &y, 3, LinearLoss::Hinge, &LinearConfig::default());
        let pred: Vec<usize> = x.iter().map(|v| m.predict(v)).collect();
        assert!(crate::metrics::accuracy(&pred, &y) > 0.97);
        assert_eq!(m.loss(), LinearLoss::Hinge);
    }

    #[test]
    fn scaler_standardizes() {
        let x = vec![vec![0.0, 100.0], vec![2.0, 300.0]];
        let s = Scaler::fit(&x);
        let t0 = s.transform(&x[0]);
        let t1 = s.transform(&x[1]);
        assert!((t0[0] + t1[0]).abs() < 1e-9);
        assert!((t0[1] + t1[1]).abs() < 1e-9);
    }

    #[test]
    fn constant_features_do_not_explode() {
        let x = vec![vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]];
        let y = vec![0, 1, 1];
        let m = LinearModel::fit(&x, &y, 2, LinearLoss::Softmax, &LinearConfig::default());
        assert!(m.predict(&[5.0, 1.0]) < 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = blobs();
        let cfg = LinearConfig {
            seed: 9,
            epochs: 10,
            ..Default::default()
        };
        let m1 = LinearModel::fit(&x, &y, 3, LinearLoss::Softmax, &cfg);
        let m2 = LinearModel::fit(&x, &y, 3, LinearLoss::Softmax, &cfg);
        let p1: Vec<usize> = x.iter().map(|v| m1.predict(v)).collect();
        let p2: Vec<usize> = x.iter().map(|v| m2.predict(v)).collect();
        assert_eq!(p1, p2);
    }
}
