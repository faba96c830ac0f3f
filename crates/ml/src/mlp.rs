//! The `mlp` model: SciKit's default-ish multi-layer perceptron — one
//! hidden layer of 100 ReLU units (paper, Section 3.2).

use crate::linalg::Matrix;
use crate::linear::Scaler;
use crate::nn::{Dense, Net, Relu};
use crate::serialize::{ByteReader, ByteWriter};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// MLP hyperparameters.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Hidden width (the paper's mlp uses 100).
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 100,
            epochs: 60,
            batch: 32,
            lr: 0.005,
            seed: 0,
        }
    }
}

/// A fitted MLP.
pub struct Mlp {
    net: Net,
    scaler: Scaler,
}

impl Mlp {
    /// Trains the MLP.
    ///
    /// # Panics
    ///
    /// Panics on an empty training set.
    pub fn fit(x: &[Vec<f64>], y: &[usize], n_classes: usize, config: &MlpConfig) -> Mlp {
        assert!(!x.is_empty(), "empty training set");
        let scaler = Scaler::fit(x);
        let xs: Vec<Vec<f64>> = x.iter().map(|r| scaler.transform(r)).collect();
        let d = xs[0].len();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut net = Net {
            layers: vec![
                Box::new(Dense::new(d, config.hidden, config.lr, &mut rng)),
                Box::new(Relu),
                Box::new(Dense::new(config.hidden, n_classes, config.lr, &mut rng)),
            ],
            n_classes,
        };
        net.fit(&xs, y, config.epochs, config.batch, config.seed ^ 0x5f5f);
        Mlp { net, scaler }
    }

    /// Predicts one sample, through the same batched forward as
    /// [`Mlp::predict_chunk`] on a one-row chunk.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_chunk(&[x])[0]
    }

    /// Standardizes one chunk into a single matrix for the batched net.
    fn scaled(&self, xs: &[&[f64]]) -> Matrix {
        let rows: Vec<Vec<f64>> = xs.iter().map(|x| self.scaler.transform(x)).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    }

    /// Labels for one chunk of samples via the batched GEMM forward.
    pub(crate) fn predict_chunk(&self, xs: &[&[f64]]) -> Vec<usize> {
        if xs.is_empty() {
            return Vec::new();
        }
        self.net.predict_rows(self.scaled(xs))
    }

    /// Softmax probabilities for one chunk of samples.
    pub(crate) fn proba_chunk(&self, xs: &[&[f64]]) -> Vec<Vec<f64>> {
        if xs.is_empty() {
            return Vec::new();
        }
        self.net.proba_rows(self.scaled(xs))
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.net.num_params() * 8 * 3 // weights + Adam moments
    }

    /// Serializes the fitted MLP for the model store.
    pub fn write(&self, out: &mut ByteWriter) {
        self.net.write(out);
        self.scaler.write(out);
    }

    /// Reads a fitted MLP back from a model-store blob.
    pub fn read(r: &mut ByteReader) -> Mlp {
        Mlp {
            net: Net::read(r),
            scaler: Scaler::read(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_nonlinear_labels() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for k in 0..120 {
            let a = (k as f64 * 0.21).sin() * 3.0;
            let b = (k as f64 * 0.13).cos() * 3.0;
            x.push(vec![a, b]);
            y.push(usize::from(a * b > 0.0));
        }
        let cfg = MlpConfig {
            epochs: 150,
            ..Default::default()
        };
        let m = Mlp::fit(&x, &y, 2, &cfg);
        let pred: Vec<usize> = x.iter().map(|v| m.predict(v)).collect();
        assert!(crate::metrics::accuracy(&pred, &y) > 0.9);
    }

    #[test]
    fn memory_tracks_width() {
        let x = vec![vec![1.0, 2.0]; 8];
        let y = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let small = Mlp::fit(&x, &y, 2, &MlpConfig { hidden: 10, epochs: 1, ..Default::default() });
        let big = Mlp::fit(&x, &y, 2, &MlpConfig { hidden: 200, epochs: 1, ..Default::default() });
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
