//! Neural-network building blocks with manual backpropagation: dense,
//! ReLU, dropout, 1-D convolution, and 1-D max pooling, plus a small
//! sequential trainer with a softmax cross-entropy head.
//!
//! The `mlp`, `cnn`, and `dgcnn` models are all assembled from these
//! layers.
//!
//! # Batched, pure training passes
//!
//! Layers process whole minibatches as row-major [`Matrix`] values, so the
//! heavy passes are single GEMM calls on the blocked kernels in
//! [`crate::linalg`]: a dense forward is one fused `X·Wᵀ + b`, a
//! convolution is an im2col pack followed by the same fused product, and
//! the backward passes are the matching transposed products. `forward` and
//! `backward` take `&self` and keep their activations in an explicit
//! [`Cache`]; parameter gradients accumulate into caller-owned
//! [`LayerGrads`] buffers. Because a training pass never mutates the
//! network, minibatches can be split into fixed micro-batches whose
//! gradients are computed on worker threads and merged in index order —
//! [`Net::fit`] produces byte-identical weights at any thread count.
//!
//! Stochastic behaviour (dropout) draws from per-sample seeds carried in
//! [`BatchCtx`], derived from `(fit seed, epoch, dataset index)` — never
//! from a sequential RNG stream — so the masks a sample sees do not depend
//! on how the batch was scheduled.

use crate::linalg::{argmax, axpy, dot, softmax_inplace, Adam, Matrix};
use crate::serialize::{ByteReader, ByteWriter};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Samples per micro-batch. The decomposition of a minibatch into
/// micro-batches is fixed (independent of thread count), so merging
/// micro-gradients in index order makes training deterministic under
/// parallelism.
pub(crate) const MICRO_BATCH: usize = 8;

/// Minimum `num_params × minibatch` product before a training step fans
/// micro-batches out to worker threads; below it, thread-spawn overhead
/// outweighs the GEMM work and the step runs inline (same decomposition,
/// same result).
pub(crate) const PAR_MIN_WORK: usize = 200_000;

/// One round of the splitmix64 finalizer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes two words into one seed.
pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    splitmix(splitmix(a) ^ b)
}

/// Derives the per-sample seed for `(fit seed, epoch, dataset index)`.
pub(crate) fn mix3(a: u64, b: u64, c: u64) -> u64 {
    splitmix(mix2(a, b) ^ c)
}

/// A non-negative f64 in units of 1/1000, saturated into a u64 for the
/// observability histograms (loss values are reported, never consumed, so
/// the rounding cannot perturb training).
pub(crate) fn to_millis(v: f64) -> u64 {
    if v.is_finite() && v > 0.0 {
        (v * 1000.0).round() as u64
    } else {
        0
    }
}

/// Picks the worker count for one training step of `work = params × batch`
/// split into `n_micros` micro-batches.
pub(crate) fn step_threads(requested: usize, n_micros: usize, work: usize) -> usize {
    if n_micros > 1 && work >= PAR_MIN_WORK {
        requested
    } else {
        1
    }
}

/// Per-batch context for a training forward pass.
pub struct BatchCtx {
    /// Training mode: enables stochastic behaviour (dropout).
    pub train: bool,
    /// One seed per batch row, a pure function of `(fit seed, epoch,
    /// dataset index)` — see [`mix3`]. Empty in eval mode.
    pub seeds: Vec<u64>,
}

impl BatchCtx {
    /// Eval-mode context: deterministic layers only.
    pub fn eval() -> BatchCtx {
        BatchCtx {
            train: false,
            seeds: Vec::new(),
        }
    }

    /// Training-mode context with per-row sample seeds.
    pub fn train(seeds: Vec<u64>) -> BatchCtx {
        BatchCtx { train: true, seeds }
    }
}

/// Caller-owned gradient accumulators for one layer's parameters.
#[derive(Clone, Debug, Default)]
pub struct LayerGrads {
    /// Weight gradient, same layout as the layer's weights.
    pub gw: Vec<f64>,
    /// Bias gradient.
    pub gb: Vec<f64>,
}

impl LayerGrads {
    /// Zeroed buffers for a layer reporting `dims = (w_len, b_len)`.
    pub fn new(dims: (usize, usize)) -> LayerGrads {
        LayerGrads {
            gw: vec![0.0; dims.0],
            gb: vec![0.0; dims.1],
        }
    }

    /// Accumulates `other` into `self` (fixed order, so merging
    /// micro-gradients index-by-index is deterministic).
    pub fn add(&mut self, other: &LayerGrads) {
        axpy(1.0, &other.gw, &mut self.gw);
        axpy(1.0, &other.gb, &mut self.gb);
    }

    /// Zeroes the buffers in place (no reallocation).
    pub fn clear(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// Activation stash from one layer's batched forward pass, consumed by the
/// matching backward pass. Layers use the fields as they see fit (`m` for
/// an input/mask matrix, `idx` for routing indices); unused fields stay
/// empty.
#[derive(Default)]
pub struct Cache {
    /// Matrix stash (layer input, im2col pack, or dropout mask).
    pub m: Matrix,
    /// Index stash (max-pool argmax routing).
    pub idx: Vec<usize>,
}

/// A differentiable layer processing minibatches of flat `f64` rows.
///
/// Training uses [`Layer::forward`]/[`Layer::backward`], which are **pure**
/// (`&self`): activations live in the returned [`Cache`] and parameter
/// gradients accumulate into caller-owned [`LayerGrads`]. That purity is
/// what lets the trainer compute micro-batch gradients on many threads at
/// once. [`Layer::step`] applies accumulated gradients. Inference uses
/// [`Layer::infer`], a single-sample eval-mode pass.
pub trait Layer: Send + Sync {
    /// Batched forward pass over `x` (one sample per row); returns the
    /// output batch and the activation cache for [`Layer::backward`].
    fn forward(&self, x: Matrix, ctx: &BatchCtx) -> (Matrix, Cache);
    /// Pure eval-mode forward pass over one sample.
    fn infer(&self, x: &[f64]) -> Vec<f64>;
    /// Batched backward pass: receives ∂L/∂output, accumulates parameter
    /// gradients into `grads`, returns ∂L/∂input.
    fn backward(&self, cache: &Cache, grad: &Matrix, grads: &mut LayerGrads) -> Matrix;
    /// Applies gradients scaled by `1/batch`. Does not clear `grads`.
    fn step(&mut self, grads: &LayerGrads, batch: usize);
    /// Gradient buffer sizes `(w_len, b_len)`.
    fn grad_dims(&self) -> (usize, usize);
    /// Number of trainable parameters.
    fn num_params(&self) -> usize;
    /// Serializes the layer (tag plus parameters) for the model store.
    fn write(&self, out: &mut ByteWriter);
}

const TAG_DENSE: u8 = 1;
const TAG_RELU: u8 = 2;
const TAG_DROPOUT: u8 = 3;
const TAG_CONV1D: u8 = 4;
const TAG_MAXPOOL1D: u8 = 5;

/// Reads one layer back from a model-store blob.
///
/// # Panics
///
/// Panics on an unknown layer tag (a serializer bug, not an input error).
pub fn read_layer(r: &mut ByteReader) -> Box<dyn Layer> {
    match r.get_u8() {
        TAG_DENSE => Box::new(Dense::read(r)),
        TAG_RELU => Box::new(Relu),
        TAG_DROPOUT => Box::new(Dropout {
            p: r.get_f64(),
            salt: r.get_u64(),
        }),
        TAG_CONV1D => Box::new(Conv1d::read(r)),
        TAG_MAXPOOL1D => Box::new(MaxPool1d::new(
            r.get_usize(),
            r.get_usize(),
            r.get_usize(),
        )),
        tag => panic!("unknown layer tag {tag} in model blob"),
    }
}

/// Fully connected layer: `y = x · Wᵀ + b` with `W` stored `out × in`.
pub struct Dense {
    w: Matrix, // out × in
    b: Vec<f64>,
    opt_w: Adam,
    opt_b: Adam,
}

impl Dense {
    /// Creates a dense layer with Xavier-ish initialization.
    pub fn new(n_in: usize, n_out: usize, lr: f64, rng: &mut impl Rng) -> Dense {
        let scale = (2.0 / (n_in + n_out) as f64).sqrt();
        Dense {
            w: Matrix {
                rows: n_out,
                cols: n_in,
                data: (0..n_in * n_out)
                    .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
                    .collect(),
            },
            b: vec![0.0; n_out],
            opt_w: Adam::new(n_in * n_out, lr),
            opt_b: Adam::new(n_out, lr),
        }
    }

    fn read(r: &mut ByteReader) -> Dense {
        let lr = r.get_f64();
        let w = r.get_matrix();
        let b = r.get_f64s();
        // Optimizer moments are not serialized: cached models are loaded
        // for inference, and a fresh Adam state is what a retrain would
        // also start from.
        let (opt_w, opt_b) = (Adam::new(w.data.len(), lr), Adam::new(b.len(), lr));
        Dense { w, b, opt_w, opt_b }
    }
}

impl Layer for Dense {
    fn forward(&self, x: Matrix, _ctx: &BatchCtx) -> (Matrix, Cache) {
        let y = x.matmul_t_bias(&self.w, &self.b);
        (y, Cache { m: x, idx: Vec::new() })
    }

    fn infer(&self, x: &[f64]) -> Vec<f64> {
        (0..self.w.rows)
            .map(|o| self.b[o] + dot(self.w.row(o), x))
            .collect()
    }

    fn backward(&self, cache: &Cache, grad: &Matrix, grads: &mut LayerGrads) -> Matrix {
        // gW += Gᵀ · X, gb += column sums of G, gX = G · W.
        let gm = grad.t_matmul(&cache.m);
        axpy(1.0, &gm.data, &mut grads.gw);
        grad.add_col_sums(&mut grads.gb);
        grad.matmul(&self.w)
    }

    fn step(&mut self, grads: &LayerGrads, batch: usize) {
        let s = 1.0 / batch.max(1) as f64;
        self.opt_w.step_scaled(&mut self.w.data, &grads.gw, s);
        self.opt_b.step_scaled(&mut self.b, &grads.gb, s);
    }

    fn grad_dims(&self) -> (usize, usize) {
        (self.w.data.len(), self.b.len())
    }

    fn num_params(&self) -> usize {
        self.w.data.len() + self.b.len()
    }

    fn write(&self, out: &mut ByteWriter) {
        out.put_u8(TAG_DENSE);
        out.put_f64(self.opt_w.lr);
        out.put_matrix(&self.w);
        out.put_f64s(&self.b);
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu;

impl Layer for Relu {
    fn forward(&self, mut x: Matrix, _ctx: &BatchCtx) -> (Matrix, Cache) {
        x.map_inplace(|v| v.max(0.0));
        // The output doubles as the mask: y > 0 exactly where x > 0.
        let cache = Cache {
            m: x.clone(),
            idx: Vec::new(),
        };
        (x, cache)
    }

    fn infer(&self, x: &[f64]) -> Vec<f64> {
        x.iter().map(|&v| v.max(0.0)).collect()
    }

    fn backward(&self, cache: &Cache, grad: &Matrix, _grads: &mut LayerGrads) -> Matrix {
        let mut gx = grad.clone();
        for (g, &y) in gx.data.iter_mut().zip(&cache.m.data) {
            if y <= 0.0 {
                *g = 0.0;
            }
        }
        gx
    }

    fn step(&mut self, _grads: &LayerGrads, _batch: usize) {}

    fn grad_dims(&self) -> (usize, usize) {
        (0, 0)
    }

    fn num_params(&self) -> usize {
        0
    }

    fn write(&self, out: &mut ByteWriter) {
        out.put_u8(TAG_RELU);
    }
}

/// Inverted dropout. Masks are a pure function of the per-sample seed in
/// [`BatchCtx`] and this layer's `salt`, so a sample's mask for a given
/// epoch does not depend on batch scheduling or thread count.
pub struct Dropout {
    p: f64,
    salt: u64,
}

impl Dropout {
    /// Drops activations with probability `p` during training; `seed`
    /// salts this layer's masks so stacked dropout layers decorrelate.
    pub fn new(p: f64, seed: u64) -> Dropout {
        Dropout { p, salt: seed }
    }
}

impl Layer for Dropout {
    fn forward(&self, mut x: Matrix, ctx: &BatchCtx) -> (Matrix, Cache) {
        if !ctx.train || self.p <= 0.0 {
            return (x, Cache::default());
        }
        let keep = 1.0 - self.p;
        let mut mask = Matrix::zeros(x.rows, x.cols);
        for r in 0..x.rows {
            let mut rng = ChaCha8Rng::seed_from_u64(mix2(ctx.seeds[r], self.salt));
            for m in mask.row_mut(r) {
                *m = if rng.gen::<f64>() < keep { 1.0 / keep } else { 0.0 };
            }
        }
        for (v, &m) in x.data.iter_mut().zip(&mask.data) {
            *v *= m;
        }
        (x, Cache { m: mask, idx: Vec::new() })
    }

    fn infer(&self, x: &[f64]) -> Vec<f64> {
        // Eval-mode dropout is the identity (inverted dropout rescales at
        // train time).
        x.to_vec()
    }

    fn backward(&self, cache: &Cache, grad: &Matrix, _grads: &mut LayerGrads) -> Matrix {
        if cache.m.data.is_empty() {
            return grad.clone();
        }
        let mut gx = grad.clone();
        for (g, &m) in gx.data.iter_mut().zip(&cache.m.data) {
            *g *= m;
        }
        gx
    }

    fn step(&mut self, _grads: &LayerGrads, _batch: usize) {}

    fn grad_dims(&self) -> (usize, usize) {
        (0, 0)
    }

    fn num_params(&self) -> usize {
        0
    }

    fn write(&self, out: &mut ByteWriter) {
        out.put_u8(TAG_DROPOUT);
        out.put_f64(self.p);
        out.put_u64(self.salt);
    }
}

/// 1-D convolution over `(channels, length)` data stored channel-major.
///
/// The batched passes run as GEMM: forward packs the batch into an im2col
/// matrix `C` (one row per output position, one column per `(channel,
/// tap)`) and computes the fused `C · Wᵀ + b`; backward reuses `C` for the
/// weight gradient and scatter-adds `G · W` back through the pack
/// (col2im).
pub struct Conv1d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    in_len: usize,
    out_len: usize,
    w: Matrix, // out_ch × (in_ch · kernel)
    b: Vec<f64>,
    opt_w: Adam,
    opt_b: Adam,
}

impl Conv1d {
    /// Creates a convolution for inputs of `in_ch` channels and length
    /// `in_len`.
    ///
    /// # Panics
    ///
    /// Panics when the kernel does not fit the input.
    pub fn new(
        in_ch: usize,
        in_len: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        lr: f64,
        rng: &mut impl Rng,
    ) -> Conv1d {
        assert!(kernel <= in_len, "kernel {kernel} exceeds input {in_len}");
        let out_len = (in_len - kernel) / stride + 1;
        let n = out_ch * in_ch * kernel;
        let scale = (2.0 / (in_ch * kernel + out_ch) as f64).sqrt();
        Conv1d {
            in_ch,
            out_ch,
            kernel,
            stride,
            in_len,
            out_len,
            w: Matrix {
                rows: out_ch,
                cols: in_ch * kernel,
                data: (0..n).map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale).collect(),
            },
            b: vec![0.0; out_ch],
            opt_w: Adam::new(n, lr),
            opt_b: Adam::new(out_ch, lr),
        }
    }

    fn read(r: &mut ByteReader) -> Conv1d {
        let in_ch = r.get_usize();
        let in_len = r.get_usize();
        let out_ch = r.get_usize();
        let kernel = r.get_usize();
        let stride = r.get_usize();
        let lr = r.get_f64();
        let w = r.get_matrix();
        let b = r.get_f64s();
        let (opt_w, opt_b) = (Adam::new(w.data.len(), lr), Adam::new(b.len(), lr));
        Conv1d {
            in_ch,
            out_ch,
            kernel,
            stride,
            in_len,
            out_len: (in_len - kernel) / stride + 1,
            w,
            b,
            opt_w,
            opt_b,
        }
    }

    /// Output size (`out_ch * out_len`).
    pub fn output_size(&self) -> usize {
        self.out_ch * self.out_len
    }

    /// Packs the batch into the im2col matrix: row `s·out_len + p` holds
    /// the receptive field of output position `p` of sample `s`.
    fn im2col(&self, x: &Matrix) -> Matrix {
        let mut cmat = Matrix::zeros(x.rows * self.out_len, self.in_ch * self.kernel);
        for s in 0..x.rows {
            let xrow = x.row(s);
            for p in 0..self.out_len {
                let crow = cmat.row_mut(s * self.out_len + p);
                let base = p * self.stride;
                for c in 0..self.in_ch {
                    let src = &xrow[c * self.in_len + base..c * self.in_len + base + self.kernel];
                    crow[c * self.kernel..(c + 1) * self.kernel].copy_from_slice(src);
                }
            }
        }
        cmat
    }
}

impl Layer for Conv1d {
    fn forward(&self, x: Matrix, _ctx: &BatchCtx) -> (Matrix, Cache) {
        let cmat = self.im2col(&x);
        let yf = cmat.matmul_t_bias(&self.w, &self.b); // (n·out_len) × out_ch
        let mut out = Matrix::zeros(x.rows, self.out_ch * self.out_len);
        for s in 0..x.rows {
            let orow = out.row_mut(s);
            for p in 0..self.out_len {
                let yrow = yf.row(s * self.out_len + p);
                for (o, &v) in yrow.iter().enumerate() {
                    orow[o * self.out_len + p] = v;
                }
            }
        }
        (out, Cache { m: cmat, idx: Vec::new() })
    }

    fn infer(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.in_ch * self.in_len);
        let mut out = vec![0.0; self.out_ch * self.out_len];
        for o in 0..self.out_ch {
            let wrow = self.w.row(o);
            for p in 0..self.out_len {
                let mut acc = self.b[o];
                let base = p * self.stride;
                for c in 0..self.in_ch {
                    let xs = &x[c * self.in_len + base..c * self.in_len + base + self.kernel];
                    acc += dot(&wrow[c * self.kernel..(c + 1) * self.kernel], xs);
                }
                out[o * self.out_len + p] = acc;
            }
        }
        out
    }

    fn backward(&self, cache: &Cache, grad: &Matrix, grads: &mut LayerGrads) -> Matrix {
        let n = grad.rows;
        // Gather the channel-major gradient into im2col row order.
        let mut gf = Matrix::zeros(n * self.out_len, self.out_ch);
        for s in 0..n {
            let grow = grad.row(s);
            for p in 0..self.out_len {
                let frow = gf.row_mut(s * self.out_len + p);
                for (o, f) in frow.iter_mut().enumerate() {
                    *f = grow[o * self.out_len + p];
                }
            }
        }
        // gW += Gᵀ · C, gb += column sums of G.
        let gm = gf.t_matmul(&cache.m);
        axpy(1.0, &gm.data, &mut grads.gw);
        gf.add_col_sums(&mut grads.gb);
        // gX: col2im scatter-add of gC = G · W.
        let gc = gf.matmul(&self.w);
        let mut gx = Matrix::zeros(n, self.in_ch * self.in_len);
        for s in 0..n {
            let xrow = gx.row_mut(s);
            for p in 0..self.out_len {
                let crow = gc.row(s * self.out_len + p);
                let base = p * self.stride;
                for c in 0..self.in_ch {
                    axpy(
                        1.0,
                        &crow[c * self.kernel..(c + 1) * self.kernel],
                        &mut xrow[c * self.in_len + base..c * self.in_len + base + self.kernel],
                    );
                }
            }
        }
        gx
    }

    fn step(&mut self, grads: &LayerGrads, batch: usize) {
        let s = 1.0 / batch.max(1) as f64;
        self.opt_w.step_scaled(&mut self.w.data, &grads.gw, s);
        self.opt_b.step_scaled(&mut self.b, &grads.gb, s);
    }

    fn grad_dims(&self) -> (usize, usize) {
        (self.w.data.len(), self.b.len())
    }

    fn num_params(&self) -> usize {
        self.w.data.len() + self.b.len()
    }

    fn write(&self, out: &mut ByteWriter) {
        out.put_u8(TAG_CONV1D);
        out.put_usize(self.in_ch);
        out.put_usize(self.in_len);
        out.put_usize(self.out_ch);
        out.put_usize(self.kernel);
        out.put_usize(self.stride);
        out.put_f64(self.opt_w.lr);
        out.put_matrix(&self.w);
        out.put_f64s(&self.b);
    }
}

/// 1-D max pooling over `(channels, length)` channel-major data.
pub struct MaxPool1d {
    ch: usize,
    in_len: usize,
    size: usize,
    out_len: usize,
}

impl MaxPool1d {
    /// Pools windows of `size` (stride = size). The final window is
    /// truncated when `size` does not divide `in_len`, so the output is
    /// never empty.
    pub fn new(ch: usize, in_len: usize, size: usize) -> MaxPool1d {
        MaxPool1d {
            ch,
            in_len,
            size,
            out_len: in_len.div_ceil(size).max(1),
        }
    }

    /// Output size (`ch * out_len`).
    pub fn output_size(&self) -> usize {
        self.ch * self.out_len
    }

    /// Pools one sample; appends within-row argmax indices to `arg`.
    fn pool_row(&self, x: &[f64], out: &mut [f64], arg: &mut Vec<usize>) {
        for c in 0..self.ch {
            for p in 0..self.out_len {
                let start = p * self.size;
                let end = ((p + 1) * self.size).min(self.in_len);
                let base = c * self.in_len + start;
                let mut best = base;
                for k in 1..end.saturating_sub(start) {
                    if x[base + k] > x[best] {
                        best = base + k;
                    }
                }
                out[c * self.out_len + p] = x[best];
                arg.push(best);
            }
        }
    }
}

impl Layer for MaxPool1d {
    fn forward(&self, x: Matrix, _ctx: &BatchCtx) -> (Matrix, Cache) {
        let mut out = Matrix::zeros(x.rows, self.output_size());
        let mut arg = Vec::with_capacity(x.rows * self.output_size());
        for s in 0..x.rows {
            self.pool_row(x.row(s), out.row_mut(s), &mut arg);
        }
        (out, Cache { m: Matrix::zeros(x.rows, 0), idx: arg })
    }

    fn infer(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.output_size()];
        let mut arg = Vec::new();
        self.pool_row(x, &mut out, &mut arg);
        out
    }

    fn backward(&self, cache: &Cache, grad: &Matrix, _grads: &mut LayerGrads) -> Matrix {
        let mut gx = Matrix::zeros(grad.rows, self.ch * self.in_len);
        let per_row = self.output_size();
        for s in 0..grad.rows {
            let grow = grad.row(s);
            let xrow = gx.row_mut(s);
            for (i, &a) in cache.idx[s * per_row..(s + 1) * per_row].iter().enumerate() {
                xrow[a] += grow[i];
            }
        }
        gx
    }

    fn step(&mut self, _grads: &LayerGrads, _batch: usize) {}

    fn grad_dims(&self) -> (usize, usize) {
        (0, 0)
    }

    fn num_params(&self) -> usize {
        0
    }

    fn write(&self, out: &mut ByteWriter) {
        out.put_u8(TAG_MAXPOOL1D);
        out.put_usize(self.ch);
        out.put_usize(self.in_len);
        out.put_usize(self.size);
    }
}

/// A sequential network trained with softmax cross-entropy.
pub struct Net {
    /// The layer stack; the final layer must output `n_classes` logits.
    pub layers: Vec<Box<dyn Layer>>,
    /// Number of classes.
    pub n_classes: usize,
}

impl Net {
    /// Batched forward pass through all layers; returns the logits batch
    /// and per-layer activation caches for [`Net::backward_batch`].
    pub fn forward_batch(&self, x: Matrix, ctx: &BatchCtx) -> (Matrix, Vec<Cache>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut cur = x;
        for l in &self.layers {
            let (y, c) = l.forward(cur, ctx);
            caches.push(c);
            cur = y;
        }
        (cur, caches)
    }

    /// Batched backward pass from the logits gradient; accumulates
    /// parameter gradients into `grads` and returns the input gradient.
    pub fn backward_batch(
        &self,
        caches: &[Cache],
        grad: Matrix,
        grads: &mut [LayerGrads],
    ) -> Matrix {
        let mut cur = grad;
        for (li, l) in self.layers.iter().enumerate().rev() {
            cur = l.backward(&caches[li], &cur, &mut grads[li]);
        }
        cur
    }

    /// Eval-mode batched logits: [`Net::forward_batch`] with an eval
    /// context, caches discarded — the inference fast path through the
    /// blocked GEMM kernels. Pure; safe from many threads at once.
    pub fn logits_batch(&self, x: Matrix) -> Matrix {
        self.forward_batch(x, &BatchCtx::eval()).0
    }

    /// Argmax label per row of the eval-mode batched logits.
    pub fn predict_rows(&self, x: Matrix) -> Vec<usize> {
        let logits = self.logits_batch(x);
        (0..logits.rows).map(|r| argmax(logits.row(r))).collect()
    }

    /// Softmax probabilities per row of the eval-mode batched logits.
    pub fn proba_rows(&self, x: Matrix) -> Vec<Vec<f64>> {
        let mut logits = self.logits_batch(x);
        let mut out = Vec::with_capacity(logits.rows);
        for r in 0..logits.rows {
            let row = logits.row_mut(r);
            softmax_inplace(row);
            out.push(row.to_vec());
        }
        out
    }

    /// Pure eval-mode forward pass; safe to call from many threads at once.
    pub fn infer(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        for l in &self.layers {
            cur = l.infer(&cur);
        }
        cur
    }

    /// Allocates zeroed gradient accumulators, one per layer.
    pub fn grad_buffers(&self) -> Vec<LayerGrads> {
        self.layers.iter().map(|l| LayerGrads::new(l.grad_dims())).collect()
    }

    /// Applies accumulated gradients (scaled by `1/batch`) and clears
    /// `grads` in place for the next minibatch.
    pub fn step(&mut self, grads: &mut [LayerGrads], batch: usize) {
        for (l, g) in self.layers.iter_mut().zip(grads.iter_mut()) {
            l.step(g, batch);
            g.clear();
        }
    }

    /// Batched cross-entropy: returns the summed loss and the per-row
    /// logits gradient.
    pub fn batch_loss_grad(logits: &Matrix, ys: &[usize]) -> (f64, Matrix) {
        let mut grad = logits.clone();
        let mut total = 0.0;
        for (r, &y) in ys.iter().enumerate() {
            let row = grad.row_mut(r);
            softmax_inplace(row);
            total += -(row[y].max(1e-12)).ln();
            row[y] -= 1.0;
        }
        (total, grad)
    }

    /// Computes the summed loss and parameter gradients of one micro-batch
    /// (`idxs` indexes into the dataset). Pure (`&self`), so micro-batches
    /// run on worker threads; dropout seeds derive from
    /// `(seed, epoch, dataset index)` and are scheduling-independent.
    pub fn micro_grads(
        &self,
        x: &[Vec<f64>],
        y: &[usize],
        idxs: &[usize],
        epoch: usize,
        seed: u64,
    ) -> (f64, Vec<LayerGrads>) {
        let rows: Vec<&[f64]> = idxs.iter().map(|&i| x[i].as_slice()).collect();
        let input = Matrix::from_rows(&rows);
        let ctx = BatchCtx::train(
            idxs.iter().map(|&i| mix3(seed, epoch as u64, i as u64)).collect(),
        );
        let (logits, caches) = self.forward_batch(input, &ctx);
        let ys: Vec<usize> = idxs.iter().map(|&i| y[i]).collect();
        let (loss, grad) = Net::batch_loss_grad(&logits, &ys);
        let mut grads = self.grad_buffers();
        self.backward_batch(&caches, grad, &mut grads);
        (loss, grads)
    }

    /// Trains on `(x, y)` and returns the final epoch's mean loss, using
    /// [`yali_par::worker_count`] threads.
    pub fn fit(
        &mut self,
        x: &[Vec<f64>],
        y: &[usize],
        epochs: usize,
        batch: usize,
        seed: u64,
    ) -> f64 {
        self.fit_with_threads(x, y, epochs, batch, seed, yali_par::worker_count())
    }

    /// [`Net::fit`] with an explicit thread count. Each minibatch is split
    /// into fixed [`MICRO_BATCH`]-sample micro-batches whose gradients are
    /// computed in parallel and merged in index order, so the trained
    /// weights are byte-identical at every `threads` value.
    pub fn fit_with_threads(
        &mut self,
        x: &[Vec<f64>],
        y: &[usize],
        epochs: usize,
        batch: usize,
        seed: u64,
        threads: usize,
    ) -> f64 {
        if x.is_empty() {
            return f64::INFINITY;
        }
        let _fit_span = yali_obs::span!("ml.net.fit");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..x.len()).collect();
        let mut acc = self.grad_buffers();
        let mut last = f64::INFINITY;
        let params = self.num_params();
        for epoch in 0..epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for chunk in order.chunks(batch.max(1)) {
                let micros: Vec<&[usize]> = chunk.chunks(MICRO_BATCH).collect();
                let t = step_threads(threads, micros.len(), params * chunk.len());
                let results = yali_par::par_map_with(t, &micros, |_, m| {
                    self.micro_grads(x, y, m, epoch, seed)
                });
                for (loss, gs) in results {
                    total += loss;
                    for (a, g) in acc.iter_mut().zip(&gs) {
                        a.add(g);
                    }
                }
                self.step(&mut acc, chunk.len());
            }
            last = total / x.len() as f64;
            // Epoch-loss accounting in milli-nats: a histogram gives the
            // count (epochs run) and the loss trajectory's sum/max without
            // perturbing the f64 loss itself.
            yali_obs::count!("ml.net.epochs", 1);
            yali_obs::record!("ml.net.epoch_loss_millis", to_millis(last));
        }
        last
    }

    /// Predicts the class of one sample.
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.infer(x))
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Serializes the network for the model store.
    pub fn write(&self, out: &mut ByteWriter) {
        out.put_usize(self.n_classes);
        out.put_usize(self.layers.len());
        for l in &self.layers {
            l.write(out);
        }
    }

    /// Reads a network back from a model-store blob.
    pub fn read(r: &mut ByteReader) -> Net {
        let n_classes = r.get_usize();
        let n_layers = r.get_usize();
        let layers = (0..n_layers).map(|_| read_layer(r)).collect();
        Net { layers, n_classes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ring_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        // Class 0 inside radius 1, class 1 outside — not linearly separable.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for k in 0..80 {
            let a = k as f64 * 0.6;
            let r = if k % 2 == 0 { 0.5 } else { 2.0 };
            x.push(vec![r * a.cos(), r * a.sin()]);
            y.push(k % 2);
        }
        (x, y)
    }

    // Wide enough that `params × batch` crosses PAR_MIN_WORK at batch 32,
    // so the byte-identity proptest exercises the threaded path for real.
    fn ring_mlp(seed: u64) -> Net {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Net {
            layers: vec![
                Box::new(Dense::new(2, 96, 0.01, &mut rng)),
                Box::new(Relu),
                Box::new(Dropout::new(0.1, 7)),
                Box::new(Dense::new(96, 96, 0.01, &mut rng)),
                Box::new(Relu),
                Box::new(Dense::new(96, 2, 0.01, &mut rng)),
            ],
            n_classes: 2,
        }
    }

    fn net_bytes(net: &Net) -> Vec<u8> {
        let mut w = ByteWriter::new();
        net.write(&mut w);
        w.into_bytes()
    }

    #[test]
    fn mlp_learns_a_ring() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = Net {
            layers: vec![
                Box::new(Dense::new(2, 32, 0.01, &mut rng)),
                Box::new(Relu),
                Box::new(Dense::new(32, 2, 0.01, &mut rng)),
            ],
            n_classes: 2,
        };
        let (x, y) = ring_data();
        net.fit(&x, &y, 120, 16, 1);
        let pred: Vec<usize> = x.iter().map(|v| net.predict(v)).collect();
        assert!(crate::metrics::accuracy(&pred, &y) > 0.95);
    }

    #[test]
    fn loss_decreases() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = Net {
            layers: vec![
                Box::new(Dense::new(2, 16, 0.01, &mut rng)),
                Box::new(Relu),
                Box::new(Dense::new(16, 2, 0.01, &mut rng)),
            ],
            n_classes: 2,
        };
        let (x, y) = ring_data();
        let early = net.fit(&x, &y, 3, 16, 1);
        let late = net.fit(&x, &y, 100, 16, 1);
        assert!(late < early, "{late} !< {early}");
    }

    #[test]
    fn conv_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let conv = Conv1d::new(2, 10, 4, 3, 1, 0.01, &mut rng);
        assert_eq!(conv.output_size(), 4 * 8);
        let x = Matrix::from_fn(3, 20, |r, c| 0.5 + (r * 20 + c) as f64 * 0.01);
        let (out, cache) = conv.forward(x, &BatchCtx::eval());
        assert_eq!((out.rows, out.cols), (3, 32));
        let mut grads = LayerGrads::new(conv.grad_dims());
        let gx = conv.backward(&cache, &Matrix::from_fn(3, 32, |_, _| 1.0), &mut grads);
        assert_eq!((gx.rows, gx.cols), (3, 20));
    }

    #[test]
    fn batched_forward_matches_per_sample_infer() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let conv = Conv1d::new(1, 16, 4, 5, 1, 0.01, &mut rng);
        let pool = MaxPool1d::new(4, 12, 2);
        let p_out = pool.output_size();
        let net = Net {
            layers: vec![
                Box::new(conv),
                Box::new(Relu),
                Box::new(pool),
                Box::new(Dense::new(p_out, 3, 0.01, &mut rng)),
            ],
            n_classes: 3,
        };
        let x = Matrix::from_fn(5, 16, |r, c| ((r * 7 + c * 3) % 11) as f64 * 0.1 - 0.4);
        let (batched, _) = net.forward_batch(x.clone(), &BatchCtx::eval());
        for r in 0..x.rows {
            let single = net.infer(x.row(r));
            for (a, b) in batched.row(r).iter().zip(&single) {
                assert!((a - b).abs() < 1e-12, "row {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn conv_net_trains_on_patterns() {
        // Class by whether the spike is in the first or second half.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for k in 0..60 {
            let mut v = vec![0.0; 16];
            let pos = if k % 2 == 0 { k % 6 } else { 8 + k % 6 };
            v[pos] = 1.0;
            x.push(v);
            y.push(k % 2);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let conv = Conv1d::new(1, 16, 4, 5, 1, 0.01, &mut rng);
        let c_out = conv.output_size();
        let pool = MaxPool1d::new(4, 12, 2);
        let p_out = pool.output_size();
        let mut net = Net {
            layers: vec![
                Box::new(conv),
                Box::new(Relu),
                Box::new(pool),
                Box::new(Dense::new(p_out, 2, 0.01, &mut rng)),
            ],
            n_classes: 2,
        };
        assert_eq!(c_out, 4 * 12);
        net.fit(&x, &y, 60, 8, 1);
        let pred: Vec<usize> = x.iter().map(|v| net.predict(v)).collect();
        assert!(crate::metrics::accuracy(&pred, &y) > 0.9);
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let pool = MaxPool1d::new(1, 4, 2);
        let x = Matrix::from_rows(&[&[1.0, 5.0, 2.0, 0.5]]);
        let (out, cache) = pool.forward(x, &BatchCtx::eval());
        assert_eq!(out.data, vec![5.0, 2.0]);
        let mut grads = LayerGrads::default();
        let gx = pool.backward(&cache, &Matrix::from_rows(&[&[1.0, 1.0]]), &mut grads);
        assert_eq!(gx.data, vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn dropout_is_identity_at_eval() {
        let d = Dropout::new(0.5, 0);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let (out, _) = d.forward(x.clone(), &BatchCtx::eval());
        assert_eq!(out, x);
        assert_eq!(d.infer(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropout_masks_depend_only_on_sample_seed() {
        let d = Dropout::new(0.5, 3);
        let x = Matrix::from_fn(2, 64, |_, _| 1.0);
        // The same sample seeds give the same masks regardless of row
        // position or batch composition.
        let (a, _) = d.forward(x.clone(), &BatchCtx::train(vec![11, 22]));
        let (b, _) = d.forward(x.clone(), &BatchCtx::train(vec![22, 11]));
        assert_eq!(a.row(0), b.row(1));
        assert_eq!(a.row(1), b.row(0));
        // Different layer salts decorrelate.
        let d2 = Dropout::new(0.5, 4);
        let (c, _) = d2.forward(x, &BatchCtx::train(vec![11, 22]));
        assert_ne!(a.row(0), c.row(0));
    }

    #[test]
    fn param_counts() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = Net {
            layers: vec![
                Box::new(Dense::new(10, 5, 0.01, &mut rng)),
                Box::new(Relu),
                Box::new(Dense::new(5, 3, 0.01, &mut rng)),
            ],
            n_classes: 3,
        };
        assert_eq!(net.num_params(), 10 * 5 + 5 + 5 * 3 + 3);
    }

    #[test]
    fn serialization_round_trips_predictions() {
        let (x, y) = ring_data();
        let mut net = ring_mlp(1);
        net.fit(&x, &y, 20, 16, 2);
        let bytes = net_bytes(&net);
        let restored = Net::read(&mut ByteReader::new(&bytes));
        assert_eq!(restored.n_classes, 2);
        for v in &x {
            assert_eq!(net.infer(v), restored.infer(v), "logits must match exactly");
        }
        assert_eq!(net_bytes(&restored), bytes, "re-serialization is stable");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        // The determinism contract of the data-parallel trainer: fixed
        // decomposition + index-order merge makes the trained weights
        // byte-identical at every thread count.
        #[test]
        fn fixed_seed_training_is_byte_identical_across_thread_counts(seed in 0u64..512) {
            let (x, y) = ring_data();
            let mut serial = ring_mlp(seed);
            serial.fit_with_threads(&x, &y, 4, 32, seed ^ 1, 1);
            let want = net_bytes(&serial);
            for threads in [2usize, 8] {
                let mut par = ring_mlp(seed);
                par.fit_with_threads(&x, &y, 4, 32, seed ^ 1, threads);
                prop_assert_eq!(&net_bytes(&par), &want, "threads={}", threads);
            }
        }
    }
}
