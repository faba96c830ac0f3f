//! The `dgcnn` model: Zhang et al.'s Deep Graph Convolutional Neural
//! Network (paper, Section 3.2), the only model that consumes graph-shaped
//! program embeddings.
//!
//! Architecture, as in the paper:
//!
//! 1. four graph-convolution layers with 32, 32, 32 and 1 units, tanh
//!    activation (`Z_i = tanh(D⁻¹(A+I) Z_{i-1} W_i)`);
//! 2. SortPooling: nodes sorted by the final 1-unit channel, the top `k`
//!    kept (zero-padded), channels concatenated;
//! 3. a 1-D convolution with stride = total channel count (one step per
//!    node), max pooling, a second 1-D convolution;
//! 4. a dense layer with dropout and a final dense classifier.
//!
//! Everything is trained end to end with manual backpropagation. Training
//! follows the same deterministic data-parallel scheme as [`Net::fit`]:
//! minibatches split into fixed micro-batches, per-micro gradients computed
//! purely (`&self`) on worker threads — graph passes per sample, the tail
//! as one batched GEMM pass — and merged in index order, so the fitted
//! model is byte-identical at every thread count.

use crate::linalg::{axpy, Adam, Matrix};
use crate::nn::{
    mix3, step_threads, BatchCtx, Conv1d, Dense, Dropout, Layer, LayerGrads, MaxPool1d, Net, Relu,
    MICRO_BATCH,
};
use crate::serialize::{ByteReader, ByteWriter};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A graph sample: node features plus an edge list (directions are
/// symmetrized internally).
#[derive(Debug, Clone)]
pub struct GraphSample {
    /// Per-node feature rows (uniform length).
    pub feats: Vec<Vec<f64>>,
    /// Directed edges `(src, dst)`.
    pub edges: Vec<(usize, usize)>,
}

/// DGCNN hyperparameters.
#[derive(Debug, Clone)]
pub struct DgcnnConfig {
    /// Units per graph-convolution layer (the paper's 32/32/32/1).
    pub channels: Vec<usize>,
    /// SortPooling size.
    pub k: usize,
    /// Dense width in the tail.
    pub dense: usize,
    /// Dropout probability.
    pub dropout: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DgcnnConfig {
    fn default() -> Self {
        DgcnnConfig {
            channels: vec![32, 32, 32, 1],
            k: 12,
            dense: 128,
            dropout: 0.5,
            epochs: 30,
            batch: 16,
            lr: 0.003,
            seed: 0,
        }
    }
}

/// One graph-convolution layer. Gradients live in trainer-owned buffers
/// (like [`LayerGrads`] for the tail); the optimizer's moment buffers are
/// hoisted in [`Adam`], so a training step allocates nothing.
struct GraphConv {
    w: Matrix, // d_in × d_out
    opt: Adam,
}

/// Compressed-sparse-row adjacency: the neighbours of node `v` are
/// `indices[offsets[v]..offsets[v+1]]`, sorted ascending and deduplicated.
/// Two flat arrays instead of a `Vec` per node, so the aggregation inner
/// loops walk contiguous memory — and a chunk of graphs stacks into one
/// block-diagonal `Csr` for the batched forward.
struct Csr {
    offsets: Vec<usize>,
    indices: Vec<usize>,
}

impl Csr {
    /// Packs per-node adjacency lists (kept in their given order).
    fn from_adj(adj: &[Vec<usize>]) -> Csr {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        offsets.push(0);
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut indices = Vec::with_capacity(total);
        for l in adj {
            indices.extend_from_slice(l);
            offsets.push(indices.len());
        }
        Csr { offsets, indices }
    }

    /// The (sorted) neighbour slice of node `v`.
    fn neighbours(&self, v: usize) -> &[usize] {
        &self.indices[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// A fitted DGCNN.
pub struct Dgcnn {
    convs: Vec<GraphConv>,
    tail: Net,
    k: usize,
    total_ch: usize,
    in_dim: usize,
}

/// Row-normalized aggregation: `out[v] = (x[v] + Σ_{u∈N(v)} x[u]) / (1+|N(v)|)`.
#[allow(clippy::needless_range_loop)] // index form mirrors the formula
fn aggregate(x: &Matrix, adj: &Csr) -> Matrix {
    let mut out = Matrix::zeros(x.rows, x.cols);
    for v in 0..x.rows {
        let row = x.row(v).to_vec();
        let o = out.row_mut(v);
        for (oo, &xv) in o.iter_mut().zip(&row) {
            *oo = xv;
        }
        let neigh = adj.neighbours(v);
        for &u in neigh {
            for (oo, &xu) in o.iter_mut().zip(x.row(u)) {
                *oo += xu;
            }
        }
        let norm = 1.0 / (1 + neigh.len()) as f64;
        for oo in o.iter_mut() {
            *oo *= norm;
        }
    }
    out
}

/// Transpose of [`aggregate`] for backprop: routes each node's gradient to
/// itself and its neighbours with the *receiver's* normalization.
#[allow(clippy::needless_range_loop)] // index form mirrors the formula
fn aggregate_t(g: &Matrix, adj: &Csr) -> Matrix {
    let mut out = Matrix::zeros(g.rows, g.cols);
    for v in 0..g.rows {
        let neigh = adj.neighbours(v);
        let norm = 1.0 / (1 + neigh.len()) as f64;
        let grow: Vec<f64> = g.row(v).iter().map(|x| x * norm).collect();
        for (oo, gg) in out.row_mut(v).iter_mut().zip(&grow) {
            *oo += gg;
        }
        for &u in neigh {
            for (oo, gg) in out.row_mut(u).iter_mut().zip(&grow) {
                *oo += gg;
            }
        }
    }
    out
}

fn neighbours(g: &GraphSample) -> Vec<Vec<usize>> {
    let n = g.feats.len();
    let mut neigh = vec![Vec::new(); n];
    for &(s, d) in &g.edges {
        if s < n && d < n && s != d {
            neigh[s].push(d);
            neigh[d].push(s);
        }
    }
    for l in &mut neigh {
        l.sort_unstable();
        l.dedup();
    }
    neigh
}

/// Symmetrized, deduplicated adjacency as CSR; a feature-less graph gets
/// one padded zero node (matching the forward pass).
fn adjacency(g: &GraphSample) -> Csr {
    if g.feats.is_empty() {
        Csr::from_adj(&[Vec::new()])
    } else {
        Csr::from_adj(&neighbours(g))
    }
}

struct ForwardCache {
    neigh: Csr,
    /// Aggregated inputs per layer (`S_i = Â H_{i-1}`).
    aggs: Vec<Matrix>,
    /// Activations per layer (`Z_i = tanh(S_i W_i)`).
    zs: Vec<Matrix>,
    /// Selected node order after SortPooling.
    order: Vec<usize>,
    flat: Vec<f64>,
}

impl Dgcnn {
    /// Trains a DGCNN on graph samples with labels in `0..n_classes`,
    /// using [`yali_par::worker_count`] threads.
    ///
    /// # Panics
    ///
    /// Panics on an empty training set or inconsistent feature widths.
    pub fn fit(graphs: &[GraphSample], y: &[usize], n_classes: usize, config: &DgcnnConfig) -> Dgcnn {
        Dgcnn::fit_with_threads(graphs, y, n_classes, config, yali_par::worker_count())
    }

    /// [`Dgcnn::fit`] with an explicit thread count; the fitted model is
    /// byte-identical at every `threads` value.
    ///
    /// # Panics
    ///
    /// Panics on an empty training set or inconsistent feature widths.
    pub fn fit_with_threads(
        graphs: &[GraphSample],
        y: &[usize],
        n_classes: usize,
        config: &DgcnnConfig,
        threads: usize,
    ) -> Dgcnn {
        assert!(!graphs.is_empty(), "empty training set");
        assert_eq!(graphs.len(), y.len());
        let in_dim = graphs[0].feats.first().map(Vec::len).unwrap_or(1);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut convs = Vec::new();
        let mut d = in_dim;
        for &c in &config.channels {
            let scale = (2.0 / (d + c) as f64).sqrt();
            convs.push(GraphConv {
                w: Matrix::from_fn(d, c, |_, _| (rng.gen::<f64>() * 2.0 - 1.0) * scale),
                opt: Adam::new(d * c, config.lr),
            });
            d = c;
        }
        let total_ch: usize = config.channels.iter().sum();
        // Tail: conv over the k sorted nodes (kernel = channel count,
        // stride = channel count), pool, conv, dense, dropout, classifier.
        let flat_len = config.k * total_ch;
        let conv1 = Conv1d::new(1, flat_len, 16, total_ch, total_ch, config.lr, &mut rng);
        let len1 = conv1.output_size() / 16; // == k
        let pool = MaxPool1d::new(16, len1, 2);
        let len2 = len1.div_ceil(2).max(1);
        let k2 = 5.min(len2);
        let conv2 = Conv1d::new(16, len2, 32, k2, 1, config.lr, &mut rng);
        let flat2 = conv2.output_size();
        let tail_layers: Vec<Box<dyn Layer>> = vec![
            Box::new(conv1),
            Box::new(Relu),
            Box::new(pool),
            Box::new(conv2),
            Box::new(Relu),
            Box::new(Dense::new(flat2, config.dense, config.lr, &mut rng)),
            Box::new(Relu),
            Box::new(Dropout::new(config.dropout, config.seed ^ 0xD6)),
            Box::new(Dense::new(config.dense, n_classes, config.lr, &mut rng)),
        ];
        let mut model = Dgcnn {
            convs,
            tail: Net {
                layers: tail_layers,
                n_classes,
            },
            k: config.k,
            total_ch,
            in_dim,
        };
        // Deterministic data-parallel training: the minibatch decomposition
        // into MICRO_BATCH-sample micro-batches is fixed, micro-gradients
        // are computed purely on worker threads, and the merge walks them
        // in index order — so the weights do not depend on `threads`.
        let seed = config.seed ^ 0xBEEF;
        let mut order: Vec<usize> = (0..graphs.len()).collect();
        let mut rng2 = ChaCha8Rng::seed_from_u64(seed);
        let mut tail_acc = model.tail.grad_buffers();
        let mut conv_acc: Vec<Matrix> = model
            .convs
            .iter()
            .map(|c| Matrix::zeros(c.w.rows, c.w.cols))
            .collect();
        let params = model.num_params();
        let _fit_span = yali_obs::span!("ml.dgcnn.fit");
        for epoch in 0..config.epochs {
            order.shuffle(&mut rng2);
            let mut total = 0.0;
            for chunk in order.chunks(config.batch.max(1)) {
                let micros: Vec<&[usize]> = chunk.chunks(MICRO_BATCH).collect();
                let t = step_threads(threads, micros.len(), params * chunk.len());
                let results = yali_par::par_map_with(t, &micros, |_, m| {
                    model.micro_grads(graphs, y, m, epoch, seed)
                });
                for (loss, tg, cg) in results {
                    total += loss;
                    for (a, g) in tail_acc.iter_mut().zip(&tg) {
                        a.add(g);
                    }
                    for (a, g) in conv_acc.iter_mut().zip(&cg) {
                        axpy(1.0, &g.data, &mut a.data);
                    }
                }
                let s = 1.0 / chunk.len().max(1) as f64;
                model.tail.step(&mut tail_acc, chunk.len());
                for (conv, acc) in model.convs.iter_mut().zip(conv_acc.iter_mut()) {
                    // The fused step folds the 1/batch scale into the Adam
                    // update and the accumulator is zeroed in place — no
                    // per-step reallocation.
                    conv.opt.step_scaled(&mut conv.w.data, &acc.data, s);
                    acc.data.iter_mut().for_each(|g| *g = 0.0);
                }
            }
            yali_obs::count!("ml.dgcnn.epochs", 1);
            yali_obs::record!(
                "ml.dgcnn.epoch_loss_millis",
                crate::nn::to_millis(total / graphs.len() as f64)
            );
        }
        model
    }

    /// Gradients of one micro-batch: per-sample graph passes, one batched
    /// tail pass. Pure (`&self`), so micro-batches run on worker threads.
    fn micro_grads(
        &self,
        graphs: &[GraphSample],
        y: &[usize],
        idxs: &[usize],
        epoch: usize,
        seed: u64,
    ) -> (f64, Vec<LayerGrads>, Vec<Matrix>) {
        let caches: Vec<ForwardCache> = idxs.iter().map(|&i| self.forward_graph(&graphs[i])).collect();
        let flats: Vec<&[f64]> = caches.iter().map(|c| c.flat.as_slice()).collect();
        let input = Matrix::from_rows(&flats);
        let ctx = BatchCtx::train(
            idxs.iter().map(|&i| mix3(seed, epoch as u64, i as u64)).collect(),
        );
        let (logits, tail_caches) = self.tail.forward_batch(input, &ctx);
        let ys: Vec<usize> = idxs.iter().map(|&i| y[i]).collect();
        let (loss, grad) = Net::batch_loss_grad(&logits, &ys);
        let mut tail_grads = self.tail.grad_buffers();
        let dflat = self.tail.backward_batch(&tail_caches, grad, &mut tail_grads);
        let mut conv_grads: Vec<Matrix> = self
            .convs
            .iter()
            .map(|c| Matrix::zeros(c.w.rows, c.w.cols))
            .collect();
        for (r, cache) in caches.iter().enumerate() {
            self.graph_grads(cache, dflat.row(r), &mut conv_grads);
        }
        (loss, tail_grads, conv_grads)
    }

    /// Pure forward pass of the graph half (graph convolutions plus
    /// SortPooling); the tail consumes `flat`.
    fn forward_graph(&self, g: &GraphSample) -> ForwardCache {
        let n = g.feats.len().max(1);
        let neigh = adjacency(g);
        let mut h = Matrix::zeros(n, self.in_dim);
        for (r, row) in g.feats.iter().enumerate() {
            for (c, &v) in row.iter().enumerate().take(self.in_dim) {
                h.set(r, c, v);
            }
        }
        let mut aggs = Vec::with_capacity(self.convs.len());
        let mut zs = Vec::with_capacity(self.convs.len());
        for conv in &self.convs {
            let s = aggregate(&h, &neigh);
            let mut z = s.matmul(&conv.w);
            z.map_inplace(f64::tanh);
            aggs.push(s);
            h = z.clone();
            zs.push(z);
        }
        // SortPooling on the final single-channel layer.
        let last = zs.last().expect("at least one conv layer");
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| last.get(b, 0).total_cmp(&last.get(a, 0)).then(a.cmp(&b)));
        idx.truncate(self.k);
        let mut flat = vec![0.0; self.k * self.total_ch];
        for (slot, &node) in idx.iter().enumerate() {
            let mut off = 0;
            for z in &zs {
                for c in 0..z.cols {
                    flat[slot * self.total_ch + off + c] = z.get(node, c);
                }
                off += z.cols;
            }
        }
        ForwardCache {
            neigh,
            aggs,
            zs,
            order: idx,
            flat,
        }
    }

    /// Backprop from the flattened SortPooling gradient into per-layer
    /// graph-convolution weight gradients, accumulated into `acc`. Pure
    /// (`&self`): the trainer owns the accumulators.
    fn graph_grads(&self, cache: &ForwardCache, dflat: &[f64], acc: &mut [Matrix]) {
        let n = cache.zs[0].rows;
        // Per-layer pooled gradients.
        let mut dz: Vec<Matrix> = self
            .convs
            .iter()
            .map(|c| Matrix::zeros(n, c.w.cols))
            .collect();
        for (slot, &node) in cache.order.iter().enumerate() {
            let mut off = 0;
            for (li, z) in cache.zs.iter().enumerate() {
                for c in 0..z.cols {
                    let g = dflat[slot * self.total_ch + off + c];
                    if g != 0.0 {
                        let cur = dz[li].get(node, c);
                        dz[li].set(node, c, cur + g);
                    }
                }
                off += z.cols;
            }
        }
        // Walk layers backwards, adding the chained gradient into dz[i-1].
        for li in (0..self.convs.len()).rev() {
            // ds = dz ∘ (1 - z²)
            let mut ds = dz[li].clone();
            for (d, z) in ds.data.iter_mut().zip(&cache.zs[li].data) {
                *d *= 1.0 - z * z;
            }
            // gW += S^T ds
            let gw = cache.aggs[li].t_matmul(&ds);
            axpy(1.0, &gw.data, &mut acc[li].data);
            if li > 0 {
                // dH_{i-1} = Â^T (ds W^T)
                let dh = ds.matmul_t(&self.convs[li].w);
                let routed = aggregate_t(&dh, &cache.neigh);
                axpy(1.0, &routed.data, &mut dz[li - 1].data);
            }
        }
    }

    /// Predicts the class of one graph, through the same stacked batched
    /// forward as [`Dgcnn::predict_batch`] on a one-graph chunk. Pure:
    /// safe to call concurrently.
    pub fn predict(&self, g: &GraphSample) -> usize {
        self.predict_chunk(&[g])[0]
    }

    /// Predicts a whole batch of graphs: fixed-size chunks dispatched on
    /// `yali-par` workers and merged in index order, each chunk stacked
    /// into one block-diagonal CSR forward — byte-identical to a
    /// per-graph [`Dgcnn::predict`] loop at any `YALI_THREADS`.
    pub fn predict_batch(&self, gs: &[GraphSample]) -> Vec<usize> {
        self.predict_batch_with_threads(gs, yali_par::worker_count())
    }

    /// [`Dgcnn::predict_batch`] with an explicit worker count; the chunk
    /// decomposition is fixed, so results do not depend on `threads`.
    pub fn predict_batch_with_threads(&self, gs: &[GraphSample], threads: usize) -> Vec<usize> {
        let refs: Vec<&GraphSample> = gs.iter().collect();
        crate::chunked_map(refs.len(), threads, |lo, hi| self.predict_chunk(&refs[lo..hi]))
    }

    /// Labels for one chunk of graphs: stack all nodes into one matrix
    /// with a block-diagonal CSR adjacency, run every graph convolution
    /// as a single pass over the stacked nodes, SortPool per graph, and
    /// classify the chunk through one batched tail pass. Every per-node
    /// value matches the per-graph forward bit-for-bit (row-independent
    /// kernels), so predictions equal the per-sample path exactly.
    pub(crate) fn predict_chunk(&self, gs: &[&GraphSample]) -> Vec<usize> {
        if gs.is_empty() {
            return Vec::new();
        }
        let flat = self.sort_pooled_chunk(gs);
        self.tail.predict_rows(flat)
    }

    /// The stacked graph-half forward: one SortPooled feature row per
    /// graph in the chunk, ready for the batched tail.
    fn sort_pooled_chunk(&self, gs: &[&GraphSample]) -> Matrix {
        // Feature-less graphs pad to one zero node, as in forward_graph.
        let counts: Vec<usize> = gs.iter().map(|g| g.feats.len().max(1)).collect();
        let mut starts = Vec::with_capacity(gs.len() + 1);
        starts.push(0usize);
        for &c in &counts {
            starts.push(starts.last().unwrap() + c);
        }
        let total = *starts.last().unwrap();
        let mut h = Matrix::zeros(total, self.in_dim);
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); total];
        for (b, g) in gs.iter().enumerate() {
            let lo = starts[b];
            for (r, row) in g.feats.iter().enumerate() {
                for (c, &v) in row.iter().enumerate().take(self.in_dim) {
                    h.set(lo + r, c, v);
                }
            }
            for (v, l) in neighbours(g).into_iter().enumerate() {
                adj[lo + v] = l.into_iter().map(|u| lo + u).collect();
            }
        }
        let csr = Csr::from_adj(&adj);
        let mut zs: Vec<Matrix> = Vec::with_capacity(self.convs.len());
        let mut cur = h;
        for conv in &self.convs {
            let s = aggregate(&cur, &csr);
            let mut z = s.matmul(&conv.w);
            z.map_inplace(f64::tanh);
            cur = z.clone();
            zs.push(z);
        }
        let last = zs.last().expect("at least one conv layer");
        let mut flat = Matrix::zeros(gs.len(), self.k * self.total_ch);
        for b in 0..gs.len() {
            let (lo, n) = (starts[b], counts[b]);
            // SortPooling on local node indices, same comparator as the
            // per-graph forward: descending final channel, ascending index.
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &c| {
                last.get(lo + c, 0).total_cmp(&last.get(lo + a, 0)).then(a.cmp(&c))
            });
            idx.truncate(self.k);
            let frow = flat.row_mut(b);
            for (slot, &node) in idx.iter().enumerate() {
                let mut off = 0;
                for z in &zs {
                    for c in 0..z.cols {
                        frow[slot * self.total_ch + off + c] = z.get(lo + node, c);
                    }
                    off += z.cols;
                }
            }
        }
        flat
    }

    /// Total trainable parameters (graph convolutions plus the tail).
    pub fn num_params(&self) -> usize {
        let conv_params: usize = self.convs.iter().map(|c| c.w.data.len()).sum();
        conv_params + self.tail.num_params()
    }

    /// Approximate resident bytes (parameters + Adam moments).
    pub fn memory_bytes(&self) -> usize {
        self.num_params() * 8 * 3
    }

    /// Serializes the fitted model for the experiment engine's model
    /// store. Weights round-trip via [`f64::to_bits`], so a deserialized
    /// model classifies byte-identically to the original.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(self.k);
        w.put_usize(self.total_ch);
        w.put_usize(self.in_dim);
        w.put_usize(self.convs.len());
        for c in &self.convs {
            w.put_f64(c.opt.lr);
            w.put_matrix(&c.w);
        }
        self.tail.write(&mut w);
        w.into_bytes()
    }

    /// Deserializes a model written by [`Dgcnn::to_bytes`].
    ///
    /// # Panics
    ///
    /// Panics on a malformed blob (a model-store bug, not an input error).
    pub fn from_bytes(bytes: &[u8]) -> Dgcnn {
        let mut r = ByteReader::new(bytes);
        let k = r.get_usize();
        let total_ch = r.get_usize();
        let in_dim = r.get_usize();
        let n_convs = r.get_usize();
        let convs = (0..n_convs)
            .map(|_| {
                let lr = r.get_f64();
                let w = r.get_matrix();
                let opt = Adam::new(w.data.len(), lr);
                GraphConv { w, opt }
            })
            .collect();
        let tail = Net::read(&mut r);
        assert!(r.is_done(), "trailing bytes in model blob");
        Dgcnn {
            convs,
            tail,
            k,
            total_ch,
            in_dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Class 0: a path graph; class 1: a star graph. Node features carry a
    /// bias and the node degree (as the `yali-embed` program graphs do) —
    /// with mean aggregation over *constant* features, paths and stars
    /// would be indistinguishable.
    fn structured_graphs(n_per_class: usize) -> (Vec<GraphSample>, Vec<usize>) {
        let mut gs = Vec::new();
        let mut y = Vec::new();
        let with_degree = |n: usize, edges: &[(usize, usize)]| -> Vec<Vec<f64>> {
            let mut deg = vec![0.0; n];
            for &(s, d) in edges {
                deg[s] += 1.0;
                deg[d] += 1.0;
            }
            deg.into_iter().map(|d| vec![1.0, d / 4.0]).collect()
        };
        for k in 0..n_per_class {
            let n = 6 + (k % 3);
            let path: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            gs.push(GraphSample {
                feats: with_degree(n, &path),
                edges: path,
            });
            y.push(0);
            let star: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
            gs.push(GraphSample {
                feats: with_degree(n, &star),
                edges: star,
            });
            y.push(1);
        }
        (gs, y)
    }

    #[test]
    fn separates_paths_from_stars() {
        let (gs, y) = structured_graphs(12);
        let cfg = DgcnnConfig {
            epochs: 40,
            k: 6,
            channels: vec![8, 8, 8, 1],
            dense: 32,
            dropout: 0.1,
            ..Default::default()
        };
        let m = Dgcnn::fit(&gs, &y, 2, &cfg);
        let pred: Vec<usize> = gs.iter().map(|g| m.predict(g)).collect();
        let acc = crate::metrics::accuracy(&pred, &y);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn handles_graphs_smaller_than_k() {
        let (gs, y) = structured_graphs(4);
        let cfg = DgcnnConfig {
            epochs: 2,
            k: 32, // larger than any graph: zero padding kicks in
            channels: vec![4, 1],
            dense: 16,
            ..Default::default()
        };
        let m = Dgcnn::fit(&gs, &y, 2, &cfg);
        let _ = m.predict(&gs[0]);
    }

    #[test]
    fn empty_edge_lists_are_fine() {
        let gs = vec![
            GraphSample {
                feats: vec![vec![1.0], vec![2.0]],
                edges: vec![],
            },
            GraphSample {
                feats: vec![vec![-1.0], vec![-2.0]],
                edges: vec![],
            },
        ];
        let y = vec![0, 1];
        let cfg = DgcnnConfig {
            epochs: 5,
            k: 2,
            channels: vec![4, 1],
            dense: 8,
            dropout: 0.0,
            ..Default::default()
        };
        let m = Dgcnn::fit(&gs, &y, 2, &cfg);
        let _ = m.predict(&gs[0]);
    }

    #[test]
    fn aggregate_and_transpose_are_adjoint() {
        // <Âx, y> == <x, Â^T y> for random-ish data.
        let neigh = Csr::from_adj(&[vec![1], vec![0, 2], vec![1]]);
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64 + 0.5);
        let y = Matrix::from_fn(3, 2, |r, c| (r as f64 - c as f64) * 1.25);
        let ax = aggregate(&x, &neigh);
        let aty = aggregate_t(&y, &neigh);
        let lhs: f64 = ax.data.iter().zip(&y.data).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.data.iter().zip(&aty.data).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn memory_counts_parameters() {
        let (gs, y) = structured_graphs(2);
        let cfg = DgcnnConfig {
            epochs: 1,
            k: 4,
            channels: vec![4, 1],
            dense: 8,
            ..Default::default()
        };
        let m = Dgcnn::fit(&gs, &y, 2, &cfg);
        assert!(m.memory_bytes() > 0);
    }

    #[test]
    fn training_is_byte_identical_across_thread_counts() {
        let (gs, y) = structured_graphs(12);
        // Heavy enough that params × batch crosses the PAR_MIN_WORK gate,
        // so the threaded runs really take the parallel path.
        let cfg = DgcnnConfig {
            epochs: 2,
            k: 6,
            batch: 24,
            dense: 128,
            dropout: 0.3,
            ..Default::default()
        };
        let want = Dgcnn::fit_with_threads(&gs, &y, 2, &cfg, 1).to_bytes();
        for threads in [2usize, 8] {
            let got = Dgcnn::fit_with_threads(&gs, &y, 2, &cfg, threads).to_bytes();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn serialization_round_trips_predictions() {
        let (gs, y) = structured_graphs(6);
        let cfg = DgcnnConfig {
            epochs: 5,
            k: 6,
            channels: vec![8, 8, 1],
            dense: 32,
            ..Default::default()
        };
        let m = Dgcnn::fit(&gs, &y, 2, &cfg);
        let restored = Dgcnn::from_bytes(&m.to_bytes());
        for g in &gs {
            assert_eq!(m.predict(g), restored.predict(g));
        }
        assert_eq!(restored.to_bytes(), m.to_bytes(), "re-serialization is stable");
    }
}
