//! Dense linear-algebra kernels: row-major matrices plus the GEMM and
//! optimizer primitives the neural models train on.
//!
//! # Kernel family and dispatch
//!
//! The three products ([`Matrix::matmul`], [`Matrix::t_matmul`],
//! [`Matrix::matmul_t`]) share one GEMM core that is now a *family* of
//! kernels behind one-time CPU feature detection (see
//! [`active_kernel`]):
//!
//! * [`kernel_scalar`](self) — the original register-blocked `i–k–j`
//!   (axpy-formulation) kernel: always available, bit-identical to the
//!   pre-SIMD codebase, and the tolerance oracle for everything else.
//!   `YALI_SIMD=0` forces it.
//! * [`kernel_simd`](self) — explicit `std::arch` kernels: AVX-512F and
//!   AVX2+FMA register tiles on x86_64, NEON on aarch64. These use
//!   hardware FMA, so they differ from the scalar kernel in the last
//!   ulp; the property tests hold them bitwise against a scalar
//!   `mul_add` reference (IEEE FMA is exact, so that reference really
//!   is a bit-oracle).
//!
//! Precision policy: training and inference are `f64` (ModelCache keys
//! and the determinism proptests depend on it). The kernel choice is
//! fixed per process, so run-to-run bit-stability on one machine is
//! preserved.
//!
//! In the axpy formulation the inner loop accumulates
//! `C[i][·] += A[i][k] · B[k][·]` over two **contiguous** row slices —
//! unlike a dot-product formulation, whose single serial accumulator
//! chains every add's latency. Summation over `k` runs in a fixed
//! ascending order in every kernel, so results are bit-stable run to
//! run. `matmul` is the kernel's native layout and packs nothing;
//! `matmul_t` packs `Bᵀ` once per call with the tiled
//! [`Matrix::transpose`] — an `O(k·n)` copy against `O(m·k·n)` multiply
//! work — so its inner loop is contiguous too; `t_matmul` re-associates
//! to stream `A` rows directly, also pack-free (it stays on the scalar
//! axpy path: it runs on gradient passes where its zero-skip and
//! pack-free streaming already win).
//!
//! [`Matrix::matmul_t_bias`] is the fused inference/training path: it
//! seeds every output row with the bias vector instead of zero, saving a
//! full pass over the output (the `Dense` and `Conv1d` layers call it on
//! their batched forward).
//!
//! A naive triple-loop implementation of each product is kept under
//! `#[cfg(test)]` as the reference oracle; a property test checks the
//! dispatched kernels against it on random (including degenerate 0×N
//! and 1×1) shapes.

mod kernel_scalar;
mod kernel_simd;

pub use kernel_simd::active_kernel;

/// One member of the GEMM kernel family. [`active_kernel`] picks the
/// widest available member once per process; [`Matrix::matmul_with_kernel`]
/// lets benchmarks and tests pin a specific one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// The register-blocked scalar kernel — always available, bitwise
    /// identical to the pre-SIMD codebase.
    Scalar,
    /// AVX2 + FMA 4×8 register tiles (x86_64).
    Avx2,
    /// AVX-512F 8×16 register tiles (x86_64).
    Avx512,
    /// NEON 4×4 register tiles (aarch64 baseline).
    Neon,
}

impl GemmKernel {
    /// Whether this kernel can run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            GemmKernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            GemmKernel::Avx2 => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            GemmKernel::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            GemmKernel::Avx2 | GemmKernel::Avx512 => false,
            GemmKernel::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// Stable lowercase name, used in bench reports and counter keys.
    pub fn name(self) -> &'static str {
        match self {
            GemmKernel::Scalar => "scalar",
            GemmKernel::Avx2 => "avx2",
            GemmKernel::Avx512 => "avx512",
            GemmKernel::Neon => "neon",
        }
    }
}

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major data (`rows * cols` entries).
    pub data: Vec<f64>,
}

/// Shape-mismatch panic naming both operand shapes (kept out of line so
/// the kernels stay small).
#[cold]
#[inline(never)]
fn shape_panic(op: &str, rule: &str, a: (usize, usize), b: (usize, usize)) -> ! {
    panic!(
        "{op}: incompatible shapes {}x{} vs {}x{} ({rule})",
        a.0, a.1, b.0, b.1
    );
}

/// `y += alpha * x`: the GEMM inner loop, and the fused accumulate used
/// to merge gradient buffers and scatter conv gradients. Written as a
/// bounds-check-free slice zip so the compiler vectorizes it — every
/// `y[k]` is an independent accumulator, so vectorization needs no
/// reassociation and results stay bit-stable.
///
/// The slices must have equal lengths: a mismatch is a shape bug
/// upstream, and silently truncating would turn it into wrong math, so
/// debug builds assert (naming both lengths) instead.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(
        x.len(),
        y.len(),
        "axpy: x.len() {} != y.len() {}",
        x.len(),
        y.len()
    );
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `C = A · B (+ bias)` through one pinned kernel: seeds every output
/// row (with zero or the bias), bumps the aggregate and per-variant GEMM
/// counters, and hands the accumulation to the kernel. Shape checks
/// belong to the public callers.
fn mul_rm_with(a: &Matrix, b: &Matrix, bias: Option<&[f64]>, kernel: GemmKernel) -> Matrix {
    let n = b.cols;
    let k = a.cols;
    // GEMM-kernel accounting: one counter bump per kernel call (never per
    // element), so the disabled path costs one relaxed load. The
    // aggregate pair predates dispatch and keeps emitting; the
    // per-variant counters let yali-prof attribute calls to a kernel.
    yali_obs::count!("ml.gemm.calls", 1);
    yali_obs::count!("ml.gemm.fmas", (a.rows * n * k) as u64);
    match kernel {
        GemmKernel::Scalar => yali_obs::count!("ml.gemm.kernel.scalar", 1),
        GemmKernel::Avx2 => yali_obs::count!("ml.gemm.kernel.avx2", 1),
        GemmKernel::Avx512 => yali_obs::count!("ml.gemm.kernel.avx512", 1),
        GemmKernel::Neon => yali_obs::count!("ml.gemm.kernel.neon", 1),
    }
    let mut out = Matrix::zeros(a.rows, n);
    if let Some(bv) = bias {
        for i in 0..a.rows {
            out.data[i * n..(i + 1) * n].copy_from_slice(bv);
        }
    }
    kernel_simd::gemm_f64_with(kernel, a.rows, k, n, &a.data, &b.data, &mut out.data);
    out
}

/// [`mul_rm_with`] on the process-wide [`active_kernel`].
fn mul_rm(a: &Matrix, b: &Matrix, bias: Option<&[f64]>) -> Matrix {
    mul_rm_with(a, b, bias, active_kernel())
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix by copying `rows.len()` equally sized row slices.
    ///
    /// # Panics
    ///
    /// Panics when the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut m = Matrix::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "from_rows: ragged row {r}");
            m.row_mut(r).copy_from_slice(row);
        }
        m
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transpose, packed with cache-friendly tiles.
    pub fn transpose(&self) -> Matrix {
        const T: usize = 32;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(T) {
            let rend = (rb + T).min(self.rows);
            for cb in (0..self.cols).step_by(T) {
                let cend = (cb + T).min(self.cols);
                for r in rb..rend {
                    for c in cb..cend {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch, naming both shapes.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        if self.cols != other.rows {
            shape_panic(
                "matmul",
                "A.cols must equal B.rows",
                (self.rows, self.cols),
                (other.rows, other.cols),
            );
        }
        mul_rm(self, other, None)
    }

    /// `self * other` through one pinned kernel instead of the
    /// process-wide dispatch — how the benchmarks time kernels
    /// side by side and the tests pin the scalar oracle.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch, and when `kernel` is not
    /// available on this CPU.
    pub fn matmul_with_kernel(&self, other: &Matrix, kernel: GemmKernel) -> Matrix {
        assert!(
            kernel.available(),
            "matmul_with_kernel: kernel {} is not available on this CPU",
            kernel.name()
        );
        if self.cols != other.rows {
            shape_panic(
                "matmul",
                "A.cols must equal B.rows",
                (self.rows, self.cols),
                (other.rows, other.cols),
            );
        }
        mul_rm_with(self, other, None, kernel)
    }

    /// `self^T * other`.
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch, naming both shapes.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        if self.rows != other.rows {
            shape_panic(
                "t_matmul",
                "A.rows must equal B.rows",
                (self.rows, self.cols),
                (other.rows, other.cols),
            );
        }
        // `(AᵀB)[i][·] = Σ_r A[r][i] · B[r][·]`: streaming the rows of both
        // operands hits the axpy kernel without packing either transpose.
        yali_obs::count!("ml.gemm.calls", 1);
        yali_obs::count!("ml.gemm.fmas", (self.rows * self.cols * other.cols) as u64);
        yali_obs::count!("ml.gemm.kernel.scalar", 1);
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let arow = self.row(r);
            let brow = other.row(r);
            for (i, &av) in arow.iter().enumerate() {
                if av != 0.0 {
                    axpy(av, brow, &mut out.data[i * other.cols..(i + 1) * other.cols]);
                }
            }
        }
        out
    }

    /// `self * other^T`.
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch, naming both shapes.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        if self.cols != other.cols {
            shape_panic(
                "matmul_t",
                "A.cols must equal B.cols",
                (self.rows, self.cols),
                (other.rows, other.cols),
            );
        }
        mul_rm(self, &other.transpose(), None)
    }

    /// Fused `self * other^T + bias`: every output row starts from `bias`
    /// instead of zero. This is one batched dense/conv forward pass.
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch or when `bias.len() != other.rows`,
    /// naming the shapes.
    pub fn matmul_t_bias(&self, other: &Matrix, bias: &[f64]) -> Matrix {
        if self.cols != other.cols {
            shape_panic(
                "matmul_t_bias",
                "A.cols must equal B.cols",
                (self.rows, self.cols),
                (other.rows, other.cols),
            );
        }
        if bias.len() != other.rows {
            shape_panic(
                "matmul_t_bias",
                "bias length must equal B.rows",
                (bias.len(), 1),
                (other.rows, other.cols),
            );
        }
        mul_rm(self, &other.transpose(), Some(bias))
    }

    /// Accumulates each column's sum into `out` (`out[c] += Σ_r self[r][c]`),
    /// walking rows in order so the reduction is bit-stable.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != self.cols`, naming the shapes.
    pub fn add_col_sums(&self, out: &mut [f64]) {
        if out.len() != self.cols {
            shape_panic(
                "add_col_sums",
                "out length must equal cols",
                (self.rows, self.cols),
                (out.len(), 1),
            );
        }
        for r in 0..self.rows {
            axpy(1.0, self.row(r), out);
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance.
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Softmax in place (numerically stabilized).
pub fn softmax_inplace(v: &mut [f64]) {
    let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

/// Index of the maximum element (first on ties).
pub fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Index of the maximum vote count (first on ties) — the integer twin of
/// [`argmax`], used by the voting models (rf, knn).
pub fn argmax_counts(v: &[usize]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// The Adam optimizer state for one parameter tensor. The first/second
/// moment buffers are allocated once at construction and updated in place
/// — `step` never allocates.
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    /// Learning rate.
    pub lr: f64,
}

impl Adam {
    /// Creates an optimizer for `n` parameters.
    pub fn new(n: usize, lr: f64) -> Adam {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            lr,
        }
    }

    /// Applies one update step of gradients `g` to parameters `p`.
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree with construction.
    pub fn step(&mut self, p: &mut [f64], g: &[f64]) {
        self.step_scaled(p, g, 1.0);
    }

    /// Applies one update step of `scale * g` to `p` without materializing
    /// the scaled gradient — the fused path the layers use to fold the
    /// `1/batch` normalization into the moment update.
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree with construction.
    pub fn step_scaled(&mut self, p: &mut [f64], g: &[f64], scale: f64) {
        assert_eq!(p.len(), self.m.len());
        assert_eq!(g.len(), self.m.len());
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        for i in 0..p.len() {
            let gi = scale * g[i];
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * gi;
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * gi * gi;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            p[i] -= self.lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-blocking triple-loop products: the reference oracle the
    /// blocked kernels are property-tested against.
    mod naive {
        use super::Matrix;

        pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.rows, b.cols);
            for r in 0..a.rows {
                for k in 0..a.cols {
                    let av = a.get(r, k);
                    for c in 0..b.cols {
                        out.data[r * b.cols + c] += av * b.get(k, c);
                    }
                }
            }
            out
        }

        pub fn t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.cols, b.cols);
            for r in 0..a.rows {
                for i in 0..a.cols {
                    let av = a.get(r, i);
                    for j in 0..b.cols {
                        out.data[i * b.cols + j] += av * b.get(r, j);
                    }
                }
            }
            out
        }

        pub fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.rows, b.rows);
            for r in 0..a.rows {
                for j in 0..b.rows {
                    let mut acc = 0.0;
                    for k in 0..a.cols {
                        acc += a.get(r, k) * b.get(j, k);
                    }
                    out.data[r * b.rows + j] = acc;
                }
            }
            out
        }
    }

    /// The scalar-fused bit-oracle for the SIMD kernels: IEEE `fma`
    /// rounds once, exactly like `f64::mul_add`, so each SIMD lane's
    /// ascending-`k` FMA chain must reproduce this loop bit for bit.
    fn fused_ref_f64(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for kk in 0..k {
                    acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
                }
                out[i * n + j] += acc;
            }
        }
        out
    }

    /// Every non-scalar kernel runnable on this CPU.
    fn simd_kernels() -> Vec<GemmKernel> {
        [GemmKernel::Avx2, GemmKernel::Avx512, GemmKernel::Neon]
            .into_iter()
            .filter(|k| k.available())
            .collect()
    }

    fn assert_close(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "{what} shape");
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert!((x - y).abs() < 1e-9, "{what} entry {i}: {x} vs {y}");
        }
    }

    fn fill(rows: usize, cols: usize, vals: &[f64]) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            if vals.is_empty() {
                0.0
            } else {
                vals[(r * cols + c) % vals.len()]
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The dispatch contract: whichever kernel the process picked,
        // the three products agree with the naive triple loops on
        // arbitrary shapes, including degenerate 0xN and 1x1 operands.
        #[test]
        fn blocked_gemm_matches_the_naive_oracle(
            m in 0usize..9,
            k in 0usize..67,
            n in 0usize..41,
            vals in prop::collection::vec(-8.0f64..8.0, 1..48),
        ) {
            let a = fill(m, k, &vals);
            let b = fill(k, n, &vals[vals.len() / 2..]);
            assert_close(&a.matmul(&b), &naive::matmul(&a, &b), "matmul");

            let a2 = fill(k, m, &vals);
            assert_close(&a2.t_matmul(&b), &naive::t_matmul(&a2, &b), "t_matmul");

            let b2 = fill(n, k, &vals);
            assert_close(&a.matmul_t(&b2), &naive::matmul_t(&a, &b2), "matmul_t");

            let bias: Vec<f64> = (0..n).map(|j| j as f64 * 0.25 - 1.0).collect();
            let mut want = naive::matmul_t(&a, &b2);
            for r in 0..want.rows {
                axpy(1.0, &bias, want.row_mut(r));
            }
            assert_close(&a.matmul_t_bias(&b2, &bias), &want, "matmul_t_bias");
        }

        // The SIMD bit-oracle, randomized: each available SIMD kernel
        // reproduces the scalar fused-chain reference bit for bit on
        // random shapes (shape ranges straddle every tile width).
        #[test]
        fn simd_kernels_match_the_fused_oracle_bitwise(
            m in 0usize..19,
            k in 0usize..35,
            n in 0usize..37,
            vals in prop::collection::vec(-8.0f64..8.0, 1..48),
        ) {
            let a = fill(m, k, &vals);
            let b = fill(k, n, &vals[vals.len() / 2..]);
            let want = fused_ref_f64(m, k, n, &a.data, &b.data);
            for kernel in simd_kernels() {
                let mut got = vec![0.0f64; m * n];
                kernel_simd::gemm_f64_with(kernel, m, k, n, &a.data, &b.data, &mut got);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        g.to_bits(), w.to_bits(),
                        "kernel {} entry {}: {} vs {}", kernel.name(), i, g, w
                    );
                }
            }
        }

        #[test]
        fn transpose_round_trips(
            m in 0usize..12,
            n in 0usize..12,
            vals in prop::collection::vec(-4.0f64..4.0, 1..16),
        ) {
            let a = fill(m, n, &vals);
            let t = a.transpose();
            prop_assert_eq!((t.rows, t.cols), (n, m));
            prop_assert_eq!(t.transpose(), a);
        }
    }

    // The SIMD bit-oracle on handpicked adversarial shapes: empty
    // operands, single elements, column counts one either side of every
    // tile width (4, 8, 16) and of two 16-wide tiles, and row counts that
    // are not multiples of the 4- and 8-row blocks.
    #[test]
    fn simd_kernels_survive_adversarial_shapes_bitwise() {
        let kernels = simd_kernels();
        if kernels.is_empty() {
            eprintln!("skipping: no SIMD kernel on this host");
            return;
        }
        let vals: Vec<f64> = (0..97)
            .map(|i| ((i * 37 + 11) % 19) as f64 * 0.37 - 3.3)
            .collect();
        for &m in &[0usize, 1, 2, 3, 4, 5, 7, 8, 9, 11, 16, 17] {
            for &n in &[0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
                for &k in &[0usize, 1, 2, 13] {
                    let a = fill(m, k, &vals);
                    let b = fill(k, n, &vals[31..]);
                    let want = fused_ref_f64(m, k, n, &a.data, &b.data);
                    for &kernel in &kernels {
                        let mut got = vec![0.0f64; m * n];
                        kernel_simd::gemm_f64_with(kernel, m, k, n, &a.data, &b.data, &mut got);
                        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "kernel {} shape {m}x{k}x{n} entry {i}: {g} vs {w}",
                                kernel.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pinned_scalar_kernel_matches_dispatched_matmul_within_tolerance() {
        let vals: Vec<f64> = (0..53).map(|i| ((i * 13 + 5) % 29) as f64 * 0.21 - 2.9).collect();
        let a = fill(9, 23, &vals);
        let b = fill(23, 17, &vals[20..]);
        assert_close(
            &a.matmul_with_kernel(&b, GemmKernel::Scalar),
            &a.matmul(&b),
            "scalar vs dispatched",
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "matmul_with_kernel: kernel neon is not available")]
    fn pinning_an_unavailable_kernel_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a.matmul_with_kernel(&a, GemmKernel::Neon);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64); // [[0,1,2],[3,4,5]]
        let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64); // [[0,1],[2,3],[4,5]]
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![10.0, 13.0, 28.0, 40.0]);
    }

    #[test]
    fn transpose_products_agree_with_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f64);
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f64 + 1.0);
        let a_t = a.transpose();
        assert_close(&a.t_matmul(&b), &a_t.matmul(&b), "t_matmul");

        let c = Matrix::from_fn(5, 2, |r, col| (r * 2 + col) as f64);
        let c_t = c.transpose();
        assert_close(&a.matmul_t(&c), &a.matmul(&c_t), "matmul_t");
    }

    #[test]
    #[should_panic(expected = "matmul: incompatible shapes 2x3 vs 4x2")]
    fn matmul_names_both_shapes_on_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "t_matmul: incompatible shapes 3x2 vs 4x5")]
    fn t_matmul_names_both_shapes_on_mismatch() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(4, 5);
        let _ = a.t_matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_t: incompatible shapes 3x2 vs 4x5")]
    fn matmul_t_names_both_shapes_on_mismatch() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(4, 5);
        let _ = a.matmul_t(&b);
    }

    #[test]
    fn from_rows_builds_and_col_sums_accumulate() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!((m.rows, m.cols), (3, 2));
        let mut sums = vec![0.5, 0.5];
        m.add_col_sums(&mut sums);
        assert_eq!(sums, vec![9.5, 12.5]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0; 7];
        axpy(2.0, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "axpy: x.len() 3 != y.len() 2")]
    fn axpy_rejects_mismatched_lengths_in_debug_builds() {
        let mut y = vec![0.0; 2];
        axpy(1.0, &[1.0, 2.0, 3.0], &mut y);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut v = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(v[2] > v[1] && v[1] > v[0]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut v = vec![1000.0, 1001.0];
        softmax_inplace(&mut v);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn adam_minimizes_a_quadratic() {
        // minimize (p - 3)^2
        let mut p = vec![0.0];
        let mut opt = Adam::new(1, 0.1);
        for _ in 0..500 {
            let g = vec![2.0 * (p[0] - 3.0)];
            opt.step(&mut p, &g);
        }
        assert!((p[0] - 3.0).abs() < 1e-3, "p = {}", p[0]);
    }

    #[test]
    fn step_scaled_equals_step_on_scaled_gradients() {
        let mut p1 = vec![1.0, -2.0, 0.5];
        let mut p2 = p1.clone();
        let mut o1 = Adam::new(3, 0.05);
        let mut o2 = Adam::new(3, 0.05);
        let g = vec![4.0, -6.0, 8.0];
        for _ in 0..20 {
            o1.step_scaled(&mut p1, &g, 0.25);
            let scaled: Vec<f64> = g.iter().map(|v| v * 0.25).collect();
            o2.step(&mut p2, &scaled);
        }
        assert_eq!(p1, p2);
    }

    #[test]
    fn dot_and_dist() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
