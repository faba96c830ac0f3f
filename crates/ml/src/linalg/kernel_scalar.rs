//! The register-blocked scalar GEMM kernel: the always-available
//! fallback of the dispatched kernel family, and the reference the SIMD
//! kernels are tolerance-tested against.
//!
//! It is the codebase's original blocked `i–k–j` (axpy-formulation)
//! kernel, unchanged: every output element sums in a fixed
//! ascending-`k` order with separate multiply and add (no fused
//! rounding), so forcing `YALI_SIMD=0` reproduces the pre-SIMD results
//! bit for bit.
//!
//! The kernel takes the output pre-seeded (with zero or a bias row) and
//! accumulates into it; the caller owns shape checks and observability
//! counters.

use super::axpy;

/// Blocked scalar `out += A · B` over row-major slices (`A` is `m×k`,
/// `B` is `k×n`, `out` is `m×n`, pre-seeded). Rows of `A` are processed
/// four at a time so each streamed `B` row is reused across four
/// accumulator rows from registers; each output element still sums in
/// ascending-`k` order, so the blocking changes nothing bitwise. Zero
/// `A` entries (whole rows in the remainder loop) skip their multiply.
pub(crate) fn gemm_f64(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    let mut i = 0;
    while i + 4 <= m {
        let (o0, rest) = out[i * n..(i + 4) * n].split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        for kk in 0..k {
            let brow = &b[kk * n..(kk + 1) * n];
            let a0 = a[i * k + kk];
            let a1 = a[(i + 1) * k + kk];
            let a2 = a[(i + 2) * k + kk];
            let a3 = a[(i + 3) * k + kk];
            for (j, &bj) in brow.iter().enumerate() {
                o0[j] += a0 * bj;
                o1[j] += a1 * bj;
                o2[j] += a2 * bj;
                o3[j] += a3 * bj;
            }
        }
        i += 4;
    }
    while i < m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                axpy(av, &b[kk * n..(kk + 1) * n], orow);
            }
        }
        i += 1;
    }
}
