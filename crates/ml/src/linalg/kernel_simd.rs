//! Explicit-SIMD GEMM kernels behind one-time CPU feature detection.
//!
//! # Dispatch
//!
//! [`active_kernel`] picks the widest kernel the CPU supports — AVX-512F,
//! then AVX2+FMA on x86_64; NEON on aarch64; the blocked scalar kernel
//! everywhere else — exactly once per process (cached in a `OnceLock`).
//! The `YALI_SIMD` environment variable overrides the choice: `0` forces
//! the scalar fallback, `1` (or unset) keeps auto-detection, and anything
//! else warns once and falls back to auto-detection — the same
//! parse-once/warn-once contract as `YALI_THREADS` in `yali-par`.
//!
//! # Numerics
//!
//! The SIMD kernels use hardware FMA (one rounding per multiply-add)
//! where the scalar kernel rounds twice, so the two families differ in
//! the last ulp — per process the choice is fixed, so every determinism
//! contract (byte-identical training across thread counts, bit-identical
//! batch vs per-sample inference) is preserved; only *cross-machine*
//! bit-identity is relaxed, as documented in DESIGN.md.
//!
//! Because IEEE-754 `fma` is exactly specified, each SIMD lane's
//! ascending-`k` FMA chain is bit-identical to a scalar
//! [`f64::mul_add`] chain over the same elements. The kernels exploit
//! this twice: ragged row/column tails are finished with scalar fused
//! loops (same bits a masked vector path would produce), and the
//! property tests check the whole SIMD output bitwise against a scalar
//! fused reference — a real oracle, not a tolerance band.
//!
//! Every kernel takes the output pre-seeded (zero or a broadcast bias
//! row) and accumulates `out[i][j] += Σ_k A[i][k]·B[k][j]` with one final
//! add, so the seed joins the sum exactly once, last.

use std::sync::OnceLock;

use super::GemmKernel;

use yali_obs::{EnvVar, WarnOnce};

/// Parses a `YALI_SIMD` value: `0` forces the scalar kernel, `1` states
/// auto-detection explicitly. Surrounding whitespace is tolerated;
/// anything else is [`EnvVar::Invalid`].
pub(crate) fn parse_simd(v: Option<&str>) -> EnvVar<bool> {
    match v {
        None => EnvVar::Unset,
        Some(raw) => match raw.trim() {
            "0" => EnvVar::Value(false),
            "1" => EnvVar::Value(true),
            _ => EnvVar::Invalid,
        },
    }
}

/// The widest kernel this CPU supports, ignoring any override.
fn detect_kernel() -> GemmKernel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return GemmKernel::Avx512;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return GemmKernel::Avx2;
        }
        GemmKernel::Scalar
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON (with f64 FMA) is baseline on aarch64.
        GemmKernel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        GemmKernel::Scalar
    }
}

/// The GEMM kernel every product in this process dispatches to: CPU
/// feature detection filtered through the `YALI_SIMD` override, computed
/// once and cached. A set-but-invalid `YALI_SIMD` warns once (stderr plus
/// the `yali-obs` trace sink) instead of silently falling back.
pub fn active_kernel() -> GemmKernel {
    static KERNEL: OnceLock<GemmKernel> = OnceLock::new();
    static ONCE: WarnOnce = WarnOnce::new();
    *KERNEL.get_or_init(|| {
        match yali_obs::env_once(
            "YALI_SIMD",
            &ONCE,
            "is not 0 or 1; falling back to CPU feature detection",
            parse_simd,
        ) {
            Some(false) => GemmKernel::Scalar,
            // `1` states auto-detection explicitly; unset (or invalid,
            // after its one warning) detects too.
            Some(true) | None => detect_kernel(),
        }
    })
}

/// Finishes a ragged column tail `[j0, n)` of rows `[i0, i0+rows)` with a
/// scalar fused chain — bit-identical to the lanes of the vector tiles,
/// since IEEE `fma` rounds once exactly like `f64::mul_add`.
#[allow(clippy::too_many_arguments)]
fn fused_tail_f64(
    i0: usize,
    rows: usize,
    j0: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    for i in i0..i0 + rows {
        for j in j0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
            }
            out[i * n + j] += acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::fused_tail_f64;
    use std::arch::x86_64::*;

    // ---------------------------------------------------------------- AVX-512

    /// One `R×16` f64 register tile at rows `i..i+R`, columns
    /// `jb..jb+16`: 16 zmm accumulators built from 2 B-loads, `R`
    /// broadcasts and `2R` FMAs per `k` step.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; caller guarantees `i + R <= m` and
    /// `jb + 16 <= n` for the `m×k · k×n` shapes backing the slices.
    #[target_feature(enable = "avx512f")]
    unsafe fn tile_f64_avx512<const R: usize>(
        i: usize,
        jb: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        let mut acc = [[_mm512_setzero_pd(); 2]; R];
        for kk in 0..k {
            let bp = b.as_ptr().add(kk * n + jb);
            let b0 = _mm512_loadu_pd(bp);
            let b1 = _mm512_loadu_pd(bp.add(8));
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_pd(*a.get_unchecked((i + r) * k + kk));
                accr[0] = _mm512_fmadd_pd(av, b0, accr[0]);
                accr[1] = _mm512_fmadd_pd(av, b1, accr[1]);
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let p = out.as_mut_ptr().add((i + r) * n + jb);
            _mm512_storeu_pd(p, _mm512_add_pd(_mm512_loadu_pd(p), accr[0]));
            _mm512_storeu_pd(p.add(8), _mm512_add_pd(_mm512_loadu_pd(p.add(8)), accr[1]));
        }
    }

    /// All column blocks of `R` rows starting at row `i`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; caller guarantees `i + R <= m`.
    #[target_feature(enable = "avx512f")]
    unsafe fn rows_f64_avx512<const R: usize>(
        i: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        let mut jb = 0;
        while jb + 16 <= n {
            tile_f64_avx512::<R>(i, jb, k, n, a, b, out);
            jb += 16;
        }
        if jb < n {
            fused_tail_f64(i, R, jb, k, n, a, b, out);
        }
    }

    /// AVX-512F f64 GEMM: `out += A·B` in 8×16 register tiles (the shape
    /// that keeps the single 512-bit FMA pipe saturated), narrower row
    /// blocks and scalar fused column tails on ragged edges.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; slices must back `m×k`, `k×n` and `m×n`
    /// row-major matrices.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn gemm_f64_avx512(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        let mut i = 0;
        while i + 8 <= m {
            rows_f64_avx512::<8>(i, k, n, a, b, out);
            i += 8;
        }
        if i + 4 <= m {
            rows_f64_avx512::<4>(i, k, n, a, b, out);
            i += 4;
        }
        if i + 2 <= m {
            rows_f64_avx512::<2>(i, k, n, a, b, out);
            i += 2;
        }
        if i < m {
            rows_f64_avx512::<1>(i, k, n, a, b, out);
        }
    }

    // ------------------------------------------------------------- AVX2 + FMA

    /// One `R×8` f64 register tile (two ymm per row).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; caller guarantees `i + R <= m`, `jb + 8 <= n`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile_f64_avx2<const R: usize>(
        i: usize,
        jb: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        let mut acc = [[_mm256_setzero_pd(); 2]; R];
        for kk in 0..k {
            let bp = b.as_ptr().add(kk * n + jb);
            let b0 = _mm256_loadu_pd(bp);
            let b1 = _mm256_loadu_pd(bp.add(4));
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*a.get_unchecked((i + r) * k + kk));
                accr[0] = _mm256_fmadd_pd(av, b0, accr[0]);
                accr[1] = _mm256_fmadd_pd(av, b1, accr[1]);
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let p = out.as_mut_ptr().add((i + r) * n + jb);
            _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), accr[0]));
            _mm256_storeu_pd(p.add(4), _mm256_add_pd(_mm256_loadu_pd(p.add(4)), accr[1]));
        }
    }

    /// # Safety
    ///
    /// Requires AVX2+FMA; caller guarantees `i + R <= m`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn rows_f64_avx2<const R: usize>(
        i: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        let mut jb = 0;
        while jb + 8 <= n {
            tile_f64_avx2::<R>(i, jb, k, n, a, b, out);
            jb += 8;
        }
        if jb < n {
            fused_tail_f64(i, R, jb, k, n, a, b, out);
        }
    }

    /// AVX2+FMA f64 GEMM: 4×8 register tiles.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; slices must back `m×k`, `k×n` and `m×n`
    /// row-major matrices.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn gemm_f64_avx2(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        let mut i = 0;
        while i + 4 <= m {
            rows_f64_avx2::<4>(i, k, n, a, b, out);
            i += 4;
        }
        if i + 2 <= m {
            rows_f64_avx2::<2>(i, k, n, a, b, out);
            i += 2;
        }
        if i < m {
            rows_f64_avx2::<1>(i, k, n, a, b, out);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{gemm_f64_avx2, gemm_f64_avx512};

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::fused_tail_f64;
    use std::arch::aarch64::*;

    /// NEON f64 GEMM: 4×4 register tiles (two 2-lane vectors per row)
    /// with `vfmaq_f64` — fused, so the same scalar `mul_add` oracle
    /// applies. NEON is baseline on aarch64, so this needs no runtime
    /// detection.
    ///
    /// # Safety
    ///
    /// Slices must back `m×k`, `k×n` and `m×n` row-major matrices.
    pub(crate) unsafe fn gemm_f64_neon(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        let mut i = 0;
        while i + 4 <= m {
            let mut jb = 0;
            while jb + 4 <= n {
                let mut acc = [[vdupq_n_f64(0.0); 2]; 4];
                for kk in 0..k {
                    let bp = b.as_ptr().add(kk * n + jb);
                    let b0 = vld1q_f64(bp);
                    let b1 = vld1q_f64(bp.add(2));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = vdupq_n_f64(*a.get_unchecked((i + r) * k + kk));
                        accr[0] = vfmaq_f64(accr[0], av, b0);
                        accr[1] = vfmaq_f64(accr[1], av, b1);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let p = out.as_mut_ptr().add((i + r) * n + jb);
                    vst1q_f64(p, vaddq_f64(vld1q_f64(p), accr[0]));
                    vst1q_f64(p.add(2), vaddq_f64(vld1q_f64(p.add(2)), accr[1]));
                }
                jb += 4;
            }
            if jb < n {
                fused_tail_f64(i, 4, jb, k, n, a, b, out);
            }
            i += 4;
        }
        if i < m {
            fused_tail_f64(i, m - i, 0, k, n, a, b, out);
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) use neon::gemm_f64_neon;

/// Dispatches `out += A·B` (f64) to `kernel`, which the caller has
/// checked is available on this CPU.
pub(crate) fn gemm_f64_with(
    kernel: GemmKernel,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    match kernel {
        GemmKernel::Scalar => super::kernel_scalar::gemm_f64(m, k, n, a, b, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability was checked by `GemmKernel::available`.
        GemmKernel::Avx2 => unsafe { gemm_f64_avx2(m, k, n, a, b, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability was checked by `GemmKernel::available`.
        GemmKernel::Avx512 => unsafe { gemm_f64_avx512(m, k, n, a, b, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64.
        GemmKernel::Neon => unsafe { gemm_f64_neon(m, k, n, a, b, out) },
        #[allow(unreachable_patterns)]
        _ => super::kernel_scalar::gemm_f64(m, k, n, a, b, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_var_parses_like_threads_var() {
        assert_eq!(parse_simd(None), EnvVar::<bool>::Unset);
        assert_eq!(parse_simd(Some("0")), EnvVar::Value(false));
        assert_eq!(parse_simd(Some("1")), EnvVar::Value(true));
        assert_eq!(parse_simd(Some(" 0 ")), EnvVar::Value(false));
        assert_eq!(parse_simd(Some("\t1\n")), EnvVar::Value(true));
        for garbage in ["", "  ", "2", "-1", "yes", "avx2", "0x1"] {
            assert_eq!(parse_simd(Some(garbage)), EnvVar::Invalid, "{garbage:?}");
        }
    }

    #[test]
    fn active_kernel_is_stable_and_available() {
        let k = active_kernel();
        assert_eq!(k, active_kernel(), "dispatch must be cached");
        assert!(k.available(), "dispatched kernel must be runnable");
    }
}
