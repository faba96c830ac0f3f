//! Order statistics, seed derivation, the arrival schedule, and the
//! play-result digest.

use rand::{Rng, SeedableRng};

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice: the
/// smallest sample with at least `p`% of the samples at or below it.
/// Returns 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The median: the middle value, or the mean of the middle two.
/// Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)`), so spreads read the same here
/// and in the acceptance check. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        // Signed: clamping `j` can push the weight outside 0..4, which
        // extrapolates exactly as Python does.
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// A named sub-seed of the run seed. Every input the benchmark makes
/// (corpus seeds, arrivals, query order) comes from one of these, so one
/// `--seed` always yields one input set.
pub fn derive(seed: u64, stream: u64) -> u64 {
    yali_obs::mix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Poisson arrivals at `rate` per second over `seconds`: send offsets in
/// nanoseconds from the phase start, ascending.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let horizon = seconds * 1e9;
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
    loop {
        // An exponential gap; `1 - u` keeps the logarithm finite.
        t += -(1.0 - rng.gen::<f64>()).ln() / rate * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// FNV-1a digest of per-play `(correct, total)` pairs, in play order.
pub fn digest(results: &[(usize, usize)]) -> u64 {
    let mut h = yali_ir::Fnv64::new();
    for &(correct, total) in results {
        h.write_u64(correct as u64);
        h.write_u64(total as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn poisson_schedule_is_seeded() {
        let a = poisson_schedule(1, 8000.0, 0.5);
        assert_eq!(a, poisson_schedule(1, 8000.0, 0.5));
        assert_ne!(a, poisson_schedule(2, 8000.0, 0.5));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 500_000_000));
        // 4000 expected arrivals; a Poisson count is within 5 sigma.
        assert!((3680..4320).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn derived_streams_differ() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(3, 4), derive(3, 4));
    }
}
