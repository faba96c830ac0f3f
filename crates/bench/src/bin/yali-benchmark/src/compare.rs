//! `--compare A B`: judges run set B against run set A with the bounds
//! `BENCHMARK.json` fixes. Each file holds result lines as `--out`
//! appends them; every (workload, end-to-end metric) pair is one row.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Bound {
    pub lower_is_better: bool,
    /// Share of A's median by which B may get worse.
    pub bound: f64,
}

/// Interquartile range over the median (0 with fewer than two runs).
fn spread(v: &[f64]) -> f64 {
    match stats::quartiles(v) {
        Some((q1, q3)) => (q3 - q1) / stats::median(v).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

/// B against A. Medians decide while both sides' own run-to-run spread
/// stays within the bound; past it the pair is unresolved unless every
/// run of one side beats every run of the other.
pub fn classify(a: &[f64], b: &[f64], bound: Bound) -> Verdict {
    // Oriented so that smaller is better.
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let orient = |v: &[f64]| v.iter().map(|x| x * sign).collect::<Vec<f64>>();
    let (a, b) = (orient(a), orient(b));
    if spread(&a).max(spread(&b)) > bound.bound {
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        return if max(&b) < min(&a) {
            Verdict::Better
        } else if min(&b) > max(&a) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (stats::median(&a), stats::median(&b));
    // Positive when B is worse than A, as a share of A.
    let worse_by = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn load_bounds(path: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let doc = read_json(path)?;
    let metrics = doc["end_to_end"]
        .as_array()
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    metrics
        .iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or("a metric without a name")?;
            let bound = m["bound"]
                .as_f64()
                .ok_or_else(|| format!("{name}: no bound"))?;
            let lower_is_better = m["better"] == "lower";
            Ok((
                name.to_string(),
                Bound {
                    lower_is_better,
                    bound,
                },
            ))
        })
        .collect()
}

/// `(workload, metric)` → one value per untraced run in the file.
fn load_runs(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v =
            serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if v["trace"] == true {
            continue;
        }
        let workload = v["workload"]
            .as_str()
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        for (metric, m) in v["metrics"].as_object().into_iter().flatten() {
            if let Some(x) = m["value"].as_f64() {
                out.entry((workload.to_string(), metric.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(out)
}

pub fn run(a: &Path, b: &Path, benchmark: &Path) -> Result<(), String> {
    let bounds = load_bounds(benchmark)?;
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    println!(
        "{:<13} {:<15} {:>6} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "bound", "median A", "median B", "change", "spread"
    );
    for ((workload, metric), va) in &runs_a {
        let (Some(vb), Some(&bound)) = (
            runs_b.get(&(workload.clone(), metric.clone())),
            bounds.get(metric),
        ) else {
            continue;
        };
        let (ma, mb) = (stats::median(va), stats::median(vb));
        println!(
            "{workload:<13} {metric:<15} {:>5.0}% {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>7.1}%  {} ({} vs {} runs)",
            bound.bound * 100.0,
            (mb - ma) / ma * 100.0,
            spread(va).max(spread(vb)) * 100.0,
            classify(va, vb, bound).name(),
            va.len(),
            vb.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        lower_is_better: true,
        bound: 0.10,
    };
    const HIGHER: Bound = Bound {
        lower_is_better: false,
        bound: 0.10,
    };

    #[test]
    fn tight_runs_are_judged_by_their_medians() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(classify(&a, &[104.0, 105.0, 103.0], LOWER), Verdict::Within);
        assert_eq!(classify(&a, &[120.0, 121.0, 119.0], LOWER), Verdict::Worse);
        assert_eq!(classify(&a, &[80.0, 81.0, 79.0], LOWER), Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(
            classify(&a, &[120.0, 121.0, 119.0], HIGHER),
            Verdict::Better
        );
        assert_eq!(classify(&a, &[80.0, 81.0, 79.0], HIGHER), Verdict::Worse);
        // A single run per side has no spread.
        assert_eq!(classify(&[10.0], &[10.5], LOWER), Verdict::Within);
    }

    #[test]
    fn wide_runs_are_unresolved_unless_they_separate() {
        let a = [70.0, 100.0, 130.0, 90.0, 110.0];
        assert_eq!(
            classify(&a, &[75.0, 105.0, 128.0, 95.0], LOWER),
            Verdict::Unresolved
        );
        assert_eq!(classify(&a, &[50.0, 60.0, 65.0], LOWER), Verdict::Better);
        assert_eq!(classify(&a, &[140.0, 180.0, 150.0], LOWER), Verdict::Worse);
    }

    #[test]
    fn bounds_come_from_the_benchmark_file() {
        let path = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../../../../BENCHMARK.json"
        ));
        let bounds = load_bounds(path).unwrap();
        assert!(bounds["setup_s"].lower_is_better);
        assert!(!bounds["ops_per_s"].lower_is_better);
        assert!(bounds.values().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
