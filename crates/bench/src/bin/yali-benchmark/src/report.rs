//! The declared metric set and one run's outcome.
//!
//! An untraced run reports every end-to-end metric; a traced run reports
//! every per-layer metric. A layer a workload never calls reads 0 there;
//! every metric timed in microseconds or milliseconds comes from the
//! unit-cost pass, which every traced run makes.

use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics. An "op" is one play on the
/// pipeline workloads and one request on the serve workloads.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of the per-layer metrics.
pub const PER_LAYER: [(&str, &str); 56] = [
    // Unit costs, per item, over the game-grid corpus.
    ("minic.lower.us", "us"),
    ("minic.print.us", "us"),
    ("minic.compile.us", "us"),
    ("ir.content_hash.us", "us"),
    ("opt.o3.us", "us"),
    ("opt.mem2reg.us", "us"),
    ("opt.mem2reg.unstable_share", "share"),
    ("obf.sub.us", "us"),
    ("obf.bcf.us", "us"),
    ("obf.fla.us", "us"),
    ("obf.ollvm.us", "us"),
    ("obf.rs.us", "us"),
    ("obf.mcmc.us", "us"),
    ("obf.drlsg.us", "us"),
    ("embed.histogram.us", "us"),
    ("embed.cdfg.us", "us"),
    ("ml.fit.knn_ms", "ms"),
    ("ml.fit.rf_ms", "ms"),
    ("ml.fit.lr_ms", "ms"),
    ("ml.fit.svm_ms", "ms"),
    ("ml.fit.mlp_ms", "ms"),
    ("ml.fit.cnn_ms", "ms"),
    ("ml.fit.dgcnn_ms", "ms"),
    ("ml.infer.mlp_b1_us", "us"),
    ("ml.infer.mlp_b32_us", "us"),
    ("ml.infer.cnn_b1_us", "us"),
    ("ml.infer.cnn_b32_us", "us"),
    ("par.map.overhead_us", "us"),
    ("serve.codec.us", "us"),
    // Self time of each stage of a rebuilt play, as a share of the grid.
    ("core.split.share", "share"),
    ("core.transform.share", "share"),
    ("core.fit.share", "share"),
    ("core.classify.share", "share"),
    ("opt.normalize.share", "share"),
    ("opt.normalize.modules", "count"),
    ("store.open.share", "share"),
    ("store.sync.share", "share"),
    ("bench.unattributed_share", "share"),
    ("bench.trace_overhead_pct", "%"),
    // Engine caches over one traced grid.
    ("core.cache.transform_hit_ratio", "ratio"),
    ("core.cache.embed_hit_ratio", "ratio"),
    ("core.cache.model_hit_ratio", "ratio"),
    ("core.cache.transform_misses", "count"),
    ("core.cache.embed_misses", "count"),
    ("core.cache.model_misses", "count"),
    // The artifact store over one traced grid.
    ("store.read_mb", "MiB"),
    ("store.write_mb", "MiB"),
    ("store.disk_hit_ratio", "ratio"),
    ("store.published", "count"),
    // The daemon's own counters and the client's view of one phase.
    ("serve.batch.mean_rows", "rows"),
    ("serve.batch.full_share", "share"),
    ("serve.overloaded", "count"),
    ("serve.queue_wait.share", "share"),
    ("serve.scan_over_classify", "ratio"),
    ("serve.client.p99_over_p50", "ratio"),
    ("loadgen.late_share", "share"),
];

#[derive(serde::Serialize)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints as its last line.
#[derive(serde::Serialize)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Metric>,
}

/// Metrics and check results accumulated while one workload runs.
pub struct Run {
    trace: bool,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    /// Failed checks that are not tied to one operation.
    problems: Vec<String>,
}

impl Run {
    pub fn new(trace: bool) -> Run {
        Run {
            trace,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    pub fn trace(&self) -> bool {
        self.trace
    }

    fn declared(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Records a metric of this run's kind.
    ///
    /// # Panics
    ///
    /// Panics on a name the run's metric set does not declare: a bug in
    /// the workload code, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.declared().iter().any(|(n, _)| *n == name),
            "metric {name} is not declared for this run"
        );
        self.values.insert(name, value);
    }

    /// Counts operations run and the ones whose output was wrong.
    pub fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// A failed check that is not one operation's output.
    pub fn problem(&mut self, what: String) {
        eprintln!("yali-benchmark: check failed: {what}");
        self.problems.push(what);
    }

    /// The printed outcome. Per-layer metrics a workload never touched
    /// read 0; an end-to-end metric must have been measured.
    pub fn outcome(self) -> Outcome {
        let metrics = self
            .declared()
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if self.trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "metric {name} is {value}");
                (name, Metric { value, unit })
            })
            .collect();
        Outcome {
            correct: self.failed == 0 && self.problems.is_empty() && self.attempted > 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_grammar() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "metric names repeat");
    }

    #[test]
    fn outcome_fills_untouched_layers_and_counts_failures() {
        let mut run = Run::new(true);
        run.set("opt.o3.us", 12.5);
        run.ops(10, 1);
        let out = run.outcome();
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        assert_eq!(out.metrics["opt.o3.us"].value, 12.5);
        assert_eq!(out.metrics["store.published"].value, 0.0);
        assert!(!out.correct);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Run::new(false).set("opt.o3.us", 1.0);
    }
}
