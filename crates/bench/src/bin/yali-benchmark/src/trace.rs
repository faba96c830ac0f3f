//! Spans recorded by the benchmark around its calls into each layer: kept
//! in memory while the workload runs, summarized into self times, and
//! written out (`trace.jsonl`, `layers.json`) when it ends.
//!
//! Span names follow the `crate.subsystem` grammar of the layer being
//! called. Names under `bench.` are the benchmark's own scaffolding (one
//! grid, one play); their self time is the work no layer span covers.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Totals for one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the durations of its direct children.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let l = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            l.count += 1;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Summed duration of the root spans.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time of `name` as a share of the root wall (0 when absent).
    pub fn self_share(&self, name: &str) -> f64 {
        let root = self.root_ns();
        if root == 0 {
            return 0.0;
        }
        let own = self.layers().get(name).map_or(0, |l| l.self_ns);
        own as f64 / root as f64
    }

    /// Share of the root wall that no layer span covers: the summed self
    /// time of the benchmark's own `bench.*` spans.
    pub fn unattributed_share(&self) -> f64 {
        let root = self.root_ns();
        if root == 0 {
            return 0.0;
        }
        let own: u64 = self
            .layers()
            .iter()
            .filter(|(name, _)| name.starts_with("bench."))
            .map(|(_, l)| l.self_ns)
            .sum();
        own as f64 / root as f64
    }

    /// Writes `trace.jsonl` (one span per line) and `layers.json` (the
    /// per-name summary) into `dir`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(dir.join("trace.jsonl"))?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()?;
        let mut summary = String::from("{\n");
        summary.push_str(&format!("  \"root_s\": {},\n", self.root_ns() as f64 / 1e9));
        summary.push_str("  \"layers\": {");
        for (i, (name, l)) in self.layers().iter().enumerate() {
            summary.push_str(if i == 0 { "\n" } else { ",\n" });
            summary.push_str(&format!(
                "    \"{name}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                l.count,
                l.total_ns as f64 / 1e9,
                l.self_ns as f64 / 1e9
            ));
        }
        summary.push_str("\n  }\n}\n");
        std::fs::write(dir.join("layers.json"), summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_shares_sum_to_one() {
        let mut t = Tracer::new();
        let root = t.open("bench.grid");
        t.time("core.fit", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let play = t.open("bench.play");
        t.time("core.transform", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(play);
        t.close(root);
        let layers = t.layers();
        assert_eq!(layers["core.fit"].count, 1);
        let grid = layers["bench.grid"];
        assert!(grid.self_ns < grid.total_ns);
        let shares =
            t.self_share("core.fit") + t.self_share("core.transform") + t.unattributed_share();
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
        assert!(t.unattributed_share() < 0.5);
        assert_eq!(t.self_share("absent"), 0.0);
    }
}
