//! # yali-prof
//!
//! The analysis half of the observability stack: where `yali-obs` emits
//! telemetry (counters, histograms, spans, the `YALI_TRACE` JSONL sink)
//! and `yali_core::report` aggregates it into `RUNSTATS.json`, this crate
//! reads it all back:
//!
//! - [`trace`] — a strict JSONL trace parser that reconstructs per-thread
//!   span trees, rejecting unbalanced or out-of-order events with
//!   line-numbered errors;
//! - [`profile`] — flamegraph-style **self vs. total** time per span
//!   label, and **critical-path** extraction through a run's span nesting;
//! - [`timeline`] — pool **busy/idle per worker** over time buckets, from
//!   the `par_worker` region events;
//! - [`chrome`] — Chrome Trace Format export, loadable in Perfetto or
//!   `chrome://tracing`;
//! - [`diff`] — the **gate engine**: holds a `RUNSTATS_*.json`/
//!   `BENCH_*.json` report to its baseline and to absolute bounds.
//!
//! The `yali-prof` binary fronts all of it:
//!
//! ```text
//! yali-prof top TRACE.jsonl --top 15      # self/total profile
//! yali-prof critical-path TRACE.jsonl    # the chain bounding wall time
//! yali-prof timeline TRACE.jsonl         # pool busy/idle per worker
//! yali-prof export --chrome TRACE.jsonl -o trace.json   # open in Perfetto
//! yali-prof diff RUNSTATS_old.json RUNSTATS_new.json    # exit 1 on a broken gate
//! yali-prof selfcheck                    # golden-fixture round trip
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod crosspath;
pub mod diff;
pub mod merge;
pub mod profile;
pub mod timeline;
pub mod trace;

pub use chrome::to_chrome;
pub use crosspath::{cross_path, render_cross_path, render_cross_path_json, CrossPath};
pub use diff::{diff_files, diff_values, Violation};
pub use merge::{merge_traces, to_chrome_merged, to_jsonl_merged, MergedProcess, MergedTrace};
pub use profile::{
    critical_path, profile, render_critical_path, render_critical_path_json, render_top,
    render_top_json, Profile,
};
pub use timeline::{render_timeline, timeline, Timeline};
pub use trace::{parse_trace, parse_trace_file, SpanNode, Trace, TraceError};

/// The golden trace fixture (a hand-written capture exercising every event
/// kind) and its committed Chrome export. `selfcheck` re-exports the
/// fixture and demands byte identity, so any drift in the exporter or the
/// parser shows up as a CI failure, not a silently different file.
pub const GOLDEN_TRACE: &str = include_str!("../fixtures/golden.jsonl");
/// The committed Chrome Trace Format export of [`GOLDEN_TRACE`].
pub const GOLDEN_CHROME: &str = include_str!("../fixtures/golden_chrome.json");
/// Shard 0 of the two-process merge fixture: a grid-style worker capture
/// with a preamble and a trace-context-carrying span.
pub const GOLDEN_SHARD0: &str = include_str!("../fixtures/golden_shard0.jsonl");
/// Shard 1 of the two-process merge fixture (epoch offset from shard 0).
pub const GOLDEN_SHARD1: &str = include_str!("../fixtures/golden_shard1.jsonl");
/// The committed merged Chrome export of the two shard fixtures —
/// `selfcheck` holds `yali-prof merge` to byte identity against it.
pub const GOLDEN_MERGED_CHROME: &str = include_str!("../fixtures/golden_merged_chrome.json");

/// Parses the golden fixture, re-exports it, and checks the export is
/// byte-identical to the committed one (plus profile/timeline sanity).
/// Returns a human-readable report, or the first failure.
pub fn selfcheck() -> Result<String, String> {
    let trace = parse_trace(GOLDEN_TRACE).map_err(|e| format!("golden fixture: {e}"))?;
    let exported = to_chrome(&trace);
    if exported != GOLDEN_CHROME {
        // Find the first differing line for a useful message.
        let diff_line = exported
            .lines()
            .zip(GOLDEN_CHROME.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| exported.lines().count().min(GOLDEN_CHROME.lines().count()) + 1);
        return Err(format!(
            "chrome export of the golden fixture is not byte-identical to \
             fixtures/golden_chrome.json (first difference at line {diff_line}); if the \
             exporter changed intentionally, regenerate the fixture with \
             `yali-prof export --chrome` and commit it"
        ));
    }
    let p = profile::profile(&trace);
    let self_total = p.self_total_ns();
    if self_total != p.root_wall_ns {
        return Err(format!(
            "golden profile self-time total {self_total}ns != root wall {}ns",
            p.root_wall_ns
        ));
    }
    let tl = timeline::timeline(&trace, 8)
        .ok_or("golden fixture lost its par_worker events".to_string())?;
    // The two-process merge fixture: stitch the committed shard captures,
    // demand a byte-identical Chrome export, and demand the merged JSONL
    // re-satisfies the strict parser.
    let s0 = parse_trace(GOLDEN_SHARD0).map_err(|e| format!("shard0 fixture: {e}"))?;
    let s1 = parse_trace(GOLDEN_SHARD1).map_err(|e| format!("shard1 fixture: {e}"))?;
    let merged = merge::merge_traces(vec![
        ("golden_shard0.jsonl".to_string(), s0),
        ("golden_shard1.jsonl".to_string(), s1),
    ]);
    let merged_chrome = merge::to_chrome_merged(&merged);
    if merged_chrome != GOLDEN_MERGED_CHROME {
        let diff_line = merged_chrome
            .lines()
            .zip(GOLDEN_MERGED_CHROME.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| {
                merged_chrome
                    .lines()
                    .count()
                    .min(GOLDEN_MERGED_CHROME.lines().count())
                    + 1
            });
        return Err(format!(
            "merged chrome export of the shard fixtures is not byte-identical to \
             fixtures/golden_merged_chrome.json (first difference at line {diff_line}); if the \
             merge exporter changed intentionally, regenerate the fixture with \
             `yali-prof merge` and commit it"
        ));
    }
    let merged_jsonl = merge::to_jsonl_merged(&merged);
    parse_trace(&merged_jsonl)
        .map_err(|e| format!("merged shard fixtures fail the strict parser: {e}"))?;
    Ok(format!(
        "selfcheck ok: {} events, {} spans on {} thread(s), {} label(s), export {} bytes, \
         pool timeline over {} worker slot(s), merged export {} bytes over {} process lane(s)",
        trace.n_events,
        trace.n_spans,
        trace.tids().len(),
        p.labels.len(),
        exported.len(),
        tl.workers.len(),
        merged_chrome.len(),
        merged.processes.len(),
    ))
}

#[cfg(test)]
mod tests {
    #[test]
    fn selfcheck_passes_on_the_committed_fixture() {
        let report = super::selfcheck().expect("selfcheck");
        assert!(report.contains("selfcheck ok"), "{report}");
    }
}
