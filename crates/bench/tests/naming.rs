//! Metric-name grammar audit.
//!
//! Fleet merging (`yali-prof merge`, `RunReport::merge`) joins counters and
//! histograms from many processes *by name*, so the names themselves are a
//! wire format: `crate.subsystem.metric` — 2 to 4 dot-separated segments,
//! each `[a-z][a-z0-9_]*`. Two call sites that drift into different
//! spellings of the same metric silently fork a series; a name outside the
//! grammar can collide with another crate's namespace after a merge. The
//! grammar is documented in DESIGN.md ("Metric naming grammar").
//!
//! Two layers of enforcement:
//! * a source audit over every `count!` / `record!` / `span!` /
//!   `span_attr!` / `counter(` / `histogram(` / `trace_region(` literal in
//!   the workspace, so even names on paths no test exercises are checked;
//! * a runtime check that everything a representative game run actually
//!   registers in the global registry obeys the same grammar.

use std::collections::BTreeSet;
use std::path::Path;

/// True when `name` matches `crate.subsystem.metric`: 2–4 dot-separated
/// segments, each starting with a lowercase letter and continuing with
/// lowercase letters, digits, or underscores.
fn name_is_well_formed(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    if !(2..=4).contains(&segments.len()) {
        return false;
    }
    segments.iter().all(|seg| {
        let mut chars = seg.chars();
        matches!(chars.next(), Some('a'..='z'))
            && chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'))
    })
}

/// Pulls the first string literal out of `line` after each metric-naming
/// call site. Macro *definitions* (which interpolate `$name`) have no
/// literal after the paren and are skipped naturally.
fn extract_names(line: &str, out: &mut BTreeSet<String>) {
    const SITES: [&str; 7] = [
        "count!(\"",
        "record!(\"",
        "span!(\"",
        "span_attr!(\"",
        "counter(\"",
        "histogram(\"",
        "trace_region(\"",
    ];
    for site in SITES {
        let mut rest = line;
        while let Some(at) = rest.find(site) {
            rest = &rest[at + site.len()..];
            if let Some(end) = rest.find('"') {
                out.insert(rest[..end].to_string());
                rest = &rest[end..];
            }
        }
    }
}

fn walk(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source file");
            for line in text.lines() {
                extract_names(line, out);
            }
        }
    }
}

#[test]
fn every_metric_name_in_the_source_tree_matches_the_grammar() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut names = BTreeSet::new();
    walk(&crates, &mut names);
    assert!(
        names.len() >= 40,
        "source audit found only {} metric names — extraction broke?",
        names.len()
    );
    let bad: Vec<&String> = names.iter().filter(|n| !name_is_well_formed(n)).collect();
    assert!(
        bad.is_empty(),
        "metric names violating the crate.subsystem.metric grammar \
         (2-4 segments of [a-z][a-z0-9_]*): {bad:?}"
    );
}

#[test]
fn every_name_a_game_run_registers_matches_the_grammar() {
    yali_obs::set_enabled(true);
    let corpus = yali_core::Corpus::poj(2, 3, 7);
    let cfg = yali_core::GameConfig::game0(
        yali_core::ClassifierSpec::histogram(yali_ml::ModelKind::Rf),
        7,
    );
    let _ = yali_core::play(&corpus, &cfg);

    let reg = yali_obs::Registry::global();
    let mut seen = 0usize;
    for (name, _) in reg.counters() {
        assert!(name_is_well_formed(&name), "counter name {name:?} off-grammar");
        seen += 1;
    }
    for h in reg.histograms() {
        assert!(
            name_is_well_formed(&h.name),
            "histogram name {:?} off-grammar",
            h.name
        );
        seen += 1;
    }
    assert!(seen >= 10, "game run registered only {seen} series — obs off?");
}

#[test]
fn the_grammar_rejects_the_shapes_merging_would_alias() {
    for good in ["serve.requests", "ml.gemm.kernel.avx2", "par.busy_ns"] {
        assert!(name_is_well_formed(good), "{good:?} should be accepted");
    }
    for bad in [
        "requests",               // 1 segment: no crate namespace
        "a.b.c.d.e",              // 5 segments
        "Serve.requests",         // uppercase
        "serve..requests",        // empty segment
        "serve.2nd",              // segment starts with a digit
        "serve.batch-rows",       // hyphen
        "serve.requests ",        // stray whitespace
    ] {
        assert!(!name_is_well_formed(bad), "{bad:?} should be rejected");
    }
}
