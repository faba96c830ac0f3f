//! `yali-benchmark`: one command that times yali-rs end to end — the
//! Game 0–3 grids, neural training, the serving daemon under open- and
//! closed-loop load, and the artifact store's fill and resume — and each
//! layer from outside, through public calls only.
//!
//! ```text
//! yali-benchmark [--workload W|all] [--seed N] [--seconds S] [--trace [0|1]]
//!                [--out FILE]
//! yali-benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! Each workload runs in a child process (this binary re-executed with
//! `--child`), so global state — the engine caches, the store slot, the
//! observability switch the daemon turns on — never leaks between
//! workloads, and peak memory is per workload. With one workload, the last
//! line printed is its result as JSON; `--out` appends every result,
//! tagged with workload and seed, to a file `--compare` reads.

mod compare;
mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;
mod units;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use pipeline::Pipeline;
use report::{Outcome, Run};
use serve::Load;

pub const WORKLOADS: [&str; 6] = [
    "game-grid",
    "train-nn",
    "serve-8k",
    "serve-12k",
    "serve-sat",
    "store-resume",
];

/// Scratch space and traces, under the working directory.
const OUT_DIR: &str = ".yali-benchmark";
/// A workload's child is killed past this.
const CHILD_LIMIT: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: yali-benchmark [--workload W|all] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--out FILE]\n       yali-benchmark --compare A B";

/// What one workload run needs besides its metric set.
pub struct Config {
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Scratch space (artifact stores, flight dumps); the caller removes it.
    pub work_dir: PathBuf,
    /// Where a traced run writes `trace.jsonl` and `layers.json`.
    pub trace_dir: PathBuf,
}

/// Runs workload `name` in this process.
pub fn run_workload(name: &str, trace: bool, cfg: &Config) -> Outcome {
    let mut run = Run::new(trace);
    match name {
        "game-grid" => pipeline::run(Pipeline::GameGrid, cfg, &mut run),
        "train-nn" => pipeline::run(Pipeline::TrainNn, cfg, &mut run),
        "store-resume" => pipeline::run(Pipeline::StoreResume, cfg, &mut run),
        "serve-8k" => serve::run(Load::Open(8_000.0), cfg, &mut run),
        "serve-12k" => serve::run(Load::Open(12_000.0), cfg, &mut run),
        "serve-sat" => serve::run(Load::Window(256), cfg, &mut run),
        other => panic!("unknown workload {other}"),
    }
    if trace {
        units::measure(cfg.seed, &mut run);
    } else {
        run.set("peak_rss_mb", report::peak_rss_mb());
    }
    run.outcome()
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    /// Set on the re-executed child: its scratch directory.
    child: Option<PathBuf>,
}

fn parse(it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: pipeline::DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        out: None,
        compare: None,
        child: None,
    };
    let mut it = it.peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--out" => args.out = Some(value("a file")?.into()),
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "--child" => args.child = Some(value("a directory")?.into()),
            // `--trace 0|1`, or a bare `--trace` meaning 1.
            "--trace" => {
                let explicit = match it.peek().map(String::as_str) {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => None,
                };
                args.trace = explicit.unwrap_or(true);
                if explicit.is_some() {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of all, {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Re-executes this binary for one workload, with no caller `YALI_*`
/// setting, and returns the last line it printed plus that line parsed.
fn run_child(name: &str, args: &Args, dir: &Path) -> Result<(String, serde_json::Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .arg(dir)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("YALI_") {
            cmd.env_remove(key);
        }
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + CHILD_LIMIT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "{name} ran past {} s and was stopped",
                    CHILD_LIMIT.as_secs()
                ));
            }
            Err(e) => return Err(format!("waiting for the {name} child: {e}")),
        }
    };
    let text = reader.join().expect("stdout reader");
    if !status.success() {
        return Err(format!("{name} exited with {status}"));
    }
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("{name} printed no result"))?;
    let value = serde_json::from_str(last).map_err(|e| format!("{name} result: {e}"))?;
    Ok((last.to_string(), value))
}

fn print_table(name: &str, v: &serde_json::Value) {
    println!(
        "{name}: correct {}, {} of {} operations failed",
        v["correct"] == true,
        v["failed"].as_f64().unwrap_or(0.0),
        v["attempted"].as_f64().unwrap_or(0.0)
    );
    for (metric, m) in v["metrics"].as_object().into_iter().flatten() {
        println!(
            "  {metric:<32} {:>16.6} {}",
            m["value"].as_f64().unwrap_or(f64::NAN),
            m["unit"].as_str().unwrap_or("")
        );
    }
}

/// Runs the chosen workloads, one child each; returns the exit code.
fn parent(args: &Args) -> i32 {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let scratch = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    let mut results = Vec::new();
    let mut failed = false;
    for name in names {
        match run_child(name, args, &scratch.join(name)) {
            Ok((line, value)) => {
                print_table(name, &value);
                results.push((name, line, value));
            }
            Err(e) => {
                eprintln!("yali-benchmark: {e}");
                failed = true;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    // Gone unless a traced run left its trace there.
    let _ = std::fs::remove_dir(OUT_DIR);
    if let Some(out) = &args.out {
        let mut text = String::new();
        for (name, line, _) in &results {
            // Tag the result object: splice the fields in after its `{`.
            text.push_str(&format!(
                "{{\"workload\":\"{name}\",\"seed\":{},\"trace\":{},{}\n",
                args.seed,
                args.trace,
                &line[1..]
            ));
        }
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| std::io::Write::write_all(&mut f, text.as_bytes()));
        if let Err(e) = appended {
            eprintln!("yali-benchmark: cannot append to {}: {e}", out.display());
            failed = true;
        }
    }
    if failed {
        return 1;
    }
    // One workload: its result is the last line printed.
    if let [(_, line, _)] = results.as_slice() {
        println!("{line}");
    }
    if results.iter().all(|(_, _, v)| v["correct"] == true) {
        0
    } else {
        1
    }
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("yali-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        if let Err(e) = compare::run(a, b, Path::new("BENCHMARK.json")) {
            eprintln!("yali-benchmark: {e}");
            std::process::exit(2);
        }
        return;
    }
    if let Some(dir) = &args.child {
        let cfg = Config {
            seed: args.seed,
            seconds: args.seconds,
            work_dir: dir.clone(),
            trace_dir: Path::new(OUT_DIR).join(&args.workload),
        };
        let outcome = run_workload(&args.workload, args.trace, &cfg);
        println!(
            "{}",
            serde_json::to_string(&outcome).expect("the outcome serializes")
        );
        return;
    }
    std::process::exit(parent(&args));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn declared(doc: &serde_json::Value, key: &str) -> BTreeSet<(String, String)> {
        doc[key]
            .as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m[f].as_str().expect("a string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn arguments_parse_both_trace_spellings() {
        let parse_str = |s: &str| parse(s.split_whitespace().map(String::from));
        let a = parse_str("--workload serve-8k --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-8k", 7, 3.0, true)
        );
        assert!(!parse_str("--trace 0").unwrap().trace);
        assert!(parse_str("--trace --seed 2").unwrap().trace);
        assert!(parse_str("--trace").unwrap().trace);
        assert!(parse_str("--workload nope").is_err());
        assert!(parse_str("--seconds -1").is_err());
        assert!(parse_str("--bogus").is_err());
    }

    /// One short run of every workload, untraced and traced, must emit
    /// exactly the metric set `BENCHMARK.json` declares and pass its own
    /// checks.
    #[test]
    fn every_workload_emits_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let tmp = std::env::temp_dir().join(format!("yali-benchmark-smoke-{}", std::process::id()));
        for name in WORKLOADS {
            for trace in [false, true] {
                let cfg = Config {
                    seed: pipeline::DEFAULT_SEED,
                    seconds: 1.0,
                    work_dir: tmp.join(name),
                    trace_dir: tmp.join("trace").join(name),
                };
                let out = run_workload(name, trace, &cfg);
                let v = serde_json::from_str(&serde_json::to_string(&out).unwrap()).unwrap();
                let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                assert!(
                    v["correct"] == true,
                    "{name} (trace {trace}) failed its checks"
                );
                let emitted: BTreeSet<(String, String)> = v["metrics"]
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, m)| (k.clone(), m["unit"].as_str().unwrap().to_string()))
                    .collect();
                let want = declared(&doc, if trace { "per_layer" } else { "end_to_end" });
                assert_eq!(emitted, want, "{name} (trace {trace})");
            }
        }
        for pipeline in ["game-grid", "train-nn", "store-resume"] {
            let dir = tmp.join("trace").join(pipeline);
            assert!(dir.join("trace.jsonl").is_file() && dir.join("layers.json").is_file());
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
