//! The `yali-prof` CLI: trace analysis, Perfetto export, and the gate
//! engine over the files the instrumented engine and its benches
//! write (`YALI_TRACE` JSONL captures, `RUNSTATS_*.json`,
//! `BENCH_*.json`).

const USAGE: &str = "\
yali-prof — trace analysis and report gates for yali telemetry

USAGE:
  yali-prof top <TRACE.jsonl> [--top N] [--json]  self/total time per span label
  yali-prof critical-path <TRACE.jsonl> [--json]  the span chain bounding wall time
  yali-prof timeline <TRACE.jsonl> [--buckets N]  pool busy/idle per worker
  yali-prof export --chrome <TRACE.jsonl> [-o OUT.json]
                                                Chrome Trace Format (Perfetto)
  yali-prof merge <TRACE.jsonl>... [-o OUT.json] [--jsonl OUT.jsonl]
                                                stitch N process captures into one
                                                clock-aligned Chrome timeline (one
                                                process lane per input)
  yali-prof cross-path <TRACE.jsonl>... [--trace-id 0xID] [--json]
                                                client-to-server latency attribution
                                                for one request (slowest by default)
  yali-prof diff <OLD.json> <NEW.json>          gate a RUNSTATS/BENCH/fleet report against
                                                its baseline and on its own (diff F F runs
                                                the absolute gates alone)
  yali-prof selfcheck                           golden-fixture round trip

EXIT: 0 ok; 1 analysis/regression failure; 2 usage error";

fn fail(msg: &str) -> i32 {
    eprintln!("yali-prof: {msg}");
    1
}

fn usage(msg: &str) -> i32 {
    eprintln!("yali-prof: {msg}\n\n{USAGE}");
    2
}

/// Pulls `--flag value` out of `args`, parsed as `T`.
fn take_flag<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let raw = args.remove(i + 1);
        args.remove(i);
        raw.parse::<T>()
            .map(Some)
            .map_err(|_| format!("{flag} value {raw:?} did not parse"))
    } else {
        Ok(None)
    }
}

/// Removes a boolean `--flag` from `args`, reporting whether it was there.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let n = args.len();
    args.retain(|a| a != flag);
    args.len() != n
}

/// Parses a trace id given as `0x...` hex or decimal.
fn parse_trace_id(raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x") {
        Some(h) => u64::from_str_radix(h, 16),
        None => raw.parse::<u64>(),
    };
    parsed.map_err(|_| format!("--trace-id value {raw:?} is not a 0x hex or decimal id"))
}

/// Parses every listed capture and stitches them onto one timeline.
fn merge_inputs(paths: &[String]) -> Result<yali_prof::MergedTrace, String> {
    let mut inputs = Vec::with_capacity(paths.len());
    for path in paths {
        inputs.push((path.clone(), yali_prof::parse_trace_file(path)?));
    }
    Ok(yali_prof::merge_traces(inputs))
}

fn run() -> i32 {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage("missing command");
    };
    args.remove(0);
    match cmd.as_str() {
        "top" => {
            let n = match take_flag::<usize>(&mut args, "--top") {
                Ok(v) => v.unwrap_or(20),
                Err(e) => return usage(&e),
            };
            let json = take_switch(&mut args, "--json");
            let [path] = args.as_slice() else {
                return usage("top takes exactly one trace file");
            };
            match yali_prof::parse_trace_file(path) {
                Ok(trace) => {
                    let p = yali_prof::profile(&trace);
                    if json {
                        print!("{}", yali_prof::render_top_json(&p, n));
                    } else {
                        print!("{}", yali_prof::render_top(&p, n));
                    }
                    0
                }
                Err(e) => fail(&e),
            }
        }
        "critical-path" => {
            let json = take_switch(&mut args, "--json");
            let [path] = args.as_slice() else {
                return usage("critical-path takes exactly one trace file");
            };
            match yali_prof::parse_trace_file(path) {
                Ok(trace) => {
                    let path = yali_prof::critical_path(&trace);
                    if json {
                        print!("{}", yali_prof::render_critical_path_json(&path));
                    } else {
                        print!("{}", yali_prof::render_critical_path(&path));
                    }
                    0
                }
                Err(e) => fail(&e),
            }
        }
        "timeline" => {
            let buckets = match take_flag::<usize>(&mut args, "--buckets") {
                Ok(v) => v.unwrap_or(60),
                Err(e) => return usage(&e),
            };
            let [path] = args.as_slice() else {
                return usage("timeline takes exactly one trace file");
            };
            match yali_prof::parse_trace_file(path) {
                Ok(trace) => match yali_prof::timeline(&trace, buckets) {
                    Some(tl) => {
                        print!("{}", yali_prof::render_timeline(&tl));
                        0
                    }
                    None => fail("trace has no par_worker events (serial run?)"),
                },
                Err(e) => fail(&e),
            }
        }
        "export" => {
            if args.iter().position(|a| a == "--chrome").is_none() {
                return usage("export currently supports only --chrome");
            }
            args.retain(|a| a != "--chrome");
            let out = match take_flag::<String>(&mut args, "-o") {
                Ok(v) => v,
                Err(e) => return usage(&e),
            };
            let [path] = args.as_slice() else {
                return usage("export takes exactly one trace file");
            };
            let out = out.unwrap_or_else(|| match path.strip_suffix(".jsonl") {
                Some(stem) => format!("{stem}.chrome.json"),
                None => format!("{path}.chrome.json"),
            });
            match yali_prof::parse_trace_file(path) {
                Ok(trace) => {
                    let chrome = yali_prof::to_chrome(&trace);
                    match std::fs::write(&out, &chrome) {
                        Ok(()) => {
                            println!(
                                "wrote {out} ({} bytes, {} spans) — load it at \
                                 https://ui.perfetto.dev or chrome://tracing",
                                chrome.len(),
                                trace.n_spans
                            );
                            0
                        }
                        Err(e) => fail(&format!("cannot write {out}: {e}")),
                    }
                }
                Err(e) => fail(&e),
            }
        }
        "merge" => {
            let out = match take_flag::<String>(&mut args, "-o") {
                Ok(v) => v.unwrap_or_else(|| "merged_chrome.json".to_string()),
                Err(e) => return usage(&e),
            };
            let jsonl_out = match take_flag::<String>(&mut args, "--jsonl") {
                Ok(v) => v,
                Err(e) => return usage(&e),
            };
            if args.is_empty() {
                return usage("merge takes one or more trace files");
            }
            let merged = match merge_inputs(&args) {
                Ok(m) => m,
                Err(e) => return fail(&e),
            };
            let chrome = yali_prof::to_chrome_merged(&merged);
            if let Err(e) = std::fs::write(&out, &chrome) {
                return fail(&format!("cannot write {out}: {e}"));
            }
            for p in &merged.processes {
                println!(
                    "lane {}: {} (+{}us) from {}",
                    p.lane,
                    p.name,
                    p.offset_ns / 1000,
                    p.source
                );
            }
            println!(
                "wrote {out} ({} bytes, {} process lane(s)) — load it at \
                 https://ui.perfetto.dev or chrome://tracing",
                chrome.len(),
                merged.processes.len()
            );
            if let Some(jsonl_path) = jsonl_out {
                let jsonl = yali_prof::to_jsonl_merged(&merged);
                if let Err(e) = std::fs::write(&jsonl_path, &jsonl) {
                    return fail(&format!("cannot write {jsonl_path}: {e}"));
                }
                println!("wrote {jsonl_path} ({} bytes, merged JSONL)", jsonl.len());
            }
            0
        }
        "cross-path" => {
            let json = take_switch(&mut args, "--json");
            let want = match take_flag::<String>(&mut args, "--trace-id") {
                Ok(Some(raw)) => match parse_trace_id(&raw) {
                    Ok(id) => Some(id),
                    Err(e) => return usage(&e),
                },
                Ok(None) => None,
                Err(e) => return usage(&e),
            };
            if args.is_empty() {
                return usage("cross-path takes one or more trace files");
            }
            let merged = match merge_inputs(&args) {
                Ok(m) => m,
                Err(e) => return fail(&e),
            };
            match yali_prof::cross_path(&merged, want) {
                Ok(cp) => {
                    if json {
                        print!("{}", yali_prof::render_cross_path_json(&cp));
                    } else {
                        print!("{}", yali_prof::render_cross_path(&cp));
                    }
                    0
                }
                Err(e) => fail(&e),
            }
        }
        "diff" => {
            let [old, new] = args.as_slice() else {
                return usage("diff takes exactly two report files");
            };
            match yali_prof::diff_files(old, new) {
                Ok(violations) if violations.is_empty() => {
                    println!("diff ok: {new} within thresholds of {old}");
                    0
                }
                Ok(violations) => {
                    for v in &violations {
                        eprintln!("{v}");
                    }
                    eprintln!(
                        "yali-prof: {} regression(s) comparing {new} against {old}",
                        violations.len()
                    );
                    1
                }
                Err(e) => fail(&e),
            }
        }
        "selfcheck" => match yali_prof::selfcheck() {
            Ok(report) => {
                println!("{report}");
                0
            }
            Err(e) => fail(&e),
        },
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            0
        }
        other => usage(&format!("unknown command {other:?}")),
    }
}

fn main() {
    std::process::exit(run());
}
