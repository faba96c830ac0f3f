//! The `yali-serve` CLI: run the verdict daemon, or talk to one.
//!
//! ```text
//! yali-serve serve [--addr 127.0.0.1:0] [--models lr,mlp,...]
//!                  [--classes N] [--per-class N] [--seed N]
//!     train the tenants (read-through YALI_STORE when attached), print
//!     "yali-serve: listening on HOST:PORT", serve until SHUTDOWN
//! yali-serve ping       --addr HOST:PORT
//! yali-serve classify   --addr HOST:PORT --model NAME (--features a,b,... | --code SRC)
//! yali-serve scan       --addr HOST:PORT --code SRC
//! yali-serve stats      --addr HOST:PORT
//! yali-serve metrics    --addr HOST:PORT
//! yali-serve dump-trace --addr HOST:PORT [--out FILE]
//! yali-serve top        --addr HOST:PORT [--interval-ms 1000] [--iterations N]
//! yali-serve shutdown   --addr HOST:PORT
//! ```
//!
//! `classify --code` compiles and embeds the MiniC source client-side
//! (the same `yali_embed::histogram` pipeline the server trained on) and
//! sends the resulting feature row; `--features` sends raw values.
//! `metrics` prints one structured live snapshot (windowed quantiles +
//! rolling QPS per lane), `dump-trace` pulls the flight recorder as a
//! `yali-prof`-ready JSONL trace, and `top` refreshes the metrics view
//! in place like its namesake.
//!
//! Every client subcommand accepts `--trace FILE [--trace-seed N]`: the
//! process writes its own `client`-role JSONL capture to FILE and stamps
//! each request with a trace context, so a server started with
//! `YALI_OBS=1 YALI_TRACE=...` produces a capture `yali-prof merge` can
//! stitch with FILE and `yali-prof cross-path` can attribute.

use std::process::ExitCode;

use yali_ml::ModelKind;
use yali_obs::Args;
use yali_serve::{
    config_from_env, live_config_from_env, train_tenants, Client, Metrics, Reply, Server,
};

const USAGE: &str = "\
usage: yali-serve <serve|ping|classify|scan|stats|metrics|dump-trace|top|shutdown> [options]
  serve      [--addr 127.0.0.1:0] [--models lr,mlp,...] [--classes N] [--per-class N] [--seed N]
  ping       --addr HOST:PORT
  classify   --addr HOST:PORT --model NAME (--features a,b,... | --code SRC)
  scan       --addr HOST:PORT --code SRC
  stats      --addr HOST:PORT
  metrics    --addr HOST:PORT
  dump-trace --addr HOST:PORT [--out FILE]          (default: stdout)
  top        --addr HOST:PORT [--interval-ms 1000] [--iterations N]  (0 = forever)
  shutdown   --addr HOST:PORT
every client subcommand also takes --trace FILE [--trace-seed N]:
  write a client-side JSONL capture to FILE and send a trace context with
  each request (stitch with the server capture via `yali-prof merge`)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("ping") => cmd_simple(&args[1..], |c| c.ping()),
        Some("classify") => cmd_classify(&args[1..]),
        Some("scan") => cmd_scan(&args[1..]),
        Some("stats") => cmd_simple(&args[1..], |c| c.stats()),
        Some("metrics") => cmd_simple(&args[1..], |c| c.metrics()),
        Some("dump-trace") => cmd_dump_trace(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("shutdown") => cmd_simple(&args[1..], |c| c.shutdown()),
        Some("help") | Some("--help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("yali-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Walks a subcommand's `--flag value` arguments; serve's subcommands take
/// no positional arguments.
fn flags(args: &[String]) -> Result<Args<'_>, String> {
    let args = Args::parse(args)?;
    match args.positional.first() {
        Some(a) => Err(format!("unexpected positional argument {a:?}")),
        None => Ok(args),
    }
}

fn model_by_name(name: &str) -> Result<ModelKind, String> {
    ModelKind::ALL
        .iter()
        .copied()
        .find(|k| k.name() == name.trim())
        .ok_or_else(|| {
            let all: Vec<&str> = ModelKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown model {name:?} (known: {})", all.join(","))
        })
}

/// `--trace FILE [--trace-seed N]` on a client subcommand: attach a
/// client-role JSONL sink and stamp every request with a deterministic
/// trace context derived from the seed (default 1) and the request id.
fn maybe_enable_tracing(args: &Args, client: &mut Client) -> Result<(), String> {
    let Some(path) = args.get("trace") else {
        return Ok(());
    };
    let seed = args.get_num("trace-seed", 1)?;
    yali_obs::set_identity("client", None);
    yali_obs::set_enabled(true);
    yali_obs::set_trace_path(Some(path));
    client.set_tracing(seed);
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let args = flags(args)?;
    // Stamp the capture's process lane before anything can attach the
    // trace sink (the preamble renders when the sink attaches).
    yali_obs::set_identity("serve", None);
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let kinds: Vec<ModelKind> = match args.get("models") {
        None => vec![ModelKind::Lr, ModelKind::Mlp],
        Some(list) => list
            .split(',')
            .map(model_by_name)
            .collect::<Result<_, _>>()?,
    };
    let classes = args.get_num("classes", 8)? as usize;
    let per_class = args.get_num("per-class", 12)? as usize;
    let seed = args.get_num("seed", 77)?;
    let tenants = train_tenants(&kinds, classes, per_class, seed);
    let server = Server::bind_with(addr, tenants, config_from_env(), live_config_from_env())
        .map_err(|e| format!("bind {addr}: {e}"))?;
    // The smoke test and any scripted caller parse this exact line to
    // discover the ephemeral port; keep it first and flushed.
    println!("yali-serve: listening on {}", server.local_addr());
    use std::io::Write;
    std::io::stdout().flush().ok();
    server.run().map_err(|e| format!("serve: {e}"))
}

fn print_reply(reply: &Reply) -> Result<(), String> {
    match reply {
        Reply::Ok => println!("ok"),
        Reply::Label(l) => println!("label {l}"),
        Reply::Scan { malware, ratio } => {
            println!("malware {malware} ratio {ratio:.4}")
        }
        Reply::Stats(text) => print!("{text}"),
        Reply::Metrics(m) => print!("{}", render_metrics(m)),
        Reply::Trace(jsonl) => print!("{jsonl}"),
        Reply::Overloaded => return Err("server overloaded".to_string()),
        Reply::BadRequest(reason) => return Err(format!("bad request: {reason}")),
        Reply::UnknownModel => return Err("unknown model index".to_string()),
    }
    Ok(())
}

fn cmd_simple(
    args: &[String],
    call: impl FnOnce(&mut Client) -> std::io::Result<Reply>,
) -> Result<(), String> {
    let args = flags(args)?;
    let addr = args.require("addr")?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    maybe_enable_tracing(&args, &mut client)?;
    let reply = call(&mut client).map_err(|e| e.to_string())?;
    print_reply(&reply)
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let args = flags(args)?;
    let addr = args.require("addr")?;
    let model_name = args.require("model")?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    maybe_enable_tracing(&args, &mut client)?;
    // Resolve the model name against the server's roster so the wire
    // index always matches what the daemon actually serves.
    let stats = match client.stats().map_err(|e| e.to_string())? {
        Reply::Stats(text) => text,
        other => return Err(format!("unexpected stats reply {other:?}")),
    };
    let roster: Vec<String> = stats
        .lines()
        .find_map(|l| l.strip_prefix("models "))
        .map(|m| m.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    let model = roster
        .iter()
        .position(|n| n == model_name.trim())
        .ok_or_else(|| format!("server does not serve {model_name:?} (roster: {roster:?})"))?
        as u8;
    let features: Vec<f64> = match (args.get("features"), args.get("code")) {
        (Some(csv), None) => csv
            .split(',')
            .map(|v| {
                v.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("feature {v:?} is not a number"))
            })
            .collect::<Result<_, _>>()?,
        (None, Some(src)) => {
            let module = yali_minic::compile(src).map_err(|e| format!("minic: {e}"))?;
            yali_embed::histogram(&module)
        }
        _ => return Err("classify needs exactly one of --features or --code".to_string()),
    };
    let reply = client.classify(model, features).map_err(|e| e.to_string())?;
    print_reply(&reply)
}

/// `None` quantiles (empty window) render as `-`, never a fake zero.
fn fmt_q(q: Option<u64>) -> String {
    match q {
        Some(ns) => format!("{:.3}", ns as f64 / 1e6),
        None => "-".to_string(),
    }
}

fn render_metrics(m: &Metrics) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "window {:.1}s  queue {}  requests {}  responses {}  overloaded {}",
        m.window_ns as f64 / 1e9,
        m.queue_depth,
        m.requests,
        m.responses,
        m.overloaded
    );
    let _ = writeln!(
        out,
        "batches {}  rows {}  flight_dumps {}  recorder {} events ({} dropped)",
        m.batches, m.batched_rows, m.flight_dumps, m.recorder_events, m.recorder_dropped
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "lane", "count", "p50 ms", "p95 ms", "p99 ms", "qps"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10.1}",
        "all",
        m.window_count,
        fmt_q(m.p50_ns),
        fmt_q(m.p95_ns),
        fmt_q(m.p99_ns),
        m.qps
    );
    for lane in &m.lanes {
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10.1}",
            lane.name,
            lane.window_count,
            fmt_q(lane.p50_ns),
            fmt_q(lane.p95_ns),
            fmt_q(lane.p99_ns),
            lane.qps
        );
    }
    out
}

fn cmd_dump_trace(args: &[String]) -> Result<(), String> {
    let args = flags(args)?;
    let addr = args.require("addr")?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let jsonl = match client.dump_trace().map_err(|e| e.to_string())? {
        Reply::Trace(jsonl) => jsonl,
        other => return Err(format!("unexpected dump-trace reply {other:?}")),
    };
    match args.get("out") {
        None => print!("{jsonl}"),
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!(
                "yali-serve: wrote {} lines to {path}",
                jsonl.lines().count()
            );
        }
    }
    Ok(())
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    use std::io::{IsTerminal, Write};
    let args = flags(args)?;
    let addr = args.require("addr")?;
    let interval = args.get_num("interval-ms", 1_000)?;
    let iterations = args.get_num("iterations", 0)?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let fancy = std::io::stdout().is_terminal();
    let mut n = 0u64;
    loop {
        let m = match client.metrics().map_err(|e| e.to_string())? {
            Reply::Metrics(m) => m,
            other => return Err(format!("unexpected metrics reply {other:?}")),
        };
        let mut stdout = std::io::stdout().lock();
        if fancy {
            // Home + clear-to-end keeps a static layout from flickering.
            let _ = write!(stdout, "\x1b[H\x1b[2J");
        }
        let _ = write!(stdout, "yali-serve top — {addr}\n{}", render_metrics(&m));
        let _ = stdout.flush();
        n += 1;
        if iterations != 0 && n >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval));
    }
}

fn cmd_scan(args: &[String]) -> Result<(), String> {
    let args = flags(args)?;
    let addr = args.require("addr")?;
    let code = args.require("code")?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    maybe_enable_tracing(&args, &mut client)?;
    let reply = client.scan(code).map_err(|e| e.to_string())?;
    print_reply(&reply)
}
