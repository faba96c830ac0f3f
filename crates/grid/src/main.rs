//! The `yali-grid` CLI: plan, play, shard, and merge experiment sweeps.
//!
//! ```text
//! yali-grid plan   [grid options]                 list the design points
//! yali-grid point  --game G --evader E --model M --round R [--repeat N]
//!                  [--classes C --per-class P]    play one point, print JSON
//! yali-grid worker --shard I --of N --out FILE [--runstats FILE] [grid options]
//!                  play one shard, write its report
//! yali-grid run    --workers N --out FILE [--store DIR] [--runstats FILE] [grid options]
//!                  spawn N workers sharing one store, merge their reports
//! yali-grid merge  --out FILE IN...               merge shard reports
//!
//! grid options: --games A,B --evaders A,B --models A,B
//!               --rounds N --classes N --per-class N
//! ```
//!
//! Set `YALI_STORE=dir` (or pass `--store`) so workers share artifacts;
//! re-running a grid against a warm store recomputes only what the
//! previous run never committed — that is the resume story.
//!
//! Under `YALI_OBS=1` a sharded `run` is also a *fleet observability*
//! run: every worker is stamped with its shard identity, gets its own
//! trace sink (`YALI_TRACE=<base>.shardN` when the driver has a
//! `YALI_TRACE`), plays its slice inside a traced `grid.worker` span, and
//! writes a per-shard run report. The driver merges those reports
//! bucket-wise into `RUNSTATS_grid.json` (see
//! [`yali_core::FleetReport`]), prints a per-shard straggler table, and
//! leaves the gating to `yali-prof diff`, which holds the report to the
//! straggler ceiling, the shard-drift band and fleet counters that equal
//! their shard sums.

use std::process::{Command, ExitCode};

use yali_grid::{
    evader_by_name, game_by_name, merge, model_by_name, partition, play_point, GridReport,
    GridSpec, PointResult,
};
use yali_obs::Args;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("plan") => cmd_plan(&args[1..]),
        Some("point") => cmd_point(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("help") | Some("--help") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("yali-grid: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: yali-grid <plan|point|worker|run|merge> [options]
  plan   [grid options]                          list the design points
  point  --game G --evader E --model M --round R [--repeat N] [--classes C --per-class P]
  worker --shard I --of N --out FILE [--runstats FILE] [grid options]
  run    --workers N --out FILE [--store DIR] [--runstats FILE] [grid options]
  merge  --out FILE IN...
grid options: --games A,B --evaders A,B --models A,B --rounds N --classes N --per-class N
under YALI_OBS=1, run writes a fleet report (default RUNSTATS_grid.json; --runstats FILE)
merging every shard's run report, and YALI_TRACE=<base> gives each worker <base>.shardN
";

/// Builds the grid spec from `--games/--evaders/--models/--rounds/
/// --classes/--per-class`, defaulting to the `YALI_SCALE` scale's Game-1
/// sweep.
fn spec_from_args(args: &Args<'_>) -> Result<GridSpec, String> {
    let mut spec = GridSpec::from_scale(&yali_core::Scale::from_env());
    if let Some(games) = args.get("games") {
        spec.games = games
            .split(',')
            .map(game_by_name)
            .collect::<Result<_, _>>()?;
    }
    if let Some(evaders) = args.get("evaders") {
        spec.evaders = evaders
            .split(',')
            .map(evader_by_name)
            .collect::<Result<_, _>>()?;
    }
    if let Some(models) = args.get("models") {
        spec.models = models
            .split(',')
            .map(model_by_name)
            .collect::<Result<_, _>>()?;
    }
    spec.rounds = args.get_num("rounds", spec.rounds)?;
    spec.classes = args.get_num("classes", spec.classes)?;
    spec.per_class = args.get_num("per-class", spec.per_class)?;
    if spec.games.is_empty() || spec.evaders.is_empty() || spec.models.is_empty() {
        return Err("the grid needs at least one game, evader, and model".into());
    }
    if spec.rounds == 0 || spec.classes < 2 || spec.per_class < 2 {
        return Err("the grid needs rounds >= 1, classes >= 2, per-class >= 2".into());
    }
    Ok(spec)
}

/// The grid flags to forward verbatim to spawned workers.
fn forwarded_grid_flags(args: &Args<'_>) -> Vec<String> {
    let mut out = Vec::new();
    for name in ["games", "evaders", "models", "rounds", "classes", "per-class"] {
        if let Some(v) = args.get(name) {
            out.push(format!("--{name}"));
            out.push(v.to_string());
        }
    }
    out
}

fn cmd_plan(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest)?;
    let spec = spec_from_args(&args)?;
    let points = spec.points();
    for p in &points {
        println!(
            "{:6}  {}  {}  {}  round {}",
            p.index,
            p.game.name(),
            p.evader.name(),
            p.model.name(),
            p.round
        );
    }
    println!(
        "{} points ({} games x {} evaders x {} models x {} rounds), corpus {} classes x {}",
        points.len(),
        spec.games.len(),
        spec.evaders.len(),
        spec.models.len(),
        spec.rounds,
        spec.classes,
        spec.per_class
    );
    Ok(())
}

fn cmd_point(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest)?;
    let spec = GridSpec {
        games: vec![game_by_name(args.require("game")?)?],
        evaders: vec![evader_by_name(args.require("evader")?)?],
        models: vec![model_by_name(args.require("model")?)?],
        rounds: 1,
        classes: args.get_num("classes", yali_core::Scale::from_env().classes)?,
        per_class: args.get_num("per-class", yali_core::Scale::from_env().per_class)?,
    };
    let round: u64 = args
        .require("round")?
        .parse()
        .map_err(|_| "--round must be a number".to_string())?;
    let repeat = args.get_num("repeat", 1)?;
    let mut point = spec.points()[0];
    point.round = round;
    for _ in 0..repeat {
        let r = play_point(&spec, &point);
        println!(
            "{}",
            serde_json::to_string(&r).map_err(|e| format!("serialize: {e:?}"))?
        );
    }
    yali_core::store::sync_active();
    Ok(())
}

/// Seed mixed with the shard index to derive a worker's trace context
/// ([`yali_obs::TraceContext::derive`]), so every shard's `grid.worker`
/// span carries a distinct, deterministic trace id.
const GRID_TRACE_SEED: u64 = 0x9a11_6d1d;

fn cmd_worker(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest)?;
    let spec = spec_from_args(&args)?;
    let shard = args.get_num("shard", 0)?;
    let of = args.get_num("of", 1)?;
    if of == 0 || shard >= of {
        return Err(format!("--shard {shard} not in 0..{of}"));
    }
    // Stamp the process lane before the trace sink can attach (the first
    // instrumented call opens it lazily from YALI_TRACE).
    yali_obs::set_identity("worker", Some(shard as u64));
    let out = args.require("out")?;
    let mine = partition(&spec.points(), shard, of);
    let mut results = Vec::with_capacity(mine.len());
    {
        let ctx = yali_obs::TraceContext::derive(GRID_TRACE_SEED, shard as u64);
        let _ctx_guard = yali_obs::push_context(ctx);
        let _worker_span = yali_obs::span!("grid.worker");
        for p in &mine {
            let _point_span = yali_obs::span_attr!("grid.point", "point", p.index as u64);
            results.push(PointResult::new(p, &play_point(&spec, p)));
        }
    }
    let report = GridReport::new(results);
    write_atomically(out, &report.to_json())?;
    // Make this worker's published artifacts durable before exiting so a
    // resuming run finds them even after power loss.
    yali_core::store::sync_active();
    // The run report lands after the worker span closed, so the shard's
    // full wall time is in `phases["grid.worker"]` (no-op with obs off).
    if let Some(runstats) = args.get("runstats") {
        yali_core::report::maybe_write_runstats(runstats);
    }
    eprintln!(
        "worker {shard}/{of}: {} points -> {out}{}",
        mine.len(),
        store_summary()
    );
    Ok(())
}

fn cmd_run(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest)?;
    // The driver's own (usually tiny) capture is stamped "driver" so a
    // merged timeline never confuses it with a worker lane.
    yali_obs::set_identity("driver", None);
    spec_from_args(&args)?; // validate before spawning anything
    let workers = args.get_num("workers", 1)?;
    if workers == 0 {
        return Err("--workers must be >= 1".into());
    }
    let out = args.require("out")?;
    let store = args.get("store");
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let grid_flags = forwarded_grid_flags(&args);
    // Fleet observability rides along when the driver runs instrumented:
    // each worker then writes its own run report for the merge below.
    let fleet_out = args.get("runstats").unwrap_or("RUNSTATS_grid.json");
    let obs = yali_obs::enabled();
    let trace_base = std::env::var("YALI_TRACE").ok().filter(|t| !t.trim().is_empty());

    let mut children = Vec::new();
    for shard in 0..workers {
        let shard_out = format!("{out}.shard{shard}");
        let mut cmd = Command::new(&exe);
        cmd.arg("worker")
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--of")
            .arg(workers.to_string())
            .arg("--out")
            .arg(&shard_out)
            .args(&grid_flags);
        if let Some(dir) = store {
            cmd.env("YALI_STORE", dir);
        }
        // Belt and braces: cmd_worker stamps its own identity, but the
        // env keeps any grandchild process on the right lane too.
        cmd.env("YALI_ROLE", "worker").env("YALI_SHARD", shard.to_string());
        if let Some(base) = &trace_base {
            cmd.env("YALI_TRACE", format!("{}.shard{shard}", base.trim()));
        }
        if obs {
            cmd.arg("--runstats").arg(format!("{shard_out}.runstats"));
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn worker {shard}: {e}"))?;
        children.push((shard, shard_out, child));
    }

    let mut shard_files = Vec::new();
    let mut failures = Vec::new();
    for (shard, shard_out, mut child) in children {
        let status = child
            .wait()
            .map_err(|e| format!("cannot wait for worker {shard}: {e}"))?;
        if status.success() {
            shard_files.push((shard, shard_out));
        } else {
            failures.push(format!("worker {shard} exited with {status}"));
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }

    let reports = shard_files
        .iter()
        .map(|(_, f)| {
            std::fs::read_to_string(f)
                .map_err(|e| format!("cannot read {f}: {e}"))
                .and_then(|text| GridReport::from_json(&text))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if obs {
        merge_fleet_runstats(&shard_files, &reports, fleet_out)?;
    }
    let merged = merge(reports)?;
    write_atomically(out, &merged.to_json())?;
    for (_, f) in &shard_files {
        let _ = std::fs::remove_file(f);
    }
    let mean_acc = merged.results.iter().map(|r| r.accuracy).sum::<f64>()
        / merged.results.len().max(1) as f64;
    println!(
        "{} workers, {} points -> {out} (mean accuracy {:.3})",
        workers, merged.n_points, mean_acc
    );
    Ok(())
}

/// Reads every shard's run report, merges them into a
/// [`yali_core::FleetReport`] written to `fleet_out`, and prints the
/// per-shard straggler table (wall time relative to the median shard).
fn merge_fleet_runstats(
    shard_files: &[(usize, String)],
    grid_reports: &[GridReport],
    fleet_out: &str,
) -> Result<(), String> {
    let mut shards = Vec::with_capacity(shard_files.len());
    for ((shard, grid_file), grid_report) in shard_files.iter().zip(grid_reports) {
        let path = format!("{grid_file}.runstats");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read shard run report {path}: {e}"))?;
        let report = yali_core::RunReport::from_json(&text)?;
        let wall_ns = report
            .phases
            .get("grid.worker")
            .map(|p| p.total_ns)
            .unwrap_or(0);
        shards.push(yali_core::ShardReport {
            shard: *shard,
            wall_ns,
            points: grid_report.n_points as usize,
            report,
        });
        let _ = std::fs::remove_file(&path);
    }
    let fleet = yali_core::FleetReport::new(shards);
    write_atomically(fleet_out, &fleet.to_json())?;
    let walls: Vec<u64> = fleet.shards.iter().map(|s| s.wall_ns).collect();
    let median = yali_core::report::median_wall_ns(&walls).max(1.0);
    for s in &fleet.shards {
        println!(
            "shard {}: {:>9.1} ms wall, {:>4} points ({:.2}x median)",
            s.shard,
            s.wall_ns as f64 / 1e6,
            s.points,
            s.wall_ns as f64 / median
        );
    }
    println!(
        "fleet: {} shards, straggler ratio {:.2} -> {fleet_out}",
        fleet.n_shards, fleet.straggler_ratio
    );
    Ok(())
}

fn cmd_merge(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest)?;
    let out = args.require("out")?;
    if args.positional.is_empty() {
        return Err("merge needs at least one input report".into());
    }
    let reports = args
        .positional
        .iter()
        .map(|f| {
            std::fs::read_to_string(f)
                .map_err(|e| format!("cannot read {f}: {e}"))
                .and_then(|text| GridReport::from_json(&text))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let merged = merge(reports)?;
    write_atomically(out, &merged.to_json())?;
    println!("{} reports, {} points -> {out}", args.positional.len(), merged.n_points);
    Ok(())
}

/// Writes via temp file + rename, so a killed driver never leaves a
/// half-written report where a resume would trust it.
fn write_atomically(path: &str, contents: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename {tmp} into place: {e}"))
}

/// A one-line store summary for worker stderr (empty with no store).
fn store_summary() -> String {
    match yali_core::store::active_stats() {
        Some(s) => format!(
            " (store: {} entries, {} disk hits, {} published)",
            s.entries, s.disk_hits, s.published
        ),
        None => String::new(),
    }
}
