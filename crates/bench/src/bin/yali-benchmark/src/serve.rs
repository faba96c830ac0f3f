//! The serve workloads: an in-process `yali-serve` daemon on the default
//! batch policy (with a deeper admission queue), driven over one
//! pipelined connection by one sender and one receiver thread.
//!
//! Every 32nd request scans a MiniC source from `MalwareCorpus`'s test
//! split; the rest alternate the two classify lanes. Every reply is
//! checked against the tenants' own per-row `predict` and the scanner's
//! `is_malware`, taken before the tenants move into the server.

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use yali_core::{
    engine, transform_all, Corpus, MalwareCorpus, RunReport, Sample, Scale, Transformer,
};
use yali_ml::ModelKind;
use yali_serve::protocol::{self, Reply, Request};
use yali_serve::{train_tenants, BatcherConfig, Client, LiveConfig, Server};

use crate::report::Run;
use crate::stats::{self, derive};
use crate::Config;

const MODELS: [ModelKind; 2] = [ModelKind::Mlp, ModelKind::Cnn];
const SCAN_EVERY: u64 = 32;
const WARMUP_S: f64 = 1.0;
/// How long to wait for replies still in flight when a phase ends.
const GRACE: Duration = Duration::from_secs(5);
const SETUPS: usize = 3;
/// Admission cap in rows. The default 1024 refused requests when a
/// 2-vCPU host stalled the dispatcher for ~64 ms at 16k req/s; 4096
/// queues through a 300 ms stall at 12k req/s.
const QUEUE_CAP: usize = 4096;
/// Closed-loop refills go out this many requests at a time.
const BURST: usize = 32;
/// Send-time slots for the closed loop, indexed by request id; far more
/// than can be in flight.
const RING: usize = 1 << 16;

#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Open loop: seeded Poisson arrivals at this many requests/s.
    Open(f64),
    /// Closed loop: this many requests in flight.
    Window(usize),
}

/// A running daemon plus the inputs and the answers it must give.
struct Fixture {
    addr: String,
    server: std::thread::JoinHandle<()>,
    queries: Vec<Vec<f64>>,
    /// Expected label per model lane per query.
    want: Vec<Vec<u32>>,
    scans: Vec<String>,
    scan_want: Vec<bool>,
}

fn fixture(seed: u64, dump_dir: &Path) -> Fixture {
    // `train_tenants` fits through the model cache; every set-up trains.
    engine::clear_caches();
    let s = Scale::SMALL;
    let tenants = train_tenants(&MODELS, s.classes, s.per_class, derive(seed, 10));
    let corpus = Corpus::poj(s.classes, s.per_class, derive(seed, 11));
    let all: Vec<&Sample> = corpus.samples.iter().collect();
    let queries: Vec<Vec<f64>> = transform_all(&all, Transformer::None, 3)
        .iter()
        .map(yali_embed::histogram)
        .collect();
    let want = tenants
        .models
        .iter()
        .map(|(_, clf)| queries.iter().map(|q| clf.predict(q) as u32).collect())
        .collect();
    let mal = MalwareCorpus::build(6, 2, derive(seed, 12));
    let scans: Vec<String> = mal
        .test_malware
        .iter()
        .chain(&mal.test_benign)
        .map(yali_minic::print)
        .collect();
    let scanner = tenants
        .scanner
        .as_ref()
        .expect("train_tenants builds a scanner");
    let scan_want = scans
        .iter()
        .map(|src| scanner.is_malware(&yali_minic::compile(src).expect("printed MiniC compiles")))
        .collect();
    // The daemon's batch policy, with room to queue through a host stall:
    // a refused request fails the run. Flight dumps go to scratch space.
    let batch = BatcherConfig {
        queue_cap: QUEUE_CAP,
        ..yali_serve::config_from_env()
    };
    let live = LiveConfig {
        dump_dir: dump_dir.to_path_buf(),
        ..LiveConfig::default()
    };
    let server =
        Server::bind_with("127.0.0.1:0", tenants, batch, live).expect("bind an ephemeral port");
    let addr = server.local_addr().to_string();
    let server = std::thread::spawn(move || server.run().expect("serve"));
    Fixture {
        addr,
        server,
        queries,
        want,
        scans,
        scan_want,
    }
}

fn shut_down(f: Fixture) {
    let mut client = Client::connect(&f.addr).expect("connect for shutdown");
    assert_eq!(client.shutdown().expect("shutdown"), Reply::Ok);
    f.server.join().expect("server thread");
}

/// Request `i` of a phase: a pure function of the phase seed and `i`.
#[derive(Clone, Copy)]
enum Req {
    Classify { lane: u8, query: usize },
    Scan(usize),
}

impl Fixture {
    fn request(&self, seed: u64, i: u64) -> Req {
        let r = derive(seed, i) as usize;
        if i % SCAN_EVERY == SCAN_EVERY - 1 {
            Req::Scan(r % self.scans.len())
        } else {
            Req::Classify {
                lane: (i % 2) as u8,
                query: r % self.queries.len(),
            }
        }
    }

    fn encode(&self, id: u64, req: Req) -> Vec<u8> {
        let req = match req {
            Req::Classify { lane, query } => Request::Classify {
                model: lane,
                features: self.queries[query].clone(),
            },
            Req::Scan(s) => Request::Scan {
                source: self.scans[s].clone(),
            },
        };
        protocol::encode_request(id, &req)
    }

    fn is_right(&self, req: Req, reply: &Reply) -> bool {
        match (req, reply) {
            (Req::Classify { lane, query }, Reply::Label(l)) => {
                self.want[lane as usize][query] == *l
            }
            (Req::Scan(s), Reply::Scan { malware, .. }) => self.scan_want[s] == *malware,
            _ => false,
        }
    }
}

/// One phase's client-side record.
#[derive(Default)]
struct Phase {
    sent: usize,
    failed: usize,
    /// Due-to-reply latency of each correct classify reply, in ns.
    classify_ns: Vec<u32>,
    /// The same for scans.
    scan_ns: Vec<u32>,
    /// Open-loop sends that left more than 1 ms after they were due.
    late: usize,
    wall_ns: u64,
}

fn wait_until(start: Instant, due_ns: u64) {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let gap = due_ns - now;
        if gap > 100_000 {
            std::thread::sleep(Duration::from_nanos(gap - 60_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Drives one phase of `seconds` over a fresh connection. The sender
/// writes every request that is due (or, closed loop, a refill of
/// `BURST`) in one write; the receiver checks each reply as it lands.
fn drive(fx: &Fixture, load: Load, seconds: f64, seed: u64) -> Phase {
    let stream = TcpStream::connect(&fx.addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = stream.try_clone().expect("clone the socket");
    let closer = stream.try_clone().expect("clone the socket");
    let horizon_ns = (seconds * 1e9) as u64;
    let schedule = match load {
        Load::Open(rate) => stats::poisson_schedule(derive(seed, 30), rate, seconds),
        Load::Window(_) => Vec::new(),
    };
    // Closed loop: send times by request id, and the requests in flight.
    let sent_at: Vec<AtomicU64> = match load {
        Load::Open(_) => Vec::new(),
        Load::Window(_) => (0..RING).map(|_| AtomicU64::new(0)).collect(),
    };
    let in_flight = Mutex::new(0usize);
    let room = Condvar::new();
    let sent_n = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let start = Instant::now();
    let ns = || start.elapsed().as_nanos() as u64;
    let due = |id: u64| match load {
        Load::Open(_) => schedule[id as usize - 1],
        Load::Window(_) => sent_at[id as usize % RING].load(Ordering::Acquire),
    };

    let (late, (mut phase, last_reply)) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut socket = stream;
            let mut frames = Vec::new();
            let (mut next, mut late) = (0usize, 0usize);
            loop {
                let n = match load {
                    Load::Open(_) => {
                        let Some(&first) = schedule.get(next) else {
                            break;
                        };
                        wait_until(start, first);
                        let now = ns();
                        schedule[next..].iter().take_while(|&&d| d <= now).count()
                    }
                    Load::Window(window) => {
                        let mut n = in_flight.lock().expect("in-flight count");
                        while *n + BURST > window && ns() < horizon_ns {
                            n = room
                                .wait_timeout(n, Duration::from_millis(10))
                                .expect("in-flight count")
                                .0;
                        }
                        if ns() >= horizon_ns {
                            break;
                        }
                        *n += BURST;
                        BURST
                    }
                };
                frames.clear();
                for i in next..next + n {
                    let payload = fx.encode(i as u64 + 1, fx.request(seed, i as u64));
                    protocol::write_frame(&mut frames, &payload).expect("a Vec takes any frame");
                }
                let now = ns();
                match load {
                    Load::Open(_) => {
                        late += schedule[next..next + n]
                            .iter()
                            .filter(|&&d| now - d > 1_000_000)
                            .count()
                    }
                    Load::Window(_) => (next + 1..=next + n)
                        .for_each(|id| sent_at[id % RING].store(now, Ordering::Release)),
                }
                if socket.write_all(&frames).is_err() {
                    break;
                }
                next += n;
                sent_n.store(next, Ordering::Release);
            }
            sender_done.store(true, Ordering::Release);
            late
        });
        let receiver = s.spawn(|| {
            let mut r = BufReader::new(reader);
            let mut phase = Phase::default();
            let mut last_reply = 0;
            while let Ok(Some(payload)) = protocol::read_frame(&mut r) {
                let at = ns();
                let Ok((id, reply)) = protocol::decode_reply(&payload) else {
                    break;
                };
                let req = fx.request(seed, id.wrapping_sub(1));
                if id >= 1 && fx.is_right(req, &reply) {
                    let lat = u32::try_from(at.saturating_sub(due(id))).unwrap_or(u32::MAX);
                    match req {
                        Req::Classify { .. } => phase.classify_ns.push(lat),
                        Req::Scan(_) => phase.scan_ns.push(lat),
                    }
                    last_reply = at;
                }
                received.fetch_add(1, Ordering::Release);
                if let Load::Window(window) = load {
                    let mut n = in_flight.lock().expect("in-flight count");
                    *n = n.saturating_sub(1);
                    if *n + BURST == window {
                        room.notify_one();
                    }
                }
            }
            (phase, last_reply)
        });
        // Wait for the last replies, then close the socket so a missing
        // reply cannot hang the phase.
        let give_up = start + Duration::from_nanos(horizon_ns) + GRACE;
        while Instant::now() < give_up
            && !(sender_done.load(Ordering::Acquire)
                && received.load(Ordering::Acquire) >= sent_n.load(Ordering::Acquire))
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = closer.shutdown(Shutdown::Both);
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });

    phase.sent = sent_n.load(Ordering::Acquire);
    phase.late = late;
    phase.failed = phase.sent - phase.classify_ns.len() - phase.scan_ns.len();
    if phase.failed > 0 {
        eprintln!(
            "yali-benchmark: {} of {} requests got no reply or a wrong one",
            phase.failed, phase.sent
        );
    }
    phase.wall_ns = match load {
        Load::Open(_) => horizon_ns,
        Load::Window(_) => last_reply.max(1),
    };
    phase
}

fn sorted_ms<'a>(lat: impl Iterator<Item = &'a u32>) -> Vec<f64> {
    let mut v: Vec<f64> = lat.map(|&ns| f64::from(ns) / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

pub fn run(load: Load, cfg: &Config, run: &mut Run) {
    let mut setup_s = Vec::new();
    let mut fx = None;
    for _ in 0..if run.trace() { 1 } else { SETUPS } {
        if let Some(old) = fx.take() {
            shut_down(old);
        }
        let t0 = Instant::now();
        fx = Some(fixture(cfg.seed, &cfg.work_dir));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let fx = fx.expect("at least one set-up");
    let warm = drive(&fx, load, WARMUP_S, derive(cfg.seed, 40));
    yali_obs::Registry::global().reset();
    let seconds = if run.trace() {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let phase = drive(&fx, load, seconds, derive(cfg.seed, 41));
    let daemon = RunReport::collect();
    shut_down(fx);
    run.ops(warm.sent + phase.sent, warm.failed + phase.failed);

    let all = sorted_ms(phase.classify_ns.iter().chain(&phase.scan_ns));
    eprintln!(
        "yali-benchmark: {} correct replies of {} requests over {:.1} s (p50 {:.3} ms, p99 {:.3} ms), {} set-ups",
        all.len(),
        phase.sent,
        phase.wall_ns as f64 / 1e9,
        stats::percentile(&all, 50.0),
        stats::percentile(&all, 99.0),
        setup_s.len()
    );
    if run.trace() {
        record_layers(run, load, &phase, &all, &daemon);
        return;
    }
    run.set("setup_s", stats::median(&setup_s));
    run.set("latency_p50_ms", stats::percentile(&all, 50.0));
    run.set("latency_p90_ms", stats::percentile(&all, 90.0));
    run.set("ops_per_s", all.len() as f64 / (phase.wall_ns as f64 / 1e9));
}

fn record_layers(run: &mut Run, load: Load, phase: &Phase, all: &[f64], daemon: &RunReport) {
    let daemon_count = |name: &str| daemon.counters.get(name).copied().unwrap_or(0) as f64;
    let batches = daemon_count("serve.batches");
    if batches > 0.0 {
        run.set(
            "serve.batch.mean_rows",
            daemon_count("serve.batch.rows") / batches,
        );
        run.set(
            "serve.batch.full_share",
            daemon_count("serve.batches.full") / batches,
        );
    }
    run.set("serve.overloaded", daemon_count("serve.overloaded"));
    let mean_ms = all.iter().sum::<f64>() / all.len().max(1) as f64;
    if let Some(wait) = daemon.phases.get("serve.queue_wait_ns") {
        if mean_ms > 0.0 {
            run.set("serve.queue_wait.share", wait.mean_ns / 1e6 / mean_ms);
        }
    }
    let classify_p50 = stats::percentile(&sorted_ms(phase.classify_ns.iter()), 50.0);
    if classify_p50 > 0.0 {
        let scan_p50 = stats::percentile(&sorted_ms(phase.scan_ns.iter()), 50.0);
        run.set("serve.scan_over_classify", scan_p50 / classify_p50);
    }
    let p50 = stats::percentile(all, 50.0);
    if p50 > 0.0 {
        run.set(
            "serve.client.p99_over_p50",
            stats::percentile(all, 99.0) / p50,
        );
    }
    if let Load::Open(_) = load {
        run.set(
            "loadgen.late_share",
            phase.late as f64 / phase.sent.max(1) as f64,
        );
    }
}
