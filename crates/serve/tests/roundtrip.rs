//! End-to-end tests over real localhost sockets: verdict identity with
//! direct `predict`, concurrent clients, admission control, and the
//! graceful shutdown drain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use yali_ml::ModelKind;
use yali_serve::{
    train_tenants, BatcherConfig, Client, LiveConfig, Reply, Server, Tenants,
};

/// Tenants are deterministic in the seed, so training the same set twice
/// yields bit-identical models — the tests train one oracle copy locally
/// and compare wire verdicts against it.
const SEED: u64 = 77;
const CLASSES: usize = 4;
const PER_CLASS: usize = 6;

fn oracle() -> &'static Tenants {
    static ORACLE: OnceLock<Tenants> = OnceLock::new();
    ORACLE.get_or_init(|| train_tenants(&[ModelKind::Lr, ModelKind::Mlp], CLASSES, PER_CLASS, SEED))
}

/// Some query rows with the tenants' feature dimension: the training
/// corpus itself under a different embedding seed.
fn queries() -> Vec<Vec<f64>> {
    let corpus = yali_core::Corpus::poj(CLASSES, PER_CLASS, SEED);
    let all: Vec<&yali_core::Sample> = corpus.samples.iter().collect();
    yali_core::transform_all(&all, yali_core::Transformer::None, 3)
        .iter()
        .map(yali_embed::histogram)
        .collect()
}

/// A [`LiveConfig`] whose anomaly dumps land in a fresh per-test temp
/// directory: the overload test deliberately triggers the queue-overflow
/// dump, and that file must not pollute the checkout.
fn test_live_config() -> (LiveConfig, std::path::PathBuf) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "yali_serve_roundtrip_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create dump dir");
    let cfg = LiveConfig {
        dump_dir: dir.clone(),
        ..LiveConfig::default()
    };
    (cfg, dir)
}

/// Starts a server on an ephemeral port in a background thread; returns
/// the address and the join handle (joined after `shutdown` to prove the
/// daemon actually exits).
fn start_server(cfg: BatcherConfig) -> (String, std::thread::JoinHandle<()>) {
    let (live, _dir) = test_live_config();
    start_server_live(cfg, live)
}

fn start_server_live(
    cfg: BatcherConfig,
    live: LiveConfig,
) -> (String, std::thread::JoinHandle<()>) {
    let tenants = train_tenants(&[ModelKind::Lr, ModelKind::Mlp], CLASSES, PER_CLASS, SEED);
    let server = Server::bind_with("127.0.0.1:0", tenants, cfg, live).expect("bind ephemeral");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

#[test]
fn served_verdicts_are_bit_identical_to_direct_predict() {
    let (addr, handle) = start_server(BatcherConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.ping().unwrap(), Reply::Ok);

    let oracle = oracle();
    for (mi, (_, clf)) in oracle.models.iter().enumerate() {
        for q in queries() {
            let want = clf.predict(&q) as u32;
            match client.classify(mi as u8, q).unwrap() {
                Reply::Label(got) => assert_eq!(got, want, "model {mi}"),
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }

    assert_eq!(client.shutdown().unwrap(), Reply::Ok);
    handle.join().unwrap();
}

#[test]
fn concurrent_clients_each_get_their_own_verdicts() {
    // A short deadline plus many clients exercises real coalescing: the
    // dispatcher sees multi-row batches, and every row must still come
    // back on the right connection with the right label.
    let (addr, handle) = start_server(BatcherConfig {
        max_batch: 8,
        deadline_ns: 500_000,
        queue_cap: 1024,
    });
    let qs = queries();
    let workers: Vec<_> = (0..6)
        .map(|w| {
            let addr = addr.clone();
            let qs = qs.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mi = w % 2; // alternate the two models across workers
                let (_, clf) = &oracle().models[mi];
                for (i, q) in qs.iter().enumerate() {
                    if i % 6 != w % 6 {
                        continue; // disjoint slices keep the test quick
                    }
                    let want = clf.predict(q) as u32;
                    match client.classify(mi as u8, q.clone()).unwrap() {
                        Reply::Label(got) => assert_eq!(got, want, "worker {w} query {i}"),
                        other => panic!("worker {w}: unexpected reply {other:?}"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.shutdown().unwrap(), Reply::Ok);
    handle.join().unwrap();
}

#[test]
fn scan_verdicts_match_the_direct_scanner() {
    let (addr, handle) = start_server(BatcherConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let scanner = oracle().scanner.as_ref().unwrap();

    let benign_src = "int f(int a) { return a * a + 3; }";
    let module = yali_minic::compile(benign_src).unwrap();
    let want_malware = scanner.is_malware(&module);
    let want_ratio = scanner.match_ratio(&module);
    match client.scan(benign_src).unwrap() {
        Reply::Scan { malware, ratio } => {
            assert_eq!(malware, want_malware);
            assert_eq!(ratio.to_bits(), want_ratio.to_bits(), "ratio must be bit-identical");
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // Garbage source is a BadRequest, not a hang or a disconnect.
    match client.scan("int { nonsense").unwrap() {
        Reply::BadRequest(_) => {}
        other => panic!("unexpected reply {other:?}"),
    }

    assert_eq!(client.shutdown().unwrap(), Reply::Ok);
    handle.join().unwrap();
}

#[test]
fn deeply_nested_scan_source_is_refused_not_fatal() {
    let (addr, handle) = start_server(BatcherConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    // 10,000 nested parentheses: 20 KB of source, far under the frame
    // cap, that would overflow a reader thread's stack if compiled.
    let deep = format!("int f() {{ return {}1{}; }}", "(".repeat(10_000), ")".repeat(10_000));
    match client.scan(&deep).unwrap() {
        Reply::BadRequest(reason) => assert!(reason.contains("nesting"), "{reason}"),
        other => panic!("unexpected reply {other:?}"),
    }

    // The daemon is still up and still right.
    let (_, clf) = &oracle().models[0];
    let q = queries()[0].clone();
    let want = clf.predict(&q) as u32;
    match client.classify(0, q).unwrap() {
        Reply::Label(got) => assert_eq!(got, want),
        other => panic!("unexpected reply {other:?}"),
    }

    assert_eq!(client.shutdown().unwrap(), Reply::Ok);
    handle.join().unwrap();
}

#[test]
fn malformed_requests_are_refused_not_fatal() {
    let (addr, handle) = start_server(BatcherConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    // Unknown model index.
    match client.classify(250, queries()[0].clone()).unwrap() {
        Reply::UnknownModel => {}
        other => panic!("unexpected reply {other:?}"),
    }
    // Wrong feature dimension.
    match client.classify(0, vec![1.0, 2.0]).unwrap() {
        Reply::BadRequest(reason) => assert!(reason.contains("dimension"), "{reason}"),
        other => panic!("unexpected reply {other:?}"),
    }
    // The connection survives both refusals.
    assert_eq!(client.ping().unwrap(), Reply::Ok);

    assert_eq!(client.shutdown().unwrap(), Reply::Ok);
    handle.join().unwrap();
}

#[test]
fn overload_refuses_loudly_and_shutdown_drains_the_queue() {
    // queue_cap 1 and an hour-long deadline: the first request parks in
    // the batcher, the second must be refused as overloaded, and the
    // parked one must still be answered by the shutdown drain.
    let (addr, handle) = start_server(BatcherConfig {
        max_batch: 32,
        deadline_ns: 3_600_000_000_000,
        queue_cap: 1,
    });
    let q = queries()[0].clone();
    let want = oracle().models[0].1.predict(&q) as u32;

    let parked = {
        let addr = addr.clone();
        let q = q.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.classify(0, q).unwrap()
        })
    };
    // Wait until the parked request occupies the queue.
    let mut client = Client::connect(&addr).expect("connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let queued = match client.stats().unwrap() {
            Reply::Stats(text) => text
                .lines()
                .find_map(|l| l.strip_prefix("queued "))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(0),
            other => panic!("unexpected reply {other:?}"),
        };
        if queued == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "parked request never reached the queue"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    match client.classify(0, q).unwrap() {
        Reply::Overloaded => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Graceful drain: shutdown answers the parked request with the real
    // verdict (not an error) before the daemon exits.
    assert_eq!(client.shutdown().unwrap(), Reply::Ok);
    assert_eq!(parked.join().unwrap(), Reply::Label(want));
    handle.join().unwrap();
}

#[test]
fn metrics_reflect_served_traffic_and_dump_trace_is_prof_ready() {
    let (addr, handle) = start_server(BatcherConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    for q in queries().into_iter().take(8) {
        match client.classify(0, q).unwrap() {
            Reply::Label(_) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }

    // The window is fed *after* each reply frame goes out, so the last
    // row may not be visible to an immediate metrics call: poll briefly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let m = loop {
        let m = match client.metrics().unwrap() {
            Reply::Metrics(m) => m,
            other => panic!("unexpected reply {other:?}"),
        };
        if m.window_count >= 8 {
            break m;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "served rows never reached the live window: {m:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert!(m.requests >= 9, "8 classifies + metrics: {m:?}");
    assert!(m.window_ns > 0);
    // Lanes are the roster in order, then the scan lane.
    let names: Vec<&str> = m.lanes.iter().map(|l| l.name.as_str()).collect();
    assert_eq!(names, ["lr", "mlp", "scan"]);
    let lr = &m.lanes[0];
    assert!(lr.window_count >= 8, "{lr:?}");
    assert!(lr.p50_ns.is_some() && lr.p99_ns.is_some());
    assert!(lr.p50_ns <= lr.p99_ns);
    assert!(lr.qps > 0.0);
    // Idle lanes answer None, never a garbage zero quantile.
    let mlp = &m.lanes[1];
    if mlp.window_count == 0 {
        assert_eq!(mlp.p99_ns, None);
        assert_eq!(mlp.qps, 0.0);
    }
    // Global quantiles exist and bound the lane's.
    assert!(m.p99_ns.is_some());
    assert!(m.recorder_events > 0, "the daemon is always instrumented");

    // The flight dump must satisfy the strict parser and feed the
    // standard views — that is the whole point of the recorder.
    let dump = match client.dump_trace().unwrap() {
        Reply::Trace(jsonl) => jsonl,
        other => panic!("unexpected reply {other:?}"),
    };
    let trace = yali_prof::parse_trace(&dump).expect("flight dump must parse strictly");
    assert_eq!(trace.recorder.len(), 1);
    let profile = yali_prof::profile(&trace);
    assert!(
        profile.labels.iter().any(|r| r.label == "serve.dispatch"),
        "dispatch spans must be in the flight dump"
    );

    assert_eq!(client.shutdown().unwrap(), Reply::Ok);
    handle.join().unwrap();
}

#[test]
fn slo_breach_auto_dumps_a_parseable_flight_file() {
    // A 1 ns SLO: the first answered batch breaches it, so serving any
    // request must produce exactly one flight dump (cooldown swallows
    // repeats) in the configured directory.
    let (live, dir) = test_live_config();
    let live = LiveConfig {
        slo_p99_ns: Some(1),
        ..live
    };
    let (addr, handle) = start_server_live(BatcherConfig::default(), live);
    let mut client = Client::connect(&addr).expect("connect");
    for q in queries().into_iter().take(3) {
        client.classify(0, q).unwrap();
    }

    // The dump is written by the dispatcher after the replies; poll.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let dump_path = loop {
        let found = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("yali-serve-flight-slo-p99-")
            });
        if let Some(e) = found {
            break e.path();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "SLO breach never produced a flight dump in {}",
            dir.display()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let text = std::fs::read_to_string(&dump_path).unwrap();
    let trace = yali_prof::parse_trace(&text).expect("auto-dump must parse strictly");
    assert_eq!(trace.recorder.len(), 1);

    assert_eq!(client.shutdown().unwrap(), Reply::Ok);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
