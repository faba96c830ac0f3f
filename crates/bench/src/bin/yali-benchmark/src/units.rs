//! The unit-cost pass: each layer's public entry points timed call by
//! call over the game-grid corpus, so a traced run states what one
//! lowering, one pass, one fit or one inference costs on every workload.

use std::hint::black_box;
use std::time::Instant;

use rand::SeedableRng;
use yali_core::MalwareCorpus;
use yali_embed::{Embedding, EmbeddingKind};
use yali_ml::{Dgcnn, DgcnnConfig, GraphSample, ModelKind, TrainConfig, VectorClassifier};
use yali_opt::OptLevel;
use yali_serve::protocol::{self, Reply, Request};

use crate::report::Run;
use crate::stats::derive;

/// Mean microseconds per call of `f` over `items`, and its outputs.
fn each<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> (Vec<R>, f64) {
    let t0 = Instant::now();
    let out: Vec<R> = items.iter().map(|x| black_box(f(x))).collect();
    (out, t0.elapsed().as_secs_f64() * 1e6 / items.len() as f64)
}

/// Mean microseconds per in-place call of `f` over `items`.
fn each_mut<T>(items: &mut [T], mut f: impl FnMut(&mut T)) -> f64 {
    let t0 = Instant::now();
    items.iter_mut().for_each(|x| f(black_box(x)));
    t0.elapsed().as_secs_f64() * 1e6 / items.len() as f64
}

/// Mean microseconds per call of `f`, over `times` calls.
fn repeat(times: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    (0..times).for_each(|_| f());
    t0.elapsed().as_secs_f64() * 1e6 / times as f64
}

fn ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

pub fn measure(seed: u64, run: &mut Run) {
    let corpus = crate::pipeline::corpora(seed).swap_remove(0);
    let programs: Vec<&yali_minic::Program> = corpus.samples.iter().map(|s| &s.program).collect();

    let (modules, us) = each(&programs, |p| yali_minic::lower(p));
    run.set("minic.lower.us", us);
    run.set(
        "minic.print.us",
        each(&programs, |p| yali_minic::print(p)).1,
    );
    let mal = MalwareCorpus::build(6, 2, derive(seed, 12));
    let sources: Vec<String> = mal
        .test_malware
        .iter()
        .chain(&mal.test_benign)
        .map(yali_minic::print)
        .collect();
    let sources: Vec<&String> = sources.iter().cycle().take(10 * sources.len()).collect();
    run.set(
        "minic.compile.us",
        each(&sources, |src| yali_minic::compile(src).is_ok()).1,
    );
    let hashed: Vec<&yali_ir::Module> = modules.iter().cycle().take(10 * modules.len()).collect();
    run.set("ir.content_hash.us", each(&hashed, |m| m.content_hash()).1);

    let mut o3 = modules.clone();
    run.set(
        "opt.o3.us",
        each_mut(&mut o3, |m| yali_opt::optimize(m, OptLevel::O3)),
    );
    // Two runs of mem2reg on clones of one module should print the same
    // module; the share that does not is reported, not failed.
    let (mut a, mut b) = (modules.clone(), modules.clone());
    run.set("opt.mem2reg.us", each_mut(&mut a, yali_opt::mem2reg_only));
    b.iter_mut().for_each(yali_opt::mem2reg_only);
    let unstable = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| yali_ir::print_module(x) != yali_ir::print_module(y))
        .count();
    run.set(
        "opt.mem2reg.unstable_share",
        unstable as f64 / modules.len() as f64,
    );

    for (metric, pass) in [
        ("obf.sub.us", yali_obf::IrObf::Sub),
        ("obf.bcf.us", yali_obf::IrObf::Bcf),
        ("obf.fla.us", yali_obf::IrObf::Fla),
        ("obf.ollvm.us", yali_obf::IrObf::Ollvm),
    ] {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(derive(seed, 50));
        let mut ms = modules.clone();
        run.set(metric, each_mut(&mut ms, |m| pass.apply(m, &mut rng)));
    }
    // The search parameters `Transformer::apply` uses.
    let indexed: Vec<(u64, &yali_minic::Program)> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, *p))
        .collect();
    run.set("obf.rs.us", each(&indexed, |&(i, p)| yali_obf::rs(p, i)).1);
    run.set(
        "obf.mcmc.us",
        each(&indexed, |&(i, p)| yali_obf::mcmc(p, i, 6)).1,
    );
    run.set(
        "obf.drlsg.us",
        each(&indexed, |&(i, p)| yali_obf::drlsg(p, i, 3)).1,
    );

    let (rows, us) = each(&modules, yali_embed::histogram);
    run.set("embed.histogram.us", us);
    let (graphs, us) = each(&modules, |m| match EmbeddingKind::Cdfg.embed(m) {
        Embedding::Graph(g) => GraphSample {
            feats: g.feats,
            edges: g.edges.iter().map(|&(s, d, _)| (s, d)).collect(),
        },
        Embedding::Vector(_) => unreachable!("cdfg is a graph embedding"),
    });
    run.set("embed.cdfg.us", us);

    let labels: Vec<usize> = corpus.samples.iter().map(|s| s.class).collect();
    let idx: Vec<usize> = (0..labels.len()).collect();
    let (train, y, _, _) = yali_ml::train_test_split(&idx, &labels, 0.8, derive(seed, 51));
    let x: Vec<Vec<f64>> = train.iter().map(|&i| rows[i].clone()).collect();
    let g: Vec<GraphSample> = train.iter().map(|&i| graphs[i].clone()).collect();
    let mut nets = Vec::new();
    for kind in [
        ModelKind::Knn,
        ModelKind::Rf,
        ModelKind::Lr,
        ModelKind::Svm,
        ModelKind::Mlp,
        ModelKind::Cnn,
    ] {
        let (clf, t) =
            ms(|| VectorClassifier::fit(kind, &x, &y, corpus.n_classes, &TrainConfig::default()));
        let metric = match kind {
            ModelKind::Knn => "ml.fit.knn_ms",
            ModelKind::Rf => "ml.fit.rf_ms",
            ModelKind::Lr => "ml.fit.lr_ms",
            ModelKind::Svm => "ml.fit.svm_ms",
            ModelKind::Mlp => "ml.fit.mlp_ms",
            ModelKind::Cnn => "ml.fit.cnn_ms",
        };
        run.set(metric, t);
        if matches!(kind, ModelKind::Mlp | ModelKind::Cnn) {
            nets.push(clf);
        }
    }
    run.set(
        "ml.fit.dgcnn_ms",
        ms(|| Dgcnn::fit(&g, &y, corpus.n_classes, &DgcnnConfig::default())).1,
    );

    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let threads = yali_par::worker_count();
    for (clf, b1, b32) in [
        (&nets[0], "ml.infer.mlp_b1_us", "ml.infer.mlp_b32_us"),
        (&nets[1], "ml.infer.cnn_b1_us", "ml.infer.cnn_b32_us"),
    ] {
        run.set(
            b1,
            repeat(200, || {
                black_box(clf.predict_batch_refs(&refs[..1], threads));
            }),
        );
        run.set(
            b32,
            repeat(50, || {
                black_box(clf.predict_batch_refs(&refs[..32], threads));
            }),
        );
    }

    let items = [0u64; 32];
    let pooled = repeat(500, || {
        black_box(yali_par::par_map(&items, |i, &v| black_box(v + i as u64)));
    });
    let serial = repeat(500, || {
        black_box(
            items
                .iter()
                .enumerate()
                .map(|(i, &v)| black_box(v + i as u64))
                .collect::<Vec<_>>(),
        );
    });
    run.set("par.map.overhead_us", pooled - serial);

    let features = rows[0].clone();
    run.set(
        "serve.codec.us",
        repeat(10_000, || {
            let req = Request::Classify {
                model: 0,
                features: features.clone(),
            };
            let frame = protocol::encode_request(7, &req);
            black_box(protocol::decode_request(&frame).expect("request round-trips"));
            let reply = protocol::encode_reply(7, &Reply::Label(3));
            black_box(protocol::decode_reply(&reply).expect("reply round-trips"));
        }),
    );
}
