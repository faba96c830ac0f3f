//! Search strategies that compose the 15 source transformations into
//! obfuscation sequences, after Zhang et al.:
//!
//! - [`rs`] — random search: a random permutation prefix, applied once;
//! - [`mcmc`] — Markov-chain Monte Carlo over sequences, favouring
//!   candidates whose embeddings sit far from the original;
//! - [`drlsg`] — greedy distance maximization (standing in for the deep-RL
//!   sequence generator; same objective, cheaper optimizer — see
//!   DESIGN.md's substitution table);
//! - [`ga`] — a genetic algorithm over transformation sequences.

use crate::source::SourceTransform;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use yali_minic::Program;

/// Applies one transformation defensively: the rewrite is kept only when
/// the result still type-checks (a handful of transforms are conservative
/// approximations that can bail out on exotic inputs).
fn apply_checked<R: Rng>(p: &mut Program, t: SourceTransform, rng: &mut R) -> bool {
    let mut candidate = p.clone();
    t.apply(&mut candidate, rng);
    if yali_minic::check(&candidate).is_ok() {
        *p = candidate;
        true
    } else {
        false
    }
}

/// The evasion score of a candidate: Euclidean distance between the opcode
/// histograms of the original and transformed programs (Zhang et al.'s
/// objective, instantiated with the paper's Figure 10 metric).
pub fn evasion_score(original: &Program, candidate: &Program) -> f64 {
    score_against(&histogram(original), candidate)
}

fn histogram(p: &Program) -> Vec<f64> {
    yali_embed::histogram(&yali_minic::lower(p))
}

/// [`evasion_score`] against the original's histogram, which a search
/// computes once.
fn score_against(original: &[f64], candidate: &Program) -> f64 {
    yali_embed::euclidean(original, &histogram(candidate))
}

/// Random search: applies a random subset of the transformations, in a
/// random order, without repetition.
pub fn rs(p: &Program, seed: u64) -> Program {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut seq: Vec<SourceTransform> = SourceTransform::ALL.to_vec();
    seq.shuffle(&mut rng);
    let take = rng.gen_range(4..=seq.len());
    let mut out = p.clone();
    for &t in seq.iter().take(take) {
        apply_checked(&mut out, t, &mut rng);
    }
    out
}

/// Markov-chain Monte Carlo: proposes single-transform extensions or
/// replacements of the current sequence and accepts by the Metropolis
/// rule on the evasion score.
pub fn mcmc(p: &Program, seed: u64, iterations: usize) -> Program {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let original = histogram(p);
    let mut current = p.clone();
    let mut current_score = 0.0;
    let temperature = 2.0;
    for _ in 0..iterations {
        let t = *SourceTransform::ALL.choose(&mut rng).expect("non-empty");
        let mut candidate = current.clone();
        // An unchanged candidate would score exactly `current_score`, which
        // the Metropolis rule accepts without a draw: skipping it changes
        // neither the chain nor the random stream.
        if !apply_checked(&mut candidate, t, &mut rng) || candidate == current {
            continue;
        }
        let score = score_against(&original, &candidate);
        let accept = score >= current_score
            || rng.gen::<f64>() < ((score - current_score) / temperature).exp();
        if accept {
            current = candidate;
            current_score = score;
        }
    }
    current
}

/// Greedy distance maximization, the drlsg stand-in: at every step, apply
/// the transformation that most increases the embedding distance; stop
/// when no transformation helps.
pub fn drlsg(p: &Program, seed: u64, max_steps: usize) -> Program {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let original = histogram(p);
    let mut current = p.clone();
    let mut current_score = 0.0;
    for _ in 0..max_steps {
        let mut best: Option<(f64, Program)> = None;
        for t in SourceTransform::ALL {
            let mut candidate = current.clone();
            // An unchanged candidate would score exactly `current_score`,
            // which can never pass the step's improvement test.
            if !apply_checked(&mut candidate, t, &mut rng) || candidate == current {
                continue;
            }
            let score = score_against(&original, &candidate);
            if best.as_ref().map(|(s, _)| score > *s).unwrap_or(true) {
                best = Some((score, candidate));
            }
        }
        match best {
            Some((score, candidate)) if score > current_score + 1e-9 => {
                current = candidate;
                current_score = score;
            }
            _ => break,
        }
    }
    current
}

/// Genetic algorithm over transformation sequences: tournament selection,
/// single-point crossover, point mutation; fitness is the evasion score.
pub fn ga(p: &Program, seed: u64, population: usize, generations: usize) -> Program {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let seq_len = 6;
    let random_seq = |rng: &mut ChaCha8Rng| -> Vec<SourceTransform> {
        (0..seq_len)
            .map(|_| *SourceTransform::ALL.choose(rng).expect("non-empty"))
            .collect()
    };
    let express = |seq: &[SourceTransform], rng: &mut ChaCha8Rng| -> Program {
        let mut out = p.clone();
        for &t in seq {
            apply_checked(&mut out, t, rng);
        }
        out
    };
    let mut pop: Vec<(Vec<SourceTransform>, Program, f64)> = (0..population.max(2))
        .map(|_| {
            let seq = random_seq(&mut rng);
            let prog = express(&seq, &mut rng);
            let score = evasion_score(p, &prog);
            (seq, prog, score)
        })
        .collect();
    for _ in 0..generations {
        let mut next = Vec::with_capacity(pop.len());
        // Elitism: keep the best individual.
        let best = pop
            .iter()
            .max_by(|a, b| a.2.total_cmp(&b.2))
            .expect("non-empty population")
            .clone();
        next.push(best);
        while next.len() < pop.len() {
            // Tournament selection of two parents.
            let pick = |rng: &mut ChaCha8Rng| -> &Vec<SourceTransform> {
                let a = rng.gen_range(0..pop.len());
                let b = rng.gen_range(0..pop.len());
                if pop[a].2 >= pop[b].2 {
                    &pop[a].0
                } else {
                    &pop[b].0
                }
            };
            let pa = pick(&mut rng).clone();
            let pb = pick(&mut rng).clone();
            let cut = rng.gen_range(1..seq_len);
            let mut child: Vec<SourceTransform> = pa[..cut]
                .iter()
                .chain(pb[cut..].iter())
                .copied()
                .collect();
            if rng.gen_bool(0.3) {
                let k = rng.gen_range(0..child.len());
                child[k] = *SourceTransform::ALL.choose(&mut rng).expect("non-empty");
            }
            let prog = express(&child, &mut rng);
            let score = evasion_score(p, &prog);
            next.push((child, prog, score));
        }
        pop = next;
    }
    pop.into_iter()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .map(|(_, prog, _)| prog)
        .expect("non-empty population")
}

#[cfg(test)]
mod tests {
    use super::*;
    use yali_ir::interp::{run as exec, ExecConfig, Val};

    const SRC: &str = r#"
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0 && i > 3) { s = s + i * 5 + 7; }
            }
            return s;
        }
    "#;

    fn outputs_match(m0: &yali_ir::Module, m1: &yali_ir::Module) {
        for n in [0i64, 1, 8, 21] {
            let a = exec(m0, "f", &[Val::Int(n)], &[], &ExecConfig::default()).unwrap();
            let b = exec(m1, "f", &[Val::Int(n)], &[], &ExecConfig::default()).unwrap();
            assert_eq!(a.ret, b.ret, "n={n}");
        }
    }

    fn base() -> Program {
        let p = yali_minic::parse(SRC).unwrap();
        yali_minic::check(&p).unwrap();
        p
    }

    #[test]
    fn rs_preserves_semantics_and_changes_source() {
        let p = base();
        let q = rs(&p, 1234);
        yali_minic::check(&q).unwrap();
        assert_ne!(yali_minic::print(&p), yali_minic::print(&q));
        outputs_match(&yali_minic::lower(&p), &yali_minic::lower(&q));
    }

    #[test]
    fn mcmc_improves_score_over_nothing() {
        let p = base();
        let q = mcmc(&p, 5, 12);
        yali_minic::check(&q).unwrap();
        outputs_match(&yali_minic::lower(&p), &yali_minic::lower(&q));
        assert!(evasion_score(&p, &q) > 0.0);
    }

    #[test]
    fn drlsg_is_at_least_as_good_as_single_random_step() {
        let p = base();
        let q = drlsg(&p, 7, 4);
        yali_minic::check(&q).unwrap();
        outputs_match(&yali_minic::lower(&p), &yali_minic::lower(&q));
        let greedy = evasion_score(&p, &q);
        assert!(greedy > 0.0);
    }

    #[test]
    fn ga_produces_valid_high_scoring_programs() {
        let p = base();
        let q = ga(&p, 11, 4, 2);
        yali_minic::check(&q).unwrap();
        outputs_match(&yali_minic::lower(&p), &yali_minic::lower(&q));
        assert!(evasion_score(&p, &q) > 0.0);
    }

    #[test]
    fn strategies_are_deterministic_per_seed() {
        let p = base();
        assert_eq!(
            yali_minic::print(&rs(&p, 99)),
            yali_minic::print(&rs(&p, 99))
        );
        assert_ne!(
            yali_minic::print(&rs(&p, 99)),
            yali_minic::print(&rs(&p, 100))
        );
    }
}
