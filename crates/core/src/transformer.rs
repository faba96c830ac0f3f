//! The code transformers available to players: the identity, compiler
//! optimization levels, O-LLVM passes, and Zhang-style source strategies —
//! the union of the paper's Figure 3 normalizers and Figure 4 evaders.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use yali_minic::Program;
use yali_obf::IrObf;
use yali_opt::OptLevel;

/// A Zhang et al. source-obfuscation search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceStrategy {
    /// Random search over the 15 transformations.
    Rs,
    /// Markov-chain Monte Carlo.
    Mcmc,
    /// Greedy distance maximization (the deep-RL stand-in).
    Drlsg,
    /// Genetic algorithm (RQ7 only in the paper).
    Ga,
}

impl SourceStrategy {
    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            SourceStrategy::Rs => "rs",
            SourceStrategy::Mcmc => "mcmc",
            SourceStrategy::Drlsg => "drlsg",
            SourceStrategy::Ga => "ga",
        }
    }
}

/// A program-to-program transformation a player may apply before the
/// program is embedded (Definition 2.4's evader `E`, and the classifier's
/// normalizer in Game 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transformer {
    /// The identity (`clang -O0`: the front end's raw lowering).
    None,
    /// A clang-style optimization level.
    Opt(OptLevel),
    /// SSA construction only (`-mem2reg`, an RQ7 transformer).
    Mem2Reg,
    /// An O-LLVM IR obfuscation pass.
    Ir(IrObf),
    /// A source-level obfuscation strategy.
    Source(SourceStrategy),
}

impl Transformer {
    /// The paper's nine evaders (Figure 4), in display order: the baseline
    /// identity evader last, as in the figure.
    pub const EVADERS: [Transformer; 9] = [
        Transformer::Opt(OptLevel::O3),
        Transformer::Ir(IrObf::Ollvm),
        Transformer::Ir(IrObf::Bcf),
        Transformer::Ir(IrObf::Fla),
        Transformer::Ir(IrObf::Sub),
        Transformer::Source(SourceStrategy::Rs),
        Transformer::Source(SourceStrategy::Mcmc),
        Transformer::Source(SourceStrategy::Drlsg),
        Transformer::None,
    ];

    /// The ten transformers of the RQ7 "detect the obfuscator" experiment.
    pub const RQ7_TRANSFORMERS: [Transformer; 10] = [
        Transformer::None,
        Transformer::Mem2Reg,
        Transformer::Opt(OptLevel::O3),
        Transformer::Ir(IrObf::Bcf),
        Transformer::Ir(IrObf::Fla),
        Transformer::Ir(IrObf::Sub),
        Transformer::Source(SourceStrategy::Drlsg),
        Transformer::Source(SourceStrategy::Mcmc),
        Transformer::Source(SourceStrategy::Rs),
        Transformer::Source(SourceStrategy::Ga),
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Transformer::None => "none",
            Transformer::Opt(OptLevel::O0) => "O0",
            Transformer::Opt(OptLevel::O1) => "O1",
            Transformer::Opt(OptLevel::O2) => "O2",
            Transformer::Opt(OptLevel::O3) => "O3",
            Transformer::Mem2Reg => "mem2reg",
            Transformer::Ir(p) => p.name(),
            Transformer::Source(s) => s.name(),
        }
    }

    /// Applies the transformation to a source program and lowers it to IR.
    ///
    /// The `seed` drives every stochastic choice, so a (transformer,
    /// program, seed) triple is fully reproducible.
    pub fn apply(self, program: &Program, seed: u64) -> yali_ir::Module {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD_1234);
        match self {
            Transformer::None => yali_minic::lower(program),
            Transformer::Opt(level) => {
                let mut m = yali_minic::lower(program);
                yali_opt::optimize(&mut m, level);
                m
            }
            Transformer::Mem2Reg => {
                let mut m = yali_minic::lower(program);
                yali_opt::mem2reg_only(&mut m);
                m
            }
            Transformer::Ir(pass) => {
                let mut m = yali_minic::lower(program);
                pass.apply(&mut m, &mut rng);
                m
            }
            Transformer::Source(strategy) => {
                let transformed = match strategy {
                    SourceStrategy::Rs => yali_obf::rs(program, seed),
                    SourceStrategy::Mcmc => yali_obf::mcmc(program, seed, 6),
                    SourceStrategy::Drlsg => yali_obf::drlsg(program, seed, 3),
                    SourceStrategy::Ga => yali_obf::ga(program, seed, 4, 2),
                };
                yali_minic::lower(&transformed)
            }
        }
    }
}

impl std::fmt::Display for Transformer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yali_ir::interp::{run, ExecConfig, Val};

    fn sample() -> Program {
        yali_minic::parse(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { if (i % 2 == 0) { s += i; } } return s; } void main() { print_int(f(read_int())); }",
        )
        .unwrap()
    }

    #[test]
    fn every_evader_preserves_semantics() {
        let p = sample();
        let base = yali_minic::lower(&p);
        let reference = run(&base, "main", &[], &[Val::Int(17)], &ExecConfig::default()).unwrap();
        for t in Transformer::EVADERS {
            let m = t.apply(&p, 42);
            yali_ir::verify_module(&m).unwrap_or_else(|e| panic!("{t}: {e}"));
            let out = run(&m, "main", &[], &[Val::Int(17)], &ExecConfig::default())
                .unwrap_or_else(|e| panic!("{t}: {e}"));
            assert_eq!(out.output, reference.output, "{t} diverges");
        }
    }

    #[test]
    fn rq7_transformers_all_run() {
        let p = sample();
        for t in Transformer::RQ7_TRANSFORMERS {
            let m = t.apply(&p, 7);
            yali_ir::verify_module(&m).unwrap_or_else(|e| panic!("{t}: {e}"));
        }
    }

    #[test]
    fn names_are_unique_and_stable() {
        let names: std::collections::HashSet<&str> = Transformer::RQ7_TRANSFORMERS
            .iter()
            .map(|t| t.name())
            .collect();
        assert_eq!(names.len(), 10);
        assert_eq!(Transformer::Opt(OptLevel::O3).name(), "O3");
        assert_eq!(Transformer::Ir(IrObf::Fla).name(), "fla");
    }

    /// The search loops as they were before the original's histogram was
    /// hoisted out of the scoring and unchanged candidates were skipped.
    mod oracle {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        use yali_minic::Program;
        use yali_obf::{evasion_score, SourceTransform};

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

        pub fn mcmc(p: &Program, seed: u64, iterations: usize) -> Program {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut current = p.clone();
            let mut current_score = 0.0;
            let temperature = 2.0;
            for _ in 0..iterations {
                let t = *SourceTransform::ALL.choose(&mut rng).expect("non-empty");
                let mut candidate = current.clone();
                if !apply_checked(&mut candidate, t, &mut rng) {
                    continue;
                }
                let score = evasion_score(p, &candidate);
                let accept = score >= current_score
                    || rng.gen::<f64>() < ((score - current_score) / temperature).exp();
                if accept {
                    current = candidate;
                    current_score = score;
                }
            }
            current
        }

        pub fn drlsg(p: &Program, seed: u64, max_steps: usize) -> Program {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut current = p.clone();
            let mut current_score = 0.0;
            for _ in 0..max_steps {
                let mut best: Option<(f64, Program)> = None;
                for t in SourceTransform::ALL {
                    let mut candidate = current.clone();
                    if !apply_checked(&mut candidate, t, &mut rng) {
                        continue;
                    }
                    let score = evasion_score(p, &candidate);
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
    }

    #[test]
    fn searches_print_what_the_unpruned_loops_print() {
        let corpus = crate::Corpus::poj(12, 3, 21);
        for (i, s) in corpus.samples.iter().enumerate() {
            for seed in [1u64, 7, 0xEEAD ^ ((i as u64) << 16)] {
                let p = &s.program;
                assert_eq!(
                    yali_minic::print(&yali_obf::mcmc(p, seed, 6)),
                    yali_minic::print(&oracle::mcmc(p, seed, 6)),
                    "mcmc, sample {i}, seed {seed}"
                );
                assert_eq!(
                    yali_minic::print(&yali_obf::drlsg(p, seed, 3)),
                    yali_minic::print(&oracle::drlsg(p, seed, 3)),
                    "drlsg, sample {i}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn transformers_are_deterministic_per_seed() {
        let p = sample();
        let a = Transformer::Ir(IrObf::Ollvm).apply(&p, 5);
        let b = Transformer::Ir(IrObf::Ollvm).apply(&p, 5);
        assert_eq!(yali_ir::print_module(&a), yali_ir::print_module(&b));
    }
}
