//! # yali-obf
//!
//! Code obfuscation for the yali reproduction of "A Game-Based Framework
//! to Compare Program Classifiers and Evaders" (CGO 2023) — the *evader*
//! side of the games.
//!
//! Two families are provided:
//!
//! - **IR-level passes** in the style of O-LLVM (Junod et al.):
//!   [`sub`] (instruction substitution), [`bcf`] (bogus control flow),
//!   [`fla`] (control-flow flattening, preceded by [`reg2mem`]), and
//!   [`ollvm`] (all three composed);
//! - **source-level transformations** after Zhang et al.: the 15 rewrites
//!   in [`source`] composed by the [`strategy`] searchers `rs`, `mcmc`,
//!   `drlsg`, and `ga`.
//!
//! Every transformation is semantics-preserving; the test suites check
//! behavioural equivalence under the reference interpreter.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! let mut m = yali_minic::compile(
//!     "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }",
//! )?;
//! let before = m.num_insts();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! yali_obf::ollvm(&mut m, &mut rng);
//! assert!(m.num_insts() > before);
//! yali_ir::verify_module(&m)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod bcf;
pub mod fla;
pub mod reg2mem;
pub mod source;
pub mod strategy;
pub mod sub;

pub use source::SourceTransform;
pub use strategy::{drlsg, evasion_score, ga, mcmc, rs};

use rand::Rng;
use yali_ir::Module;

/// Applies all three O-LLVM passes (`sub`, then `bcf`, then `fla`) — the
/// paper's `ollvm` evader.
pub fn ollvm<R: Rng>(m: &mut Module, rng: &mut R) {
    sub::run_module(m, rng, 0.7);
    bcf::run_module(m, rng, 0.3);
    fla::run_module(m);
}

/// An IR-level obfuscation pass selector, covering the O-LLVM side of the
/// paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrObf {
    /// `ollvm -sub`.
    Sub,
    /// `ollvm -bcf`.
    Bcf,
    /// `ollvm -fla`.
    Fla,
    /// All O-LLVM passes together.
    Ollvm,
}

impl IrObf {
    /// All IR-level passes.
    pub const ALL: [IrObf; 4] = [IrObf::Sub, IrObf::Bcf, IrObf::Fla, IrObf::Ollvm];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            IrObf::Sub => "sub",
            IrObf::Bcf => "bcf",
            IrObf::Fla => "fla",
            IrObf::Ollvm => "ollvm",
        }
    }

    /// Applies the pass in place.
    pub fn apply<R: Rng>(self, m: &mut Module, rng: &mut R) {
        match self {
            IrObf::Sub => {
                sub::run_module(m, rng, 0.9);
            }
            IrObf::Bcf => {
                bcf::run_module(m, rng, 0.4);
            }
            IrObf::Fla => {
                fla::run_module(m);
            }
            IrObf::Ollvm => ollvm(m, rng),
        }
    }
}

impl std::fmt::Display for IrObf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use yali_ir::interp::{run as exec, ExecConfig, Val};

    const SRC: &str = r#"
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) { s += i * 3; } else { s -= i; }
            }
            return s;
        }
    "#;

    #[test]
    fn every_ir_pass_verifies_and_preserves_semantics() {
        let m0 = yali_minic::compile(SRC).unwrap();
        for pass in IrObf::ALL {
            let mut m = m0.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(77);
            pass.apply(&mut m, &mut rng);
            yali_ir::verify_module(&m).unwrap_or_else(|e| panic!("{pass}: {e}"));
            for n in [0i64, 5, 17] {
                let a = exec(&m0, "f", &[Val::Int(n)], &[], &ExecConfig::default()).unwrap();
                let b = exec(&m, "f", &[Val::Int(n)], &[], &ExecConfig::default()).unwrap();
                assert_eq!(a.ret, b.ret, "{pass} diverges at n={n}");
            }
        }
    }

    #[test]
    fn ollvm_slows_programs_down() {
        // Figure 13's premise: obfuscated code is slower.
        let m0 = yali_minic::compile(SRC).unwrap();
        let mut m = m0.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        ollvm(&mut m, &mut rng);
        let a = exec(&m0, "f", &[Val::Int(40)], &[], &ExecConfig::default()).unwrap();
        let b = exec(&m, "f", &[Val::Int(40)], &[], &ExecConfig::default()).unwrap();
        assert!(b.cost > a.cost, "ollvm {} !> base {}", b.cost, a.cost);
    }

    #[test]
    fn o3_prints_the_same_obfuscated_module_on_every_run() {
        // Loops whose bodies hold loop-invariant arithmetic in several
        // blocks, obfuscated so they grow more blocks and loops: LICM
        // hoists from every loop and body block into the preheaders, so
        // the order it visits them in shows in the printed module.
        let src = r#"
            int walk(int n, int k) {
                int a = 0; int b = 1;
                for (int i = 0; i < n; i++) {
                    if (i % 3 == 0) { a = a + k * 7; } else { b = b + (k + 5) * 3; }
                    for (int j = 0; j < i; j++) { a = a - (k - 2) * 11 + j; }
                }
                return a + b;
            }
            int spin(int x, int y) {
                int q = 0;
                while (x > 0) {
                    if (x % 2 == 0) { q = q + y * 13; } else { q = q - (y + 9) * 4; }
                    x = x - 1;
                }
                return q;
            }
        "#;
        let m0 = yali_minic::compile(src).unwrap();
        for pass in IrObf::ALL {
            let mut m = m0.clone();
            pass.apply(&mut m, &mut ChaCha8Rng::seed_from_u64(3));
            let runs: Vec<String> = (0..4)
                .map(|_| yali_ir::print_module(&yali_opt::optimized(&m, yali_opt::OptLevel::O3)))
                .collect();
            assert!(runs.windows(2).all(|w| w[0] == w[1]), "{pass}");
        }
    }

    #[test]
    fn names_are_the_papers() {
        let names: Vec<&str> = IrObf::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["sub", "bcf", "fla", "ollvm"]);
    }
}
