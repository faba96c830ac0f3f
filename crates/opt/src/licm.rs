//! Loop-invariant code motion.
//!
//! Natural loops are discovered through back edges (`latch -> header` where
//! the header dominates the latch). A pure, non-trapping instruction whose
//! operands are all defined outside the loop is hoisted to the end of the
//! header's immediate dominator — a conservative hoist point that never
//! requires building a preheader. Division and remainder are never hoisted
//! (they can trap when speculated).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use yali_ir::{BlockId, DomTree, Function, InstId, Module, Op, Value};

/// Runs LICM on every definition. Returns the number of hoisted
/// instructions.
pub fn run_module(m: &mut Module) -> usize {
    m.functions
        .iter_mut()
        .filter(|f| !f.is_declaration())
        .map(run)
        .sum()
}

/// A natural loop: its header and body blocks.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header.
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub body: BTreeSet<BlockId>,
}

/// Finds the natural loops of `f` (one per header; bodies of shared headers
/// are merged), ordered by header and then body block ids, so that hoisting
/// visits them in the same order on every run.
pub fn natural_loops(f: &Function, dt: &DomTree) -> Vec<NaturalLoop> {
    let mut loops: BTreeMap<BlockId, BTreeSet<BlockId>> = BTreeMap::new();
    let preds = f.predecessors();
    for &b in f.block_order() {
        for s in f.successors(b) {
            if dt.dominates(s, b) {
                // Back edge b -> s.
                let body = loops.entry(s).or_insert_with(|| BTreeSet::from([s]));
                // Walk backwards from the latch collecting the body.
                let mut stack = vec![b];
                while let Some(x) = stack.pop() {
                    if body.insert(x) {
                        for &p in preds.get(&x).map(Vec::as_slice).unwrap_or(&[]) {
                            stack.push(p);
                        }
                    }
                }
            }
        }
    }
    loops
        .into_iter()
        .map(|(header, body)| NaturalLoop { header, body })
        .collect()
}

fn hoistable(op: Op) -> bool {
    (op.is_int_binop() && !matches!(op, Op::SDiv | Op::UDiv | Op::SRem | Op::URem))
        || matches!(op, Op::FAdd | Op::FSub | Op::FMul | Op::FNeg)
        || op.is_cast()
        || matches!(op, Op::ICmp | Op::FCmp | Op::Select | Op::Gep)
}

/// Runs LICM on one function.
pub fn run(f: &mut Function) -> usize {
    if f.is_declaration() {
        return 0;
    }
    let mut hoisted = 0;
    loop {
        let dt = DomTree::build(f);
        let loops = natural_loops(f, &dt);
        if loops.is_empty() {
            return hoisted;
        }
        // Placement of every instruction.
        let mut place: HashMap<InstId, BlockId> = HashMap::new();
        for (b, i) in f.iter_insts() {
            place.insert(i, b);
        }
        let mut moved_any = false;
        for l in &loops {
            let Some(pre) = dt.idom(l.header) else { continue };
            if pre == l.header || l.body.contains(&pre) {
                continue;
            }
            for &b in l.body.iter() {
                let insts: Vec<InstId> = f.block(b).insts.clone();
                for i in insts {
                    let inst = f.inst(i);
                    if !hoistable(inst.op) {
                        continue;
                    }
                    // All operands defined outside the loop, at points that
                    // dominate the hoist target.
                    let ok = inst.args.iter().all(|a| match a {
                        Value::Inst(d) => match place.get(d) {
                            Some(db) => !l.body.contains(db) && dt.dominates(*db, pre),
                            None => false,
                        },
                        _ => true,
                    });
                    if !ok {
                        continue;
                    }
                    // Move before the terminator of `pre`.
                    f.remove_from_block(b, i);
                    let at = f.block(pre).insts.len().saturating_sub(1);
                    f.insert_inst(pre, at, i);
                    place.insert(i, pre);
                    hoisted += 1;
                    moved_any = true;
                }
            }
        }
        if !moved_any {
            return hoisted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yali_ir::interp::{run as exec, ExecConfig, Val};
    use yali_ir::verify_module;

    fn opt(src: &str) -> Module {
        let mut m = yali_minic::compile(src).expect("compile");
        crate::mem2reg::run_module(&mut m);
        crate::simplify::run_module(&mut m);
        run_module(&mut m);
        verify_module(&m).unwrap_or_else(|e| panic!("{e}\n{}", yali_ir::print_module(&m)));
        m
    }

    #[test]
    fn finds_the_loop() {
        let m = yali_minic::compile("int f(int n) { int s = 0; while (s < n) { s++; } return s; }")
            .unwrap();
        let f = m.function("f").unwrap();
        let dt = DomTree::build(f);
        let loops = natural_loops(f, &dt);
        assert_eq!(loops.len(), 1);
        assert!(loops[0].body.len() >= 2);
    }

    #[test]
    fn hoists_invariant_multiplication() {
        let src = "int f(int n, int k) { int s = 0; for (int i = 0; i < n; i++) { s += k * 31; } return s; }";
        let m = opt(src);
        let f = m.function("f").unwrap();
        let dt = DomTree::build(f);
        let loops = natural_loops(f, &dt);
        // The multiply should no longer live inside any loop body.
        for l in &loops {
            for &b in &l.body {
                for &i in &f.block(b).insts {
                    assert_ne!(f.inst(i).op, Op::Mul, "mul still in loop\n{f}");
                }
            }
        }
        let out = exec(
            &m,
            "f",
            &[Val::Int(4), Val::Int(2)],
            &[],
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(out.ret, Some(Val::Int(248)));
    }

    #[test]
    fn division_is_not_hoisted() {
        // Hoisting k / n above the loop guard would trap when n == 0.
        let src = "int f(int n, int k) { int s = 0; for (int i = 0; i < n; i++) { s += k / n; } return s; }";
        let m = opt(src);
        let out = exec(
            &m,
            "f",
            &[Val::Int(0), Val::Int(5)],
            &[],
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(out.ret, Some(Val::Int(0)));
    }

    #[test]
    fn loop_varying_values_stay() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i * 2; } return s; }";
        let m = opt(src);
        let out = exec(&m, "f", &[Val::Int(5)], &[], &ExecConfig::default()).unwrap();
        assert_eq!(out.ret, Some(Val::Int(20)));
    }

    #[test]
    fn nested_loops_semantics_hold() {
        let src = r#"
            int f(int n, int k) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j < n; j++) {
                        s += (k * 7) + i + j;
                    }
                }
                return s;
            }
        "#;
        let m0 = yali_minic::compile(src).unwrap();
        let m1 = opt(src);
        for (n, k) in [(0i64, 1i64), (3, 2), (5, -1)] {
            let args = [Val::Int(n), Val::Int(k)];
            let a = exec(&m0, "f", &args, &[], &ExecConfig::default()).unwrap();
            let b = exec(&m1, "f", &args, &[], &ExecConfig::default()).unwrap();
            assert_eq!(a.ret, b.ret, "n={n} k={k}");
        }
    }
}
