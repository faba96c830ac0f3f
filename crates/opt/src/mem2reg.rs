//! Promotion of stack slots to SSA registers (`mem2reg`).
//!
//! The classic SSA-construction algorithm: phi insertion at iterated
//! dominance frontiers, followed by renaming along the dominator tree.
//! An alloca is *promotable* when it allocates a single scalar element and
//! is only ever used as the direct pointer of `load`s and `store`s.
//!
//! This is the pass the paper credits with reverting source-level
//! obfuscation: "the SSA conversion that LLVM uses reverts all the effects"
//! of Zhang et al.'s drlsg transformer (Section 4.3).
//!
//! Phi insertion walks the candidate allocas and their definition blocks
//! in id order, so the phis' placement within a block, their instruction
//! ids and the printed IR are the same on every run.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use yali_ir::{BlockId, DomTree, Function, Inst, InstId, Module, Op, Type, Value};

/// Runs mem2reg on every function of the module. Returns the number of
/// allocas promoted.
pub fn run_module(m: &mut Module) -> usize {
    let mut n = 0;
    for f in &mut m.functions {
        if !f.is_declaration() {
            n += run(f);
        }
    }
    n
}

/// Runs mem2reg on one function. Returns the number of allocas promoted.
pub fn run(f: &mut Function) -> usize {
    let candidates = promotable_allocas(f);
    if candidates.is_empty() {
        return 0;
    }
    let dt = DomTree::build(f);
    let preds = f.predecessors();

    // For each alloca: blocks containing stores (definition sites).
    let mut def_blocks: BTreeMap<InstId, BTreeSet<BlockId>> = BTreeMap::new();
    for (b, i) in f.iter_insts() {
        let inst = f.inst(i);
        if inst.op == Op::Store {
            if let Value::Inst(a) = &inst.args[1] {
                if candidates.contains_key(a) {
                    def_blocks.entry(*a).or_default().insert(b);
                }
            }
        }
    }

    // Phi insertion at iterated dominance frontiers.
    // phi_of[(block, alloca)] = phi inst id.
    let mut phi_of: HashMap<(BlockId, InstId), InstId> = HashMap::new();
    for (&alloca, elem_ty) in &candidates {
        let mut work: Vec<BlockId> = def_blocks
            .get(&alloca)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut has_phi: HashSet<BlockId> = HashSet::new();
        while let Some(b) = work.pop() {
            for &df in dt.frontier(b) {
                if has_phi.insert(df) {
                    // Insert an empty phi; incomings filled during renaming.
                    let npreds = preds.get(&df).map(Vec::len).unwrap_or(0);
                    let phi = Inst {
                        op: Op::Phi,
                        ty: elem_ty.clone(),
                        args: vec![Value::Undef(elem_ty.clone()); npreds],
                        blocks: preds.get(&df).cloned().unwrap_or_default(),
                        pred: None,
                        callee: None,
                    };
                    let id = f.new_inst(phi);
                    f.insert_inst(df, 0, id);
                    phi_of.insert((df, alloca), id);
                    work.push(df);
                }
            }
        }
    }

    // Renaming along the dominator tree.
    let mut stacks: HashMap<InstId, Vec<Value>> = candidates
        .keys()
        .map(|&a| (a, Vec::new()))
        .collect();
    // The value of an unitialized slot.
    let undef_of: HashMap<InstId, Value> = candidates
        .iter()
        .map(|(&a, t)| (a, Value::Undef(t.clone())))
        .collect();
    // Records (inst, replacement) for loads, and dead stores/loads/allocas.
    let mut replace: HashMap<InstId, Value> = HashMap::new();
    let mut dead: HashSet<InstId> = HashSet::new();

    // Iterative DFS over the dominator tree, tracking pushes for scoping.
    enum Step {
        Enter(BlockId),
        Exit(Vec<(InstId, usize)>), // (alloca, pushes to pop)
    }
    let entry = f.entry();
    let mut stack = vec![Step::Enter(entry)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Exit(pops) => {
                for (a, n) in pops {
                    let s = stacks.get_mut(&a).unwrap();
                    for _ in 0..n {
                        s.pop();
                    }
                }
            }
            Step::Enter(b) => {
                let mut pushes: HashMap<InstId, usize> = HashMap::new();
                let insts: Vec<InstId> = f.block(b).insts.clone();
                for i in insts {
                    let inst = f.inst(i).clone();
                    match inst.op {
                        Op::Phi => {
                            if let Some((&(_, a), _)) =
                                phi_of.iter().find(|(&(pb, _), &pid)| pb == b && pid == i)
                            {
                                stacks.get_mut(&a).unwrap().push(Value::Inst(i));
                                *pushes.entry(a).or_insert(0) += 1;
                            }
                        }
                        Op::Load => {
                            if let Value::Inst(a) = &inst.args[0] {
                                if let Some(s) = stacks.get(a) {
                                    let cur =
                                        s.last().cloned().unwrap_or_else(|| undef_of[a].clone());
                                    replace.insert(i, cur);
                                    dead.insert(i);
                                }
                            }
                        }
                        Op::Store => {
                            if let Value::Inst(a) = &inst.args[1] {
                                if stacks.contains_key(a) {
                                    // The stored value, as currently renamed.
                                    let v = resolve(&inst.args[0], &replace);
                                    stacks.get_mut(a).unwrap().push(v);
                                    *pushes.entry(*a).or_insert(0) += 1;
                                    dead.insert(i);
                                }
                            }
                        }
                        Op::Alloca
                            if stacks.contains_key(&i) => {
                                dead.insert(i);
                            }
                        _ => {}
                    }
                }
                // Fill phi incomings in CFG successors.
                for s in f.successors(b) {
                    for (&(pb, a), &pid) in &phi_of {
                        if pb != s {
                            continue;
                        }
                        let cur = stacks[&a]
                            .last()
                            .cloned()
                            .unwrap_or_else(|| undef_of[&a].clone());
                        let inst = f.inst_mut(pid);
                        for (k, blk) in inst.blocks.clone().iter().enumerate() {
                            if *blk == b {
                                inst.args[k] = cur.clone();
                            }
                        }
                    }
                }
                stack.push(Step::Exit(pushes.into_iter().collect()));
                for &c in dt.children(b) {
                    stack.push(Step::Enter(c));
                }
            }
        }
    }

    // Apply replacements: rewrite loads' uses, delete dead instructions.
    // Replacements may chain (a load's replacement may itself be a replaced
    // load), so resolve transitively.
    let all_insts: Vec<(BlockId, InstId)> = f.iter_insts().collect();
    for (_, i) in &all_insts {
        let nargs = f.inst(*i).args.len();
        for k in 0..nargs {
            let v = f.inst(*i).args[k].clone();
            let r = resolve(&v, &replace);
            if r != v {
                f.inst_mut(*i).args[k] = r;
            }
        }
    }
    for (b, i) in all_insts {
        if dead.contains(&i) {
            f.remove_from_block(b, i);
        }
    }
    f.compact();
    candidates.len()
}

/// Follows a chain of load-replacements to a final value.
fn resolve(v: &Value, replace: &HashMap<InstId, Value>) -> Value {
    let mut cur = v.clone();
    let mut hops = 0;
    while let Value::Inst(id) = &cur {
        match replace.get(id) {
            Some(next) => {
                cur = next.clone();
                hops += 1;
                assert!(hops < 1_000_000, "replacement cycle");
            }
            None => break,
        }
    }
    cur
}

/// Finds allocas that can be promoted: single-element scalar slots whose
/// only uses are direct loads and stores (never stored *as a value*, never
/// gep'd, never passed to a call).
fn promotable_allocas(f: &Function) -> BTreeMap<InstId, Type> {
    let mut cand: BTreeMap<InstId, Type> = BTreeMap::new();
    for (_, i) in f.iter_insts() {
        let inst = f.inst(i);
        if inst.op == Op::Alloca
            && inst.args[0].is_int(1)
            && matches!(inst.ty.pointee(), Some(t) if !t.is_ptr())
        {
            cand.insert(i, inst.ty.pointee().unwrap().clone());
        }
    }
    if cand.is_empty() {
        return cand;
    }
    for (_, i) in f.iter_insts() {
        let inst = f.inst(i);
        for (k, a) in inst.args.iter().enumerate() {
            let Value::Inst(id) = a else { continue };
            if !cand.contains_key(id) {
                continue;
            }
            let ok = match inst.op {
                Op::Load => k == 0,
                Op::Store => k == 1, // address position only
                _ => false,
            };
            if !ok {
                cand.remove(id);
            }
        }
    }
    cand
}

#[cfg(test)]
mod tests {
    use super::*;
    use yali_ir::interp::{run as exec, ExecConfig, Val};
    use yali_ir::{print_module, verify_module};

    fn compile(src: &str) -> Module {
        yali_minic::compile(src).expect("compile")
    }

    fn promoted(src: &str) -> Module {
        let mut m = compile(src);
        run_module(&mut m);
        verify_module(&m).unwrap_or_else(|e| panic!("{e}\n{}", print_module(&m)));
        m
    }

    fn count_op(m: &Module, op: Op) -> usize {
        m.definitions()
            .flat_map(|f| f.iter_insts().map(move |(_, i)| f.inst(i).op))
            .filter(|&o| o == op)
            .count()
    }

    #[test]
    fn straight_line_promotion_removes_all_memory_ops() {
        let m = promoted("int f(int x) { int y = x + 1; int z = y * 2; return z; }");
        assert_eq!(count_op(&m, Op::Alloca), 0);
        assert_eq!(count_op(&m, Op::Load), 0);
        assert_eq!(count_op(&m, Op::Store), 0);
    }

    #[test]
    fn loops_get_phis() {
        let src = "int sum(int n) { int s = 0; for (int i = 1; i <= n; i++) { s += i; } return s; }";
        let m = promoted(src);
        assert_eq!(count_op(&m, Op::Alloca), 0);
        assert!(count_op(&m, Op::Phi) >= 2, "expected phis for s and i");
        let out = exec(&m, "sum", &[Val::Int(100)], &[], &ExecConfig::default()).unwrap();
        assert_eq!(out.ret, Some(Val::Int(5050)));
    }

    #[test]
    fn diamond_merges_with_phi() {
        let src = "int f(int x) { int r = 0; if (x > 0) { r = 1; } else { r = 2; } return r; }";
        let m = promoted(src);
        assert_eq!(count_op(&m, Op::Alloca), 0);
        assert!(count_op(&m, Op::Phi) >= 1);
        for (arg, want) in [(5, 1), (-5, 2)] {
            let out = exec(&m, "f", &[Val::Int(arg)], &[], &ExecConfig::default()).unwrap();
            assert_eq!(out.ret, Some(Val::Int(want)));
        }
    }

    #[test]
    fn arrays_are_not_promoted() {
        let src = "int f() { int a[4]; a[0] = 7; return a[0]; }";
        let m = promoted(src);
        assert_eq!(count_op(&m, Op::Alloca), 1);
    }

    #[test]
    fn semantics_preserved_on_nested_control_flow() {
        let src = r#"
            int collatz(int n) {
                int steps = 0;
                while (n != 1) {
                    if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                    steps++;
                }
                return steps;
            }
        "#;
        let m0 = compile(src);
        let m1 = promoted(src);
        for n in [1i64, 6, 27, 97] {
            let a = exec(&m0, "collatz", &[Val::Int(n)], &[], &ExecConfig::default()).unwrap();
            let b = exec(&m1, "collatz", &[Val::Int(n)], &[], &ExecConfig::default()).unwrap();
            assert_eq!(a.ret, b.ret, "collatz({n})");
            assert!(b.steps < a.steps, "promotion should reduce step count");
        }
    }

    #[test]
    fn promotion_reports_count() {
        let mut m = compile("int f(int x) { int y = x; return y; }");
        // x and y slots.
        assert_eq!(run_module(&mut m), 2);
        assert_eq!(run_module(&mut m), 0);
    }

    #[test]
    fn promotion_prints_the_same_module_on_every_run() {
        // Loops with several live variables each: every variable gets a
        // phi in the same loop header, so their order there depends on
        // the order in which the allocas and their definition blocks are
        // visited.
        let src = r#"
            int walk(int n) {
                int a = 0; int b = 1; int c = 2; int d = 3;
                for (int i = 0; i < n; i++) { a = a + b; b = b * 2 - c; c = c + d; d = d - a; }
                return a + b + c + d;
            }
            int nest(int n, int m) {
                int s = 0; int t = 1; int u = 0;
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j < m; j++) { s = s + j; t = t * 3 % 7; }
                    u = u + s - t;
                }
                return u;
            }
            int spin(int x) {
                int p = x; int q = 0; int r = 1; int w = 5;
                while (p > 0) {
                    if (p % 2 == 0) { q = q + r; } else { r = r + w; w = w - 1; }
                    p = p - 1;
                }
                return q * r + w;
            }
        "#;
        let m = compile(src);
        let (mut first, mut second) = (m.clone(), m);
        crate::mem2reg_only(&mut first);
        crate::mem2reg_only(&mut second);
        assert_eq!(print_module(&first), print_module(&second));
    }

    #[test]
    fn float_slots_promote() {
        let src = "float f(float a, float b) { float m = a; if (b > a) { m = b; } return m; }";
        let m = promoted(src);
        assert_eq!(count_op(&m, Op::Alloca), 0);
        let out = exec(
            &m,
            "f",
            &[Val::Float(1.5), Val::Float(2.5)],
            &[],
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(out.ret, Some(Val::Float(2.5)));
    }
}
