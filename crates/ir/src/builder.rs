//! A convenience builder for constructing functions instruction by
//! instruction, in the style of LLVM's `IRBuilder`.

use crate::module::{Function, Inst};
use crate::opcode::{Cmp, Op};
use crate::types::Type;
use crate::value::{BlockId, Value};

/// Builds instructions into a [`Function`], tracking a current insertion
/// block.
///
/// # Examples
///
/// ```
/// use yali_ir::{FunctionBuilder, Type, Value, Op};
/// let mut b = FunctionBuilder::new("inc", vec![Type::I32], Type::I32);
/// let entry = b.add_block();
/// b.switch_to(entry);
/// let one = Value::const_int(Type::I32, 1);
/// let sum = b.binop(Op::Add, Value::Param(0), one);
/// b.ret(Some(sum));
/// let f = b.finish();
/// assert_eq!(f.num_insts(), 2);
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cur: Option<BlockId>,
}

impl FunctionBuilder {
    /// Starts building a function with the given signature.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret: Type) -> FunctionBuilder {
        FunctionBuilder {
            func: Function::new(name, params, ret),
            cur: None,
        }
    }

    /// Adds a fresh block (does not change the insertion point).
    pub fn add_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Sets the insertion point to the end of `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = Some(b);
    }

    /// The current insertion block.
    ///
    /// # Panics
    ///
    /// Panics if no insertion point was set.
    pub fn current(&self) -> BlockId {
        self.cur.expect("no insertion block set")
    }

    /// Read access to the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Mutable access to the function under construction, for surgery the
    /// convenience methods do not cover (e.g. hoisting allocas into the
    /// entry block).
    pub fn func_mut(&mut self) -> &mut Function {
        &mut self.func
    }

    /// Emits a raw instruction at the insertion point.
    pub fn emit(&mut self, inst: Inst) -> Value {
        let b = self.current();
        let id = self.func.push_inst(b, inst);
        Value::Inst(id)
    }

    /// Emits a binary operation; the result type is the type of `lhs`.
    pub fn binop(&mut self, op: Op, lhs: Value, rhs: Value) -> Value {
        let ty = self.func.value_type(&lhs);
        self.emit(Inst::new(op, ty, vec![lhs, rhs]))
    }

    /// Emits an integer comparison.
    pub fn icmp(&mut self, pred: Cmp, lhs: Value, rhs: Value) -> Value {
        let mut inst = Inst::new(Op::ICmp, Type::I1, vec![lhs, rhs]);
        inst.pred = Some(pred);
        self.emit(inst)
    }

    /// Emits a floating-point comparison.
    pub fn fcmp(&mut self, pred: Cmp, lhs: Value, rhs: Value) -> Value {
        let mut inst = Inst::new(Op::FCmp, Type::I1, vec![lhs, rhs]);
        inst.pred = Some(pred);
        self.emit(inst)
    }

    /// Emits an `alloca` of `count` elements of `elem`, yielding a pointer.
    pub fn alloca(&mut self, elem: Type, count: Value) -> Value {
        self.emit(Inst::new(Op::Alloca, Type::ptr(elem), vec![count]))
    }

    /// Emits a load through `ptr`.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is not pointer-typed.
    pub fn load(&mut self, ptr: Value) -> Value {
        let ty = self
            .func
            .value_type(&ptr)
            .pointee()
            .expect("load from non-pointer")
            .clone();
        self.emit(Inst::new(Op::Load, ty, vec![ptr]))
    }

    /// Emits a store of `value` through `ptr`.
    pub fn store(&mut self, value: Value, ptr: Value) {
        self.emit(Inst::new(Op::Store, Type::Void, vec![value, ptr]));
    }

    /// Emits element-wise pointer arithmetic.
    pub fn gep(&mut self, ptr: Value, index: Value) -> Value {
        let ty = self.func.value_type(&ptr);
        self.emit(Inst::new(Op::Gep, ty, vec![ptr, index]))
    }

    /// Emits a cast of `value` to `to`.
    pub fn cast(&mut self, op: Op, value: Value, to: Type) -> Value {
        debug_assert!(op.is_cast(), "cast builder used with {op}");
        self.emit(Inst::new(op, to, vec![value]))
    }

    /// Emits a direct call.
    pub fn call(&mut self, callee: &str, ret: Type, args: Vec<Value>) -> Value {
        let mut inst = Inst::new(Op::Call, ret, args);
        inst.callee = Some(callee.to_string());
        self.emit(inst)
    }

    /// Emits a `select`.
    pub fn select(&mut self, cond: Value, if_true: Value, if_false: Value) -> Value {
        let ty = self.func.value_type(&if_true);
        self.emit(Inst::new(Op::Select, ty, vec![cond, if_true, if_false]))
    }

    /// Emits a phi node; `incoming` pairs values with predecessor blocks.
    pub fn phi(&mut self, ty: Type, incoming: Vec<(Value, BlockId)>) -> Value {
        let (args, blocks) = incoming.into_iter().unzip();
        let inst = Inst {
            op: Op::Phi,
            ty,
            args,
            blocks,
            pred: None,
            callee: None,
        };
        self.emit(inst)
    }

    /// Emits an unconditional branch to `target`.
    pub fn br(&mut self, target: BlockId) {
        let mut inst = Inst::new(Op::Br, Type::Void, vec![]);
        inst.blocks = vec![target];
        self.emit(inst);
    }

    /// Emits a conditional branch.
    pub fn condbr(&mut self, cond: Value, then_b: BlockId, else_b: BlockId) {
        let mut inst = Inst::new(Op::CondBr, Type::Void, vec![cond]);
        inst.blocks = vec![then_b, else_b];
        self.emit(inst);
    }

    /// Emits a switch; `cases` pairs constants with targets.
    pub fn switch(&mut self, scrutinee: Value, default: BlockId, cases: Vec<(Value, BlockId)>) {
        let mut args = vec![scrutinee];
        let mut blocks = vec![default];
        for (v, b) in cases {
            args.push(v);
            blocks.push(b);
        }
        let inst = Inst {
            op: Op::Switch,
            ty: Type::Void,
            args,
            blocks,
            pred: None,
            callee: None,
        };
        self.emit(inst);
    }

    /// Emits a return.
    pub fn ret(&mut self, value: Option<Value>) {
        let args = value.into_iter().collect();
        self.emit(Inst::new(Op::Ret, Type::Void, args));
    }

    /// Emits `unreachable`.
    pub fn unreachable(&mut self) {
        self.emit(Inst::new(Op::Unreachable, Type::Void, vec![]));
    }

    /// True if the current block already ends in a terminator.
    pub fn is_terminated(&self) -> bool {
        match self.cur {
            Some(b) => self.func.terminator(b).is_some(),
            None => false,
        }
    }

    /// Finishes construction and yields the function.
    pub fn finish(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_diamond() {
        let mut b = FunctionBuilder::new("abs", vec![Type::I64], Type::I64);
        let entry = b.add_block();
        let neg = b.add_block();
        let join = b.add_block();
        b.switch_to(entry);
        let zero = Value::const_int(Type::I64, 0);
        let c = b.icmp(Cmp::Slt, Value::Param(0), zero.clone());
        b.condbr(c, neg, join);
        b.switch_to(neg);
        let n = b.binop(Op::Sub, zero, Value::Param(0));
        b.br(join);
        b.switch_to(join);
        let p = b.phi(Type::I64, vec![(Value::Param(0), entry), (n, neg)]);
        b.ret(Some(p));
        let f = b.finish();
        assert_eq!(f.num_blocks(), 3);
        assert_eq!(f.successors(entry), vec![neg, join]);
        let phis = f.phis(join);
        assert_eq!(phis.len(), 1);
    }

    #[test]
    fn load_infers_pointee_type() {
        let mut b = FunctionBuilder::new("f", vec![], Type::I32);
        let e = b.add_block();
        b.switch_to(e);
        let p = b.alloca(Type::I32, Value::const_int(Type::I64, 1));
        let v = b.load(p.clone());
        assert_eq!(b.func().value_type(&v), Type::I32);
        b.store(v.clone(), p);
        b.ret(Some(v));
        assert!(b.is_terminated());
    }

    #[test]
    fn switch_pairs_cases_with_targets() {
        let mut b = FunctionBuilder::new("s", vec![Type::I32], Type::Void);
        let e = b.add_block();
        let d = b.add_block();
        let c1 = b.add_block();
        b.switch_to(e);
        b.switch(
            Value::Param(0),
            d,
            vec![(Value::const_int(Type::I32, 7), c1)],
        );
        let f = b.func();
        let t = f.terminator(e).unwrap();
        assert_eq!(f.inst(t).args.len(), 2);
        assert_eq!(f.inst(t).blocks, vec![d, c1]);
    }
}
