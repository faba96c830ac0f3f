//! Instruction opcodes.
//!
//! The opcode set mirrors LLVM's instruction taxonomy. Exactly
//! [`Op::COUNT`] (= 63) opcodes exist, which is the dimensionality of the
//! `histogram` program embedding used throughout the paper ("a vector of 63
//! positions counting instruction opcodes"). A number of opcodes (the exotic
//! exception-handling and vector instructions) are never produced by the
//! MiniC front end, but they occupy histogram dimensions all the same — just
//! as scalar C code never touches `shufflevector` in real LLVM.

use std::fmt;

/// An instruction opcode.
///
/// # Examples
///
/// ```
/// use yali_ir::Op;
/// assert!(Op::Ret.is_terminator());
/// assert!(!Op::Add.is_terminator());
/// assert_eq!(Op::COUNT, 63);
/// assert_eq!(Op::ALL[Op::Mul.index()], Op::Mul);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Op {
    // Terminators.
    /// Return from the enclosing function, possibly with a value.
    Ret,
    /// Unconditional branch to a single successor block.
    Br,
    /// Two-way conditional branch on an `i1` operand.
    CondBr,
    /// Multi-way branch on an integer scrutinee.
    Switch,
    /// Branch through a computed address (never produced by the front end).
    IndirectBr,
    /// Call with exceptional continuation (never produced).
    Invoke,
    /// Resume exception propagation (never produced).
    Resume,
    /// Marker for unreachable control flow.
    Unreachable,
    // Unary.
    /// Floating-point negation.
    FNeg,
    // Integer arithmetic.
    /// Integer addition (wrapping).
    Add,
    /// Floating-point addition.
    FAdd,
    /// Integer subtraction (wrapping).
    Sub,
    /// Floating-point subtraction.
    FSub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Floating-point multiplication.
    FMul,
    /// Unsigned integer division.
    UDiv,
    /// Signed integer division.
    SDiv,
    /// Floating-point division.
    FDiv,
    /// Unsigned integer remainder.
    URem,
    /// Signed integer remainder.
    SRem,
    /// Floating-point remainder.
    FRem,
    // Bitwise.
    /// Left shift.
    Shl,
    /// Logical (zero-filling) right shift.
    LShr,
    /// Arithmetic (sign-extending) right shift.
    AShr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    // Memory.
    /// Stack allocation of `n` elements of a type; yields a pointer.
    Alloca,
    /// Load a value through a pointer.
    Load,
    /// Store a value through a pointer.
    Store,
    /// Element-wise pointer arithmetic (`getelementptr`).
    Gep,
    /// Memory fence (never produced).
    Fence,
    /// Atomic compare-and-exchange (never produced).
    AtomicCmpXchg,
    /// Atomic read-modify-write (never produced).
    AtomicRmw,
    // Casts.
    /// Integer truncation to a narrower width.
    Trunc,
    /// Zero extension to a wider width.
    ZExt,
    /// Sign extension to a wider width.
    SExt,
    /// Float to unsigned integer.
    FpToUi,
    /// Float to signed integer.
    FpToSi,
    /// Unsigned integer to float.
    UiToFp,
    /// Signed integer to float.
    SiToFp,
    /// Float truncation (never produced: one float width).
    FpTrunc,
    /// Float extension (never produced: one float width).
    FpExt,
    /// Pointer to integer.
    PtrToInt,
    /// Integer to pointer.
    IntToPtr,
    /// Type reinterpretation between same-width types.
    BitCast,
    /// Address-space cast (never produced).
    AddrSpaceCast,
    // Other.
    /// Integer comparison; the predicate lives in [`crate::Inst::pred`].
    ICmp,
    /// Floating-point comparison.
    FCmp,
    /// SSA phi node merging values from predecessor blocks.
    Phi,
    /// Direct call to a named function.
    Call,
    /// Two-way value selection on an `i1` condition.
    Select,
    /// Variadic argument access (never produced).
    VaArg,
    /// Vector element extraction (never produced).
    ExtractElement,
    /// Vector element insertion (never produced).
    InsertElement,
    /// Vector shuffle (never produced).
    ShuffleVector,
    /// Aggregate field extraction (never produced).
    ExtractValue,
    /// Aggregate field insertion (never produced).
    InsertValue,
    /// Landing pad for exceptions (never produced).
    LandingPad,
    /// Cleanup pad (never produced).
    CleanupPad,
    /// Catch pad (never produced).
    CatchPad,
    /// Stop propagation of poison values (never produced).
    Freeze,
    /// Call with branch continuations (never produced).
    CallBr,
}

impl Op {
    /// The number of opcodes — the dimensionality of opcode histograms.
    pub const COUNT: usize = 63;

    /// All opcodes, indexable by [`Op::index`].
    pub const ALL: [Op; Op::COUNT] = [
        Op::Ret,
        Op::Br,
        Op::CondBr,
        Op::Switch,
        Op::IndirectBr,
        Op::Invoke,
        Op::Resume,
        Op::Unreachable,
        Op::FNeg,
        Op::Add,
        Op::FAdd,
        Op::Sub,
        Op::FSub,
        Op::Mul,
        Op::FMul,
        Op::UDiv,
        Op::SDiv,
        Op::FDiv,
        Op::URem,
        Op::SRem,
        Op::FRem,
        Op::Shl,
        Op::LShr,
        Op::AShr,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Alloca,
        Op::Load,
        Op::Store,
        Op::Gep,
        Op::Fence,
        Op::AtomicCmpXchg,
        Op::AtomicRmw,
        Op::Trunc,
        Op::ZExt,
        Op::SExt,
        Op::FpToUi,
        Op::FpToSi,
        Op::UiToFp,
        Op::SiToFp,
        Op::FpTrunc,
        Op::FpExt,
        Op::PtrToInt,
        Op::IntToPtr,
        Op::BitCast,
        Op::AddrSpaceCast,
        Op::ICmp,
        Op::FCmp,
        Op::Phi,
        Op::Call,
        Op::Select,
        Op::VaArg,
        Op::ExtractElement,
        Op::InsertElement,
        Op::ShuffleVector,
        Op::ExtractValue,
        Op::InsertValue,
        Op::LandingPad,
        Op::CleanupPad,
        Op::CatchPad,
        Op::Freeze,
        Op::CallBr,
    ];

    /// The position of this opcode in [`Op::ALL`] and in opcode histograms.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The textual mnemonic, as used by the printer and parser.
    pub fn name(self) -> &'static str {
        match self {
            Op::Ret => "ret",
            Op::Br => "br",
            Op::CondBr => "condbr",
            Op::Switch => "switch",
            Op::IndirectBr => "indirectbr",
            Op::Invoke => "invoke",
            Op::Resume => "resume",
            Op::Unreachable => "unreachable",
            Op::FNeg => "fneg",
            Op::Add => "add",
            Op::FAdd => "fadd",
            Op::Sub => "sub",
            Op::FSub => "fsub",
            Op::Mul => "mul",
            Op::FMul => "fmul",
            Op::UDiv => "udiv",
            Op::SDiv => "sdiv",
            Op::FDiv => "fdiv",
            Op::URem => "urem",
            Op::SRem => "srem",
            Op::FRem => "frem",
            Op::Shl => "shl",
            Op::LShr => "lshr",
            Op::AShr => "ashr",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Alloca => "alloca",
            Op::Load => "load",
            Op::Store => "store",
            Op::Gep => "gep",
            Op::Fence => "fence",
            Op::AtomicCmpXchg => "cmpxchg",
            Op::AtomicRmw => "atomicrmw",
            Op::Trunc => "trunc",
            Op::ZExt => "zext",
            Op::SExt => "sext",
            Op::FpToUi => "fptoui",
            Op::FpToSi => "fptosi",
            Op::UiToFp => "uitofp",
            Op::SiToFp => "sitofp",
            Op::FpTrunc => "fptrunc",
            Op::FpExt => "fpext",
            Op::PtrToInt => "ptrtoint",
            Op::IntToPtr => "inttoptr",
            Op::BitCast => "bitcast",
            Op::AddrSpaceCast => "addrspacecast",
            Op::ICmp => "icmp",
            Op::FCmp => "fcmp",
            Op::Phi => "phi",
            Op::Call => "call",
            Op::Select => "select",
            Op::VaArg => "va_arg",
            Op::ExtractElement => "extractelement",
            Op::InsertElement => "insertelement",
            Op::ShuffleVector => "shufflevector",
            Op::ExtractValue => "extractvalue",
            Op::InsertValue => "insertvalue",
            Op::LandingPad => "landingpad",
            Op::CleanupPad => "cleanuppad",
            Op::CatchPad => "catchpad",
            Op::Freeze => "freeze",
            Op::CallBr => "callbr",
        }
    }

    /// Looks an opcode up by mnemonic.
    pub fn from_name(name: &str) -> Option<Op> {
        Op::ALL.iter().copied().find(|op| op.name() == name)
    }

    /// True for opcodes that must terminate a basic block.
    pub fn is_terminator(self) -> bool {
        matches!(
            self,
            Op::Ret
                | Op::Br
                | Op::CondBr
                | Op::Switch
                | Op::IndirectBr
                | Op::Invoke
                | Op::Resume
                | Op::Unreachable
                | Op::CallBr
        )
    }

    /// True for the binary integer arithmetic/bitwise opcodes.
    pub fn is_int_binop(self) -> bool {
        matches!(
            self,
            Op::Add
                | Op::Sub
                | Op::Mul
                | Op::UDiv
                | Op::SDiv
                | Op::URem
                | Op::SRem
                | Op::Shl
                | Op::LShr
                | Op::AShr
                | Op::And
                | Op::Or
                | Op::Xor
        )
    }

    /// True for the binary floating-point arithmetic opcodes.
    pub fn is_float_binop(self) -> bool {
        matches!(self, Op::FAdd | Op::FSub | Op::FMul | Op::FDiv | Op::FRem)
    }

    /// True for cast opcodes (one operand, result of a different type).
    pub fn is_cast(self) -> bool {
        matches!(
            self,
            Op::Trunc
                | Op::ZExt
                | Op::SExt
                | Op::FpToUi
                | Op::FpToSi
                | Op::UiToFp
                | Op::SiToFp
                | Op::FpTrunc
                | Op::FpExt
                | Op::PtrToInt
                | Op::IntToPtr
                | Op::BitCast
                | Op::AddrSpaceCast
        )
    }

    /// True for commutative binary opcodes.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            Op::Add | Op::Mul | Op::And | Op::Or | Op::Xor | Op::FAdd | Op::FMul
        )
    }

    /// True for opcodes with side effects that dead-code elimination must
    /// preserve even when the result is unused.
    pub fn has_side_effects(self) -> bool {
        self.is_terminator()
            || matches!(
                self,
                Op::Store | Op::Call | Op::AtomicCmpXchg | Op::AtomicRmw | Op::Fence | Op::Alloca
            )
    }

    /// The abstract execution cost of the opcode, used by the interpreter's
    /// performance model (RQ6). Costs approximate relative latencies:
    /// divisions are expensive, memory has moderate cost, moves are cheap.
    pub fn cost(self) -> u64 {
        match self {
            Op::UDiv | Op::SDiv | Op::URem | Op::SRem => 24,
            Op::FDiv | Op::FRem => 30,
            Op::Mul => 3,
            Op::FMul | Op::FAdd | Op::FSub | Op::FNeg => 4,
            Op::Load | Op::Store => 4,
            Op::Call | Op::Invoke | Op::CallBr => 10,
            Op::Switch => 3,
            Op::CondBr => 2,
            Op::Alloca => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A comparison predicate for [`Op::ICmp`] and [`Op::FCmp`].
///
/// Integer predicates are the `Eq..Uge` prefix; float predicates are the
/// ordered `O*` group. Mirrors LLVM's `icmp`/`fcmp` predicate split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Slt,
    /// Signed less or equal.
    Sle,
    /// Signed greater than.
    Sgt,
    /// Signed greater or equal.
    Sge,
    /// Unsigned less than.
    Ult,
    /// Unsigned less or equal.
    Ule,
    /// Unsigned greater than.
    Ugt,
    /// Unsigned greater or equal.
    Uge,
    /// Ordered float equal.
    Oeq,
    /// Ordered float not equal.
    One,
    /// Ordered float less than.
    Olt,
    /// Ordered float less or equal.
    Ole,
    /// Ordered float greater than.
    Ogt,
    /// Ordered float greater or equal.
    Oge,
}

impl Cmp {
    /// All predicates.
    pub const ALL: [Cmp; 16] = [
        Cmp::Eq,
        Cmp::Ne,
        Cmp::Slt,
        Cmp::Sle,
        Cmp::Sgt,
        Cmp::Sge,
        Cmp::Ult,
        Cmp::Ule,
        Cmp::Ugt,
        Cmp::Uge,
        Cmp::Oeq,
        Cmp::One,
        Cmp::Olt,
        Cmp::Ole,
        Cmp::Ogt,
        Cmp::Oge,
    ];

    /// The textual mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            Cmp::Eq => "eq",
            Cmp::Ne => "ne",
            Cmp::Slt => "slt",
            Cmp::Sle => "sle",
            Cmp::Sgt => "sgt",
            Cmp::Sge => "sge",
            Cmp::Ult => "ult",
            Cmp::Ule => "ule",
            Cmp::Ugt => "ugt",
            Cmp::Uge => "uge",
            Cmp::Oeq => "oeq",
            Cmp::One => "one",
            Cmp::Olt => "olt",
            Cmp::Ole => "ole",
            Cmp::Ogt => "ogt",
            Cmp::Oge => "oge",
        }
    }

    /// Looks a predicate up by mnemonic.
    pub fn from_name(name: &str) -> Option<Cmp> {
        Cmp::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// True for the integer predicates.
    pub fn is_int(self) -> bool {
        matches!(
            self,
            Cmp::Eq
                | Cmp::Ne
                | Cmp::Slt
                | Cmp::Sle
                | Cmp::Sgt
                | Cmp::Sge
                | Cmp::Ult
                | Cmp::Ule
                | Cmp::Ugt
                | Cmp::Uge
        )
    }

    /// The predicate computing the logical negation (`a < b` ⇢ `a >= b`).
    pub fn negate(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
            Cmp::Slt => Cmp::Sge,
            Cmp::Sle => Cmp::Sgt,
            Cmp::Sgt => Cmp::Sle,
            Cmp::Sge => Cmp::Slt,
            Cmp::Ult => Cmp::Uge,
            Cmp::Ule => Cmp::Ugt,
            Cmp::Ugt => Cmp::Ule,
            Cmp::Uge => Cmp::Ult,
            Cmp::Oeq => Cmp::One,
            Cmp::One => Cmp::Oeq,
            Cmp::Olt => Cmp::Oge,
            Cmp::Ole => Cmp::Ogt,
            Cmp::Ogt => Cmp::Ole,
            Cmp::Oge => Cmp::Olt,
        }
    }

    /// The predicate with swapped operands (`a < b` ⇢ `b > a`).
    pub fn swap(self) -> Cmp {
        match self {
            Cmp::Eq | Cmp::Ne | Cmp::Oeq | Cmp::One => self,
            Cmp::Slt => Cmp::Sgt,
            Cmp::Sle => Cmp::Sge,
            Cmp::Sgt => Cmp::Slt,
            Cmp::Sge => Cmp::Sle,
            Cmp::Ult => Cmp::Ugt,
            Cmp::Ule => Cmp::Uge,
            Cmp::Ugt => Cmp::Ult,
            Cmp::Uge => Cmp::Ule,
            Cmp::Olt => Cmp::Ogt,
            Cmp::Ole => Cmp::Oge,
            Cmp::Ogt => Cmp::Olt,
            Cmp::Oge => Cmp::Ole,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_63_opcodes() {
        assert_eq!(Op::ALL.len(), 63);
        assert_eq!(Op::COUNT, 63);
    }

    #[test]
    fn all_indices_are_consistent() {
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i, "index mismatch for {op}");
        }
    }

    #[test]
    fn names_round_trip() {
        for op in Op::ALL {
            assert_eq!(Op::from_name(op.name()), Some(op));
        }
        assert_eq!(Op::from_name("nonsense"), None);
    }

    #[test]
    fn cmp_names_round_trip() {
        for c in Cmp::ALL {
            assert_eq!(Cmp::from_name(c.name()), Some(c));
        }
    }

    #[test]
    fn negate_is_involutive() {
        for c in Cmp::ALL {
            assert_eq!(c.negate().negate(), c);
        }
    }

    #[test]
    fn swap_is_involutive() {
        for c in Cmp::ALL {
            assert_eq!(c.swap().swap(), c);
        }
    }

    #[test]
    fn terminator_classification() {
        assert!(Op::Ret.is_terminator());
        assert!(Op::Switch.is_terminator());
        assert!(!Op::Add.is_terminator());
        assert!(!Op::Call.is_terminator());
    }

    #[test]
    fn side_effects_include_stores_and_calls() {
        assert!(Op::Store.has_side_effects());
        assert!(Op::Call.has_side_effects());
        assert!(!Op::Add.has_side_effects());
        assert!(!Op::Load.has_side_effects());
    }

    #[test]
    fn division_costs_more_than_addition() {
        assert!(Op::SDiv.cost() > Op::Add.cost());
        assert!(Op::FDiv.cost() > Op::FMul.cost());
    }
}
