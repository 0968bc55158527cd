//! The instruction set of the evolvable VM's stack machine.
//!
//! The ISA is deliberately Java-flavoured: a small operand stack, numbered
//! local slots, absolute in-function branch targets, and a split between
//! *generic* arithmetic/comparison opcodes (dynamically typed, relatively
//! expensive) and *specialized* typed variants that the optimizing JIT
//! installs via quickening. The per-opcode virtual cycle costs returned by
//! [`Instr::base_cost`] are the canonical cost model shared by the
//! interpreter and the optimizer.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::program::{FuncId, StrId};
use crate::scalar::{BinOp, BitOp, CmpOp};

/// Math intrinsics available to bytecode programs.
///
/// Unary intrinsics pop one value and push one; [`MathFn::Pow`],
/// [`MathFn::Min`] and [`MathFn::Max`] are binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MathFn {
    /// Square root (operates in `f64`).
    Sqrt,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Absolute value (preserves int/float kind).
    Abs,
    /// Floor (returns an integer value).
    Floor,
    /// `x.powf(y)`; binary.
    Pow,
    /// Minimum of two values; binary.
    Min,
    /// Maximum of two values; binary.
    Max,
}

impl MathFn {
    /// Number of operands the intrinsic pops from the stack.
    pub fn arity(self) -> usize {
        match self {
            MathFn::Pow | MathFn::Min | MathFn::Max => 2,
            _ => 1,
        }
    }

    /// All intrinsics, for exhaustive testing.
    pub fn all() -> &'static [MathFn] {
        &[
            MathFn::Sqrt,
            MathFn::Sin,
            MathFn::Cos,
            MathFn::Exp,
            MathFn::Log,
            MathFn::Abs,
            MathFn::Floor,
            MathFn::Pow,
            MathFn::Min,
            MathFn::Max,
        ]
    }

    /// Lowercase mnemonic used by the assembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MathFn::Sqrt => "sqrt",
            MathFn::Sin => "sin",
            MathFn::Cos => "cos",
            MathFn::Exp => "exp",
            MathFn::Log => "log",
            MathFn::Abs => "abs",
            MathFn::Floor => "floor",
            MathFn::Pow => "pow",
            MathFn::Min => "min",
            MathFn::Max => "max",
        }
    }

    /// Parse an assembler mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<MathFn> {
        MathFn::all().iter().copied().find(|m| m.mnemonic() == s)
    }
}

impl fmt::Display for MathFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One bytecode instruction.
///
/// Branch targets ([`Instr::Jump`], [`Instr::JumpIf`], [`Instr::JumpIfNot`])
/// are absolute instruction indices within the owning function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    // --- constants ---
    /// Push an integer constant.
    Const(i64),
    /// Push a float constant.
    FConst(f64),
    /// Push the null reference.
    Null,

    // --- locals ---
    /// Push local slot `n`.
    Load(u16),
    /// Pop into local slot `n`.
    Store(u16),

    // --- stack shuffling ---
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the two topmost values.
    Swap,

    // --- generic (polymorphic) arithmetic; quickened by the JIT ---
    /// Generic addition: int+int, float+float, or mixed (promotes to float).
    Add,
    /// Generic subtraction.
    Sub,
    /// Generic multiplication.
    Mul,
    /// Generic division.
    Div,
    /// Generic remainder.
    Rem,
    /// Generic negation.
    Neg,

    // --- specialized integer arithmetic (installed by quickening) ---
    /// Integer add.
    IAdd,
    /// Integer subtract.
    ISub,
    /// Integer multiply.
    IMul,
    /// Integer divide.
    IDiv,
    /// Integer remainder.
    IRem,
    /// Integer negate.
    INeg,

    // --- specialized float arithmetic ---
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide.
    FDiv,
    /// Float negate.
    FNeg,

    // --- bitwise (integer only) ---
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,

    // --- generic comparisons (push Int 0/1) ---
    /// Generic equality.
    CmpEq,
    /// Generic inequality.
    CmpNe,
    /// Generic less-than.
    CmpLt,
    /// Generic less-or-equal.
    CmpLe,
    /// Generic greater-than.
    CmpGt,
    /// Generic greater-or-equal.
    CmpGe,

    // --- specialized integer comparisons ---
    /// Integer equality.
    ICmpEq,
    /// Integer inequality.
    ICmpNe,
    /// Integer less-than.
    ICmpLt,
    /// Integer less-or-equal.
    ICmpLe,
    /// Integer greater-than.
    ICmpGt,
    /// Integer greater-or-equal.
    ICmpGe,

    // --- specialized float comparisons ---
    /// Float equality.
    FCmpEq,
    /// Float inequality.
    FCmpNe,
    /// Float less-than.
    FCmpLt,
    /// Float less-or-equal.
    FCmpLe,
    /// Float greater-than.
    FCmpGt,
    /// Float greater-or-equal.
    FCmpGe,

    // --- conversions ---
    /// Convert top of stack to float.
    ToFloat,
    /// Convert top of stack to int (truncating).
    ToInt,

    // --- control flow ---
    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Pop; jump if the value is truthy (nonzero int/float, non-null ref).
    JumpIf(u32),
    /// Pop; jump if the value is falsy.
    JumpIfNot(u32),
    /// Call a function: pops `arity` arguments (last argument on top),
    /// pushes the callee's return value.
    Call(FuncId),
    /// Return the top of stack to the caller.
    Return,

    // --- arrays ---
    /// Pop a length, push a new zero-filled array reference.
    NewArray,
    /// Pop index then array ref; push the element.
    ALoad,
    /// Pop value, index, array ref; store the element.
    AStore,
    /// Pop an array ref; push its length as an int.
    ALen,

    // --- intrinsics ---
    /// Invoke a math intrinsic (see [`MathFn`]).
    Math(MathFn),

    // --- host interface ---
    /// Pop a value and append it to the run's observable output.
    Print,
    /// Pop a value and publish it to the host under the interned name
    /// (the XICL `updateV` channel).
    Publish(StrId),
    /// Signal the host that no more features will be published (the XICL
    /// `done()` call); the VM pauses so the host may run prediction.
    Done,

    /// No operation (left behind by some rewrites; erased by DCE).
    Nop,

    // --- fused superinstructions ---
    //
    // Installed only by the fusion pass (`evovm-opt`'s `fuse`, which runs
    // at every optimization level), never written by frontends. Each one
    // executes exactly like its component sequence, costs the *sum* of
    // its components ([`Instr::base_cost`]) and reports its component
    // count to the retired-instruction counter, so the virtual clock and
    // instruction totals are bit-identical to unfused code. The set is
    // chosen from the measured opcode-pair distribution in
    // `BENCH_dispatch.json`.
    /// Fused `Load a; Load b`.
    LoadLoad(u16, u16),
    /// Fused `Load n; Const v`.
    LoadConst(u16, i64),
    /// Fused `Store n; Load m` (store the top of stack, then push another
    /// local — the dominant statement seam).
    StoreLoad(u16, u16),
    /// Fused `Store n; Jump t` (the loop back-edge idiom). A terminator,
    /// like the `Jump` it ends with.
    StoreJump(u16, u32),
    /// Fused `Const v; IAdd/ISub/IMul`: apply the int-specialized binop
    /// with `v` as the right operand, in place on the top of stack.
    ConstIBin(BinOp, i64),
    /// Fused `Const v; Add/Sub/Mul` (the generic forms quickening could
    /// not specialize; same semantics as [`Instr::ConstIBin`], generic
    /// cost).
    ConstBin(BinOp, i64),
    /// Fused `Const v; Shl/Shr/BitAnd/BitOr/BitXor`.
    ConstBit(BitOp, i64),
    /// Fused `Const v; ICmpXx`: compare the top of stack against `v`,
    /// leaving the 0/1 result in place.
    ConstICmp(CmpOp, i64),
    /// Fused `ICmpXx; JumpIf t` (`true`) / `JumpIfNot t` (`false`): pop
    /// two, compare, branch when the comparison matches the flag.
    ICmpBr(CmpOp, u32, bool),
    /// Fused `CmpXx; JumpIf/JumpIfNot` (generic-compare flavour of
    /// [`Instr::ICmpBr`]).
    CmpBr(CmpOp, u32, bool),
    /// Fused `Const v; ICmpXx; JumpIf/JumpIfNot` — the complete loop-head
    /// idiom, a three-instruction superinstruction formed by fusing
    /// [`Instr::ConstICmp`] with the branch.
    ConstICmpBr(CmpOp, i64, u32, bool),
    /// Fused `IAdd/ISub/IMul; Store n`: pop two, apply the
    /// int-specialized binop, store the result into local `n`.
    IBinStore(BinOp, u16),
    /// Fused `Add/Sub/Mul; Store n` (generic flavour of
    /// [`Instr::IBinStore`]).
    BinStore(BinOp, u16),
    /// Fused `Shl/Shr/BitAnd/BitOr/BitXor; Store n`.
    BitStore(BitOp, u16),
    /// Fused `Load n; IAdd/ISub/IMul`: apply the int-specialized binop
    /// with local `n` as the right operand, in place on the top of stack.
    LoadIBin(BinOp, u16),
    /// Fused `Load n; Add/Sub/Mul` (generic flavour of
    /// [`Instr::LoadIBin`]).
    LoadBin(BinOp, u16),
    /// Fused `Load n; ALoad`: index the array on top of stack with local
    /// `n`, replacing the array with the element.
    LoadALoad(u16),

    // --- tier-3 superinstructions ---
    //
    // Formed by a second fixpoint round of the same fusion pass: the
    // left element is itself a fused pair, so these cover the hot
    // three- and four-instruction chains that remain after pair fusion
    // (see the residual pair table in `BENCH_dispatch.json`).
    /// Fused `Load a; Load b; Add/Sub/Mul`: push `a ⊕ b` (generic
    /// arithmetic; `Div`/`Rem` stay unfused).
    LoadLoadBin(BinOp, u16, u16),
    /// Fused `Load n; Const v; IAdd/ISub/IMul`: push `n ⊕ v` with the
    /// int-specialized cost (the array-indexing idiom `base + i*stride`).
    LoadConstIBin(BinOp, u16, i64),
    /// Fused `Load a; Load b; CmpXx; JumpIf/JumpIfNot`: the complete
    /// two-local loop-head compare — no stack traffic at all.
    LoadLoadCmpBr(CmpOp, u16, u16, u32, bool),
    /// Fused `Const v; Shl/../BitXor; Store n; Load m`: mask-and-store
    /// then start the next statement (the compress/bloat inner-loop
    /// idiom).
    ConstBitStoreLoad(BitOp, i64, u16, u16),
    /// Fused `Const v; IAdd/ISub/IMul; Store n; Jump t`: the complete
    /// `i = i ⊕ c; continue` back-edge. A terminator, like the `Jump` it
    /// ends with (`Div`/`Rem` stay unfused).
    ConstIBinStoreJump(BinOp, i64, u16, u32),

    // --- residual superinstructions ---
    //
    // Chosen from the fused stream campaigns execute, where most code
    // runs unquickened at −1/O0 (the `residual` section of
    // `BENCH_dispatch.json`), so they fuse the *generic* arithmetic and
    // compare forms. `Div`/`Rem` stay unfused.
    /// Fused `Load n; CmpXx; JumpIf/JumpIfNot`: compare the top of stack
    /// against local `n` and branch (the generic-compare loop exit whose
    /// left operand is an expression).
    LoadCmpBr(CmpOp, u16, u32, bool),
    /// Fused `Add/Sub/Mul; Store n; Jump t`: the generic `x = a ⊕ b;
    /// continue` back-edge. A terminator, like the `Jump` it ends with.
    BinStoreJump(BinOp, u16, u32),
    /// Fused `Load a; Load b; ALoad`: push element `b` of array `a`.
    LoadLoadALoad(u16, u16),
    /// Fused `Load n; Add/Sub/Mul; ALoad`: offset the index on top of
    /// stack by local `n` (generic arithmetic), then index the array
    /// below it.
    LoadBinALoad(BinOp, u16),
    /// Fused `Const v; Add/Sub/Mul; ALoad`: the `a[i ± c]` idiom.
    ConstBinALoad(BinOp, i64),
    /// Fused `Load n; Const v; Add/Sub/Mul; Store m`: the generic
    /// `m = n ⊕ v` statement.
    LoadConstBinStore(BinOp, u16, i64, u16),
    /// Fused `Load a; Load b; Load n; Add/Sub/Mul; ALoad`: push element
    /// `b ⊕ n` of array `a`.
    LoadLoadBinALoad(BinOp, u16, u16, u16),
    /// Fused `Load a; Load b; Const v; Add/Sub/Mul; ALoad`: push element
    /// `b ⊕ v` of array `a` (the `a[i ± c]` read).
    LoadLoadConstBinALoad(BinOp, u16, u16, i64),
    /// Fused `Load n; Const v; Add/Sub/Mul; Store m; Jump t`: the generic
    /// `m = n ⊕ v; continue` back-edge (the loop increment). The constant
    /// is narrowed to `i32` so the form stays two words; the pass fuses
    /// only constants that fit. A terminator, like the `Jump` it ends
    /// with.
    LoadConstBinStoreJump(BinOp, u16, i32, u16, u32),
}

/// Mnemonic names of the dispatch classes, indexed by
/// [`Instr::dispatch_class`]. Kept in declaration order of [`Instr`] so
/// profile reports read like the ISA listing.
const DISPATCH_CLASS_NAMES: [&str; Instr::DISPATCH_CLASSES] = [
    "const",
    "fconst",
    "null",
    "load",
    "store",
    "dup",
    "pop",
    "swap",
    "add",
    "sub",
    "mul",
    "div",
    "rem",
    "neg",
    "iadd",
    "isub",
    "imul",
    "idiv",
    "irem",
    "ineg",
    "fadd",
    "fsub",
    "fmul",
    "fdiv",
    "fneg",
    "shl",
    "shr",
    "band",
    "bor",
    "bxor",
    "cmpeq",
    "cmpne",
    "cmplt",
    "cmple",
    "cmpgt",
    "cmpge",
    "icmpeq",
    "icmpne",
    "icmplt",
    "icmple",
    "icmpgt",
    "icmpge",
    "fcmpeq",
    "fcmpne",
    "fcmplt",
    "fcmple",
    "fcmpgt",
    "fcmpge",
    "tofloat",
    "toint",
    "jump",
    "jumpif",
    "jumpifnot",
    "call",
    "return",
    "newarray",
    "aload",
    "astore",
    "alen",
    "math",
    "print",
    "publish",
    "done",
    "nop",
    "loadload",
    "loadconst",
    "storeload",
    "storejump",
    "constibin",
    "constbin",
    "constbit",
    "consticmp",
    "icmpbr",
    "cmpbr",
    "consticmpbr",
    "ibinstore",
    "binstore",
    "bitstore",
    "loadibin",
    "loadbin",
    "loadaload",
    "loadloadbin",
    "loadconstibin",
    "loadloadcmpbr",
    "constbitstoreload",
    "constibinstorejump",
    "loadcmpbr",
    "binstorejump",
    "loadloadaload",
    "loadbinaload",
    "constbinaload",
    "loadconstbinstore",
    "loadloadbinaload",
    "loadloadconstbinaload",
    "loadconstbinstorejump",
];

impl Instr {
    /// Number of dispatch classes ([`Instr::dispatch_class`] values are
    /// `0..DISPATCH_CLASSES`): one class per opcode, ignoring operands, so
    /// an opcode-pair frequency table is `DISPATCH_CLASSES²` counters.
    pub const DISPATCH_CLASSES: usize = 95;

    /// The instruction's dispatch class: a dense 16-bit opcode index (the
    /// operand is ignored) used by the interpreter's dispatch profiler to
    /// bump per-opcode and opcode-pair counters without hashing.
    pub fn dispatch_class(self) -> u16 {
        match self {
            Instr::Const(_) => 0,
            Instr::FConst(_) => 1,
            Instr::Null => 2,
            Instr::Load(_) => 3,
            Instr::Store(_) => 4,
            Instr::Dup => 5,
            Instr::Pop => 6,
            Instr::Swap => 7,
            Instr::Add => 8,
            Instr::Sub => 9,
            Instr::Mul => 10,
            Instr::Div => 11,
            Instr::Rem => 12,
            Instr::Neg => 13,
            Instr::IAdd => 14,
            Instr::ISub => 15,
            Instr::IMul => 16,
            Instr::IDiv => 17,
            Instr::IRem => 18,
            Instr::INeg => 19,
            Instr::FAdd => 20,
            Instr::FSub => 21,
            Instr::FMul => 22,
            Instr::FDiv => 23,
            Instr::FNeg => 24,
            Instr::Shl => 25,
            Instr::Shr => 26,
            Instr::BitAnd => 27,
            Instr::BitOr => 28,
            Instr::BitXor => 29,
            Instr::CmpEq => 30,
            Instr::CmpNe => 31,
            Instr::CmpLt => 32,
            Instr::CmpLe => 33,
            Instr::CmpGt => 34,
            Instr::CmpGe => 35,
            Instr::ICmpEq => 36,
            Instr::ICmpNe => 37,
            Instr::ICmpLt => 38,
            Instr::ICmpLe => 39,
            Instr::ICmpGt => 40,
            Instr::ICmpGe => 41,
            Instr::FCmpEq => 42,
            Instr::FCmpNe => 43,
            Instr::FCmpLt => 44,
            Instr::FCmpLe => 45,
            Instr::FCmpGt => 46,
            Instr::FCmpGe => 47,
            Instr::ToFloat => 48,
            Instr::ToInt => 49,
            Instr::Jump(_) => 50,
            Instr::JumpIf(_) => 51,
            Instr::JumpIfNot(_) => 52,
            Instr::Call(_) => 53,
            Instr::Return => 54,
            Instr::NewArray => 55,
            Instr::ALoad => 56,
            Instr::AStore => 57,
            Instr::ALen => 58,
            Instr::Math(_) => 59,
            Instr::Print => 60,
            Instr::Publish(_) => 61,
            Instr::Done => 62,
            Instr::Nop => 63,
            Instr::LoadLoad(_, _) => 64,
            Instr::LoadConst(_, _) => 65,
            Instr::StoreLoad(_, _) => 66,
            Instr::StoreJump(_, _) => 67,
            Instr::ConstIBin(_, _) => 68,
            Instr::ConstBin(_, _) => 69,
            Instr::ConstBit(_, _) => 70,
            Instr::ConstICmp(_, _) => 71,
            Instr::ICmpBr(_, _, _) => 72,
            Instr::CmpBr(_, _, _) => 73,
            Instr::ConstICmpBr(_, _, _, _) => 74,
            Instr::IBinStore(_, _) => 75,
            Instr::BinStore(_, _) => 76,
            Instr::BitStore(_, _) => 77,
            Instr::LoadIBin(_, _) => 78,
            Instr::LoadBin(_, _) => 79,
            Instr::LoadALoad(_) => 80,
            Instr::LoadLoadBin(_, _, _) => 81,
            Instr::LoadConstIBin(_, _, _) => 82,
            Instr::LoadLoadCmpBr(_, _, _, _, _) => 83,
            Instr::ConstBitStoreLoad(_, _, _, _) => 84,
            Instr::ConstIBinStoreJump(_, _, _, _) => 85,
            Instr::LoadCmpBr(_, _, _, _) => 86,
            Instr::BinStoreJump(_, _, _) => 87,
            Instr::LoadLoadALoad(_, _) => 88,
            Instr::LoadBinALoad(_, _) => 89,
            Instr::ConstBinALoad(_, _) => 90,
            Instr::LoadConstBinStore(_, _, _, _) => 91,
            Instr::LoadLoadBinALoad(_, _, _, _) => 92,
            Instr::LoadLoadConstBinALoad(_, _, _, _) => 93,
            Instr::LoadConstBinStoreJump(_, _, _, _, _) => 94,
        }
    }

    /// Mnemonic of a dispatch class, for profile reports.
    ///
    /// # Panics
    ///
    /// Panics if `class >= DISPATCH_CLASSES`.
    pub fn dispatch_class_name(class: u16) -> &'static str {
        DISPATCH_CLASS_NAMES[class as usize]
    }

    /// Base virtual-cycle cost of the instruction.
    ///
    /// This is the canonical cost model shared by the interpreter, the
    /// adaptive optimizer's benefit estimation and the JIT's improvement
    /// accounting. Generic (polymorphic) opcodes pay a dynamic-dispatch
    /// premium that quickening removes.
    pub fn base_cost(&self) -> u64 {
        match self {
            Instr::Const(_) | Instr::FConst(_) | Instr::Null => 1,
            Instr::Load(_) | Instr::Store(_) => 1,
            Instr::Dup | Instr::Pop | Instr::Swap | Instr::Nop => 1,

            Instr::Add | Instr::Sub | Instr::Mul | Instr::Neg => 4,
            Instr::Div | Instr::Rem => 8,

            Instr::IAdd | Instr::ISub | Instr::IMul | Instr::INeg => 1,
            Instr::IDiv | Instr::IRem => 4,
            Instr::FAdd | Instr::FSub | Instr::FMul | Instr::FNeg => 2,
            Instr::FDiv => 6,

            Instr::Shl | Instr::Shr | Instr::BitAnd | Instr::BitOr | Instr::BitXor => 1,

            Instr::CmpEq
            | Instr::CmpNe
            | Instr::CmpLt
            | Instr::CmpLe
            | Instr::CmpGt
            | Instr::CmpGe => 4,

            Instr::ICmpEq
            | Instr::ICmpNe
            | Instr::ICmpLt
            | Instr::ICmpLe
            | Instr::ICmpGt
            | Instr::ICmpGe => 1,

            Instr::FCmpEq
            | Instr::FCmpNe
            | Instr::FCmpLt
            | Instr::FCmpLe
            | Instr::FCmpGt
            | Instr::FCmpGe => 2,

            Instr::ToFloat | Instr::ToInt => 1,

            Instr::Jump(_) => 1,
            Instr::JumpIf(_) | Instr::JumpIfNot(_) => 2,
            Instr::Call(_) => 15,
            Instr::Return => 5,

            Instr::NewArray => 24,
            Instr::ALoad | Instr::AStore => 3,
            Instr::ALen => 2,

            Instr::Math(m) => match m {
                MathFn::Pow => 20,
                MathFn::Abs | MathFn::Floor | MathFn::Min | MathFn::Max => 3,
                _ => 12,
            },

            Instr::Print => 30,
            Instr::Publish(_) => 10,
            Instr::Done => 5,

            // Fused superinstructions cost exactly the sum of their
            // components — the invariant that keeps the virtual clock
            // bit-identical between fused and unfused code (asserted by
            // `fused_costs_are_component_sums` below and re-checked by
            // the optimizer's cost-table test).
            Instr::LoadLoad(_, _) | Instr::LoadConst(_, _) | Instr::StoreLoad(_, _) => 2,
            Instr::StoreJump(_, _) => 2,
            Instr::ConstIBin(op, _) => {
                1 + match op {
                    BinOp::Div | BinOp::Rem => 4,
                    _ => 1,
                }
            }
            Instr::ConstBin(op, _) => {
                1 + match op {
                    BinOp::Div | BinOp::Rem => 8,
                    _ => 4,
                }
            }
            Instr::ConstBit(_, _) => 2,
            Instr::ConstICmp(_, _) => 2,
            Instr::ICmpBr(_, _, _) => 3,
            Instr::CmpBr(_, _, _) => 6,
            Instr::ConstICmpBr(_, _, _, _) => 4,
            Instr::IBinStore(op, _) | Instr::LoadIBin(op, _) => {
                1 + match op {
                    BinOp::Div | BinOp::Rem => 4,
                    _ => 1,
                }
            }
            Instr::BinStore(op, _) | Instr::LoadBin(op, _) => {
                1 + match op {
                    BinOp::Div | BinOp::Rem => 8,
                    _ => 4,
                }
            }
            Instr::BitStore(_, _) => 2,
            Instr::LoadALoad(_) => 4,
            // Tier-3: sums of the tier-1/2 sums. The fusion pass never
            // forms the Div/Rem flavours, but the cost stays the exact
            // component sum for every operand regardless.
            Instr::LoadLoadBin(op, _, _) => {
                2 + match op {
                    BinOp::Div | BinOp::Rem => 8,
                    _ => 4,
                }
            }
            Instr::LoadConstIBin(op, _, _) => {
                2 + match op {
                    BinOp::Div | BinOp::Rem => 4,
                    _ => 1,
                }
            }
            Instr::LoadLoadCmpBr(_, _, _, _, _) => 8,
            Instr::ConstBitStoreLoad(_, _, _, _) => 4,
            Instr::ConstIBinStoreJump(op, _, _, _) => {
                3 + match op {
                    BinOp::Div | BinOp::Rem => 4,
                    _ => 1,
                }
            }
            // Residual forms: the generic op's own cost plus the rest.
            Instr::LoadCmpBr(_, _, _, _) => 7,
            Instr::LoadLoadALoad(_, _) => 5,
            Instr::BinStoreJump(op, _, _) => 2 + bin_of(*op).base_cost(),
            Instr::LoadBinALoad(op, _) | Instr::ConstBinALoad(op, _) => 4 + bin_of(*op).base_cost(),
            Instr::LoadConstBinStore(op, _, _, _) => 3 + bin_of(*op).base_cost(),
            Instr::LoadLoadBinALoad(op, _, _, _) | Instr::LoadLoadConstBinALoad(op, _, _, _) => {
                6 + bin_of(*op).base_cost()
            }
            Instr::LoadConstBinStoreJump(op, _, _, _, _) => 4 + bin_of(*op).base_cost(),
        }
    }

    /// How many source instructions this opcode retires: 1 for everything
    /// except fused superinstructions, which report their component count
    /// so retired-instruction totals are identical fused and unfused.
    pub fn component_count(&self) -> u64 {
        match self {
            Instr::LoadLoad(_, _)
            | Instr::LoadConst(_, _)
            | Instr::StoreLoad(_, _)
            | Instr::StoreJump(_, _)
            | Instr::ConstIBin(_, _)
            | Instr::ConstBin(_, _)
            | Instr::ConstBit(_, _)
            | Instr::ConstICmp(_, _)
            | Instr::ICmpBr(_, _, _)
            | Instr::CmpBr(_, _, _)
            | Instr::IBinStore(_, _)
            | Instr::BinStore(_, _)
            | Instr::BitStore(_, _)
            | Instr::LoadIBin(_, _)
            | Instr::LoadBin(_, _)
            | Instr::LoadALoad(_) => 2,
            Instr::ConstICmpBr(_, _, _, _)
            | Instr::LoadLoadBin(_, _, _)
            | Instr::LoadConstIBin(_, _, _)
            | Instr::LoadCmpBr(_, _, _, _)
            | Instr::BinStoreJump(_, _, _)
            | Instr::LoadLoadALoad(_, _)
            | Instr::LoadBinALoad(_, _)
            | Instr::ConstBinALoad(_, _) => 3,
            Instr::LoadLoadCmpBr(_, _, _, _, _)
            | Instr::ConstBitStoreLoad(_, _, _, _)
            | Instr::ConstIBinStoreJump(_, _, _, _)
            | Instr::LoadConstBinStore(_, _, _, _) => 4,
            Instr::LoadLoadBinALoad(_, _, _, _)
            | Instr::LoadLoadConstBinALoad(_, _, _, _)
            | Instr::LoadConstBinStoreJump(_, _, _, _, _) => 5,
            _ => 1,
        }
    }

    /// The component sequence a fused superinstruction stands for
    /// (`None` for ordinary instructions). The inverse of the fusion
    /// pass, used by tests and disassembly tooling.
    pub fn unfused(&self) -> Option<Vec<Instr>> {
        let seq = match *self {
            Instr::LoadLoad(a, b) => vec![Instr::Load(a), Instr::Load(b)],
            Instr::LoadConst(n, v) => vec![Instr::Load(n), Instr::Const(v)],
            Instr::StoreLoad(n, m) => vec![Instr::Store(n), Instr::Load(m)],
            Instr::StoreJump(n, t) => vec![Instr::Store(n), Instr::Jump(t)],
            Instr::ConstIBin(op, v) => vec![Instr::Const(v), ibin_of(op)],
            Instr::ConstBin(op, v) => vec![Instr::Const(v), bin_of(op)],
            Instr::ConstBit(op, v) => vec![Instr::Const(v), bit_of(op)],
            Instr::ConstICmp(op, v) => vec![Instr::Const(v), icmp_of(op)],
            Instr::ICmpBr(op, t, when) => vec![icmp_of(op), branch_of(t, when)],
            Instr::CmpBr(op, t, when) => vec![cmp_of(op), branch_of(t, when)],
            Instr::ConstICmpBr(op, v, t, when) => {
                vec![Instr::Const(v), icmp_of(op), branch_of(t, when)]
            }
            Instr::IBinStore(op, n) => vec![ibin_of(op), Instr::Store(n)],
            Instr::BinStore(op, n) => vec![bin_of(op), Instr::Store(n)],
            Instr::BitStore(op, n) => vec![bit_of(op), Instr::Store(n)],
            Instr::LoadIBin(op, n) => vec![Instr::Load(n), ibin_of(op)],
            Instr::LoadBin(op, n) => vec![Instr::Load(n), bin_of(op)],
            Instr::LoadALoad(n) => vec![Instr::Load(n), Instr::ALoad],
            Instr::LoadLoadBin(op, a, b) => vec![Instr::Load(a), Instr::Load(b), bin_of(op)],
            Instr::LoadConstIBin(op, n, v) => {
                vec![Instr::Load(n), Instr::Const(v), ibin_of(op)]
            }
            Instr::LoadLoadCmpBr(op, a, b, t, when) => {
                vec![
                    Instr::Load(a),
                    Instr::Load(b),
                    cmp_of(op),
                    branch_of(t, when),
                ]
            }
            Instr::ConstBitStoreLoad(op, v, n, m) => {
                vec![Instr::Const(v), bit_of(op), Instr::Store(n), Instr::Load(m)]
            }
            Instr::ConstIBinStoreJump(op, v, n, t) => {
                vec![
                    Instr::Const(v),
                    ibin_of(op),
                    Instr::Store(n),
                    Instr::Jump(t),
                ]
            }
            Instr::LoadCmpBr(op, n, t, when) => {
                vec![Instr::Load(n), cmp_of(op), branch_of(t, when)]
            }
            Instr::BinStoreJump(op, n, t) => vec![bin_of(op), Instr::Store(n), Instr::Jump(t)],
            Instr::LoadLoadALoad(a, b) => vec![Instr::Load(a), Instr::Load(b), Instr::ALoad],
            Instr::LoadBinALoad(op, n) => vec![Instr::Load(n), bin_of(op), Instr::ALoad],
            Instr::ConstBinALoad(op, v) => vec![Instr::Const(v), bin_of(op), Instr::ALoad],
            Instr::LoadConstBinStore(op, n, v, m) => {
                vec![Instr::Load(n), Instr::Const(v), bin_of(op), Instr::Store(m)]
            }
            Instr::LoadLoadBinALoad(op, a, b, n) => vec![
                Instr::Load(a),
                Instr::Load(b),
                Instr::Load(n),
                bin_of(op),
                Instr::ALoad,
            ],
            Instr::LoadLoadConstBinALoad(op, a, b, v) => vec![
                Instr::Load(a),
                Instr::Load(b),
                Instr::Const(v),
                bin_of(op),
                Instr::ALoad,
            ],
            Instr::LoadConstBinStoreJump(op, n, v, m, t) => vec![
                Instr::Load(n),
                Instr::Const(i64::from(v)),
                bin_of(op),
                Instr::Store(m),
                Instr::Jump(t),
            ],
            _ => return None,
        };
        Some(seq)
    }

    /// `(pops, pushes)` stack effect; `Call` pops the callee's arity, which
    /// the caller must supply.
    pub fn stack_effect(&self, call_arity: impl Fn(FuncId) -> usize) -> (usize, usize) {
        match self {
            Instr::Const(_) | Instr::FConst(_) | Instr::Null | Instr::Load(_) => (0, 1),
            Instr::Store(_) | Instr::Pop | Instr::Print | Instr::Publish(_) => (1, 0),
            Instr::Dup => (1, 2),
            Instr::Swap => (2, 2),

            Instr::Add
            | Instr::Sub
            | Instr::Mul
            | Instr::Div
            | Instr::Rem
            | Instr::IAdd
            | Instr::ISub
            | Instr::IMul
            | Instr::IDiv
            | Instr::IRem
            | Instr::FAdd
            | Instr::FSub
            | Instr::FMul
            | Instr::FDiv
            | Instr::Shl
            | Instr::Shr
            | Instr::BitAnd
            | Instr::BitOr
            | Instr::BitXor
            | Instr::CmpEq
            | Instr::CmpNe
            | Instr::CmpLt
            | Instr::CmpLe
            | Instr::CmpGt
            | Instr::CmpGe
            | Instr::ICmpEq
            | Instr::ICmpNe
            | Instr::ICmpLt
            | Instr::ICmpLe
            | Instr::ICmpGt
            | Instr::ICmpGe
            | Instr::FCmpEq
            | Instr::FCmpNe
            | Instr::FCmpLt
            | Instr::FCmpLe
            | Instr::FCmpGt
            | Instr::FCmpGe => (2, 1),

            Instr::Neg | Instr::INeg | Instr::FNeg | Instr::ToFloat | Instr::ToInt => (1, 1),

            Instr::Jump(_) | Instr::Nop | Instr::Done => (0, 0),
            Instr::JumpIf(_) | Instr::JumpIfNot(_) => (1, 0),
            Instr::Call(id) => (call_arity(*id), 1),
            Instr::Return => (1, 0),

            Instr::NewArray => (1, 1),
            Instr::ALoad => (2, 1),
            Instr::AStore => (3, 0),
            Instr::ALen => (1, 1),

            Instr::Math(m) => (m.arity(), 1),

            // Fused forms execute in place, so their transient stack never
            // exceeds what these net effects imply.
            Instr::LoadLoad(_, _) | Instr::LoadConst(_, _) => (0, 2),
            Instr::StoreLoad(_, _) => (1, 1),
            Instr::StoreJump(_, _) => (1, 0),
            Instr::ConstIBin(_, _)
            | Instr::ConstBin(_, _)
            | Instr::ConstBit(_, _)
            | Instr::ConstICmp(_, _) => (1, 1),
            Instr::ICmpBr(_, _, _) | Instr::CmpBr(_, _, _) => (2, 0),
            Instr::ConstICmpBr(_, _, _, _) => (1, 0),
            Instr::IBinStore(_, _) | Instr::BinStore(_, _) | Instr::BitStore(_, _) => (2, 0),
            Instr::LoadIBin(_, _) | Instr::LoadBin(_, _) | Instr::LoadALoad(_) => (1, 1),
            Instr::LoadLoadBin(_, _, _) | Instr::LoadConstIBin(_, _, _) => (0, 1),
            Instr::LoadLoadCmpBr(_, _, _, _, _) => (0, 0),
            Instr::ConstBitStoreLoad(_, _, _, _) => (1, 1),
            Instr::ConstIBinStoreJump(_, _, _, _) => (1, 0),
            Instr::LoadCmpBr(_, _, _, _) => (1, 0),
            Instr::BinStoreJump(_, _, _) => (2, 0),
            Instr::LoadLoadALoad(_, _) => (0, 1),
            Instr::LoadBinALoad(_, _) | Instr::ConstBinALoad(_, _) => (2, 1),
            Instr::LoadConstBinStore(_, _, _, _) => (0, 0),
            Instr::LoadLoadBinALoad(_, _, _, _) | Instr::LoadLoadConstBinALoad(_, _, _, _) => {
                (0, 1)
            }
            Instr::LoadConstBinStoreJump(_, _, _, _, _) => (0, 0),
        }
    }

    /// The branch target, if this instruction is a jump.
    pub fn branch_target(&self) -> Option<u32> {
        match self {
            Instr::Jump(t) | Instr::JumpIf(t) | Instr::JumpIfNot(t) => Some(*t),
            Instr::StoreJump(_, t)
            | Instr::ICmpBr(_, t, _)
            | Instr::CmpBr(_, t, _)
            | Instr::ConstICmpBr(_, _, t, _)
            | Instr::LoadLoadCmpBr(_, _, _, t, _)
            | Instr::ConstIBinStoreJump(_, _, _, t)
            | Instr::LoadCmpBr(_, _, t, _)
            | Instr::BinStoreJump(_, _, t)
            | Instr::LoadConstBinStoreJump(_, _, _, _, t) => Some(*t),
            _ => None,
        }
    }

    /// Rewrite the branch target of a jump instruction, if any.
    pub fn with_branch_target(&self, target: u32) -> Instr {
        match *self {
            Instr::Jump(_) => Instr::Jump(target),
            Instr::JumpIf(_) => Instr::JumpIf(target),
            Instr::JumpIfNot(_) => Instr::JumpIfNot(target),
            Instr::StoreJump(n, _) => Instr::StoreJump(n, target),
            Instr::ICmpBr(op, _, when) => Instr::ICmpBr(op, target, when),
            Instr::CmpBr(op, _, when) => Instr::CmpBr(op, target, when),
            Instr::ConstICmpBr(op, v, _, when) => Instr::ConstICmpBr(op, v, target, when),
            Instr::LoadLoadCmpBr(op, a, b, _, when) => Instr::LoadLoadCmpBr(op, a, b, target, when),
            Instr::ConstIBinStoreJump(op, v, n, _) => Instr::ConstIBinStoreJump(op, v, n, target),
            Instr::LoadCmpBr(op, n, _, when) => Instr::LoadCmpBr(op, n, target, when),
            Instr::BinStoreJump(op, n, _) => Instr::BinStoreJump(op, n, target),
            Instr::LoadConstBinStoreJump(op, n, v, m, _) => {
                Instr::LoadConstBinStoreJump(op, n, v, m, target)
            }
            other => other,
        }
    }

    /// True if control never falls through to the next instruction.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Jump(_)
                | Instr::Return
                | Instr::StoreJump(_, _)
                | Instr::ConstIBinStoreJump(_, _, _, _)
                | Instr::BinStoreJump(_, _, _)
                | Instr::LoadConstBinStoreJump(_, _, _, _, _)
        )
    }

    /// True if the instruction can branch (conditionally or not).
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Instr::Jump(_)
                | Instr::JumpIf(_)
                | Instr::JumpIfNot(_)
                | Instr::StoreJump(_, _)
                | Instr::ICmpBr(_, _, _)
                | Instr::CmpBr(_, _, _)
                | Instr::ConstICmpBr(_, _, _, _)
                | Instr::LoadLoadCmpBr(_, _, _, _, _)
                | Instr::ConstIBinStoreJump(_, _, _, _)
                | Instr::LoadCmpBr(_, _, _, _)
                | Instr::BinStoreJump(_, _, _)
                | Instr::LoadConstBinStoreJump(_, _, _, _, _)
        )
    }

    /// True if the instruction has no side effect other than its stack
    /// manipulation (safe to fold or remove when its result is dead).
    pub fn is_pure(&self) -> bool {
        !matches!(
            self,
            Instr::Call(_)
                | Instr::Print
                | Instr::Publish(_)
                | Instr::Done
                | Instr::Return
                | Instr::Store(_)
                | Instr::AStore
                | Instr::NewArray
                | Instr::Jump(_)
                | Instr::JumpIf(_)
                | Instr::JumpIfNot(_)
                // division-likes can trap on zero, keep them
                | Instr::Div
                | Instr::Rem
                | Instr::IDiv
                | Instr::IRem
                | Instr::FDiv
                | Instr::ALoad
                | Instr::ALen
                // fused forms with a store, branch or div component
                | Instr::StoreLoad(_, _)
                | Instr::StoreJump(_, _)
                | Instr::ICmpBr(_, _, _)
                | Instr::CmpBr(_, _, _)
                | Instr::ConstICmpBr(_, _, _, _)
                | Instr::ConstIBin(BinOp::Div | BinOp::Rem, _)
                | Instr::ConstBin(BinOp::Div | BinOp::Rem, _)
                | Instr::IBinStore(_, _)
                | Instr::BinStore(_, _)
                | Instr::BitStore(_, _)
                | Instr::LoadIBin(BinOp::Div | BinOp::Rem, _)
                | Instr::LoadBin(BinOp::Div | BinOp::Rem, _)
                | Instr::LoadALoad(_)
                | Instr::LoadLoadBin(BinOp::Div | BinOp::Rem, _, _)
                | Instr::LoadConstIBin(BinOp::Div | BinOp::Rem, _, _)
                | Instr::LoadLoadCmpBr(_, _, _, _, _)
                | Instr::ConstBitStoreLoad(_, _, _, _)
                | Instr::ConstIBinStoreJump(_, _, _, _)
                | Instr::LoadCmpBr(_, _, _, _)
                | Instr::BinStoreJump(_, _, _)
                | Instr::LoadLoadALoad(_, _)
                | Instr::LoadBinALoad(_, _)
                | Instr::ConstBinALoad(_, _)
                | Instr::LoadConstBinStore(_, _, _, _)
                | Instr::LoadLoadBinALoad(_, _, _, _)
                | Instr::LoadLoadConstBinALoad(_, _, _, _)
                | Instr::LoadConstBinStoreJump(_, _, _, _, _)
        )
    }
}

/// The int-specialized arithmetic opcode for `op`.
fn ibin_of(op: BinOp) -> Instr {
    match op {
        BinOp::Add => Instr::IAdd,
        BinOp::Sub => Instr::ISub,
        BinOp::Mul => Instr::IMul,
        BinOp::Div => Instr::IDiv,
        BinOp::Rem => Instr::IRem,
    }
}

/// The generic arithmetic opcode for `op`.
fn bin_of(op: BinOp) -> Instr {
    match op {
        BinOp::Add => Instr::Add,
        BinOp::Sub => Instr::Sub,
        BinOp::Mul => Instr::Mul,
        BinOp::Div => Instr::Div,
        BinOp::Rem => Instr::Rem,
    }
}

/// The bitwise opcode for `op`.
fn bit_of(op: BitOp) -> Instr {
    match op {
        BitOp::Shl => Instr::Shl,
        BitOp::Shr => Instr::Shr,
        BitOp::And => Instr::BitAnd,
        BitOp::Or => Instr::BitOr,
        BitOp::Xor => Instr::BitXor,
    }
}

/// The int-specialized compare opcode for `op`.
fn icmp_of(op: CmpOp) -> Instr {
    match op {
        CmpOp::Eq => Instr::ICmpEq,
        CmpOp::Ne => Instr::ICmpNe,
        CmpOp::Lt => Instr::ICmpLt,
        CmpOp::Le => Instr::ICmpLe,
        CmpOp::Gt => Instr::ICmpGt,
        CmpOp::Ge => Instr::ICmpGe,
    }
}

/// The generic compare opcode for `op`.
fn cmp_of(op: CmpOp) -> Instr {
    match op {
        CmpOp::Eq => Instr::CmpEq,
        CmpOp::Ne => Instr::CmpNe,
        CmpOp::Lt => Instr::CmpLt,
        CmpOp::Le => Instr::CmpLe,
        CmpOp::Gt => Instr::CmpGt,
        CmpOp::Ge => Instr::CmpGe,
    }
}

/// The conditional branch for a fused compare-and-branch: `JumpIf` when
/// the fused flag is `true`, `JumpIfNot` otherwise.
fn branch_of(target: u32, when: bool) -> Instr {
    if when {
        Instr::JumpIf(target)
    } else {
        Instr::JumpIfNot(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specialized_arith_is_cheaper_than_generic() {
        assert!(Instr::IAdd.base_cost() < Instr::Add.base_cost());
        assert!(Instr::FAdd.base_cost() < Instr::Add.base_cost());
        assert!(Instr::ICmpLt.base_cost() < Instr::CmpLt.base_cost());
        assert!(Instr::IDiv.base_cost() < Instr::Div.base_cost());
    }

    #[test]
    fn branch_target_roundtrip() {
        let j = Instr::JumpIf(7);
        assert_eq!(j.branch_target(), Some(7));
        assert_eq!(j.with_branch_target(9), Instr::JumpIf(9));
        assert_eq!(Instr::IAdd.branch_target(), None);
        assert_eq!(Instr::IAdd.with_branch_target(3), Instr::IAdd);
    }

    #[test]
    fn terminators() {
        assert!(Instr::Jump(0).is_terminator());
        assert!(Instr::Return.is_terminator());
        assert!(!Instr::JumpIf(0).is_terminator());
        assert!(!Instr::IAdd.is_terminator());
    }

    #[test]
    fn stack_effects_balance() {
        let arity = |_: FuncId| 2usize;
        assert_eq!(Instr::Call(FuncId(0)).stack_effect(arity), (2, 1));
        assert_eq!(Instr::AStore.stack_effect(arity), (3, 0));
        assert_eq!(Instr::Math(MathFn::Pow).stack_effect(arity), (2, 1));
        assert_eq!(Instr::Math(MathFn::Sqrt).stack_effect(arity), (1, 1));
    }

    #[test]
    fn math_mnemonics_roundtrip() {
        for m in MathFn::all() {
            assert_eq!(MathFn::from_mnemonic(m.mnemonic()), Some(*m));
        }
        assert_eq!(MathFn::from_mnemonic("tan"), None);
    }

    /// One exemplar of every variant, in declaration order.
    fn exemplars() -> Vec<Instr> {
        vec![
            Instr::Const(1),
            Instr::FConst(1.0),
            Instr::Null,
            Instr::Load(0),
            Instr::Store(0),
            Instr::Dup,
            Instr::Pop,
            Instr::Swap,
            Instr::Add,
            Instr::Sub,
            Instr::Mul,
            Instr::Div,
            Instr::Rem,
            Instr::Neg,
            Instr::IAdd,
            Instr::ISub,
            Instr::IMul,
            Instr::IDiv,
            Instr::IRem,
            Instr::INeg,
            Instr::FAdd,
            Instr::FSub,
            Instr::FMul,
            Instr::FDiv,
            Instr::FNeg,
            Instr::Shl,
            Instr::Shr,
            Instr::BitAnd,
            Instr::BitOr,
            Instr::BitXor,
            Instr::CmpEq,
            Instr::CmpNe,
            Instr::CmpLt,
            Instr::CmpLe,
            Instr::CmpGt,
            Instr::CmpGe,
            Instr::ICmpEq,
            Instr::ICmpNe,
            Instr::ICmpLt,
            Instr::ICmpLe,
            Instr::ICmpGt,
            Instr::ICmpGe,
            Instr::FCmpEq,
            Instr::FCmpNe,
            Instr::FCmpLt,
            Instr::FCmpLe,
            Instr::FCmpGt,
            Instr::FCmpGe,
            Instr::ToFloat,
            Instr::ToInt,
            Instr::Jump(0),
            Instr::JumpIf(0),
            Instr::JumpIfNot(0),
            Instr::Call(FuncId(0)),
            Instr::Return,
            Instr::NewArray,
            Instr::ALoad,
            Instr::AStore,
            Instr::ALen,
            Instr::Math(MathFn::Sqrt),
            Instr::Print,
            Instr::Publish(StrId(0)),
            Instr::Done,
            Instr::Nop,
            Instr::LoadLoad(0, 1),
            Instr::LoadConst(0, 1),
            Instr::StoreLoad(0, 1),
            Instr::StoreJump(0, 0),
            Instr::ConstIBin(BinOp::Add, 1),
            Instr::ConstBin(BinOp::Add, 1),
            Instr::ConstBit(BitOp::And, 1),
            Instr::ConstICmp(CmpOp::Lt, 1),
            Instr::ICmpBr(CmpOp::Lt, 0, true),
            Instr::CmpBr(CmpOp::Lt, 0, false),
            Instr::ConstICmpBr(CmpOp::Lt, 1, 0, true),
            Instr::IBinStore(BinOp::Add, 0),
            Instr::BinStore(BinOp::Add, 0),
            Instr::BitStore(BitOp::And, 0),
            Instr::LoadIBin(BinOp::Add, 0),
            Instr::LoadBin(BinOp::Add, 0),
            Instr::LoadALoad(0),
            Instr::LoadLoadBin(BinOp::Add, 0, 1),
            Instr::LoadConstIBin(BinOp::Add, 0, 1),
            Instr::LoadLoadCmpBr(CmpOp::Lt, 0, 1, 0, true),
            Instr::ConstBitStoreLoad(BitOp::And, 1, 0, 1),
            Instr::ConstIBinStoreJump(BinOp::Add, 1, 0, 0),
            Instr::LoadCmpBr(CmpOp::Lt, 0, 0, true),
            Instr::BinStoreJump(BinOp::Add, 0, 0),
            Instr::LoadLoadALoad(0, 1),
            Instr::LoadBinALoad(BinOp::Add, 0),
            Instr::ConstBinALoad(BinOp::Add, 1),
            Instr::LoadConstBinStore(BinOp::Add, 0, 1, 1),
            Instr::LoadLoadBinALoad(BinOp::Add, 0, 1, 2),
            Instr::LoadLoadConstBinALoad(BinOp::Add, 0, 1, 1),
            Instr::LoadConstBinStoreJump(BinOp::Add, 0, 1, 0, 0),
        ]
    }

    #[test]
    fn dispatch_classes_are_dense_and_named() {
        let all = exemplars();
        assert_eq!(all.len(), Instr::DISPATCH_CLASSES);
        for (i, instr) in all.iter().enumerate() {
            assert_eq!(
                instr.dispatch_class() as usize,
                i,
                "{instr:?} must sit at class {i}"
            );
            assert!(!Instr::dispatch_class_name(i as u16).is_empty());
        }
        // Operands never change the class.
        assert_eq!(
            Instr::Const(7).dispatch_class(),
            Instr::Const(-9).dispatch_class()
        );
        assert_eq!(
            Instr::Load(0).dispatch_class(),
            Instr::Load(200).dispatch_class()
        );
    }

    #[test]
    fn instr_stays_two_words() {
        // The interpreter copies one `Instr` per dispatch; fused variants
        // must pack into the existing 16-byte enum layout.
        assert!(std::mem::size_of::<Instr>() <= 16);
    }

    /// Every fused exemplar across all operand flavours, for invariant
    /// sweeps.
    fn fused_exemplars() -> Vec<Instr> {
        let mut v = vec![
            Instr::LoadLoad(0, 1),
            Instr::LoadConst(2, -7),
            Instr::StoreLoad(1, 3),
            Instr::StoreJump(0, 5),
            Instr::LoadALoad(2),
            Instr::LoadLoadALoad(2, 0),
        ];
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem] {
            v.push(Instr::ConstIBin(op, 3));
            v.push(Instr::ConstBin(op, 3));
            v.push(Instr::IBinStore(op, 1));
            v.push(Instr::BinStore(op, 1));
            v.push(Instr::LoadIBin(op, 1));
            v.push(Instr::LoadBin(op, 1));
            v.push(Instr::LoadLoadBin(op, 0, 1));
            v.push(Instr::LoadConstIBin(op, 1, 3));
            v.push(Instr::ConstIBinStoreJump(op, 3, 1, 4));
            v.push(Instr::BinStoreJump(op, 1, 4));
            v.push(Instr::LoadBinALoad(op, 1));
            v.push(Instr::ConstBinALoad(op, 3));
            v.push(Instr::LoadConstBinStore(op, 1, 3, 2));
            v.push(Instr::LoadLoadBinALoad(op, 0, 1, 2));
            v.push(Instr::LoadLoadConstBinALoad(op, 0, 1, -3));
            v.push(Instr::LoadConstBinStoreJump(op, 1, 3, 2, 4));
        }
        for op in [BitOp::Shl, BitOp::Shr, BitOp::And, BitOp::Or, BitOp::Xor] {
            v.push(Instr::ConstBit(op, 3));
            v.push(Instr::BitStore(op, 1));
            v.push(Instr::ConstBitStoreLoad(op, 3, 1, 2));
        }
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            v.push(Instr::ConstICmp(op, 3));
            for when in [true, false] {
                v.push(Instr::ICmpBr(op, 4, when));
                v.push(Instr::CmpBr(op, 4, when));
                v.push(Instr::ConstICmpBr(op, 3, 4, when));
                v.push(Instr::LoadLoadCmpBr(op, 0, 1, 4, when));
                v.push(Instr::LoadCmpBr(op, 1, 4, when));
            }
        }
        v
    }

    #[test]
    fn fused_costs_are_component_sums() {
        for fused in fused_exemplars() {
            let parts = fused.unfused().expect("fused exemplar");
            assert_eq!(
                fused.base_cost(),
                parts.iter().map(Instr::base_cost).sum::<u64>(),
                "{fused:?} must cost the sum of {parts:?}"
            );
            assert_eq!(
                fused.component_count(),
                parts.len() as u64,
                "{fused:?} must retire {} instructions",
                parts.len()
            );
        }
        assert_eq!(Instr::IAdd.component_count(), 1);
        assert!(Instr::IAdd.unfused().is_none());
    }

    #[test]
    fn fused_stack_effects_match_component_sequences() {
        let arity = |_: FuncId| 0usize;
        for fused in fused_exemplars() {
            let parts = fused.unfused().expect("fused exemplar");
            // Simulate the component sequence from a large depth and
            // compare net effect.
            let mut depth = 100i64;
            for p in &parts {
                let (pops, pushes) = p.stack_effect(arity);
                depth = depth - pops as i64 + pushes as i64;
            }
            let (pops, pushes) = fused.stack_effect(arity);
            assert_eq!(
                100 - pops as i64 + pushes as i64,
                depth,
                "{fused:?} net stack effect must match {parts:?}"
            );
        }
    }

    #[test]
    fn fused_branch_metadata() {
        assert_eq!(Instr::StoreJump(1, 9).branch_target(), Some(9));
        assert!(Instr::StoreJump(1, 9).is_terminator());
        assert!(Instr::StoreJump(1, 9).is_branch());
        assert_eq!(
            Instr::StoreJump(1, 9).with_branch_target(3),
            Instr::StoreJump(1, 3)
        );
        let br = Instr::ConstICmpBr(CmpOp::Ge, 40, 11, true);
        assert_eq!(br.branch_target(), Some(11));
        assert!(!br.is_terminator());
        assert!(br.is_branch());
        assert_eq!(
            br.with_branch_target(2),
            Instr::ConstICmpBr(CmpOp::Ge, 40, 2, true)
        );
        assert_eq!(Instr::LoadLoad(0, 1).branch_target(), None);
        assert!(Instr::LoadConst(0, 3).is_pure());
        assert!(!Instr::StoreLoad(0, 1).is_pure());
        assert!(!Instr::ConstIBin(BinOp::Div, 2).is_pure());
        assert!(Instr::ConstIBin(BinOp::Add, 2).is_pure());
    }

    #[test]
    fn purity_classification() {
        assert!(Instr::IAdd.is_pure());
        assert!(Instr::Const(1).is_pure());
        assert!(!Instr::Print.is_pure());
        assert!(!Instr::Call(FuncId(0)).is_pure());
        assert!(!Instr::IDiv.is_pure());
        assert!(!Instr::Store(0).is_pure());
    }
}
