//! Block-local constant folding, algebraic simplification and constant
//! branch folding.
//!
//! The pass symbolically executes each basic block with an abstract stack
//! whose entries remember (a) a known constant value, if any, and (b) the
//! in-block instruction that produced them. When an operation's operands
//! are all known, the producers are deleted and the operation is replaced
//! by the folded constant — evaluated through [`evovm_bytecode::scalar`],
//! the same semantics the interpreter uses. Conditional branches on known
//! conditions become unconditional (or disappear), exposing dead blocks to
//! the DCE pass.

use evovm_bytecode::scalar::{self, BinOp, BitOp, CmpOp, Scalar};
use evovm_bytecode::Instr;

use crate::passes::leaders;
use crate::util::compact;

/// One abstract stack entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Known constant value, if provable.
    value: Option<Scalar>,
    /// In-block pc of the instruction that pushed this value, when that
    /// instruction can be deleted if the value is consumed by a fold.
    producer: Option<usize>,
}

impl Entry {
    fn unknown() -> Entry {
        Entry {
            value: None,
            producer: None,
        }
    }
}

/// Run constant folding over `code`, returning the rewritten code.
pub fn run(code: &[Instr]) -> Vec<Instr> {
    let mut out: Vec<Instr> = code.to_vec();
    let mut keep = vec![true; code.len()];
    let is_leader = leaders(code);
    let mut stack: Vec<Entry> = Vec::new();

    for pc in 0..code.len() {
        if is_leader[pc] {
            // Unknown stack contents flow in at block boundaries.
            stack.clear();
        }
        let instr = out[pc];
        // Pop helper that models values flowing in from before the block.
        macro_rules! pop {
            () => {
                stack.pop().unwrap_or_else(Entry::unknown)
            };
        }
        macro_rules! push_const {
            ($v:expr, $pc:expr) => {{
                let v: Scalar = $v;
                out[$pc] = match v {
                    Scalar::Int(i) => Instr::Const(i),
                    Scalar::Float(f) => Instr::FConst(f),
                };
                stack.push(Entry {
                    value: Some(v),
                    producer: Some($pc),
                });
            }};
        }

        match instr {
            Instr::Const(v) => stack.push(Entry {
                value: Some(Scalar::Int(v)),
                producer: Some(pc),
            }),
            Instr::FConst(v) => stack.push(Entry {
                value: Some(Scalar::Float(v)),
                producer: Some(pc),
            }),
            Instr::Null | Instr::Load(_) | Instr::NewArray => {
                if matches!(instr, Instr::NewArray) {
                    pop!();
                }
                stack.push(Entry::unknown());
            }
            Instr::Store(_) | Instr::Pop | Instr::Print | Instr::Publish(_) => {
                pop!();
            }
            Instr::Dup => {
                match stack.last_mut() {
                    // Dup of a known constant: rematerialize it as an
                    // explicit constant push, so the copy and the original
                    // have independent, individually deletable producers.
                    Some(top) if top.value.is_some() => {
                        let v = top.value.expect("checked");
                        out[pc] = match v {
                            Scalar::Int(i) => Instr::Const(i),
                            Scalar::Float(f) => Instr::FConst(f),
                        };
                        stack.push(Entry {
                            value: Some(v),
                            producer: Some(pc),
                        });
                    }
                    // Unknown value: the original now has two consumers, so
                    // its producer can no longer be deleted on a fold (the
                    // Dup would be left reading a missing value).
                    Some(top) => {
                        top.producer = None;
                        stack.push(Entry {
                            value: None,
                            producer: Some(pc),
                        });
                    }
                    None => stack.push(Entry::unknown()),
                }
            }
            Instr::Swap => {
                // A surviving Swap between producer and consumer would be
                // left with missing operands if either producer were
                // deleted, so both sides become non-deletable.
                let mut b = pop!();
                let mut a = pop!();
                a.producer = None;
                b.producer = None;
                stack.push(b);
                stack.push(a);
            }

            // --- binary arithmetic ---
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
            | Instr::FDiv => {
                let op = bin_op_of(instr);
                let b = pop!();
                let a = pop!();
                let folded = match (a.value, a.producer, b.value, b.producer) {
                    (Some(x), Some(pa), Some(y), Some(pb)) => {
                        match scalar::binop(op, x, y) {
                            Ok(v) => {
                                keep[pa] = false;
                                keep[pb] = false;
                                push_const!(v, pc);
                                true
                            }
                            Err(_) => false, // keep the trap
                        }
                    }
                    _ => false,
                };
                if !folded {
                    // Algebraic identities on the top operand.
                    let identity = match (op, b.value) {
                        (BinOp::Add | BinOp::Sub, Some(Scalar::Int(0))) => true,
                        (BinOp::Mul | BinOp::Div, Some(Scalar::Int(1))) => true,
                        (BinOp::Mul | BinOp::Div, Some(Scalar::Float(f))) => {
                            // Only safe for float-typed ops: 1.0 promotes an
                            // int left operand to float under generic ops.
                            f == 1.0 && matches!(instr, Instr::FMul | Instr::FDiv)
                        }
                        _ => false,
                    };
                    if identity {
                        if let Some(pb) = b.producer {
                            keep[pb] = false;
                            keep[pc] = false;
                            stack.push(a);
                        } else {
                            stack.push(Entry::unknown());
                        }
                    } else {
                        stack.push(Entry::unknown());
                    }
                }
            }

            // --- unary arithmetic ---
            Instr::Neg | Instr::INeg | Instr::FNeg => {
                let a = pop!();
                match (a.value, a.producer) {
                    (Some(x), Some(pa)) => {
                        keep[pa] = false;
                        push_const!(scalar::neg(x), pc);
                    }
                    _ => stack.push(Entry::unknown()),
                }
            }

            // --- bitwise ---
            Instr::Shl | Instr::Shr | Instr::BitAnd | Instr::BitOr | Instr::BitXor => {
                let op = bit_op_of(instr);
                let b = pop!();
                let a = pop!();
                match (a.value, a.producer, b.value, b.producer) {
                    (Some(x), Some(pa), Some(y), Some(pb)) => match scalar::bitop(op, x, y) {
                        Ok(v) => {
                            keep[pa] = false;
                            keep[pb] = false;
                            push_const!(v, pc);
                        }
                        Err(_) => stack.push(Entry::unknown()),
                    },
                    _ => stack.push(Entry::unknown()),
                }
            }

            // --- comparisons ---
            Instr::CmpEq
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
            | Instr::FCmpGe => {
                let op = cmp_op_of(instr);
                let b = pop!();
                let a = pop!();
                match (a.value, a.producer, b.value, b.producer) {
                    (Some(x), Some(pa), Some(y), Some(pb)) => {
                        keep[pa] = false;
                        keep[pb] = false;
                        push_const!(scalar::cmp(op, x, y), pc);
                    }
                    _ => stack.push(Entry::unknown()),
                }
            }

            // --- conversions ---
            Instr::ToFloat => {
                let a = pop!();
                match (a.value, a.producer) {
                    (Some(x), Some(pa)) => {
                        keep[pa] = false;
                        push_const!(scalar::to_float(x), pc);
                    }
                    _ => stack.push(Entry::unknown()),
                }
            }
            Instr::ToInt => {
                let a = pop!();
                match (a.value, a.producer) {
                    (Some(x), Some(pa)) => {
                        keep[pa] = false;
                        push_const!(scalar::to_int(x), pc);
                    }
                    _ => stack.push(Entry::unknown()),
                }
            }

            // --- math intrinsics ---
            Instr::Math(m) => {
                if m.arity() == 1 {
                    let a = pop!();
                    match (a.value, a.producer) {
                        (Some(x), Some(pa)) => {
                            keep[pa] = false;
                            push_const!(scalar::math1(m, x), pc);
                        }
                        _ => stack.push(Entry::unknown()),
                    }
                } else {
                    let b = pop!();
                    let a = pop!();
                    match (a.value, a.producer, b.value, b.producer) {
                        (Some(x), Some(pa), Some(y), Some(pb)) => {
                            keep[pa] = false;
                            keep[pb] = false;
                            push_const!(scalar::math2(m, x, y), pc);
                        }
                        _ => stack.push(Entry::unknown()),
                    }
                }
            }

            // --- constant branch folding ---
            Instr::JumpIf(t) | Instr::JumpIfNot(t) => {
                let c = pop!();
                if let (Some(v), Some(pa)) = (c.value, c.producer) {
                    let taken = v.truthy() == matches!(instr, Instr::JumpIf(_));
                    keep[pa] = false;
                    if taken {
                        out[pc] = Instr::Jump(t);
                    } else {
                        keep[pc] = false;
                    }
                }
                stack.clear();
            }
            Instr::Jump(_) | Instr::Return => {
                stack.clear();
            }
            Instr::Call(_) => {
                // Conservatively clear: we do not track callee arity here;
                // values below the arguments stay unknown anyway after a
                // clear, which is always safe.
                stack.clear();
                stack.push(Entry::unknown());
            }
            Instr::ALoad => {
                pop!();
                pop!();
                stack.push(Entry::unknown());
            }
            Instr::AStore => {
                pop!();
                pop!();
                pop!();
            }
            Instr::ALen => {
                pop!();
                stack.push(Entry::unknown());
            }
            Instr::Done | Instr::Nop => {}

            // Fused superinstructions only appear after the fusion pass,
            // which runs after folding; model them conservatively so the
            // pass stays total (and safe) on already-fused input.
            Instr::LoadLoad(_, _) | Instr::LoadConst(_, _) => {
                stack.push(Entry::unknown());
                stack.push(Entry::unknown());
            }
            Instr::StoreLoad(_, _) => {
                pop!();
                stack.push(Entry::unknown());
            }
            Instr::ConstIBin(_, _)
            | Instr::ConstBin(_, _)
            | Instr::ConstBit(_, _)
            | Instr::ConstICmp(_, _) => {
                pop!();
                stack.push(Entry::unknown());
            }
            Instr::IBinStore(_, _) | Instr::BinStore(_, _) | Instr::BitStore(_, _) => {
                pop!();
                pop!();
            }
            Instr::LoadIBin(_, _) | Instr::LoadBin(_, _) | Instr::LoadALoad(_) => {
                pop!();
                stack.push(Entry::unknown());
            }
            Instr::LoadLoadBin(_, _, _)
            | Instr::LoadConstIBin(_, _, _)
            | Instr::LoadLoadALoad(_, _)
            | Instr::LoadLoadBinALoad(_, _, _, _)
            | Instr::LoadLoadConstBinALoad(_, _, _, _) => {
                stack.push(Entry::unknown());
            }
            Instr::LoadBinALoad(_, _) | Instr::ConstBinALoad(_, _) => {
                pop!();
                pop!();
                stack.push(Entry::unknown());
            }
            Instr::LoadConstBinStore(_, _, _, _) => {}
            Instr::ConstBitStoreLoad(_, _, _, _) => {
                pop!();
                stack.push(Entry::unknown());
            }
            Instr::StoreJump(_, _)
            | Instr::ConstIBinStoreJump(_, _, _, _)
            | Instr::BinStoreJump(_, _, _)
            | Instr::LoadConstBinStoreJump(_, _, _, _, _) => stack.clear(),
            Instr::ICmpBr(_, _, _)
            | Instr::CmpBr(_, _, _)
            | Instr::ConstICmpBr(_, _, _, _)
            | Instr::LoadLoadCmpBr(_, _, _, _, _)
            | Instr::LoadCmpBr(_, _, _, _) => {
                stack.clear();
            }
        }
    }

    compact(&out, &keep)
}

fn bin_op_of(i: Instr) -> BinOp {
    match i {
        Instr::Add | Instr::IAdd | Instr::FAdd => BinOp::Add,
        Instr::Sub | Instr::ISub | Instr::FSub => BinOp::Sub,
        Instr::Mul | Instr::IMul | Instr::FMul => BinOp::Mul,
        Instr::Div | Instr::IDiv | Instr::FDiv => BinOp::Div,
        Instr::Rem | Instr::IRem => BinOp::Rem,
        _ => unreachable!("not a binary arithmetic instruction"),
    }
}

fn cmp_op_of(i: Instr) -> CmpOp {
    match i {
        Instr::CmpEq | Instr::ICmpEq | Instr::FCmpEq => CmpOp::Eq,
        Instr::CmpNe | Instr::ICmpNe | Instr::FCmpNe => CmpOp::Ne,
        Instr::CmpLt | Instr::ICmpLt | Instr::FCmpLt => CmpOp::Lt,
        Instr::CmpLe | Instr::ICmpLe | Instr::FCmpLe => CmpOp::Le,
        Instr::CmpGt | Instr::ICmpGt | Instr::FCmpGt => CmpOp::Gt,
        Instr::CmpGe | Instr::ICmpGe | Instr::FCmpGe => CmpOp::Ge,
        _ => unreachable!("not a comparison instruction"),
    }
}

fn bit_op_of(i: Instr) -> BitOp {
    match i {
        Instr::Shl => BitOp::Shl,
        Instr::Shr => BitOp::Shr,
        Instr::BitAnd => BitOp::And,
        Instr::BitOr => BitOp::Or,
        Instr::BitXor => BitOp::Xor,
        _ => unreachable!("not a bitwise instruction"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evovm_bytecode::MathFn;

    #[test]
    fn folds_constant_arithmetic() {
        let code = vec![
            Instr::Const(21),
            Instr::Const(2),
            Instr::Mul,
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        let out = run(&code);
        assert_eq!(
            out,
            vec![Instr::Const(42), Instr::Print, Instr::Null, Instr::Return]
        );
    }

    #[test]
    fn folds_chains() {
        // (2 + 3) * 4 -> 20
        let code = vec![
            Instr::Const(2),
            Instr::Const(3),
            Instr::IAdd,
            Instr::Const(4),
            Instr::IMul,
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        let out = run(&code);
        assert_eq!(
            out,
            vec![Instr::Const(20), Instr::Print, Instr::Null, Instr::Return]
        );
    }

    #[test]
    fn keeps_division_by_zero_trap() {
        let code = vec![
            Instr::Const(1),
            Instr::Const(0),
            Instr::IDiv,
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        assert_eq!(run(&code), code);
    }

    #[test]
    fn add_zero_identity() {
        let code = vec![
            Instr::Load(0),
            Instr::Const(0),
            Instr::Add,
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        let out = run(&code);
        assert_eq!(
            out,
            vec![Instr::Load(0), Instr::Print, Instr::Null, Instr::Return]
        );
    }

    #[test]
    fn generic_float_one_is_not_an_identity() {
        // load x; fconst 1.0; mul  — folding away the multiply would keep x
        // an int where the original promoted to float, so it must stay.
        let code = vec![
            Instr::Load(0),
            Instr::FConst(1.0),
            Instr::Mul,
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        assert_eq!(run(&code), code);
    }

    #[test]
    fn fmul_by_one_is_an_identity() {
        let code = vec![
            Instr::Load(0),
            Instr::FConst(1.0),
            Instr::FMul,
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        let out = run(&code);
        assert_eq!(
            out,
            vec![Instr::Load(0), Instr::Print, Instr::Null, Instr::Return]
        );
    }

    #[test]
    fn folds_constant_condition_to_jump() {
        let code = vec![
            Instr::Const(1),
            Instr::JumpIf(4),
            Instr::Const(7),
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        let out = run(&code);
        assert_eq!(out[0], Instr::Jump(3));
    }

    #[test]
    fn deletes_never_taken_branch() {
        let code = vec![
            Instr::Const(0),
            Instr::JumpIf(4),
            Instr::Const(7),
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        let out = run(&code);
        assert_eq!(
            out,
            vec![Instr::Const(7), Instr::Print, Instr::Null, Instr::Return]
        );
    }

    #[test]
    fn does_not_fold_across_block_boundaries() {
        // The Const(1) is in a previous block (pc 2 is a branch target), so
        // the Add's operands are unknown at the block entry.
        let code = vec![
            Instr::Const(1),
            Instr::Jump(2),
            Instr::Const(2),
            Instr::Add,
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        let out = run(&code);
        // Block at pc 2 starts fresh: Const(2) has a producer but the other
        // operand is unknown, so nothing folds.
        assert!(out.contains(&Instr::Add));
    }

    #[test]
    fn folds_math_intrinsics() {
        let code = vec![
            Instr::Const(9),
            Instr::Math(MathFn::Sqrt),
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        let out = run(&code);
        assert_eq!(out[0], Instr::FConst(3.0));
    }

    #[test]
    fn folds_dup() {
        let code = vec![
            Instr::Const(3),
            Instr::Dup,
            Instr::IMul,
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        let out = run(&code);
        assert_eq!(
            out,
            vec![Instr::Const(9), Instr::Print, Instr::Null, Instr::Return]
        );
    }

    #[test]
    fn folds_comparisons_and_conversions() {
        let code = vec![
            Instr::Const(3),
            Instr::Const(4),
            Instr::ICmpLt,
            Instr::Print,
            Instr::FConst(2.5),
            Instr::ToInt,
            Instr::Print,
            Instr::Null,
            Instr::Return,
        ];
        let out = run(&code);
        assert_eq!(out[0], Instr::Const(1));
        assert_eq!(out[2], Instr::Const(2));
    }
}
