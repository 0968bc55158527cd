//! Intra-procedural type inference for quickening.
//!
//! A forward dataflow over the (verified) bytecode tracks an abstract type
//! for every stack slot and local. The result records, for every
//! instruction, the inferred types of its popped operands, which the
//! quickening pass uses to replace generic arithmetic with typed variants.
//!
//! The lattice is deliberately small:
//!
//! ```text
//!        Any
//!      / | | \
//!   Int Float Ref Null      (Null ⊔ Ref = Ref)
//! ```
//!
//! Function parameters are `Any` (inference is intra-procedural), so
//! quickening only fires where types are locally provable — constants,
//! conversions, array lengths, intrinsic results and values derived from
//! them.

use evovm_bytecode::program::{Function, Program};
use evovm_bytecode::{FuncId, Instr, MathFn};

/// Abstract value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Definitely a 64-bit integer.
    Int,
    /// Definitely a float.
    Float,
    /// Definitely an array reference.
    Ref,
    /// Definitely null.
    Null,
    /// Unknown / could be anything.
    Any,
}

impl Ty {
    /// Lattice join.
    pub fn join(self, other: Ty) -> Ty {
        use Ty::{Null, Ref};
        match (self, other) {
            (a, b) if a == b => a,
            (Null, Ref) | (Ref, Null) => Ref,
            _ => Ty::Any,
        }
    }
}

/// Per-instruction operand types produced by [`infer`].
#[derive(Debug, Clone)]
pub struct TypeInfo {
    /// For each pc of a binary stack operation: `(below, top)` operand
    /// types, joined over all paths reaching the instruction.
    pub bin_operands: Vec<Option<(Ty, Ty)>>,
    /// For each pc of a unary stack operation: its operand type.
    pub un_operands: Vec<Option<Ty>>,
}

#[derive(Debug, Clone, PartialEq)]
struct State {
    stack: Vec<Ty>,
    locals: Vec<Ty>,
}

impl State {
    fn join_into(&self, into: &mut State) -> bool {
        debug_assert_eq!(self.stack.len(), into.stack.len());
        let mut changed = false;
        for (a, b) in into.stack.iter_mut().zip(&self.stack) {
            let j = a.join(*b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        for (a, b) in into.locals.iter_mut().zip(&self.locals) {
            let j = a.join(*b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        changed
    }
}

/// Infer operand types for every instruction of `f`.
///
/// Requires verified code (consistent stack depths); panics on underflow
/// otherwise.
pub fn infer(program: &Program, f: &Function) -> TypeInfo {
    let len = f.code.len();
    let mut info = TypeInfo {
        bin_operands: vec![None; len],
        un_operands: vec![None; len],
    };
    let mut states: Vec<Option<State>> = vec![None; len];
    let mut locals = vec![Ty::Any; f.locals as usize];
    // Non-argument locals start as Null in the VM.
    for slot in locals.iter_mut().skip(f.arity as usize) {
        *slot = Ty::Null;
    }
    let entry = State {
        stack: Vec::new(),
        locals,
    };
    let mut work: Vec<(u32, State)> = vec![(0, entry)];
    let arity_of = |id: FuncId| program.function(id).arity as usize;

    while let Some((pc, state)) = work.pop() {
        let slot = &mut states[pc as usize];
        match slot {
            Some(existing) => {
                if !state.join_into(existing) {
                    continue;
                }
            }
            None => *slot = Some(state),
        }
        let mut s = states[pc as usize].clone().expect("just set");
        let instr = f.code[pc as usize];
        let record_bin = |info: &mut TypeInfo, a: Ty, b: Ty| {
            let e = &mut info.bin_operands[pc as usize];
            *e = Some(match *e {
                Some((pa, pb)) => (pa.join(a), pb.join(b)),
                None => (a, b),
            });
        };
        let record_un = |info: &mut TypeInfo, a: Ty| {
            let e = &mut info.un_operands[pc as usize];
            *e = Some(match *e {
                Some(p) => p.join(a),
                None => a,
            });
        };

        let mut next_pcs: Vec<u32> = Vec::new();
        match instr {
            Instr::Const(_) => s.stack.push(Ty::Int),
            Instr::FConst(_) => s.stack.push(Ty::Float),
            Instr::Null => s.stack.push(Ty::Null),
            Instr::Load(n) => s.stack.push(s.locals[n as usize]),
            Instr::Store(n) => {
                let t = s.stack.pop().expect("verified");
                s.locals[n as usize] = t;
            }
            Instr::Dup => {
                let t = *s.stack.last().expect("verified");
                s.stack.push(t);
            }
            Instr::Pop => {
                s.stack.pop();
            }
            Instr::Swap => {
                let n = s.stack.len();
                s.stack.swap(n - 1, n - 2);
            }
            Instr::Add | Instr::Sub | Instr::Mul | Instr::Div | Instr::Rem => {
                let b = s.stack.pop().expect("verified");
                let a = s.stack.pop().expect("verified");
                record_bin(&mut info, a, b);
                s.stack.push(arith_result(a, b));
            }
            Instr::IAdd | Instr::ISub | Instr::IMul | Instr::IDiv | Instr::IRem => {
                s.stack.pop();
                s.stack.pop();
                s.stack.push(Ty::Int);
            }
            Instr::FAdd | Instr::FSub | Instr::FMul | Instr::FDiv => {
                s.stack.pop();
                s.stack.pop();
                s.stack.push(Ty::Float);
            }
            Instr::Neg => {
                let a = s.stack.pop().expect("verified");
                record_un(&mut info, a);
                s.stack.push(match a {
                    Ty::Int => Ty::Int,
                    Ty::Float => Ty::Float,
                    _ => Ty::Any,
                });
            }
            Instr::INeg => {
                s.stack.pop();
                s.stack.push(Ty::Int);
            }
            Instr::FNeg => {
                s.stack.pop();
                s.stack.push(Ty::Float);
            }
            Instr::Shl | Instr::Shr | Instr::BitAnd | Instr::BitOr | Instr::BitXor => {
                s.stack.pop();
                s.stack.pop();
                s.stack.push(Ty::Int);
            }
            Instr::CmpEq
            | Instr::CmpNe
            | Instr::CmpLt
            | Instr::CmpLe
            | Instr::CmpGt
            | Instr::CmpGe => {
                let b = s.stack.pop().expect("verified");
                let a = s.stack.pop().expect("verified");
                record_bin(&mut info, a, b);
                s.stack.push(Ty::Int);
            }
            Instr::ICmpEq
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
                s.stack.pop();
                s.stack.pop();
                s.stack.push(Ty::Int);
            }
            Instr::ToFloat => {
                let a = s.stack.pop().expect("verified");
                record_un(&mut info, a);
                s.stack.push(Ty::Float);
            }
            Instr::ToInt => {
                let a = s.stack.pop().expect("verified");
                record_un(&mut info, a);
                s.stack.push(Ty::Int);
            }
            Instr::Jump(t) => next_pcs.push(t),
            Instr::JumpIf(t) | Instr::JumpIfNot(t) => {
                s.stack.pop();
                next_pcs.push(t);
            }
            Instr::Call(id) => {
                for _ in 0..arity_of(id) {
                    s.stack.pop();
                }
                s.stack.push(Ty::Any);
            }
            Instr::Return => {
                // No successors.
                continue;
            }
            Instr::NewArray => {
                s.stack.pop();
                s.stack.push(Ty::Ref);
            }
            Instr::ALoad => {
                s.stack.pop();
                s.stack.pop();
                s.stack.push(Ty::Any);
            }
            Instr::AStore => {
                s.stack.pop();
                s.stack.pop();
                s.stack.pop();
            }
            Instr::ALen => {
                s.stack.pop();
                s.stack.push(Ty::Int);
            }
            Instr::Math(m) => {
                let result = match m {
                    MathFn::Floor => {
                        s.stack.pop();
                        Ty::Int
                    }
                    MathFn::Abs => {
                        let a = s.stack.pop().expect("verified");
                        match a {
                            Ty::Int => Ty::Int,
                            Ty::Float => Ty::Float,
                            _ => Ty::Any,
                        }
                    }
                    MathFn::Min | MathFn::Max => {
                        let b = s.stack.pop().expect("verified");
                        let a = s.stack.pop().expect("verified");
                        arith_result(a, b)
                    }
                    MathFn::Pow => {
                        s.stack.pop();
                        s.stack.pop();
                        Ty::Float
                    }
                    _ => {
                        s.stack.pop();
                        Ty::Float
                    }
                };
                s.stack.push(result);
            }
            Instr::Print | Instr::Publish(_) => {
                s.stack.pop();
            }
            Instr::Done | Instr::Nop => {}

            // Fused superinstructions only exist after the fusion pass,
            // which runs last in the pipeline — these arms keep the
            // analysis total (and sound) if it ever sees fused code.
            Instr::LoadLoad(a, b) => {
                s.stack.push(s.locals[a as usize]);
                s.stack.push(s.locals[b as usize]);
            }
            Instr::LoadConst(n, _) => {
                s.stack.push(s.locals[n as usize]);
                s.stack.push(Ty::Int);
            }
            Instr::StoreLoad(n, m) => {
                let t = s.stack.pop().expect("verified");
                s.locals[n as usize] = t;
                s.stack.push(s.locals[m as usize]);
            }
            Instr::StoreJump(n, t) => {
                let ty = s.stack.pop().expect("verified");
                s.locals[n as usize] = ty;
                next_pcs.push(t);
            }
            Instr::ConstIBin(_, _) | Instr::ConstBit(_, _) | Instr::ConstICmp(_, _) => {
                s.stack.pop();
                s.stack.push(Ty::Int);
            }
            Instr::ConstBin(_, _) => {
                let a = s.stack.pop().expect("verified");
                s.stack.push(arith_result(a, Ty::Int));
            }
            Instr::ICmpBr(_, t, _) | Instr::CmpBr(_, t, _) => {
                s.stack.pop();
                s.stack.pop();
                next_pcs.push(t);
            }
            Instr::ConstICmpBr(_, _, t, _) => {
                s.stack.pop();
                next_pcs.push(t);
            }
            Instr::IBinStore(_, n) | Instr::BitStore(_, n) => {
                s.stack.pop();
                s.stack.pop();
                s.locals[n as usize] = Ty::Int;
            }
            Instr::BinStore(_, n) => {
                let b = s.stack.pop().expect("verified");
                let a = s.stack.pop().expect("verified");
                s.locals[n as usize] = arith_result(a, b);
            }
            Instr::LoadIBin(_, _) => {
                s.stack.pop();
                s.stack.push(Ty::Int);
            }
            Instr::LoadBin(_, n) => {
                let a = s.stack.pop().expect("verified");
                s.stack.push(arith_result(a, s.locals[n as usize]));
            }
            Instr::LoadALoad(_) => {
                s.stack.pop();
                s.stack.push(Ty::Any);
            }
            Instr::LoadLoadBin(_, a, b) => {
                s.stack
                    .push(arith_result(s.locals[a as usize], s.locals[b as usize]));
            }
            Instr::LoadConstIBin(_, _, _) => {
                s.stack.push(Ty::Int);
            }
            Instr::LoadLoadCmpBr(_, _, _, t, _) => {
                next_pcs.push(t);
            }
            Instr::ConstBitStoreLoad(_, _, n, m) => {
                s.stack.pop();
                s.locals[n as usize] = Ty::Int;
                s.stack.push(s.locals[m as usize]);
            }
            Instr::ConstIBinStoreJump(_, _, n, t) => {
                s.stack.pop();
                s.locals[n as usize] = Ty::Int;
                next_pcs.push(t);
            }
            Instr::LoadCmpBr(_, _, t, _) => {
                s.stack.pop();
                next_pcs.push(t);
            }
            Instr::BinStoreJump(_, n, t) => {
                let b = s.stack.pop().expect("verified");
                let a = s.stack.pop().expect("verified");
                s.locals[n as usize] = arith_result(a, b);
                next_pcs.push(t);
            }
            Instr::LoadLoadALoad(_, _)
            | Instr::LoadLoadBinALoad(_, _, _, _)
            | Instr::LoadLoadConstBinALoad(_, _, _, _) => s.stack.push(Ty::Any),
            Instr::LoadBinALoad(_, _) | Instr::ConstBinALoad(_, _) => {
                s.stack.pop();
                s.stack.pop();
                s.stack.push(Ty::Any);
            }
            Instr::LoadConstBinStore(_, n, _, m) => {
                s.locals[m as usize] = arith_result(s.locals[n as usize], Ty::Int);
            }
            Instr::LoadConstBinStoreJump(_, n, _, m, t) => {
                s.locals[m as usize] = arith_result(s.locals[n as usize], Ty::Int);
                next_pcs.push(t);
            }
        }

        if !instr.is_terminator() {
            next_pcs.push(pc + 1);
        }
        // Write back the post-state used for successor propagation; the
        // recorded state for this pc stays the *pre*-state join, which is
        // what the operand records were computed from.
        for t in next_pcs {
            work.push((t, s.clone()));
        }
    }
    info
}

fn arith_result(a: Ty, b: Ty) -> Ty {
    match (a, b) {
        (Ty::Int, Ty::Int) => Ty::Int,
        (Ty::Float, _) | (_, Ty::Float) => Ty::Float,
        _ => Ty::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evovm_bytecode::asm::parse;

    fn infer_entry(src: &str) -> (TypeInfo, evovm_bytecode::Program) {
        let p = parse(src).unwrap();
        evovm_bytecode::verify::verify(&p).unwrap();
        let info = infer(&p, p.function(p.entry()));
        (info, p)
    }

    #[test]
    fn constants_give_int_operands() {
        let (info, _) = infer_entry(
            "entry func main/0 {\n  const 1\n  const 2\n  add\n  print\n  null\n  return\n}",
        );
        assert_eq!(info.bin_operands[2], Some((Ty::Int, Ty::Int)));
    }

    #[test]
    fn floats_flow_through_locals() {
        let (info, _) = infer_entry(
            "entry func main/0 locals=1 {
  fconst 1.5
  store 0
  load 0
  load 0
  mul
  print
  null
  return
}",
        );
        assert_eq!(info.bin_operands[4], Some((Ty::Float, Ty::Float)));
    }

    #[test]
    fn parameters_are_any() {
        let src = "entry func main/0 {\n  null\n  return\n}\nfunc f/1 {\n  load 0\n  load 0\n  add\n  return\n}";
        let p = parse(src).unwrap();
        let f = p.function(p.find("f").unwrap());
        let info = infer(&p, f);
        assert_eq!(info.bin_operands[2], Some((Ty::Any, Ty::Any)));
    }

    #[test]
    fn join_at_merge_points() {
        // One branch stores an int, the other a float; after the join the
        // local is Any... actually Int ⊔ Float = Any.
        let (info, _) = infer_entry(
            "entry func main/0 locals=1 {
  const 1
  jumpif right
  const 10
  store 0
  jump join
right:
  fconst 1.0
  store 0
join:
  load 0
  load 0
  add
  print
  null
  return
}",
        );
        // `add` is at pc 9 (0-based): const,jumpif,const,store,jump,fconst,store,load,load,add
        assert_eq!(info.bin_operands[9], Some((Ty::Any, Ty::Any)));
    }

    #[test]
    fn loop_carried_types_converge() {
        let (info, _) = infer_entry(
            "entry func main/0 locals=1 {
  const 0
  store 0
top:
  load 0
  const 100
  cmpge
  jumpif end
  load 0
  const 1
  add
  store 0
  jump top
end:
  null
  return
}",
        );
        // cmpge at pc 4, add at pc 8; both see (Int, Int).
        assert_eq!(info.bin_operands[4], Some((Ty::Int, Ty::Int)));
        assert_eq!(info.bin_operands[8], Some((Ty::Int, Ty::Int)));
    }

    #[test]
    fn intrinsics_and_arrays_type_results() {
        let (info, _) = infer_entry(
            "entry func main/0 locals=1 {
  const 4
  newarray
  store 0
  load 0
  alen
  const 1
  add
  math sqrt
  fconst 2.0
  add
  print
  null
  return
}",
        );
        // alen->Int, +1 -> (Int,Int); sqrt -> Float; +2.0 -> (Float,Float)
        assert_eq!(info.bin_operands[6], Some((Ty::Int, Ty::Int)));
        assert_eq!(info.bin_operands[9], Some((Ty::Float, Ty::Float)));
    }

    #[test]
    fn null_joins_ref_to_ref() {
        assert_eq!(Ty::Null.join(Ty::Ref), Ty::Ref);
        assert_eq!(Ty::Ref.join(Ty::Null), Ty::Ref);
        assert_eq!(Ty::Int.join(Ty::Float), Ty::Any);
        assert_eq!(Ty::Any.join(Ty::Int), Ty::Any);
    }
}
