//! Bytecode verifier.
//!
//! Runs a forward dataflow analysis over every function checking, before a
//! program is ever executed or optimized:
//!
//! - branch targets are in range,
//! - local indices are below the declared `locals` count,
//! - callee ids and string ids are valid,
//! - the operand stack never underflows,
//! - every join point is reached with a *consistent* stack depth,
//! - execution cannot fall off the end of the code,
//! - `Return` always has exactly the return value on the stack model.
//!
//! The depth-consistency rule is the same discipline the JVM's verifier
//! enforces; it is what lets the optimizer reason about stack shapes
//! block-locally.
//!
//! Beyond the accept/reject answer, the same dataflow pass yields *facts*
//! the rest of the system consumes ([`verify_with_facts`]): the maximum
//! operand-stack depth any execution of a function can reach, which
//! instruction offsets are reachable at all, and the reachable call
//! sites. [`crate::analysis`] composes these per-function facts into
//! whole-program bounds (call depth, frame-arena size) that the VM uses
//! to pre-size its frame arena and that `vmlint` checks statically.

use std::fmt;

use crate::instr::Instr;
use crate::program::{FuncId, Function, Program};

/// Facts the dataflow pass proves about one function, beyond the
/// accept/reject verification answer. All bounds are *sound*: no
/// execution of verified code can exceed them (asserted dynamically by
/// `tests/analysis_soundness.rs` at the workspace root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionFacts {
    /// Maximum operand-stack depth any execution can reach, including
    /// mid-instruction growth (the depth after an instruction's pushes).
    pub max_stack: usize,
    /// Per instruction offset: is it reachable from entry? Offsets the
    /// dataflow never visited can only be reached by falling through
    /// from dead code, i.e. not at all.
    pub reachable: Vec<bool>,
    /// Reachable `Call` sites as `(offset, callee)`, in code order.
    /// Unreachable calls are excluded so dead code cannot keep a callee
    /// alive in the call graph.
    pub calls: Vec<(u32, FuncId)>,
}

/// Per-function [`FunctionFacts`] for a whole verified program, indexed
/// by [`FuncId::index`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramFacts {
    /// One fact record per function.
    pub functions: Vec<FunctionFacts>,
}

/// A verification failure, locating the offending function/instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The function that failed verification.
    pub function: String,
    /// Offset of the offending instruction (`None` for whole-function
    /// problems such as empty code).
    pub at: Option<u32>,
    /// What went wrong.
    pub kind: VerifyErrorKind,
}

/// The specific verification rule that was violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// Function has no instructions.
    EmptyCode,
    /// A branch target is outside the code.
    BranchOutOfRange {
        /// The offending target.
        target: u32,
        /// The function's code length.
        len: u32,
    },
    /// A local index is outside the declared slots.
    LocalOutOfRange {
        /// The offending slot index.
        local: u16,
        /// The declared slot count.
        locals: u16,
    },
    /// A `Call` names a function id not in the program.
    BadCallee {
        /// The unknown function id.
        callee: u32,
    },
    /// A `Publish` names a string id not in the pool.
    BadString {
        /// The unknown string id.
        string: u32,
    },
    /// The operand stack would underflow.
    StackUnderflow {
        /// Stack depth on entry to the instruction.
        depth: usize,
        /// How many operands the instruction pops.
        pops: usize,
    },
    /// Two paths reach the same instruction with different stack depths.
    InconsistentDepth {
        /// Depth recorded by the first path.
        first: usize,
        /// Depth arriving along the second path.
        second: usize,
    },
    /// `Return` executed with a stack depth other than one.
    BadReturnDepth {
        /// The observed depth.
        depth: usize,
    },
    /// Execution can run past the last instruction.
    FallsOffEnd,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification failed in `{}`", self.function)?;
        if let Some(at) = self.at {
            write!(f, " at {at}")?;
        }
        write!(f, ": ")?;
        match &self.kind {
            VerifyErrorKind::EmptyCode => write!(f, "function has no code"),
            VerifyErrorKind::BranchOutOfRange { target, len } => {
                write!(f, "branch target {target} out of range (code length {len})")
            }
            VerifyErrorKind::LocalOutOfRange { local, locals } => {
                write!(f, "local {local} out of range ({locals} slots)")
            }
            VerifyErrorKind::BadCallee { callee } => write!(f, "unknown callee fn#{callee}"),
            VerifyErrorKind::BadString { string } => write!(f, "unknown string str#{string}"),
            VerifyErrorKind::StackUnderflow { depth, pops } => {
                write!(f, "stack underflow: depth {depth}, pops {pops}")
            }
            VerifyErrorKind::InconsistentDepth { first, second } => {
                write!(f, "inconsistent stack depth at join: {first} vs {second}")
            }
            VerifyErrorKind::BadReturnDepth { depth } => {
                write!(f, "return with stack depth {depth} (expected 1)")
            }
            VerifyErrorKind::FallsOffEnd => write!(f, "control can fall off the end of the code"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole program.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found, checking functions in id order.
pub fn verify(program: &Program) -> Result<(), VerifyError> {
    verify_with_facts(program).map(|_| ())
}

/// Verify a whole program, returning the per-function facts the dataflow
/// pass proves along the way (stack bounds, reachability, call sites).
///
/// # Errors
///
/// Returns the first [`VerifyError`] found, checking functions in id order.
pub fn verify_with_facts(program: &Program) -> Result<ProgramFacts, VerifyError> {
    let mut functions = Vec::with_capacity(program.functions().len());
    for (i, f) in program.functions().iter().enumerate() {
        functions.push(verify_function_facts(program, FuncId(i as u32), f)?);
    }
    Ok(ProgramFacts { functions })
}

/// Verify a single function against its program context.
///
/// # Errors
///
/// Returns the first rule violation encountered during the dataflow pass.
pub fn verify_function(program: &Program, id: FuncId, f: &Function) -> Result<(), VerifyError> {
    verify_function_facts(program, id, f).map(|_| ())
}

/// Verify a single function, returning its [`FunctionFacts`].
///
/// # Errors
///
/// Returns the first rule violation encountered during the dataflow pass.
pub fn verify_function_facts(
    program: &Program,
    _id: FuncId,
    f: &Function,
) -> Result<FunctionFacts, VerifyError> {
    let fail = |at: Option<u32>, kind: VerifyErrorKind| VerifyError {
        function: f.name.clone(),
        at,
        kind,
    };
    let len = f.code.len() as u32;
    if len == 0 {
        return Err(fail(None, VerifyErrorKind::EmptyCode));
    }

    // Structural checks first so the dataflow can index freely.
    for (pc, instr) in f.code.iter().enumerate() {
        let pc32 = pc as u32;
        if let Some(target) = instr.branch_target() {
            if target >= len {
                return Err(fail(
                    Some(pc32),
                    VerifyErrorKind::BranchOutOfRange { target, len },
                ));
            }
        }
        match instr {
            Instr::Load(n) | Instr::Store(n) if *n >= f.locals => {
                return Err(fail(
                    Some(pc32),
                    VerifyErrorKind::LocalOutOfRange {
                        local: *n,
                        locals: f.locals,
                    },
                ));
            }
            // Fused forms touching two locals: report the first offender.
            Instr::LoadLoad(a, b)
            | Instr::StoreLoad(a, b)
            | Instr::LoadLoadBin(_, a, b)
            | Instr::LoadLoadCmpBr(_, a, b, _, _)
            | Instr::ConstBitStoreLoad(_, _, a, b)
            | Instr::LoadLoadALoad(a, b)
            | Instr::LoadConstBinStore(_, a, _, b)
            | Instr::LoadLoadConstBinALoad(_, a, b, _)
            | Instr::LoadConstBinStoreJump(_, a, _, b, _)
                if *a.max(b) >= f.locals =>
            {
                return Err(fail(
                    Some(pc32),
                    VerifyErrorKind::LocalOutOfRange {
                        local: if *a >= f.locals { *a } else { *b },
                        locals: f.locals,
                    },
                ));
            }
            Instr::LoadConst(n, _)
            | Instr::StoreJump(n, _)
            | Instr::IBinStore(_, n)
            | Instr::BinStore(_, n)
            | Instr::BitStore(_, n)
            | Instr::LoadIBin(_, n)
            | Instr::LoadBin(_, n)
            | Instr::LoadALoad(n)
            | Instr::LoadConstIBin(_, n, _)
            | Instr::ConstIBinStoreJump(_, _, n, _)
            | Instr::LoadCmpBr(_, n, _, _)
            | Instr::BinStoreJump(_, n, _)
            | Instr::LoadBinALoad(_, n)
                if *n >= f.locals =>
            {
                return Err(fail(
                    Some(pc32),
                    VerifyErrorKind::LocalOutOfRange {
                        local: *n,
                        locals: f.locals,
                    },
                ));
            }
            // Fused forms touching three locals.
            Instr::LoadLoadBinALoad(_, a, b, n) if *a.max(b).max(n) >= f.locals => {
                let local = [*a, *b, *n]
                    .into_iter()
                    .find(|&l| l >= f.locals)
                    .expect("one local is out of range");
                return Err(fail(
                    Some(pc32),
                    VerifyErrorKind::LocalOutOfRange {
                        local,
                        locals: f.locals,
                    },
                ));
            }
            Instr::Call(callee) if callee.index() >= program.functions().len() => {
                return Err(fail(
                    Some(pc32),
                    VerifyErrorKind::BadCallee { callee: callee.0 },
                ));
            }
            Instr::Publish(s) if s.index() >= program.strings().len() => {
                return Err(fail(Some(pc32), VerifyErrorKind::BadString { string: s.0 }));
            }
            _ => {}
        }
    }

    // Depth dataflow: worklist of (pc, depth).
    let mut depth_at: Vec<Option<usize>> = vec![None; f.code.len()];
    let mut work: Vec<(u32, usize)> = vec![(0, 0)];
    let mut max_stack = 0usize;
    let mut calls: Vec<(u32, FuncId)> = Vec::new();
    let arity_of = |id: FuncId| program.function(id).arity as usize;
    while let Some((pc, depth)) = work.pop() {
        match depth_at[pc as usize] {
            Some(seen) if seen == depth => continue,
            Some(seen) => {
                return Err(fail(
                    Some(pc),
                    VerifyErrorKind::InconsistentDepth {
                        first: seen,
                        second: depth,
                    },
                ));
            }
            None => depth_at[pc as usize] = Some(depth),
        }
        let instr = &f.code[pc as usize];
        if let Instr::Call(callee) = instr {
            calls.push((pc, *callee));
        }
        let (pops, pushes) = instr.stack_effect(arity_of);
        if depth < pops {
            return Err(fail(
                Some(pc),
                VerifyErrorKind::StackUnderflow { depth, pops },
            ));
        }
        let next = depth - pops + pushes;
        // The stack's momentary peak is the depth after the pushes of the
        // deepest-entered instruction; tracking `next` alongside the entry
        // depth makes the bound cover mid-instruction growth.
        max_stack = max_stack.max(depth).max(next);
        if matches!(instr, Instr::Return) {
            // `Return` pops its value; the stack must then be empty so the
            // frame can be discarded deterministically.
            if depth != 1 {
                return Err(fail(Some(pc), VerifyErrorKind::BadReturnDepth { depth }));
            }
            continue;
        }
        if let Some(target) = instr.branch_target() {
            work.push((target, next));
        }
        if !instr.is_terminator() {
            if pc + 1 >= len {
                return Err(fail(Some(pc), VerifyErrorKind::FallsOffEnd));
            }
            work.push((pc + 1, next));
        }
    }
    calls.sort_unstable_by_key(|&(pc, _)| pc);
    Ok(FunctionFacts {
        max_stack,
        reachable: depth_at.iter().map(Option::is_some).collect(),
        calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse;

    fn check(src: &str) -> Result<(), VerifyError> {
        verify(&parse(src).unwrap())
    }

    #[test]
    fn accepts_well_formed_program() {
        check(
            "entry func main/0 locals=1 {
  const 0
  store 0
top:
  load 0
  const 5
  icmpge
  jumpif end
  load 0
  const 1
  iadd
  store 0
  jump top
end:
  null
  return
}",
        )
        .unwrap();
    }

    #[test]
    fn rejects_underflow() {
        let e = check("entry func main/0 {\n  iadd\n  return\n}").unwrap_err();
        assert!(matches!(e.kind, VerifyErrorKind::StackUnderflow { .. }));
    }

    #[test]
    fn rejects_fall_off_end() {
        let e = check("entry func main/0 {\n  const 1\n  pop\n}").unwrap_err();
        assert!(matches!(e.kind, VerifyErrorKind::FallsOffEnd));
    }

    #[test]
    fn rejects_bad_local() {
        let e = check("entry func main/0 locals=1 {\n  load 3\n  return\n}").unwrap_err();
        assert!(matches!(
            e.kind,
            VerifyErrorKind::LocalOutOfRange {
                local: 3,
                locals: 1
            }
        ));
    }

    #[test]
    fn rejects_inconsistent_join_depth() {
        // One path pushes 2 values before the join, the other pushes 1.
        let e = check(
            "entry func main/0 {
  const 1
  jumpif two
  const 7
  jump join
two:
  const 7
  const 8
join:
  return
}",
        )
        .unwrap_err();
        assert!(matches!(e.kind, VerifyErrorKind::InconsistentDepth { .. }));
    }

    #[test]
    fn rejects_return_with_extra_values() {
        let e = check("entry func main/0 {\n  const 1\n  const 2\n  return\n}").unwrap_err();
        assert!(matches!(
            e.kind,
            VerifyErrorKind::BadReturnDepth { depth: 2 }
        ));
    }

    #[test]
    fn rejects_empty_function() {
        let e = check("entry func main/0 {\n  null\n  return\n}\nfunc f/0 {\n}").unwrap_err();
        assert!(matches!(e.kind, VerifyErrorKind::EmptyCode));
    }

    #[test]
    fn branch_out_of_range_detected_without_assembler() {
        use crate::program::{Function, Program};
        let p = Program::from_parts(
            vec![Function {
                name: "main".into(),
                arity: 0,
                locals: 0,
                code: vec![Instr::Jump(9), Instr::Null, Instr::Return],
            }],
            vec![],
            FuncId(0),
        );
        let e = verify(&p).unwrap_err();
        assert!(matches!(
            e.kind,
            VerifyErrorKind::BranchOutOfRange { target: 9, len: 3 }
        ));
    }

    #[test]
    fn facts_report_stack_bound_reachability_and_calls() {
        let p = parse(
            "entry func main/0 {
  const 1
  const 2
  call add2
  print
  null
  return
}
func add2/2 {
  load 0
  load 1
  iadd
  return
}",
        )
        .unwrap();
        let facts = verify_with_facts(&p).unwrap();
        // main peaks at the two call arguments on the stack.
        assert_eq!(facts.functions[0].max_stack, 2);
        assert_eq!(facts.functions[0].calls, vec![(2, FuncId(1))]);
        assert!(facts.functions[0].reachable.iter().all(|&r| r));
        // add2 peaks at its two reloaded locals.
        assert_eq!(facts.functions[1].max_stack, 2);
        assert!(facts.functions[1].calls.is_empty());
    }

    #[test]
    fn facts_exclude_unreachable_calls() {
        let p = parse(
            "entry func main/0 {
  null
  return
  const 1
  call f
  return
}
func f/1 {
  load 0
  return
}",
        )
        .unwrap();
        let facts = verify_with_facts(&p).unwrap();
        assert!(
            facts.functions[0].calls.is_empty(),
            "dead call site must not appear"
        );
        assert_eq!(
            facts.functions[0].reachable,
            vec![true, true, false, false, false]
        );
    }

    #[test]
    fn call_arity_participates_in_depth() {
        // Calling a 2-ary function with only one value must underflow.
        let e = check(
            "entry func main/0 {
  const 1
  call add2
  return
}
func add2/2 {
  load 0
  load 1
  iadd
  return
}",
        )
        .unwrap_err();
        assert!(matches!(e.kind, VerifyErrorKind::StackUnderflow { .. }));
    }
}
