//! The per-level compilation pipelines and the compiled-code artifact.

use std::fmt;
use std::sync::Arc;

use evovm_bytecode::program::{Function, Program};
use evovm_bytecode::verify::verify_function_facts;
use evovm_bytecode::{FuncId, Instr, VerifyError};

use crate::levels::OptLevel;
use crate::passes::{dce, dse, fold, fuse, inline, peephole, quicken};

/// A pass pipeline emitted code that fails re-verification — a
/// miscompilation caught before the bad code could reach the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Name of the miscompiled function.
    pub function: String,
    /// Its id in the program.
    pub id: FuncId,
    /// The level whose pipeline produced the bad code.
    pub level: OptLevel,
    /// What the verifier rejected about the emitted code.
    pub source: VerifyError,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pipeline miscompiled `{}` ({}): {}",
            self.level, self.function, self.id, self.source
        )
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The result of compiling one function at one level: executable code plus
/// the cost accounting the VM charges for producing it.
#[derive(Debug, Clone)]
pub struct CompiledCode {
    /// The level this code was compiled at.
    pub level: OptLevel,
    /// The (possibly transformed) instruction stream.
    pub code: Arc<Vec<Instr>>,
    /// Local slots required (inlining may add slots).
    pub locals: u16,
    /// Virtual cycles charged for the compilation itself.
    pub compile_cycles: u64,
    /// Per-executed-instruction cycle multiplier (models native code
    /// quality; see [`OptLevel::quality_for`]).
    pub quality: f64,
    /// [`CompiledCode::quality`] in the VM's integer milli-cycle domain
    /// (see [`OptLevel::quality_milli_for`]).
    pub quality_milli: u64,
    /// Folded per-instruction charge table, parallel to
    /// [`CompiledCode::code`]: `cost_milli[i]` is exactly
    /// `code[i].base_cost() * quality_milli`, precomputed here so the
    /// interpreter's hot loop does one indexed load per instruction
    /// instead of a multiply through two indirections.
    pub cost_milli: Arc<Vec<u64>>,
    /// Maximum operand-stack depth this code can reach, proved by the
    /// verifier's dataflow pass. The interpreter reserves
    /// `locals + max_stack` arena slots at frame entry, which is what
    /// lets its push sites skip the capacity check.
    pub max_stack: u32,
}

/// The optimizing compiler: applies the pass pipeline for a level.
#[derive(Debug, Clone)]
pub struct Optimizer {
    inline_budget: inline::InlineBudget,
    /// Fuse hot opcode pairs into superinstructions at every level (on by
    /// default; the VM's dispatch profiler turns it off to observe the
    /// raw pair distribution).
    fuse: bool,
}

impl Default for Optimizer {
    fn default() -> Optimizer {
        Optimizer {
            inline_budget: inline::InlineBudget::default(),
            fuse: true,
        }
    }
}

impl Optimizer {
    /// Create an optimizer with default budgets.
    pub fn new() -> Optimizer {
        Optimizer::default()
    }

    /// Enable or disable superinstruction fusion. When on, Baseline and
    /// O0 code is the fused source and O1/O2 code is fused after the
    /// level's passes.
    ///
    /// Fusion never changes the virtual clock (fused costs are the sum of
    /// their parts and compilation charges by *source* length), so this
    /// switch only affects which instruction stream the host executes.
    #[must_use]
    pub fn with_fusion(mut self, fuse: bool) -> Optimizer {
        self.fuse = fuse;
        self
    }

    /// Compile `id` at `level`, transforming the original bytecode.
    ///
    /// The output is always re-verified (the verifier's dataflow also
    /// proves the `max_stack` bound the interpreter's arena reservation
    /// relies on); a miscompile panics. Use
    /// [`Optimizer::compile_checked`] where a structured error is
    /// preferable to a panic.
    pub fn compile(&self, program: &Program, id: FuncId, level: OptLevel) -> CompiledCode {
        self.compile_checked(program, id, level)
            .expect("optimizer produced unverifiable code")
    }

    /// Compile `id` at `level` and re-verify the emitted code in *every*
    /// build profile, returning a structured [`CompileError`] instead of
    /// letting a miscompiled function reach the interpreter.
    pub fn compile_checked(
        &self,
        program: &Program,
        id: FuncId,
        level: OptLevel,
    ) -> Result<CompiledCode, CompileError> {
        let (code, locals) = self.run_pipeline(program, id, level);
        let (code, max_stack) = Self::reverify(program, id, level, code, locals)?;
        Ok(self.package(program, id, level, code, locals, max_stack))
    }

    /// Run the level's pass pipeline, producing transformed code and the
    /// (possibly inlining-grown) locals count.
    fn run_pipeline(&self, program: &Program, id: FuncId, level: OptLevel) -> (Vec<Instr>, u16) {
        let f = program.function(id);
        match level {
            OptLevel::Baseline | OptLevel::O0 => (self.fused(f.code.clone()), f.locals),
            OptLevel::O1 => (
                self.o1_pipeline(program, f, f.code.clone(), f.locals),
                f.locals,
            ),
            OptLevel::O2 => {
                let (code, locals) = inline::run(program, id, f, self.inline_budget);
                (self.o1_pipeline(program, f, code, locals), locals)
            }
        }
    }

    /// Fuse `code` into superinstructions when fusion is on.
    fn fused(&self, code: Vec<Instr>) -> Vec<Instr> {
        if self.fuse {
            fuse::run(code)
        } else {
            code
        }
    }

    /// Verify pipeline output against the surrounding program, handing
    /// the code back with the proven operand-stack bound.
    fn reverify(
        program: &Program,
        id: FuncId,
        level: OptLevel,
        code: Vec<Instr>,
        locals: u16,
    ) -> Result<(Vec<Instr>, u32), CompileError> {
        let f = program.function(id);
        // The name only labels a failure, so verify under an empty one
        // (no copy per compile) and restore it on the error path.
        let check = Function {
            name: String::new(),
            arity: f.arity,
            locals,
            code,
        };
        verify_function_facts(program, id, &check)
            .map(|facts| (check.code, facts.max_stack as u32))
            .map_err(|mut source| {
                source.function = f.name.clone();
                CompileError {
                    function: f.name.clone(),
                    id,
                    level,
                    source,
                }
            })
    }

    /// Wrap pipeline output in the [`CompiledCode`] cost accounting.
    #[allow(clippy::too_many_arguments)]
    fn package(
        &self,
        program: &Program,
        id: FuncId,
        level: OptLevel,
        code: Vec<Instr>,
        locals: u16,
        max_stack: u32,
    ) -> CompiledCode {
        let f = program.function(id);
        let compile_cycles = level.compile_cost_per_instr() * f.code.len() as u64;
        let quality = level.quality_for(&f.name);
        let quality_milli = level.quality_milli_for(&f.name);
        let cost_milli = code.iter().map(|i| i.base_cost() * quality_milli).collect();
        CompiledCode {
            level,
            code: Arc::new(code),
            locals,
            compile_cycles,
            quality,
            quality_milli,
            cost_milli: Arc::new(cost_milli),
            max_stack,
        }
    }

    /// The O1 pass sequence over `code` (which may already be inlined and
    /// thus use more locals than `f` declares).
    fn o1_pipeline(
        &self,
        program: &Program,
        f: &Function,
        code: Vec<Instr>,
        locals: u16,
    ) -> Vec<Instr> {
        let mut code = code;
        // Two rounds reach a fixpoint for virtually all code we generate;
        // quickening and dead-store elimination sit between them so the
        // second round folds specialized forms and erases the producers of
        // stores the first round proved dead.
        for round in 0..2 {
            code = fold::run(&code);
            code = peephole::run(&code);
            code = dce::run(&code, f.arity, locals);
            if round == 0 {
                let tmp = Function {
                    name: f.name.clone(),
                    arity: f.arity,
                    locals,
                    code,
                };
                code = quicken::run(program, &tmp);
                code = dse::run(&code, locals);
            }
        }
        // Fusion runs last: it only ever *merges* adjacent instructions
        // the earlier passes decided to keep, so nothing downstream has
        // to understand fused forms.
        self.fused(code)
    }
}

/// Transform a whole program through the `level` pipeline: every function
/// is compiled at `level`, re-verified, and reassembled into a new
/// [`Program`] with the same strings and entry.
///
/// Because [`Optimizer::compile`] is deterministic, the result is exactly
/// the code a VM executes when its policy pins every method at `level` —
/// which makes this the program a linter or static analyzer should look at
/// to police the optimizer's output.
///
/// # Errors
///
/// Returns the first [`CompileError`] if any function's emitted code fails
/// re-verification.
pub fn optimize_program(program: &Program, level: OptLevel) -> Result<Program, CompileError> {
    let optimizer = Optimizer::new();
    let mut functions = Vec::with_capacity(program.functions().len());
    for (i, f) in program.functions().iter().enumerate() {
        let id = FuncId(i as u32);
        let cc = optimizer.compile_checked(program, id, level)?;
        functions.push(Function {
            name: f.name.clone(),
            arity: f.arity,
            locals: cc.locals,
            code: cc.code.to_vec(),
        });
    }
    Ok(Program::from_parts(
        functions,
        program.strings().to_vec(),
        program.entry(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evovm_bytecode::asm::parse;
    use evovm_bytecode::scalar::{BinOp, CmpOp};

    const PROGRAM: &str = "entry func main/0 locals=1 {
  const 0
  store 0
top:
  load 0
  const 2
  const 3
  mul
  const 94
  add
  cmpge
  jumpif end
  load 0
  call double
  print
  load 0
  const 1
  add
  store 0
  jump top
end:
  null
  return
}
func double/1 {
  load 0
  const 2
  mul
  return
}";

    #[test]
    fn baseline_and_o0_are_the_source_fused_or_verbatim() {
        let p = parse(PROGRAM).unwrap();
        let source = &p.function(p.entry()).code;
        let fused = fuse::run(source.clone());
        assert!(fused.len() < source.len(), "{fused:?}");
        for level in [OptLevel::Baseline, OptLevel::O0] {
            let charged = level.compile_cost_per_instr() * source.len() as u64;
            let verbatim = Optimizer::new()
                .with_fusion(false)
                .compile(&p, p.entry(), level);
            assert_eq!(*verbatim.code, *source);
            assert_eq!(verbatim.compile_cycles, charged);
            let cc = Optimizer::new().compile(&p, p.entry(), level);
            assert_eq!(*cc.code, fused);
            assert_eq!(
                cc.compile_cycles, charged,
                "compilation charges by source length"
            );
        }
    }

    #[test]
    fn o1_folds_and_quickens() {
        let p = parse(PROGRAM).unwrap();
        // With fusion off: 2*3+94 folded to 100, loop arithmetic
        // quickened to the int-specialized forms.
        let unfused = Optimizer::new()
            .with_fusion(false)
            .compile(&p, p.entry(), OptLevel::O1);
        assert!(
            unfused.code.contains(&Instr::Const(100)),
            "{:?}",
            unfused.code
        );
        assert!(unfused.code.contains(&Instr::ICmpGe));
        assert!(unfused.code.contains(&Instr::IAdd));
        assert!(unfused.code.len() < p.function(p.entry()).code.len());
        // The default pipeline additionally fuses those results into
        // superinstructions: the folded constant and quickened ops
        // survive inside the fused forms.
        let cc = Optimizer::new().compile(&p, p.entry(), OptLevel::O1);
        assert!(cc.code.contains(&Instr::LoadConst(0, 100)), "{:?}", cc.code);
        assert!(cc
            .code
            .iter()
            .any(|i| matches!(i, Instr::ICmpBr(CmpOp::Ge, _, true))));
        assert!(cc.code.contains(&Instr::IBinStore(BinOp::Add, 0)));
        assert!(cc.code.len() < unfused.code.len());
    }

    #[test]
    fn o2_inlines_the_callee() {
        let p = parse(PROGRAM).unwrap();
        let opt = Optimizer::new();
        let cc = opt.compile(&p, p.entry(), OptLevel::O2);
        assert!(!cc.code.iter().any(|i| matches!(i, Instr::Call(_))));
        assert!(cc.locals > p.function(p.entry()).locals);
    }

    #[test]
    fn cost_table_is_the_folded_product() {
        let p = parse(PROGRAM).unwrap();
        let opt = Optimizer::new();
        for level in OptLevel::ALL {
            let cc = opt.compile(&p, p.entry(), level);
            assert_eq!(cc.cost_milli.len(), cc.code.len());
            assert_eq!(cc.quality_milli, (cc.quality * 1000.0).round() as u64);
            for (instr, cost) in cc.code.iter().zip(cc.cost_milli.iter()) {
                assert_eq!(*cost, instr.base_cost() * cc.quality_milli);
            }
        }
    }

    #[test]
    fn compile_cost_scales_with_level() {
        let p = parse(PROGRAM).unwrap();
        let opt = Optimizer::new();
        let costs: Vec<u64> = OptLevel::ALL
            .iter()
            .map(|&l| opt.compile(&p, p.entry(), l).compile_cycles)
            .collect();
        assert!(costs.windows(2).all(|w| w[0] < w[1]), "{costs:?}");
    }

    #[test]
    fn compile_checked_matches_compile_on_good_code() {
        let p = parse(PROGRAM).unwrap();
        let opt = Optimizer::new();
        for level in OptLevel::ALL {
            let checked = opt.compile_checked(&p, p.entry(), level).unwrap();
            let plain = opt.compile(&p, p.entry(), level);
            assert_eq!(*checked.code, *plain.code);
            assert_eq!(checked.locals, plain.locals);
            assert_eq!(checked.compile_cycles, plain.compile_cycles);
        }
    }

    #[test]
    fn compile_errors_name_the_function() {
        // Unverified input (`load 3` is past the single local) reaches
        // re-verification untouched at the levels that only fuse.
        let p = parse("entry func broken/0 locals=1 {\n  load 3\n  return\n}").unwrap();
        for level in [OptLevel::Baseline, OptLevel::O0] {
            let e = Optimizer::new()
                .compile_checked(&p, p.entry(), level)
                .unwrap_err();
            assert_eq!(e.function, "broken");
            assert_eq!(e.source.function, "broken", "{level}: {e}");
        }
    }

    #[test]
    fn optimize_program_reassembles_every_function_verified() {
        let p = parse(PROGRAM).unwrap();
        for level in OptLevel::ALL {
            let out = optimize_program(&p, level).unwrap();
            assert_eq!(out.functions().len(), p.functions().len());
            assert_eq!(out.entry(), p.entry());
            assert_eq!(out.strings(), p.strings());
            evovm_bytecode::verify::verify(&out).expect("transformed program verifies whole");
            let opt = Optimizer::new();
            for (i, f) in out.functions().iter().enumerate() {
                let cc = opt.compile(&p, FuncId(i as u32), level);
                assert_eq!(
                    f.code, *cc.code,
                    "optimize_program must equal compile at {level}"
                );
                assert_eq!(f.locals, cc.locals);
            }
        }
    }

    #[test]
    fn quality_improves_with_level_for_most_methods() {
        let p = parse(PROGRAM).unwrap();
        let opt = Optimizer::new();
        let q: Vec<f64> = [OptLevel::Baseline, OptLevel::O0, OptLevel::O1]
            .iter()
            .map(|&l| opt.compile(&p, p.entry(), l).quality)
            .collect();
        assert!(q.windows(2).all(|w| w[0] > w[1]), "{q:?}");
    }
}
