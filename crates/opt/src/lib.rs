//! The multi-level optimizing JIT of the evolvable VM.
//!
//! Mirrors the structure of the Jikes RVM optimizing compiler at the scale
//! of this reproduction: four compilation levels (−1/0/1/2 — see
//! [`OptLevel`]) with rising compile cost and rising code quality. The
//! higher levels run *real* bytecode-to-bytecode passes:
//!
//! - [`passes::fold`] — block-local constant folding, algebraic identities
//!   and constant branch folding;
//! - [`passes::quicken`] — type-inference-driven specialization of generic
//!   arithmetic into typed opcodes (backed by [`analysis`]);
//! - [`passes::peephole`] — window rewrites and jump threading;
//! - [`passes::dce`] — unreachable-code elimination;
//! - [`passes::dse`] — liveness-based dead-store elimination;
//! - [`passes::inline`] — method inlining (O2 only);
//! - [`passes::fuse`] — superinstruction fusion, at every level (the
//!   whole Baseline/O0 pipeline, the last O1/O2 pass).
//!
//! Code-quality effects beyond what bytecode transformation can express
//! (register allocation, instruction selection) are modelled by the level's
//! execution-cycle multiplier ([`OptLevel::quality_for`]); this is the one
//! simulated component of the JIT, documented in `DESIGN.md`.
//!
//! # Example
//!
//! ```
//! use evovm_bytecode::asm::parse;
//! use evovm_opt::{Optimizer, OptLevel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse(
//!     "entry func main/0 {\n  const 6\n  const 7\n  mul\n  print\n  null\n  return\n}",
//! )?;
//! let compiled = Optimizer::new().compile(&program, program.entry(), OptLevel::O1);
//! assert!(compiled.code.len() < program.function(program.entry()).code.len());
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod levels;
pub mod passes;
pub mod pipeline;
mod util;

pub use levels::OptLevel;
pub use pipeline::{optimize_program, CompileError, CompiledCode, Optimizer};
