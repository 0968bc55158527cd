//! Execution engine of the evolvable VM.
//!
//! Provides the resumable interpreter ([`Vm`]) with:
//!
//! - a deterministic virtual cycle clock ([`machine::CYCLES_PER_SECOND`]),
//! - multi-level JIT compilation through [`evovm_opt`], into a
//!   [`CodeTable`] that runs of one program can share, so the host
//!   compiles each (method, level) once,
//! - a timer-based sampling profiler producing [`RunProfile`]s,
//! - pluggable recompilation policies ([`AosPolicy`]): the reactive
//!   Jikes-style [`CostBenefitPolicy`] ships here; the proactive
//!   (predicted) and repository-based policies live in the `evovm` crate.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use evovm_bytecode::asm::parse;
//! use evovm_vm::{CostBenefitPolicy, Outcome, Vm, VmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse(
//!     "entry func main/0 {\n  const 6\n  const 7\n  mul\n  print\n  null\n  return\n}",
//! )?;
//! let mut vm = Vm::new(
//!     Arc::new(program),
//!     Box::new(CostBenefitPolicy::new()),
//!     VmConfig::default(),
//! )?;
//! match vm.run()? {
//!     Outcome::Finished(result) => assert_eq!(result.output, vec!["42"]),
//!     Outcome::FeaturesReady => unreachable!("program has no done instruction"),
//! }
//! # Ok(())
//! # }
//! ```

pub mod code_table;
pub mod error;
pub mod machine;
pub mod policy;
pub mod profile;
pub mod value;

pub use code_table::CodeTable;
pub use error::{Trap, VmError};
pub use machine::{InterpMode, Outcome, RunResult, RunSnapshot, Vm, VmConfig, CYCLES_PER_SECOND};
pub use policy::{AosContext, AosPolicy, BaselineOnlyPolicy, CostBenefitPolicy};
pub use profile::{DispatchProfile, RecompileEvent, RunProfile};
pub use value::{Heap, Value};

#[cfg(test)]
mod tests;
