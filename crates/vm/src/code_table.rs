//! The shared, verified code of one program: what every run, resume and
//! fork replay of that program executes.
//!
//! A compiled version is a pure function of (program, method, level,
//! fusion), so the host needs to produce it only once. The *virtual*
//! clock still charges every run for its own compilations: a run that
//! installs a version from the table pays the version's
//! [`CompiledCode::compile_cycles`] exactly as if it had compiled it, so
//! clocks, [`RecompileEvent`](crate::RecompileEvent)s and records do not
//! depend on whether the table was cold or warm.
//!
//! A [`CodeTable`] also carries the program's [`FrameBounds`], derived
//! from its whole-program verification once, when the table is built.
//! [`Vm::new`](crate::Vm::new) builds a private table per machine;
//! [`Vm::with_table`](crate::Vm::with_table) shares one, and snapshots
//! carry theirs to every [`Vm::resume`](crate::Vm::resume).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use evovm_bytecode::analysis::{frame_bounds, FrameBounds};
use evovm_bytecode::program::Program;
use evovm_bytecode::verify::verify_with_facts;
use evovm_bytecode::{FuncId, VerifyError};
use evovm_opt::{CompileError, CompiledCode, OptLevel, Optimizer};

/// Compiled versions one method can have: one per [`OptLevel`].
/// Recompilation only ever moves a method up, so a run installs each
/// level at most once per method.
pub(crate) const VERSIONS_PER_METHOD: usize = OptLevel::ALL.len();

/// Slot of `method`'s `level` version, in a [`CodeTable`] and in a run's
/// own version table alike.
pub(crate) fn version_slot(method: FuncId, level: OptLevel) -> usize {
    method.index() * VERSIONS_PER_METHOD + level as usize
}

/// One verified program, its frame bounds and its compiled versions, one
/// lazily filled slot per (method, level), under one fusion setting.
///
/// Thread-safe: each slot is a mutex held while it compiles, so every
/// slot runs the pass pipeline exactly once however threads race on it
/// (the loser of the lock reads the winner's code), and threads
/// compiling different slots never contend. A pipeline that emits
/// unverifiable code is not memoized: every request for that slot
/// reports its own [`CompileError`].
#[derive(Debug)]
pub struct CodeTable {
    program: Arc<Program>,
    bounds: FrameBounds,
    fuse: bool,
    optimizer: Optimizer,
    slots: Vec<Mutex<Option<CompiledCode>>>,
    /// Pass-pipeline runs so far, failed ones included.
    compiles: AtomicU64,
}

impl CodeTable {
    /// Verify `program` and build an empty table for it, fusing
    /// superinstructions when `fuse` is set (see
    /// [`Optimizer::with_fusion`]).
    ///
    /// # Errors
    ///
    /// Returns the verifier's error if `program` fails verification.
    pub fn new(program: Arc<Program>, fuse: bool) -> Result<CodeTable, VerifyError> {
        let facts = verify_with_facts(&program)?;
        let bounds = frame_bounds(&program, &facts);
        let slots = (0..program.functions().len() * VERSIONS_PER_METHOD)
            .map(|_| Mutex::new(None))
            .collect();
        Ok(CodeTable {
            program,
            bounds,
            fuse,
            optimizer: Optimizer::new().with_fusion(fuse),
            slots,
            compiles: AtomicU64::new(0),
        })
    }

    /// The verified program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The static call-depth/arena bounds of the program
    /// ([`evovm_bytecode::analysis::frame_bounds`] of its facts).
    pub fn frame_bounds(&self) -> FrameBounds {
        self.bounds
    }

    /// Whether versions are fused into superinstructions.
    pub fn fuse(&self) -> bool {
        self.fuse
    }

    /// Whether this table holds exactly `program`'s code: the same
    /// allocation, or a program of equal content.
    pub fn serves(&self, program: &Arc<Program>) -> bool {
        Arc::ptr_eq(&self.program, program) || *self.program == **program
    }

    /// How many times the table has run the pass pipeline (failed
    /// compilations included).
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// `method` compiled at `level`: the table's version, compiling it
    /// on the first request. A version is two shared buffers, so the
    /// returned copy allocates nothing. The output is
    /// [`Optimizer::compile_checked`]'s, re-verified in every build
    /// profile.
    ///
    /// # Errors
    ///
    /// Returns the [`CompileError`] of a pipeline that emits unverifiable
    /// code, on every request for that version.
    ///
    /// # Panics
    ///
    /// Panics when `method` is out of range for the program.
    pub fn version(&self, method: FuncId, level: OptLevel) -> Result<CompiledCode, CompileError> {
        // A compile that panicked left its slot empty (the slot is written
        // only after a successful compile), so a poisoned slot is valid.
        let mut slot = self.slots[version_slot(method, level)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(code) = slot.as_ref() {
            return Ok(code.clone());
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let code = self
            .optimizer
            .compile_checked(&self.program, method, level)?;
        *slot = Some(code.clone());
        Ok(code)
    }
}
