//! The memoized default-run oracle, and the shared code of each input.
//!
//! Every speedup in the paper normalizes to the *default* (reactive
//! cost-benefit) run of the same input. Those baseline runs are fully
//! deterministic — the VM clock is virtual and the policy has no
//! randomness — so their cycle counts can be computed once and shared:
//! across the runs of one campaign, and across every campaign of a
//! [`CampaignService`](crate::CampaignService) session that targets the
//! same bench content, from any thread.
//!
//! Beside each input's cycle memo the oracle keeps that input's
//! [`CodeTable`]: its program verified once, and each (method, level)
//! compiled once. Baseline runs, campaign runs, and the resumes and fork
//! replays of their snapshots all run on it, so within one oracle the
//! host verifies each input's program once and compiles each version
//! once; every run still charges its own compile cycles on the virtual
//! clock. The tables live exactly as long as the oracle.
//!
//! A service shares oracles by bench fingerprint (name, command lines,
//! files and function counts), which does not hash program content, so
//! two benches sharing an oracle may differ in code. A table therefore
//! serves only the program it was built from (the same `Arc`, or equal
//! content); any other program gets a private table for that run.

use parking_lot::Mutex;
use std::sync::Arc;

use evovm_vm::{CodeTable, CostBenefitPolicy, InterpMode, Outcome, RunResult, Vm, VmConfig};

use crate::app::{AppInput, Bench};
use crate::error::EvolveError;

/// Thread-safe memo of default-run cycle counts and code tables, one
/// slot each per input index of a bench. Per-slot locking: two threads
/// resolving different inputs never contend, and two threads racing on
/// the same input run the baseline once and build its table once (the
/// loser of the lock reads the memo).
#[derive(Debug)]
pub struct DefaultOracle {
    entries: Vec<Mutex<Option<u64>>>,
    tables: Vec<Mutex<Option<Arc<CodeTable>>>>,
    sample_interval_cycles: u64,
    interp: InterpMode,
}

impl DefaultOracle {
    /// An empty oracle for `n_inputs` input slots.
    pub fn new(n_inputs: usize, sample_interval_cycles: u64) -> DefaultOracle {
        DefaultOracle {
            entries: (0..n_inputs).map(|_| Mutex::new(None)).collect(),
            tables: (0..n_inputs).map(|_| Mutex::new(None)).collect(),
            sample_interval_cycles,
            interp: InterpMode::Fast,
        }
    }

    /// Select the dispatch loop baseline runs execute under. Both modes
    /// produce identical cycle counts (`tests/interp_equiv.rs` proves
    /// it), so this does not affect memo shareability; it exists for the
    /// differential tests themselves.
    pub fn with_interp(mut self, interp: InterpMode) -> DefaultOracle {
        self.interp = interp;
        self
    }

    /// An empty oracle sized for `bench`'s input set.
    pub fn for_bench(bench: &Bench, sample_interval_cycles: u64) -> DefaultOracle {
        DefaultOracle::new(bench.inputs.len(), sample_interval_cycles)
    }

    /// The sampling interval baseline runs are executed with. Results
    /// are only shareable between campaigns that agree on it.
    pub fn sample_interval_cycles(&self) -> u64 {
        self.sample_interval_cycles
    }

    /// Number of input slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the oracle has no input slots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Default-run cycles for `input`, executing the baseline on first
    /// request and serving the memo afterwards.
    ///
    /// # Errors
    ///
    /// Propagates VM errors from the baseline run.
    ///
    /// # Panics
    ///
    /// Panics when `input_index` is out of range for the bench this
    /// oracle was sized for.
    pub fn default_cycles(&self, input_index: usize, input: &AppInput) -> Result<u64, EvolveError> {
        let mut slot = self.entries[input_index].lock();
        if let Some(cycles) = *slot {
            return Ok(cycles);
        }
        let table = self.code_table(input_index, input)?;
        let result = run_default(table, self.sample_interval_cycles, self.interp)?;
        *slot = Some(result.total_cycles);
        Ok(result.total_cycles)
    }

    /// The code table runs of `input` execute on: the one this oracle
    /// keeps for `input_index`, built (and its program verified) on first
    /// request. A program the kept table was not built from — another
    /// bench of equal fingerprint — gets a fresh private table instead.
    ///
    /// # Errors
    ///
    /// [`VmError::Verify`](evovm_vm::VmError::Verify) when the program
    /// fails verification; a failure is not memoized.
    ///
    /// # Panics
    ///
    /// Panics when `input_index` is out of range for the bench this
    /// oracle was sized for.
    pub(crate) fn code_table(
        &self,
        input_index: usize,
        input: &AppInput,
    ) -> Result<Arc<CodeTable>, EvolveError> {
        let fresh = || -> Result<Arc<CodeTable>, EvolveError> {
            let table = CodeTable::new(Arc::clone(&input.program), VmConfig::default().fuse)
                .map_err(evovm_vm::VmError::from)?;
            Ok(Arc::new(table))
        };
        let mut slot = self.tables[input_index].lock();
        match slot.as_ref() {
            Some(table) if table.serves(&input.program) => Ok(Arc::clone(table)),
            Some(_) => {
                drop(slot);
                fresh()
            }
            None => {
                let table = fresh()?;
                *slot = Some(Arc::clone(&table));
                Ok(table)
            }
        }
    }

    /// Pass-pipeline runs of the code tables this oracle keeps (see
    /// [`CodeTable::compiles`]); private fallback tables are not counted.
    pub(crate) fn compiles(&self) -> u64 {
        self.tables
            .iter()
            .filter_map(|slot| slot.lock().as_ref().map(|table| table.compiles()))
            .sum()
    }
}

/// Execute one default (reactive cost-benefit) run on `table`, ignoring
/// interactive pauses.
fn run_default(
    table: Arc<CodeTable>,
    sample_interval_cycles: u64,
    interp: InterpMode,
) -> Result<RunResult, EvolveError> {
    let mut vm = Vm::with_table(
        table,
        Box::new(CostBenefitPolicy::new()),
        VmConfig {
            sample_interval_cycles,
            interp,
            ..VmConfig::default()
        },
    );
    loop {
        match vm.run()? {
            Outcome::Finished(result) => return Ok(*result),
            Outcome::FeaturesReady => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use evovm_bytecode::{FuncId, Function, Program};
    use evovm_vm::VmError;
    use evovm_xicl::Vfs;

    use super::*;

    #[test]
    fn oracle_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<DefaultOracle>();
    }

    fn input(program: Program) -> AppInput {
        AppInput {
            args: Vec::new(),
            vfs: Vfs::default(),
            program: Arc::new(program),
        }
    }

    fn compiled(source: &str) -> AppInput {
        input(evovm_minijava::compile(source).expect("valid MiniJava"))
    }

    #[test]
    fn an_input_keeps_its_table_only_for_its_own_program() {
        let oracle = DefaultOracle::new(1, 100_000);
        let one = compiled("fn main() { print 1; }");
        let kept = oracle.code_table(0, &one).unwrap();
        assert!(Arc::ptr_eq(&oracle.code_table(0, &one).unwrap(), &kept));
        // A separately built program of equal content shares the table.
        let again = compiled("fn main() { print 1; }");
        assert!(!Arc::ptr_eq(&again.program, &one.program));
        assert!(Arc::ptr_eq(&oracle.code_table(0, &again).unwrap(), &kept));
        // Other code gets a private table and leaves the kept one alone.
        let two = compiled("fn main() { print 2; }");
        let private = oracle.code_table(0, &two).unwrap();
        assert!(Arc::ptr_eq(private.program(), &two.program));
        assert!(Arc::ptr_eq(&oracle.code_table(0, &one).unwrap(), &kept));
        // Default cycles run on the kept table and fill it.
        oracle.default_cycles(0, &one).unwrap();
        assert!(kept.compiles() > 0);
        assert_eq!(oracle.compiles(), kept.compiles());
    }

    #[test]
    fn a_verification_failure_is_reported_on_every_request() {
        let oracle = DefaultOracle::new(1, 100_000);
        let empty = Function {
            name: "main".to_owned(),
            arity: 0,
            locals: 0,
            code: Vec::new(),
        };
        let broken = input(Program::from_parts(vec![empty], Vec::new(), FuncId(0)));
        for _ in 0..2 {
            assert!(matches!(
                oracle.code_table(0, &broken),
                Err(EvolveError::Vm(VmError::Verify(_)))
            ));
            assert!(matches!(
                oracle.default_cycles(0, &broken),
                Err(EvolveError::Vm(VmError::Verify(_)))
            ));
        }
        // Nothing was memoized: a valid program still gets the slot.
        let valid = compiled("fn main() { print 1; }");
        let table = oracle.code_table(0, &valid).unwrap();
        assert!(Arc::ptr_eq(table.program(), &valid.program));
        assert!(Arc::ptr_eq(&oracle.code_table(0, &valid).unwrap(), &table));
    }
}
