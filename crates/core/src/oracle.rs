//! The memoized default-run oracle.
//!
//! Every speedup in the paper normalizes to the *default* (reactive
//! cost-benefit) run of the same input. Those baseline runs are fully
//! deterministic — the VM clock is virtual and the policy has no
//! randomness — so their cycle counts can be computed once and shared:
//! across the runs of one campaign, and across every campaign of a
//! [`CampaignService`](crate::CampaignService) session that targets the
//! same bench content, from any thread.

use parking_lot::Mutex;
use std::sync::Arc;

use evovm_vm::{CostBenefitPolicy, InterpMode, Outcome, RunResult, Vm, VmConfig};

use crate::app::{AppInput, Bench};
use crate::error::EvolveError;

/// Thread-safe memo of default-run cycle counts, one slot per input
/// index of a bench. Per-slot locking: two threads resolving different
/// inputs never contend, and two threads racing on the same input run
/// the baseline once (the loser of the lock reads the memo).
#[derive(Debug)]
pub struct DefaultOracle {
    entries: Vec<Mutex<Option<u64>>>,
    sample_interval_cycles: u64,
    interp: InterpMode,
}

impl DefaultOracle {
    /// An empty oracle for `n_inputs` input slots.
    pub fn new(n_inputs: usize, sample_interval_cycles: u64) -> DefaultOracle {
        DefaultOracle {
            entries: (0..n_inputs).map(|_| Mutex::new(None)).collect(),
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
        let result = run_default(input, self.sample_interval_cycles, self.interp)?;
        *slot = Some(result.total_cycles);
        Ok(result.total_cycles)
    }
}

/// Execute one default (reactive cost-benefit) run of `input`, ignoring
/// interactive pauses.
pub(crate) fn run_default(
    input: &AppInput,
    sample_interval_cycles: u64,
    interp: InterpMode,
) -> Result<RunResult, EvolveError> {
    let mut vm = Vm::new(
        Arc::clone(&input.program),
        Box::new(CostBenefitPolicy::new()),
        VmConfig {
            sample_interval_cycles,
            interp,
            ..VmConfig::default()
        },
    )?;
    loop {
        match vm.run()? {
            Outcome::Finished(result) => return Ok(*result),
            Outcome::FeaturesReady => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<DefaultOracle>();
    }
}
