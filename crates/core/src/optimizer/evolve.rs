//! The `Evolve` scenario: the evolvable VM as an optimizer backend.
//! Delegates to [`EvolvableVm`]'s three run phases — `begin_run` at
//! [`prepare`](CrossRunOptimizer::prepare), `on_features_ready` at each
//! interactive pause, `finish_run` at
//! [`observe`](CrossRunOptimizer::observe).

use evovm_vm::{RunResult, Vm};
use evovm_xicl::Translator;

use crate::app::AppInput;
use crate::config::EvolveConfig;
use crate::error::EvolveError;
use crate::evolve::EvolvableVm;

use super::{CrossRunOptimizer, RunPlan, RunReport};

/// The evolvable-VM backend.
#[derive(Debug)]
pub struct EvolveOptimizer {
    vm: EvolvableVm,
    pending: Option<crate::evolve::PendingRun>,
}

impl EvolveOptimizer {
    /// Create a backend with a fresh (no-history) evolvable VM.
    pub fn new(translator: Translator, config: EvolveConfig) -> EvolveOptimizer {
        EvolveOptimizer {
            vm: EvolvableVm::new(translator, config),
            pending: None,
        }
    }

    /// The wrapped evolvable VM.
    pub fn evolvable(&self) -> &EvolvableVm {
        &self.vm
    }
}

impl CrossRunOptimizer for EvolveOptimizer {
    fn prepare(&mut self, input: &AppInput) -> Result<RunPlan, EvolveError> {
        let (pending, policy) = self.vm.begin_run(input)?;
        let overhead_cycles = pending.launch_overhead_cycles();
        self.pending = Some(pending);
        Ok(RunPlan::Execute {
            policy,
            overhead_cycles,
        })
    }

    fn features_ready(&mut self, vm: &mut Vm) -> Result<(), EvolveError> {
        if let Some(pending) = self.pending.as_mut() {
            self.vm.on_features_ready(pending, vm)?;
        }
        Ok(())
    }

    fn observe(&mut self, input: &AppInput, result: RunResult) -> Result<RunReport, EvolveError> {
        let pending = self
            .pending
            .take()
            .expect("observe follows a prepared Execute plan");
        let rec = self.vm.finish_run(pending, input, result)?;
        Ok(RunReport {
            predicted: rec.predicted,
            confidence: rec.confidence_after,
            accuracy: rec.accuracy,
            overhead_cycles: rec.overhead_cycles(),
        })
    }

    fn export_state(&self) -> Option<String> {
        Some(self.vm.export_state())
    }

    fn import_state(&mut self, json: &str) -> Result<(), EvolveError> {
        self.vm.import_state(json)
    }

    fn raw_feature_count(&self) -> usize {
        self.vm.raw_feature_count()
    }

    fn used_feature_indices(&self) -> Vec<usize> {
        self.vm.used_feature_indices()
    }
}
