//! The `Rep` scenario: repository-based cross-run optimization (Arnold
//! et al.), wrapped as an optimizer backend. Each run launches with the
//! repository's averaged strategy and feeds its profile back afterwards.

use evovm_vm::RunResult;

use crate::app::AppInput;
use crate::error::EvolveError;
use crate::rep::{RepPolicy, RepRepository};

use super::{CrossRunOptimizer, RunPlan, RunReport};

/// The repository-based backend.
#[derive(Debug)]
pub struct RepOptimizer {
    repo: RepRepository,
    /// Whether the strategy driving the in-flight run proactively
    /// scheduled any compilation — i.e. whether this run is *predicted*
    /// rather than purely reactive.
    current_predicted: bool,
}

impl RepOptimizer {
    /// Create a backend with an empty repository.
    pub fn new(sample_interval_cycles: u64) -> RepOptimizer {
        RepOptimizer {
            repo: RepRepository::new(sample_interval_cycles),
            current_predicted: false,
        }
    }
}

impl CrossRunOptimizer for RepOptimizer {
    fn prepare(&mut self, input: &AppInput) -> Result<RunPlan, EvolveError> {
        let strategy = self.repo.strategy(&input.program)?;
        self.current_predicted = strategy.predicted_count() > 0;
        Ok(RunPlan::Execute {
            policy: Box::new(RepPolicy::new(strategy)),
            overhead_cycles: 0,
        })
    }

    fn observe(&mut self, input: &AppInput, result: RunResult) -> Result<RunReport, EvolveError> {
        self.repo.observe(&input.program, &result.profile);
        Ok(RunReport {
            predicted: self.current_predicted,
            ..RunReport::default()
        })
    }

    fn export_state(&self) -> Option<String> {
        serde_json::to_string(&self.repo).ok()
    }

    fn import_state(&mut self, json: &str) -> Result<(), EvolveError> {
        self.repo.import(json)
    }
}
