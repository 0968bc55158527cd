//! Optimizer backends: the three scenarios of §V-B behind one trait.
//!
//! [`Campaign::run`](crate::Campaign::run) used to `match` on
//! [`Scenario`] for every production run; now the match
//! happens exactly once, in [`for_scenario`], and the campaign loop is
//! scenario-agnostic. Each backend answers three questions per run:
//!
//! 1. [`prepare`](CrossRunOptimizer::prepare) — how should this run be
//!    launched? Either [`RunPlan::Baseline`] (the run *is* the memoized
//!    default run, no VM needs to execute) or [`RunPlan::Execute`] with a
//!    launch policy and up-front overhead cycles to charge.
//! 2. [`features_ready`](CrossRunOptimizer::features_ready) — what to do
//!    at each interactive pause (paper §III-B.4)?
//! 3. [`observe`](CrossRunOptimizer::observe) — what did the backend
//!    learn, and what should the run's record say?

mod default;
mod evolve;
mod rep;

pub use default::DefaultOptimizer;
pub use evolve::EvolveOptimizer;
pub use rep::RepOptimizer;

use evovm_vm::{AosPolicy, RunResult, Vm};

use crate::app::{AppInput, Bench};
use crate::campaign::Scenario;
use crate::config::EvolveConfig;
use crate::error::EvolveError;

/// How the campaign should launch one production run.
#[derive(Debug)]
pub enum RunPlan {
    /// The run is identical to the memoized default run on this input:
    /// the campaign reuses the oracle's cycle count and skips execution
    /// (and [`CrossRunOptimizer::observe`]) entirely.
    Baseline,
    /// Execute the VM with `policy`, charging `overhead_cycles` before
    /// the first instruction (extraction + launch-prediction cost).
    Execute {
        /// The adaptive-optimization policy to launch with.
        policy: Box<dyn AosPolicy>,
        /// Cycles to charge via [`Vm::charge_overhead`] at launch.
        overhead_cycles: u64,
    },
}

/// What one observed run contributes to its
/// [`RunRecord`](crate::RunRecord) beyond the cycle counts the campaign measures
/// itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunReport {
    /// Whether a predicted strategy drove the run.
    pub predicted: bool,
    /// Confidence after this run (Evolve only; 0 otherwise).
    pub confidence: f64,
    /// This run's prediction accuracy (Evolve only; 0 otherwise).
    pub accuracy: f64,
    /// Total overhead cycles charged to the run.
    pub overhead_cycles: u64,
}

/// A cross-run optimizer: one of the paper's three scenarios, driven by
/// the campaign loop one production run at a time.
pub trait CrossRunOptimizer: std::fmt::Debug + Send {
    /// Plan the next production run on `input`.
    ///
    /// # Errors
    ///
    /// Propagates XICL translation errors (Evolve).
    fn prepare(&mut self, input: &AppInput) -> Result<RunPlan, EvolveError>;

    /// React to an interactive pause: the VM stopped at a `done()` point
    /// with freshly published features. Baseline-style backends ignore
    /// the pause; Evolve re-predicts.
    ///
    /// # Errors
    ///
    /// Propagates VM errors raised while applying a new strategy (e.g. a
    /// pipeline miscompilation surfaced by re-verification).
    fn features_ready(&mut self, vm: &mut Vm) -> Result<(), EvolveError> {
        let _ = vm;
        Ok(())
    }

    /// Learn from the finished run and report its record fields. Called
    /// exactly once per [`RunPlan::Execute`] run, never for
    /// [`RunPlan::Baseline`].
    ///
    /// # Errors
    ///
    /// Propagates dataset/model-rebuild errors (Evolve).
    fn observe(&mut self, input: &AppInput, result: RunResult) -> Result<RunReport, EvolveError>;

    /// Serialized learned state, or `None` when the backend is stateless
    /// (Default) and there is nothing to persist.
    fn export_state(&self) -> Option<String> {
        None
    }

    /// Restore learned state exported by a previous campaign. Stateless
    /// backends accept and ignore any payload.
    ///
    /// All or nothing: on error the backend is unchanged. Importing a
    /// backend's own export into a fresh backend of the same config
    /// rebuilds exactly that backend, so the
    /// [`CampaignService`](crate::CampaignService) may hand the live one
    /// to the next campaign on its model key instead.
    ///
    /// # Errors
    ///
    /// Backends with state report payloads no backend writes (not JSON in
    /// their shape, or holding out-of-range values) as
    /// [`EvolveError::MalformedState`], and payloads that parse but cannot
    /// be rebuilt (e.g. an inconsistent Evolve history) as the rebuild's
    /// error.
    fn import_state(&mut self, json: &str) -> Result<(), EvolveError> {
        let _ = json;
        Ok(())
    }

    /// Total features in the training schema (Evolve only; 0 otherwise).
    fn raw_feature_count(&self) -> usize {
        0
    }

    /// Indices of features the fitted models actually use (Evolve only).
    fn used_feature_indices(&self) -> Vec<usize> {
        Vec::new()
    }
}

/// The one place a [`Scenario`] is matched for execution: construct the
/// backend that drives a campaign.
pub fn for_scenario(
    scenario: Scenario,
    bench: &Bench,
    config: &EvolveConfig,
) -> Box<dyn CrossRunOptimizer> {
    match scenario {
        Scenario::Default => Box::new(DefaultOptimizer::new()),
        Scenario::Rep => Box::new(RepOptimizer::new(config.sample_interval_cycles)),
        Scenario::Evolve => Box::new(EvolveOptimizer::new(bench.translator.clone(), *config)),
    }
}
