//! The evolvable virtual machine — cross-input learning and
//! discriminative prediction (Mao & Shen, CGO 2009).
//!
//! This crate is the paper's primary contribution, built on the substrate
//! crates of the workspace:
//!
//! - [`evolve`] — the evolvable controller ([`EvolvableVm`]): XICL feature
//!   extraction → discriminative per-method level prediction → posterior
//!   ideal-strategy learning across production runs (Figure 7).
//! - [`strategy`] — predicted strategies, the posterior ideal-strategy
//!   computation, the sample-weighted accuracy metric, and the proactive
//!   [`PredictedPolicy`].
//! - [`rep`] — the repository-based comparison system (`Rep`, Arnold
//!   et al.), reimplemented from the paper's description.
//! - [`campaign`] — the three-scenario experiment runner used by every
//!   table and figure.
//! - [`fork`] — the compilation-forking counterfactual data factory:
//!   recompilation decisions snapshot the run, a [`ForkExecutor`] replays
//!   each snapshot under every level, and the `(features, level, cost)`
//!   samples become first-class training data.
//! - [`service`] — the long-lived streaming campaign service: the one
//!   way to run a session of campaigns on a worker pool, with shared
//!   default-run oracles and same-`model_key` serialization.
//! - [`store`] — durable learned state: [`ShardedStore`] on disk and
//!   [`MemoryStore`] in process.
//! - [`metrics`] — boxplot summaries and means.
//!
//! # Example
//!
//! ```no_run
//! use evovm::{Campaign, CampaignConfig, Scenario};
//! # fn get_bench() -> evovm::Bench { unimplemented!() }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = get_bench(); // e.g. from the evovm-workloads crate
//! let outcome = Campaign::new(&bench, CampaignConfig::new(Scenario::Evolve).runs(30))?.run()?;
//! println!("median speedup: {:?}", evovm::metrics::BoxStats::from_slice(&outcome.speedups()));
//! # Ok(())
//! # }
//! ```

pub mod app;
pub mod campaign;
pub mod config;
pub mod error;
pub mod evolve;
pub mod fork;
pub mod metrics;
pub mod optimizer;
pub mod oracle;
pub mod rep;
mod scheduler;
pub mod service;
pub mod store;
pub mod strategy;

pub use app::{AppInput, Bench};
pub use campaign::{Campaign, CampaignConfig, CampaignOutcome, RunRecord, RunSink, Scenario};
pub use config::EvolveConfig;
pub use error::EvolveError;
pub use evolve::{EvolvableVm, EvolveRunRecord, EvolveState};
pub use fork::{ForkExecutor, ForkPoint, ForkSample};
pub use metrics::{ServiceMetrics, ServiceMetricsSnapshot, StoreMetrics, StoreMetricsSnapshot};
pub use optimizer::{CrossRunOptimizer, RunPlan, RunReport};
pub use oracle::DefaultOracle;
pub use rep::{RepPolicy, RepRepository, RepStrategy};
pub use service::{
    CampaignHandle, CampaignService, CampaignServiceBuilder, RunEvent, ShutdownMode,
};
pub use store::{MemoryStore, ModelStore, ShardedStore};
pub use strategy::{ideal_levels, prediction_accuracy, LevelStrategy, PredictedPolicy};

/// Bytecode-shape features from whole-program static analysis — the
/// cold-start complement to XICL input features. Re-exported so
/// [`CrossRunOptimizer`] implementations can consume them on run 1
/// without depending on `evovm_xicl` directly.
pub use evovm_xicl::StaticFeatures;
