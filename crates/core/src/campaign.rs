//! The campaign runner: sequences of production runs under one of the
//! paper's three scenarios (§V-B) with randomly arriving inputs.
//!
//! - **Default** — the reactive cost-benefit optimizer, no cross-run
//!   memory. Defines the performance baseline every speedup normalizes to.
//! - **Rep** — the repository-based optimizer: learns one averaged
//!   strategy from history, predicts unconditionally from run 1.
//! - **Evolve** — the evolvable VM: input-specific prediction guarded by
//!   the decayed confidence.
//!
//! [`Campaign::run`] executes one campaign on the calling thread with a
//! private oracle; [`Campaign::run_with_sink`] is the loop underneath,
//! taking a shared oracle, an optional [`ModelStore`] and a [`RunSink`].
//! Sessions of many campaigns go through the
//! [`CampaignService`](crate::CampaignService), which runs that same
//! loop on its workers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use evovm_learn::dataset::Raw;
use evovm_vm::{InterpMode, Outcome, Vm, VmConfig, CYCLES_PER_SECOND};
use evovm_xicl::FeatureValue;

use crate::app::Bench;
use crate::config::EvolveConfig;
use crate::error::EvolveError;
use crate::fork::{ForkExecutor, ForkPoint, ForkSample};
use crate::optimizer::{self, RunPlan};
use crate::oracle::DefaultOracle;
use crate::store::ModelStore;

/// Which optimizer drives the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Reactive Jikes-style adaptive optimization.
    Default,
    /// Repository-based cross-run optimization (Arnold et al.).
    Rep,
    /// The evolvable VM.
    Evolve,
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scenario::Default => write!(f, "Default"),
            Scenario::Rep => write!(f, "Rep"),
            Scenario::Evolve => write!(f, "Evolve"),
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The scenario to run.
    pub scenario: Scenario,
    /// Number of production runs.
    pub runs: usize,
    /// Seed controlling the random input arrival order.
    pub seed: u64,
    /// Evolvable-VM parameters (γ, TH_c, tree params, overhead model).
    pub evolve: EvolveConfig,
    /// Key under which learned state is restored/persisted when the
    /// campaign runs against a [`ModelStore`]; `None` keeps the campaign
    /// self-contained.
    pub model_key: Option<String>,
    /// Which interpreter dispatch loop the campaign's VMs run under.
    /// Both modes produce bit-identical records (the equivalence suite
    /// proves it); [`InterpMode::Reference`] exists for differential
    /// testing and benchmarking.
    pub interp: InterpMode,
    /// Whether the outcome buffers every [`RunRecord`] in
    /// [`CampaignOutcome::records`] (the default). Callers that consume
    /// records incrementally through a [`RunSink`] — or that only need
    /// the final aggregates — can turn this off so long campaigns stop
    /// growing memory linearly with `runs`; the outcome's `records` then
    /// stays empty and its record-derived summaries report no data.
    pub retain_records: bool,
    /// How many fork points each production run may self-capture at
    /// recompilation decisions (see [`crate::fork`]). `0` (the default)
    /// disables the counterfactual data factory entirely; campaigns with
    /// forking off are bit-identical to campaigns that predate it.
    pub fork_snapshots: usize,
}

impl CampaignConfig {
    /// A config with the paper's defaults.
    pub fn new(scenario: Scenario) -> CampaignConfig {
        CampaignConfig {
            scenario,
            runs: 30,
            seed: 1,
            evolve: EvolveConfig::default(),
            model_key: None,
            interp: InterpMode::Fast,
            retain_records: true,
            fork_snapshots: 0,
        }
    }

    /// Set the number of runs.
    pub fn runs(mut self, runs: usize) -> CampaignConfig {
        self.runs = runs;
        self
    }

    /// Set the input-order seed.
    pub fn seed(mut self, seed: u64) -> CampaignConfig {
        self.seed = seed;
        self
    }

    /// Set the evolvable-VM parameters.
    pub fn evolve(mut self, evolve: EvolveConfig) -> CampaignConfig {
        self.evolve = evolve;
        self
    }

    /// Set the model-store key for state persistence.
    pub fn model_key(mut self, key: impl Into<String>) -> CampaignConfig {
        self.model_key = Some(key.into());
        self
    }

    /// Set the interpreter dispatch loop (differential-testing hook).
    pub fn interp(mut self, interp: InterpMode) -> CampaignConfig {
        self.interp = interp;
        self
    }

    /// Set whether the outcome buffers every run record (see
    /// [`CampaignConfig::retain_records`]).
    pub fn retain_records(mut self, retain: bool) -> CampaignConfig {
        self.retain_records = retain;
        self
    }

    /// Set the per-run fork-point budget of the counterfactual data
    /// factory (see [`CampaignConfig::fork_snapshots`]).
    pub fn fork_snapshots(mut self, fork_snapshots: usize) -> CampaignConfig {
        self.fork_snapshots = fork_snapshots;
        self
    }
}

/// Observer of a campaign's per-run records as they are produced.
///
/// [`Campaign::run_with_sink`] invokes the sink after every production
/// run, before the next one starts — this is how records escape a
/// running campaign incrementally (the
/// [`CampaignService`](crate::CampaignService) streams them to
/// submission handles through exactly this hook) instead of being
/// visible only in the finished [`CampaignOutcome`].
pub trait RunSink {
    /// Called once per production run, in run order, with that run's
    /// record.
    fn on_record(&mut self, record: &RunRecord);

    /// Offered each [`ForkPoint`] a run captured, after that run's
    /// [`RunSink::on_record`] call. Returning the point back (the
    /// default) tells the campaign to replay it inline through a
    /// [`ForkExecutor`] and feed the resulting samples to
    /// [`RunSink::on_fork_sample`]; returning `None` means the sink
    /// *consumed* the point and replays it itself — this is how the
    /// [`CampaignService`](crate::CampaignService) reroutes fork replays
    /// through its worker pool as ordinary queue units.
    fn on_fork_point(&mut self, point: ForkPoint) -> Option<ForkPoint> {
        Some(point)
    }

    /// Called once per counterfactual sample produced by an inline fork
    /// replay, in fork-point order then level order.
    fn on_fork_sample(&mut self, sample: &ForkSample) {
        let _ = sample;
    }
}

/// Any `FnMut(&RunRecord)` closure is a sink.
impl<F: FnMut(&RunRecord)> RunSink for F {
    fn on_record(&mut self, record: &RunRecord) {
        self(record);
    }
}

/// One production run's outcome within a campaign.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Position in the campaign (0-based).
    pub run_index: usize,
    /// Which input arrived.
    pub input_index: usize,
    /// Total cycles under the campaign's scenario (including any
    /// evolvable overhead).
    pub cycles: u64,
    /// Total cycles of the cached default run on the same input.
    pub default_cycles: u64,
    /// `default_cycles / cycles` — the paper's speedup metric.
    pub speedup: f64,
    /// Confidence after this run (Evolve only; 0 otherwise).
    pub confidence: f64,
    /// Prediction accuracy of this run (Evolve only; 0 otherwise).
    pub accuracy: f64,
    /// Whether a predicted strategy drove the run (Evolve only).
    pub predicted: bool,
    /// Overhead fraction of total time (Evolve only).
    pub overhead_fraction: f64,
}

impl RunRecord {
    /// This run's simulated duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / CYCLES_PER_SECOND as f64
    }

    /// The default run's simulated duration in seconds.
    pub fn default_seconds(&self) -> f64 {
        self.default_cycles as f64 / CYCLES_PER_SECOND as f64
    }
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Per-run records, in arrival order. Empty when the campaign ran
    /// with [`CampaignConfig::retain_records`] off (streaming callers
    /// observe the records through a [`RunSink`] instead).
    pub records: Vec<RunRecord>,
    /// Raw feature count of the training schema (Evolve only).
    pub raw_features: usize,
    /// Features actually used by the models (Evolve only).
    pub used_features: usize,
    /// Default-run seconds per distinct input index (for Table I's
    /// min/max running times).
    pub default_seconds_per_input: Vec<Option<f64>>,
    /// Whether stored state for this campaign's `model_key` existed but
    /// could not be imported, so the campaign fresh-started instead —
    /// the persistence contract's degraded path (also counted in the
    /// store's [`StoreMetrics`](crate::metrics::StoreMetrics)).
    pub state_recovered: bool,
}

impl CampaignOutcome {
    /// The speedups of all runs, in order.
    pub fn speedups(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.speedup).collect()
    }

    /// Mean confidence over the campaign.
    pub fn mean_confidence(&self) -> f64 {
        crate::metrics::mean(
            &self
                .records
                .iter()
                .map(|r| r.confidence)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean prediction accuracy over the campaign.
    pub fn mean_accuracy(&self) -> f64 {
        crate::metrics::mean(&self.records.iter().map(|r| r.accuracy).collect::<Vec<_>>())
    }

    /// Min/max default running time over the inputs that arrived.
    pub fn default_time_range(&self) -> Option<(f64, f64)> {
        let times: Vec<f64> = self
            .default_seconds_per_input
            .iter()
            .flatten()
            .copied()
            .collect();
        if times.is_empty() {
            return None;
        }
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some((min, max))
    }
}

/// Runs one scenario over a [`Bench`]'s input set.
#[derive(Debug)]
pub struct Campaign<'a> {
    bench: &'a Bench,
    config: CampaignConfig,
}

impl<'a> Campaign<'a> {
    /// Create a campaign.
    ///
    /// # Errors
    ///
    /// [`EvolveError::NoInputs`] for an empty input set and
    /// [`EvolveError::InconsistentPrograms`] when the bench's inputs
    /// compile to different program layouts.
    pub fn new(bench: &'a Bench, config: CampaignConfig) -> Result<Campaign<'a>, EvolveError> {
        if bench.inputs.is_empty() {
            return Err(EvolveError::NoInputs);
        }
        if !bench.check_consistent() {
            return Err(EvolveError::InconsistentPrograms);
        }
        Ok(Campaign { bench, config })
    }

    /// Execute the campaign with a private default-run oracle and no
    /// state persistence.
    ///
    /// # Errors
    ///
    /// Propagates VM/XICL/learning errors from individual runs.
    pub fn run(&self) -> Result<CampaignOutcome, EvolveError> {
        let oracle =
            DefaultOracle::for_bench(self.bench, self.config.evolve.sample_interval_cycles)
                .with_interp(self.config.interp);
        self.run_with_sink(&oracle, None, &mut |_: &RunRecord| {})
    }

    /// Execute the campaign: restore learned state from `store` (when
    /// the config names a `model_key`), run the scenario-agnostic loop
    /// against the shared `oracle`, persist the learned state back, and
    /// hand every [`RunRecord`] to `sink` as it is produced — one call
    /// per run, in run order, before the next run starts. Combined with
    /// [`CampaignConfig::retain_records`]`(false)` this is the
    /// constant-memory streaming path: records escape through the sink
    /// and the outcome carries only the aggregates.
    ///
    /// The campaign outcome is a pure function of (bench, config): the
    /// oracle only memoizes deterministic baseline cycles, so sharing it
    /// — even across concurrently running campaigns, as the
    /// [`CampaignService`](crate::CampaignService) does — cannot change
    /// any record.
    ///
    /// # Errors
    ///
    /// Propagates VM/XICL/learning errors from individual runs.
    pub fn run_with_sink(
        &self,
        oracle: &DefaultOracle,
        store: Option<&dyn ModelStore>,
        sink: &mut dyn RunSink,
    ) -> Result<CampaignOutcome, EvolveError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let inputs = &self.bench.inputs;
        let mut optimizer =
            optimizer::for_scenario(self.config.scenario, self.bench, &self.config.evolve);
        let mut state_recovered = false;
        if let (Some(store), Some(key)) = (store, self.config.model_key.as_deref()) {
            if let Some(state) = store.load(key) {
                if optimizer.import_state(&state).is_err() {
                    // Persistence is best-effort by contract (see
                    // `store`): a stored blob that parses but cannot be
                    // imported (e.g. internally inconsistent history)
                    // degrades to fresh-start learning rather than
                    // failing the campaign. Import may have partially
                    // applied, so rebuild the backend from scratch.
                    optimizer = optimizer::for_scenario(
                        self.config.scenario,
                        self.bench,
                        &self.config.evolve,
                    );
                    state_recovered = true;
                    store.metrics().record_recovery();
                }
            }
        }

        // Which inputs arrived *in this campaign* (the outcome's
        // default_seconds_per_input must not leak arrivals memoized by
        // sibling campaigns sharing the oracle).
        let mut arrived: Vec<Option<u64>> = vec![None; inputs.len()];
        // Retention is opt-out: without it the record buffer never
        // allocates and a campaign's memory stays flat in `runs`.
        let mut records = Vec::with_capacity(if self.config.retain_records {
            self.config.runs
        } else {
            0
        });

        // Campaign-wide fork counter: every fork point gets a distinct
        // index so its samples group unambiguously in a cost dataset.
        let mut fork_counter: u64 = 0;

        for run_index in 0..self.config.runs {
            let input_index = rng.gen_range(0..inputs.len());
            let input = &inputs[input_index];
            let default_cycles = oracle.default_cycles(input_index, input)?;
            arrived[input_index] = Some(default_cycles);

            let mut fork_points: Vec<ForkPoint> = Vec::new();
            let record = match optimizer.prepare(input)? {
                RunPlan::Baseline => RunRecord {
                    run_index,
                    input_index,
                    cycles: default_cycles,
                    default_cycles,
                    speedup: 1.0,
                    confidence: 0.0,
                    accuracy: 0.0,
                    predicted: false,
                    overhead_fraction: 0.0,
                },
                RunPlan::Execute {
                    policy,
                    overhead_cycles,
                } => {
                    let mut vm = Vm::new(
                        Arc::clone(&input.program),
                        policy,
                        VmConfig {
                            sample_interval_cycles: self.config.evolve.sample_interval_cycles,
                            interp: self.config.interp,
                            fork_snapshots: self.config.fork_snapshots,
                            ..VmConfig::default()
                        },
                    )?;
                    vm.charge_overhead(overhead_cycles)?;
                    let result = loop {
                        match vm.run()? {
                            Outcome::Finished(result) => break result,
                            Outcome::FeaturesReady => optimizer.features_ready(&mut vm)?,
                        }
                    };
                    let captured = vm.take_fork_snapshots();
                    let cycles = result.total_cycles;
                    if !captured.is_empty() {
                        let features = self.fork_features(input, &result.published)?;
                        for snapshot in captured {
                            let Some((method, decided_level)) = snapshot.pending_decision() else {
                                continue;
                            };
                            fork_points.push(ForkPoint {
                                fork_index: fork_counter,
                                run_index,
                                input_index,
                                method,
                                method_name: input.program.function(method).name.clone(),
                                from_level: snapshot.level_of(method),
                                decided_level,
                                base_total_cycles: cycles,
                                features: features.clone(),
                                snapshot,
                            });
                            fork_counter += 1;
                        }
                    }
                    let report = optimizer.observe(input, *result)?;
                    RunRecord {
                        run_index,
                        input_index,
                        cycles,
                        default_cycles,
                        speedup: default_cycles as f64 / cycles as f64,
                        confidence: report.confidence,
                        accuracy: report.accuracy,
                        predicted: report.predicted,
                        overhead_fraction: if cycles == 0 {
                            0.0
                        } else {
                            report.overhead_cycles as f64 / cycles as f64
                        },
                    }
                }
            };
            sink.on_record(&record);
            if self.config.retain_records {
                records.push(record);
            }
            // Fork replays happen strictly after the real run's record is
            // delivered, so streaming consumers see the factual before
            // its counterfactuals. Sinks that consume the points replay
            // them elsewhere (e.g. on the service's worker pool).
            for point in fork_points {
                if let Some(point) = sink.on_fork_point(point) {
                    for sample in ForkExecutor::new().replay(&point)? {
                        sink.on_fork_sample(&sample);
                    }
                }
            }
        }

        if let (Some(store), Some(key)) = (store, self.config.model_key.as_deref()) {
            if let Some(state) = optimizer.export_state() {
                store.save(key, &state);
            }
        }

        let default_seconds_per_input = arrived
            .iter()
            .map(|c| c.map(|cy| cy as f64 / CYCLES_PER_SECOND as f64))
            .collect();
        Ok(CampaignOutcome {
            scenario: self.config.scenario,
            records,
            raw_features: optimizer.raw_feature_count(),
            used_features: optimizer.used_feature_indices().len(),
            default_seconds_per_input,
            state_recovered,
        })
    }

    /// The XICL feature row attached to a run's fork points: the input's
    /// static features merged with the run's published runtime features —
    /// the same vector the evolvable optimizer predicts from, so fork
    /// samples slot into the training schema unchanged.
    fn fork_features(
        &self,
        input: &crate::app::AppInput,
        published: &[(String, evovm_bytecode::scalar::Scalar)],
    ) -> Result<Vec<(String, Raw)>, EvolveError> {
        let (mut vector, _stats) = self.bench.translator.translate(&input.args, &input.vfs)?;
        for (name, value) in published {
            vector.update(
                &format!("runtime.{name}"),
                FeatureValue::Num(value.as_f64()),
            );
        }
        Ok(vector
            .iter()
            .map(|(name, value)| {
                (
                    name.to_owned(),
                    match value {
                        FeatureValue::Num(v) => Raw::Num(*v),
                        FeatureValue::Cat(s) => Raw::Cat(s.clone()),
                    },
                )
            })
            .collect())
    }
}
