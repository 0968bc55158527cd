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
use std::sync::{Arc, Weak};

use evovm_vm::{InterpMode, Outcome, Vm, VmConfig, CYCLES_PER_SECOND};

use crate::app::Bench;
use crate::config::EvolveConfig;
use crate::error::EvolveError;
use crate::evolve;
use crate::fork::{ForkExecutor, ForkPoint, ForkSample};
use crate::optimizer::{self, CrossRunOptimizer, RunPlan};
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
    /// store's [`StoreMetrics`](crate::metrics::StoreMetrics)). A blob
    /// that is not JSON, JSON in another backend's shape, and a history
    /// that parses but cannot be refit all count. A warm relaunch on the
    /// [`CampaignService`](crate::CampaignService) reads the same stored
    /// blob, so it recovers exactly when an import would.
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
    /// Every run executes on the oracle's code table for its input, and
    /// its fork points carry that table to their replays.
    ///
    /// The campaign outcome is a pure function of (bench, config): the
    /// oracle only memoizes deterministic baseline cycles and compiled
    /// code whose compile cycles every run still charges, so sharing it
    /// — even across concurrently running campaigns, as the
    /// [`CampaignService`](crate::CampaignService) does — cannot change
    /// any record. The service runs keyed campaigns through the same
    /// loop, but may hand a campaign the optimizer the previous campaign
    /// on its key exported, in place of importing that export from the
    /// store; that changes no record, outcome or saved blob either (see
    /// the service's "Warm keyed relaunches" contract).
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
        let (optimizer, restored) = self.restore(store, None);
        self.drive(optimizer, restored, oracle, store, sink)
            .map(|(outcome, _)| outcome)
    }

    /// The keyed hand-off behind the
    /// [`CampaignService`](crate::CampaignService): run a campaign whose
    /// config names a `model_key` against `store`, offering it `warm`,
    /// the optimizer the previous campaign on the key left behind.
    ///
    /// The store stays the source of truth: the campaign still loads the
    /// key's blob, and adopts `warm` only when [`WarmModel::fits`] —
    /// same bench allocation, scenario and [`EvolveConfig`], and a
    /// remembered export equal to the loaded blob byte for byte. The
    /// adopted optimizer is then exactly what importing the blob would
    /// rebuild, so records, outcome and saved state are those of
    /// [`Campaign::run_with_sink`]; otherwise the campaign imports as
    /// that method does. A campaign that fails keeps nothing.
    pub(crate) fn run_keyed(
        bench: &Arc<Bench>,
        config: CampaignConfig,
        oracle: &DefaultOracle,
        store: &dyn ModelStore,
        warm: Option<WarmModel>,
        sink: &mut dyn RunSink,
    ) -> KeyedRun {
        let campaign = match Campaign::new(bench, config) {
            Ok(campaign) => campaign,
            Err(e) => {
                return KeyedRun {
                    result: Err(e),
                    reused: false,
                    warm: None,
                }
            }
        };
        let (optimizer, restored) = campaign.restore(Some(store), warm);
        let reused = restored == Restored::Reused;
        match campaign.drive(optimizer, restored, oracle, Some(store), sink) {
            Ok((outcome, saved)) => KeyedRun {
                result: Ok(outcome),
                reused,
                warm: saved.map(|(blob, optimizer)| WarmModel {
                    bench: Arc::downgrade(bench),
                    scenario: campaign.config.scenario,
                    evolve: campaign.config.evolve,
                    blob,
                    optimizer,
                }),
            },
            Err(e) => KeyedRun {
                result: Err(e),
                reused,
                warm: None,
            },
        }
    }

    /// Build the campaign's optimizer: `warm` when it fits the key's
    /// stored blob, else a fresh backend that imports the blob (when the
    /// config names a `model_key` and `store` holds one).
    fn restore(
        &self,
        store: Option<&dyn ModelStore>,
        warm: Option<WarmModel>,
    ) -> (Box<dyn CrossRunOptimizer>, Restored) {
        let fresh =
            || optimizer::for_scenario(self.config.scenario, self.bench, &self.config.evolve);
        let (Some(store), Some(key)) = (store, self.config.model_key.as_deref()) else {
            return (fresh(), Restored::New);
        };
        let Some(state) = store.load(key) else {
            return (fresh(), Restored::New);
        };
        if let Some(warm) = warm.filter(|warm| warm.fits(self.bench, &self.config, &state)) {
            return (warm.optimizer, Restored::Reused);
        }
        let mut optimizer = fresh();
        if optimizer.import_state(&state).is_err() {
            // Persistence is best-effort by contract (see `store`): a
            // stored blob that is malformed or cannot be imported (e.g.
            // internally inconsistent history) degrades to fresh-start
            // learning rather than failing the campaign. A failed import
            // leaves the backend unchanged, so it is still fresh.
            store.metrics().record_recovery();
            return (optimizer, Restored::Recovered);
        }
        (optimizer, Restored::New)
    }

    /// Run the scenario-agnostic loop on `optimizer` and persist its
    /// state back. Returns the outcome and, when the campaign saved
    /// state, the saved blob with the optimizer that exported it.
    fn drive(
        &self,
        mut optimizer: Box<dyn CrossRunOptimizer>,
        restored: Restored,
        oracle: &DefaultOracle,
        store: Option<&dyn ModelStore>,
        sink: &mut dyn RunSink,
    ) -> Result<(CampaignOutcome, Option<Saved>), EvolveError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let inputs = &self.bench.inputs;
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
                    let mut vm = Vm::with_table(
                        oracle.code_table(input_index, input)?,
                        policy,
                        VmConfig {
                            sample_interval_cycles: self.config.evolve.sample_interval_cycles,
                            interp: self.config.interp,
                            fork_snapshots: self.config.fork_snapshots,
                            ..VmConfig::default()
                        },
                    );
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
                        // The row the learner would build for this run,
                        // so fork samples slot into its training schema.
                        let (mut vector, _stats) =
                            self.bench.translator.translate(&input.args, &input.vfs)?;
                        evolve::merge_published(&mut vector, &result.published);
                        let features = evolve::to_raw(&vector);
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

        let saved = match (store, self.config.model_key.as_deref()) {
            (Some(store), Some(key)) => optimizer.export_state().inspect(|state| {
                store.save(key, state);
            }),
            _ => None,
        };

        let default_seconds_per_input = arrived
            .iter()
            .map(|c| c.map(|cy| cy as f64 / CYCLES_PER_SECOND as f64))
            .collect();
        let outcome = CampaignOutcome {
            scenario: self.config.scenario,
            records,
            raw_features: optimizer.raw_feature_count(),
            used_features: optimizer.used_feature_indices().len(),
            default_seconds_per_input,
            state_recovered: restored == Restored::Recovered,
        };
        Ok((outcome, saved.map(|state| (state, optimizer))))
    }
}

/// A saved state blob and the optimizer that exported it.
type Saved = (String, Box<dyn CrossRunOptimizer>);

/// How [`Campaign::restore`] built a campaign's optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Restored {
    /// A new backend, holding the stored blob's state if there was one.
    New,
    /// A new, empty backend after the stored blob failed to import.
    Recovered,
    /// The warm optimizer the previous campaign on the key left behind.
    Reused,
}

/// A keyed campaign's optimizer after its final export, kept with the
/// blob it exported and saved so the next campaign on the key can adopt
/// it instead of importing that blob (see [`Campaign::run_keyed`]).
#[derive(Debug)]
pub(crate) struct WarmModel {
    /// The bench the optimizer was built over. Compared by allocation
    /// only; the weak reference keeps the allocation from being reused
    /// by another bench while the model is kept.
    bench: Weak<Bench>,
    scenario: Scenario,
    evolve: EvolveConfig,
    /// What the optimizer exported and the campaign saved.
    blob: String,
    optimizer: Box<dyn CrossRunOptimizer>,
}

impl WarmModel {
    /// Whether adopting this optimizer in a campaign of `config` over
    /// `bench` is exactly importing `stored` into a fresh backend. Every
    /// check is conservative: a bench of equal content in another
    /// allocation, for one, misses.
    fn fits(&self, bench: &Bench, config: &CampaignConfig, stored: &str) -> bool {
        std::ptr::eq(self.bench.as_ptr(), bench)
            && self.scenario == config.scenario
            && self.evolve == config.evolve
            && self.blob == stored
    }
}

/// What [`Campaign::run_keyed`] hands back to the service.
#[derive(Debug)]
pub(crate) struct KeyedRun {
    /// The campaign's result, as [`Campaign::run_with_sink`] returns it.
    pub(crate) result: Result<CampaignOutcome, EvolveError>,
    /// Whether the campaign adopted the warm optimizer instead of
    /// importing.
    pub(crate) reused: bool,
    /// The optimizer to offer the next campaign on the key: present when
    /// the campaign succeeded and saved a blob.
    pub(crate) warm: Option<WarmModel>,
}
