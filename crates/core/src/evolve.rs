//! The evolvable virtual machine: incremental cross-input learning with
//! discriminative prediction (the paper's Figure 7 algorithm).
//!
//! Per production run of an application:
//!
//! 1. the XICL translator turns the run's input into a feature vector `v`;
//! 2. if the confidence `conf` exceeds `TH_c`, the per-method
//!    classification trees predict the optimization strategy `ô(v)` and
//!    the run executes proactively under a [`PredictedPolicy`]; otherwise
//!    it executes under the default reactive cost-benefit optimizer;
//! 3. after the run, the posterior ideal strategy `o` is computed from the
//!    sampling profile, the prediction accuracy `acc` (sample-weighted)
//!    updates `conf ← (1−γ)·conf + γ·acc`, and `(v, o)` is appended to the
//!    history from which the trees are rebuilt (the offline model-
//!    construction stage — uncharged, exactly as in the paper).
//!
//! Programs that publish runtime features (`updateV`/`done`) pause at
//! `done`; prediction then happens at the pause with the merged vector
//! and is applied to already-compiled methods too.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use evovm_learn::dataset::{Dataset, Encoded, Raw};
use evovm_learn::tree::ClassificationTree;
use evovm_learn::ConfidenceTracker;
use evovm_opt::OptLevel;
use evovm_vm::{CostBenefitPolicy, Outcome, RunResult, Vm, VmConfig};
use evovm_xicl::{FeatureValue, FeatureVector, Translator};

use crate::app::AppInput;
use crate::config::EvolveConfig;
use crate::error::EvolveError;
use crate::strategy::{ideal_levels, prediction_accuracy, LevelStrategy, PredictedPolicy};

/// The cross-run persistent state of an evolvable VM: everything needed
/// to resume learning in a later VM invocation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EvolveState {
    /// One entry per observed run: the input's features and the run's
    /// ideal per-method levels (as Jikes numeric levels).
    pub history: Vec<HistoryEntry>,
    /// The decayed confidence.
    pub confidence: Option<ConfidenceTracker>,
}

/// One observed run in the history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Feature names and values.
    pub features: Vec<(String, SerialFeature)>,
    /// Ideal level per method (Jikes numbering: −1, 0, 1, 2).
    pub ideal: Vec<i8>,
}

/// A serializable feature value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SerialFeature {
    /// Numeric.
    Num(f64),
    /// Categorical.
    Cat(String),
}

/// Everything observable about one evolvable run.
#[derive(Debug, Clone)]
pub struct EvolveRunRecord {
    /// The VM's run result (its `total_cycles` already includes the
    /// charged evolvable overhead).
    pub result: RunResult,
    /// Cycles charged for XICL feature extraction.
    pub extraction_cycles: u64,
    /// Cycles charged for strategy prediction.
    pub prediction_cycles: u64,
    /// Whether a predicted strategy drove this run.
    pub predicted: bool,
    /// How many (re)predictions were applied — more than one for
    /// interactive applications that publish features at several
    /// interactive points (paper §III-B.4).
    pub predictions_made: u32,
    /// Confidence before the run.
    pub confidence_before: f64,
    /// Confidence after folding in this run's accuracy.
    pub confidence_after: f64,
    /// This run's sample-weighted prediction accuracy.
    pub accuracy: f64,
}

impl EvolveRunRecord {
    /// Total overhead cycles (extraction + prediction).
    pub fn overhead_cycles(&self) -> u64 {
        self.extraction_cycles + self.prediction_cycles
    }

    /// Overhead as a fraction of the run's total time.
    pub fn overhead_fraction(&self) -> f64 {
        if self.result.total_cycles == 0 {
            return 0.0;
        }
        self.overhead_cycles() as f64 / self.result.total_cycles as f64
    }
}

/// The per-method trees over a shared encoding of the history.
#[derive(Debug, Default)]
struct Models {
    /// Encoded training rows, one view per distinct set of runs the
    /// methods train on: a single view unless the history's runs observed
    /// different method counts. Each view carries the labels of the first
    /// method that trains on it.
    views: Vec<Dataset>,
    /// One model per method, in method order.
    methods: Vec<MethodModel>,
}

/// Per-method model: its view, its labels over the view's rows, and the
/// fitted tree.
#[derive(Debug)]
struct MethodModel {
    view: usize,
    labels: Vec<u16>,
    tree: ClassificationTree,
}

/// Transient state of one in-flight evolvable run, between
/// [`EvolvableVm::begin_run`] and [`EvolvableVm::finish_run`]. Produced
/// and consumed by the campaign layer's Evolve optimizer backend; the
/// all-in-one [`EvolvableVm::run_once`] drives the same three phases.
#[derive(Debug)]
pub(crate) struct PendingRun {
    vector: FeatureVector,
    applied: Option<LevelStrategy>,
    extraction_cycles: u64,
    prediction_cycles: u64,
    confidence_before: f64,
    confident: bool,
    n_methods: usize,
    predictions_made: u32,
}

impl PendingRun {
    /// Overhead cycles to charge at launch (extraction plus the initial
    /// prediction, if one was made).
    pub(crate) fn launch_overhead_cycles(&self) -> u64 {
        self.extraction_cycles + self.prediction_cycles
    }
}

/// One observed run in the training history: the normalized feature row
/// and the posterior ideal per-method levels.
type HistoryRow = (Vec<(String, Raw)>, Vec<OptLevel>);

/// The evolvable virtual machine for one application.
#[derive(Debug)]
pub struct EvolvableVm {
    translator: Translator,
    config: EvolveConfig,
    confidence: ConfidenceTracker,
    history: Vec<HistoryRow>,
    models: Models,
}

impl EvolvableVm {
    /// Create a fresh evolvable VM (no history).
    pub fn new(translator: Translator, config: EvolveConfig) -> EvolvableVm {
        EvolvableVm {
            translator,
            confidence: ConfidenceTracker::new(config.gamma, config.confidence_threshold),
            config,
            history: Vec::new(),
            models: Models::default(),
        }
    }

    /// Current confidence value.
    pub fn confidence(&self) -> f64 {
        self.confidence.value()
    }

    /// Number of runs learned from.
    pub fn runs_observed(&self) -> usize {
        self.history.len()
    }

    /// The XICL translator in use.
    pub fn translator(&self) -> &Translator {
        &self.translator
    }

    /// Indices of features any per-method tree actually splits on — the
    /// paper's "used features" (Table I).
    pub fn used_feature_indices(&self) -> Vec<usize> {
        let mut used: Vec<usize> = self
            .models
            .methods
            .iter()
            .flat_map(|m| m.tree.used_features())
            .collect();
        used.sort_unstable();
        used.dedup();
        used
    }

    /// Total features in the training schema.
    pub fn raw_feature_count(&self) -> usize {
        self.history.first().map_or(0, |(f, _)| f.len())
    }

    /// Execute one production run on `input`, learning from it afterwards.
    ///
    /// # Errors
    ///
    /// Propagates XICL, VM and dataset errors.
    pub fn run_once(&mut self, input: &AppInput) -> Result<EvolveRunRecord, EvolveError> {
        let (mut pending, launch_policy) = self.begin_run(input)?;
        let mut vm = Vm::new(
            Arc::clone(&input.program),
            launch_policy,
            VmConfig {
                sample_interval_cycles: self.config.sample_interval_cycles,
                ..VmConfig::default()
            },
        )?;
        vm.charge_overhead(pending.launch_overhead_cycles())?;

        let result = loop {
            match vm.run()? {
                Outcome::Finished(result) => break result,
                Outcome::FeaturesReady => self.on_features_ready(&mut pending, &mut vm)?,
            }
        };
        self.finish_run(pending, input, *result)
    }

    /// Phase 1 of a run: translate the input, charge (capped) extraction
    /// overhead and, when confident, make the launch prediction. Returns
    /// the in-flight state plus the policy to launch the VM with; the
    /// caller must charge [`PendingRun::launch_overhead_cycles`] on the
    /// VM it builds.
    pub(crate) fn begin_run(
        &mut self,
        input: &AppInput,
    ) -> Result<(PendingRun, Box<dyn evovm_vm::AosPolicy>), EvolveError> {
        let (vector, stats) = self.translator.translate(&input.args, &input.vfs)?;

        // Extraction overhead, with the optional throttling cap (§V-B.2).
        let raw_extraction =
            stats.work_units * self.config.cycles_per_work_unit + stats.tokens_scanned;
        let (extraction_cycles, throttled) = match self.config.extraction_cycle_cap {
            Some(cap) if raw_extraction > cap => (cap, true),
            _ => (raw_extraction, false),
        };

        let confidence_before = self.confidence.value();
        let confident = self.confidence.is_confident() && !throttled;
        let mut prediction_cycles = 0u64;
        let mut applied: Option<LevelStrategy> = None;

        let n_methods = input.program.functions().len();
        let mut launch_policy: Box<dyn evovm_vm::AosPolicy> = Box::new(CostBenefitPolicy::new());
        if confident {
            if let Some(strategy) = self.predict(&vector, n_methods) {
                prediction_cycles += self.prediction_cost(&strategy);
                launch_policy = Box::new(PredictedPolicy::new(strategy.clone()));
                applied = Some(strategy);
            }
        }

        let predictions_made = u32::from(applied.is_some());
        Ok((
            PendingRun {
                vector,
                applied,
                extraction_cycles,
                prediction_cycles,
                confidence_before,
                confident,
                n_methods,
                predictions_made,
            },
            launch_policy,
        ))
    }

    /// Phase 2, at each interactive pause (paper §III-B.4): new features
    /// may have arrived via updateV; re-predict when they change the
    /// answer. Levels only move upward (`apply_strategy` never downgrades
    /// installed code).
    ///
    /// # Errors
    ///
    /// Propagates VM errors from charging overhead or recompiling to the
    /// predicted strategy (e.g. a pipeline miscompilation).
    pub(crate) fn on_features_ready(
        &self,
        pending: &mut PendingRun,
        vm: &mut Vm,
    ) -> Result<(), EvolveError> {
        merge_published(&mut pending.vector, vm.published());
        if !pending.confident {
            return Ok(());
        }
        let Some(strategy) = self.predict(&pending.vector, pending.n_methods) else {
            return Ok(());
        };
        if pending.applied.as_ref() == Some(&strategy) {
            return Ok(());
        }
        let cost = self.prediction_cost(&strategy);
        pending.prediction_cycles += cost;
        vm.charge_overhead(cost)?;
        vm.apply_strategy(&strategy.levels)?;
        vm.replace_policy(Box::new(PredictedPolicy::new(strategy.clone())));
        pending.applied = Some(strategy);
        pending.predictions_made += 1;
        Ok(())
    }

    /// Phase 3, posterior learning (paper Fig. 7): ideal strategy,
    /// accuracy, confidence, model update.
    pub(crate) fn finish_run(
        &mut self,
        mut pending: PendingRun,
        input: &AppInput,
        result: RunResult,
    ) -> Result<EvolveRunRecord, EvolveError> {
        merge_published(&mut pending.vector, &result.published);
        let ideal = ideal_levels(
            &input.program,
            &result.profile,
            self.config.sample_interval_cycles,
        );
        let assessed = match &pending.applied {
            Some(s) => s.clone(),
            None => self
                .predict(&pending.vector, pending.n_methods)
                .unwrap_or_else(|| LevelStrategy::empty(pending.n_methods)),
        };
        let accuracy = prediction_accuracy(&assessed, &ideal, &result.profile);
        self.confidence.update(accuracy);
        let row = self.normalize_to_schema(to_raw(&pending.vector));
        self.history.push((row, ideal));
        self.rebuild_models()?;

        Ok(EvolveRunRecord {
            result,
            extraction_cycles: pending.extraction_cycles,
            prediction_cycles: pending.prediction_cycles,
            predicted: pending.applied.is_some(),
            predictions_made: pending.predictions_made,
            confidence_before: pending.confidence_before,
            confidence_after: self.confidence.value(),
            accuracy,
        })
    }

    /// Predict the per-method strategy for a feature vector, or `None`
    /// when no models exist yet.
    ///
    /// Encoding is by feature *name* and tolerates missing features
    /// (runtime features that have not been published yet encode as
    /// missing and route down the trees' else-branches), so interactive
    /// applications get a provisional prediction at launch and refined
    /// ones at each `done()` pause.
    pub fn predict(&self, vector: &FeatureVector, n_methods: usize) -> Option<LevelStrategy> {
        if self.models.methods.is_empty() {
            return None;
        }
        let raw = to_raw(vector);
        let encoded: Vec<Vec<Encoded>> = self
            .models
            .views
            .iter()
            .map(|view| view.encode_by_name(&raw))
            .collect();
        let mut strategy = LevelStrategy::empty(n_methods);
        let mut any = false;
        for (i, m) in self.models.methods.iter().enumerate().take(n_methods) {
            let label = m.tree.predict(&encoded[m.view]);
            strategy.levels[i] = OptLevel::from_i8(label as i8 - 1);
            any = true;
        }
        any.then_some(strategy)
    }

    /// The fitted classification tree of method `method`, if the history
    /// has observed it.
    pub fn method_tree(&self, method: usize) -> Option<&ClassificationTree> {
        self.models.methods.get(method).map(|m| &m.tree)
    }

    /// Mean leave-k-out cross-validated accuracy of the per-method models
    /// (the paper's model-quality diagnostic).
    pub fn cross_validated_accuracy(&self, folds: usize) -> f64 {
        let models = &self.models.methods;
        if models.is_empty() {
            return 0.0;
        }
        let sum: f64 = models
            .iter()
            .map(|m| {
                let data = self.models.views[m.view].relabeled(&m.labels);
                evovm_learn::cv::k_fold_accuracy(&data, folds, &self.config.tree_params)
            })
            .sum();
        sum / models.len() as f64
    }

    /// Serialize the cross-run state (history + confidence) to compact,
    /// single-line JSON. [`EvolvableVm::import_state`] reads any JSON
    /// layout of the same schema, pretty-printed blobs included.
    pub fn export_state(&self) -> String {
        let state = EvolveState {
            history: self
                .history
                .iter()
                .map(|(features, ideal)| HistoryEntry {
                    features: features
                        .iter()
                        .map(|(n, r)| {
                            (
                                n.clone(),
                                match r {
                                    Raw::Num(v) => SerialFeature::Num(*v),
                                    Raw::Cat(s) => SerialFeature::Cat(s.clone()),
                                },
                            )
                        })
                        .collect(),
                    ideal: ideal.iter().map(|l| l.as_i8()).collect(),
                })
                .collect(),
            confidence: Some(self.confidence),
        };
        serde_json::to_string(&state).expect("state serializes")
    }

    /// Restore cross-run state exported by [`EvolvableVm::export_state`].
    /// Malformed JSON restores an empty state (the VM simply starts
    /// learning from scratch — the safe behaviour for a corrupt
    /// repository).
    ///
    /// # Errors
    ///
    /// Returns a dataset error if the restored history is internally
    /// inconsistent (rows with differing schemas).
    pub fn import_state(&mut self, json: &str) -> Result<(), EvolveError> {
        self.restore(serde_json::from_str(json).unwrap_or_default())
    }

    /// [`EvolvableVm::import_state`] without its leniency: a payload that
    /// is not JSON in the [`EvolveState`] shape is an error, so the
    /// campaign layer can count it as a recovery.
    pub(crate) fn import_state_strict(&mut self, json: &str) -> Result<(), EvolveError> {
        let state =
            serde_json::from_str(json).map_err(|e| EvolveError::MalformedState(e.to_string()))?;
        self.restore(state)
    }

    /// Whether [`EvolvableVm::import_state`] of this VM's export rebuilds
    /// exactly this VM. The JSON form writes non-finite numbers as `null`
    /// and reads them back as NaN, so an infinite history value never
    /// round-trips, and neither does a confidence tracker holding a
    /// non-finite field (imported from a hostile blob, say).
    pub(crate) fn reimports_exactly(&self) -> bool {
        let confidence_round_trips = serde_json::to_string(&self.confidence)
            .ok()
            .and_then(|json| serde_json::from_str::<ConfidenceTracker>(&json).ok())
            == Some(self.confidence);
        confidence_round_trips
            && self.history.iter().all(|(features, _)| {
                features
                    .iter()
                    .all(|(_, value)| !matches!(value, Raw::Num(v) if v.is_infinite()))
            })
    }

    fn restore(&mut self, state: EvolveState) -> Result<(), EvolveError> {
        self.history = state
            .history
            .into_iter()
            .map(|e| {
                let features = e
                    .features
                    .into_iter()
                    .map(|(n, f)| {
                        (
                            n,
                            match f {
                                SerialFeature::Num(v) => Raw::Num(v),
                                SerialFeature::Cat(s) => Raw::Cat(s),
                            },
                        )
                    })
                    .collect();
                let ideal = e
                    .ideal
                    .into_iter()
                    .map(|l| OptLevel::from_i8(l).unwrap_or(OptLevel::Baseline))
                    .collect();
                (features, ideal)
            })
            .collect();
        if let Some(conf) = state.confidence {
            self.confidence = conf;
        }
        self.rebuild_models()
    }

    /// Align a new observation with the training schema fixed by the
    /// first run: features the program did not produce this time (e.g. a
    /// conditional `publish` that never executed) become missing values;
    /// features the schema has never seen are dropped. This keeps the
    /// per-method datasets well-formed for programs whose runtime feature
    /// set varies between runs.
    fn normalize_to_schema(&self, raw: Vec<(String, Raw)>) -> Vec<(String, Raw)> {
        let Some((schema, _)) = self.history.first() else {
            return raw;
        };
        schema
            .iter()
            .map(|(name, template)| {
                raw.iter()
                    .find(|(n, _)| n == name)
                    .cloned()
                    .unwrap_or_else(|| {
                        let missing = match template {
                            Raw::Num(_) => Raw::Num(f64::NAN),
                            Raw::Cat(_) => Raw::Cat(String::new()),
                        };
                        (name.clone(), missing)
                    })
            })
            .collect()
    }

    fn prediction_cost(&self, strategy: &LevelStrategy) -> u64 {
        let path =
            (self.config.tree_params.max_depth as u64 + 1) * self.config.cycles_per_tree_node;
        strategy.levels.len() as u64 * path
    }

    /// Refit every method's tree. Method `m` trains on the runs whose
    /// ideal strategy covers it; methods training on the same runs (all of
    /// them, unless runs observed different method counts) share one
    /// encoded view, so the history is encoded once, not once per method.
    fn rebuild_models(&mut self) -> Result<(), EvolveError> {
        // Labels are levels shifted to 0..=3.
        let label = |run: usize, m: usize| (self.history[run].1[m].as_i8() + 1) as u16;
        let n_methods = self.history.iter().map(|(_, o)| o.len()).max().unwrap_or(0);
        let mut models = Models::default();
        let mut view_runs: Vec<usize> = Vec::new();
        for m in 0..n_methods {
            let runs = (0..self.history.len()).filter(|&run| self.history[run].1.len() > m);
            if models.views.is_empty() || !runs.clone().eq(view_runs.iter().copied()) {
                view_runs = runs.collect();
                let mut view = Dataset::new();
                for &run in &view_runs {
                    view.push(&self.history[run].0, label(run, m))?;
                }
                models.views.push(view);
            }
            let labels: Vec<u16> = view_runs.iter().map(|&run| label(run, m)).collect();
            let view = models.views.len() - 1;
            let tree = ClassificationTree::fit_labels(
                &models.views[view],
                &labels,
                &self.config.tree_params,
            );
            models.methods.push(MethodModel { view, labels, tree });
        }
        self.models = models;
        Ok(())
    }
}

fn to_raw(fv: &FeatureVector) -> Vec<(String, Raw)> {
    fv.iter()
        .map(|(name, value)| {
            (
                name.to_owned(),
                match value {
                    FeatureValue::Num(v) => Raw::Num(*v),
                    FeatureValue::Cat(s) => Raw::Cat(s.clone()),
                },
            )
        })
        .collect()
}

fn merge_published(
    vector: &mut FeatureVector,
    published: &[(String, evovm_bytecode::scalar::Scalar)],
) {
    for (name, value) in published {
        vector.update(
            &format!("runtime.{name}"),
            FeatureValue::Num(value.as_f64()),
        );
    }
}
