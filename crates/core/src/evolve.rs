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
//!    history the trees learn from (the offline model-construction stage —
//!    uncharged, exactly as in the paper). The trees are refitted in place
//!    along the new row's path, to exactly the trees a fit of the whole
//!    history builds.
//!
//! Programs that publish runtime features (`updateV`/`done`) pause at
//! `done`; prediction then happens at the pause with the merged vector
//! and is applied to already-compiled methods too.

use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use evovm_learn::dataset::{Dataset, Encoded, Raw};
use evovm_learn::tree::{ClassificationTree, FitScratch, TreeParams};
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
    /// Feature names and values; never infinite, and NaN is `null`.
    pub features: Vec<(String, Raw)>,
    /// Ideal level per method (Jikes numbering: −1, 0, 1, 2).
    pub ideal: Vec<i8>,
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

/// The per-method trees over a shared encoding of the history, kept live
/// across runs: each run appends its row to the views and refits the
/// trees in place.
#[derive(Debug, Default)]
struct Models {
    /// Encoded training rows, one view per distinct set of runs the
    /// methods train on: a single view unless the history's runs observed
    /// different method counts. Each view carries the labels of the first
    /// method that trains on it.
    views: Vec<Dataset>,
    /// One model per method, in method order.
    methods: Vec<MethodModel>,
    /// The fit buffers every method's refit shares, kept between runs.
    scratch: FitScratch,
}

impl Models {
    /// Fit every method's tree over `history` from scratch, all or
    /// nothing. Method `m` trains on the runs whose ideal strategy covers
    /// it; methods training on the same runs (all of them, unless runs
    /// observed different method counts) share one encoded view, so the
    /// history is encoded once, not once per method.
    fn fit(&mut self, history: &[HistoryRow], params: &TreeParams) -> Result<(), EvolveError> {
        let label = |run: usize, m: usize| level_label(history[run].1[m]);
        let n_methods = history.iter().map(|(_, o)| o.len()).max().unwrap_or(0);
        let (mut views, mut methods) = (Vec::new(), Vec::new());
        let mut view_runs: Vec<usize> = Vec::new();
        for m in 0..n_methods {
            let runs = (0..history.len()).filter(|&run| history[run].1.len() > m);
            if views.is_empty() || !runs.clone().eq(view_runs.iter().copied()) {
                view_runs = runs.collect();
                let mut view = Dataset::new();
                for &run in &view_runs {
                    view.push(&history[run].0, label(run, m))?;
                }
                views.push(view);
            }
            let labels: Vec<u16> = view_runs.iter().map(|&run| label(run, m)).collect();
            let view = views.len() - 1;
            let tree = ClassificationTree::fit_labels(&views[view], &labels, params);
            methods.push(MethodModel { view, labels, tree });
        }
        self.views = views;
        self.methods = methods;
        Ok(())
    }

    /// Learn `history`'s last row, which the models do not hold yet, all
    /// or nothing: on error the models are unchanged.
    ///
    /// A row with one ideal level per known method joins every method's
    /// runs, so it extends every view and every label vector, and each
    /// tree is refitted along the row's path. Any other row changes which
    /// runs the methods train on, and the models are fitted again.
    fn learn_last(
        &mut self,
        history: &[HistoryRow],
        params: &TreeParams,
    ) -> Result<(), EvolveError> {
        let (row, ideal) = history.last().expect("a row to learn");
        if self.methods.is_empty() || ideal.len() != self.methods.len() {
            return self.fit(history, params);
        }
        for view in &self.views {
            view.check(row)?;
        }
        // Views are numbered in method order, so the first method on each
        // view is the one whose view is the next not yet extended.
        let mut extended = 0;
        for (method, &level) in self.methods.iter_mut().zip(ideal) {
            let label = level_label(level);
            if method.view == extended {
                self.views[extended]
                    .push(row, label)
                    .expect("every view accepts the checked row");
                extended += 1;
            }
            method.labels.push(label);
            method.tree.refit_appended(
                &self.views[method.view],
                &method.labels,
                params,
                &mut self.scratch,
            );
        }
        Ok(())
    }
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

/// The compact JSON of the history rows already exported, so the next
/// export serializes only the rows appended since.
#[derive(Debug, Default)]
struct ExportCache {
    /// How many history rows `rows_json` holds.
    rows: usize,
    /// Those rows' JSON objects, comma-separated: the text between the
    /// blob's `{"history":[` and its closing `]`.
    rows_json: String,
}

/// The evolvable virtual machine for one application.
#[derive(Debug)]
pub struct EvolvableVm {
    translator: Translator,
    config: EvolveConfig,
    confidence: ConfidenceTracker,
    history: Vec<HistoryRow>,
    models: Models,
    /// Filled at export time only, and emptied by every import: an
    /// imported blob may use another JSON layout than the one exported.
    exported: Mutex<ExportCache>,
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
            exported: Mutex::new(ExportCache::default()),
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
    /// accuracy, confidence, model update. All or nothing: when the run's
    /// feature row does not fit the training schema, the error leaves the
    /// history, confidence and models as they were.
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
        let row = self.normalize_to_schema(to_raw(&pending.vector));
        // All or nothing: the confidence and the history change only once
        // the models have learned the row.
        self.history.push((row, ideal));
        if let Err(e) = self
            .models
            .learn_last(&self.history, &self.config.tree_params)
        {
            self.history.pop();
            return Err(e);
        }
        self.confidence.update(accuracy);

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
    /// single-line JSON: byte for byte `serde_json::to_string` of the
    /// [`EvolveState`] holding this VM's history and confidence.
    /// [`EvolvableVm::import_state`] reads any JSON layout of the same
    /// schema, pretty-printed blobs included.
    ///
    /// History rows never change once learned, so the VM keeps the text
    /// of the rows it has exported and serializes only the rows appended
    /// since its last export, then splices in the confidence tracker.
    pub fn export_state(&self) -> String {
        const HEAD: &str = "{\"history\":[";
        const MID: &str = "],\"confidence\":";
        let mut cache = self.exported.lock();
        let ExportCache { rows, rows_json } = &mut *cache;
        if *rows < self.history.len() {
            let mut fresh = String::new();
            for (i, (features, ideal)) in self.history.iter().enumerate().skip(*rows) {
                if i > 0 {
                    fresh.push(',');
                }
                write_row(&mut fresh, features, ideal);
            }
            // Exact growth keeps the text's capacity at its length, so an
            // export that adds rows reallocates it once, however long it is.
            rows_json.reserve_exact(fresh.len());
            rows_json.push_str(&fresh);
            *rows = self.history.len();
        }
        let confidence = serde_json::to_string(&self.confidence).expect("tracker serializes");
        let mut blob =
            String::with_capacity(HEAD.len() + rows_json.len() + MID.len() + confidence.len() + 1);
        blob.push_str(HEAD);
        blob.push_str(rows_json);
        blob.push_str(MID);
        blob.push_str(&confidence);
        blob.push('}');
        blob
    }

    /// Restore the history, confidence value and update count exported by
    /// [`EvolvableVm::export_state`], all or nothing: on error the VM is
    /// unchanged. γ and the threshold come from this VM's
    /// [`EvolveConfig`]; a blob without a tracker restarts confidence at 0.
    /// A VM reads non-finite feature values as missing, so importing its
    /// own export rebuilds exactly that VM.
    ///
    /// # Errors
    ///
    /// [`EvolveError::MalformedState`] for what no VM writes: not JSON in
    /// the [`EvolveState`] shape, a tracker [`ConfidenceTracker::resumed`]
    /// rejects, an ideal level outside −1..=2, or an infinite feature
    /// value. A dataset error for rows with differing schemas.
    pub fn import_state(&mut self, json: &str) -> Result<(), EvolveError> {
        let state: EvolveState =
            serde_json::from_str(json).map_err(|e| EvolveError::MalformedState(e.to_string()))?;
        let confidence = match state.confidence {
            Some(stored) => stored
                .resumed(self.config.gamma, self.config.confidence_threshold)
                .ok_or_else(|| {
                    EvolveError::MalformedState(format!(
                        "confidence tracker out of range: {stored:?}"
                    ))
                })?,
            None => ConfidenceTracker::new(self.config.gamma, self.config.confidence_threshold),
        };
        let mut history = Vec::with_capacity(state.history.len());
        for e in state.history {
            if e.features
                .iter()
                .any(|(_, f)| matches!(f, Raw::Num(v) if v.is_infinite()))
            {
                return Err(EvolveError::MalformedState("infinite feature value".into()));
            }
            let ideal = e
                .ideal
                .into_iter()
                .map(|l| {
                    OptLevel::from_i8(l).ok_or_else(|| {
                        EvolveError::MalformedState(format!("unknown optimization level {l}"))
                    })
                })
                .collect::<Result<_, _>>()?;
            history.push((e.features, ideal));
        }
        self.models.fit(&history, &self.config.tree_params)?;
        self.history = history;
        self.confidence = confidence;
        *self.exported.get_mut() = ExportCache::default();
        Ok(())
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
}

/// A tree's label for an ideal level: the level shifted to 0..=3.
fn level_label(level: OptLevel) -> u16 {
    (level.as_i8() + 1) as u16
}

/// The learner's feature row for `vector`, for prediction, history and
/// fork points alike. A non-finite number reads as missing (NaN), as
/// JSON's `null` reads back in a relaunched VM.
pub(crate) fn to_raw(vector: &FeatureVector) -> Vec<(String, Raw)> {
    vector
        .iter()
        .map(|(name, value)| {
            (
                name.to_owned(),
                match value {
                    FeatureValue::Num(v) if v.is_finite() => Raw::Num(*v),
                    FeatureValue::Num(_) => Raw::Num(f64::NAN),
                    FeatureValue::Cat(s) => Raw::Cat(s.clone()),
                },
            )
        })
        .collect()
}

/// Append one history row as `serde_json` writes its [`HistoryEntry`]:
/// `{"features":[["name",{"Num":1.0}],...],"ideal":[-1,0,...]}`, with
/// non-finite numbers as `null`. Writes into `out` without allocating.
fn write_row(out: &mut String, features: &[(String, Raw)], ideal: &[OptLevel]) {
    out.push_str("{\"features\":[");
    for (i, (name, value)) in features.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        write_json_string(out, name);
        match value {
            Raw::Num(v) => {
                out.push_str(",{\"Num\":");
                write_json_number(out, *v);
                out.push_str("}]");
            }
            Raw::Cat(s) => {
                out.push_str(",{\"Cat\":");
                write_json_string(out, s);
                out.push_str("}]");
            }
        }
    }
    out.push_str("],\"ideal\":[");
    for (i, level) in ideal.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_integer(out, level.as_i8().into());
    }
    out.push_str("]}");
}

/// Append `v` as `serde_json` prints a float: `null` unless finite, else
/// the shortest round-trip form of `{:?}`, which keeps a `.0` on
/// integral values. Below 2^53 an integral value's shortest form is its
/// integer, so it is printed as one, which is far cheaper.
fn write_json_number(out: &mut String, v: f64) {
    const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;
    if v.fract() == 0.0 && v.abs() < EXACT_INTEGERS && v != 0.0 {
        write_integer(out, v as i64);
        out.push_str(".0");
    } else if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Append the decimal digits of `n`, as `{}` prints them, without going
/// through the formatting machinery.
fn write_integer(out: &mut String, n: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Append `s` as a JSON string literal, escaped as `serde_json` escapes.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Merge a run's published runtime features into its input's vector, as
/// `runtime.<name>`.
pub(crate) fn merge_published(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_print_as_display_prints_them() {
        for n in [0, 1, -1, 9, 10, -10, 1234567, i64::MAX, i64::MIN] {
            let mut out = String::new();
            write_integer(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn numbers_print_as_serde_json_prints_them() {
        let exact = 9_007_199_254_740_992.0_f64;
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -2.25,
            1e-7,
            123_456.0,
            1e15,
            -1e15,
            exact - 1.0,
            -(exact - 1.0),
            exact,
            exact + 2.0,
            1e16,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in values {
            let mut out = String::new();
            write_json_number(&mut out, v);
            assert_eq!(out, serde_json::to_string(&v).unwrap(), "{v:?}");
        }
    }
}
