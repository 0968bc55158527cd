//! The direct pass: the loop `Campaign::run_with_sink` runs, driven from
//! the benchmark on one thread through each layer's public functions, so
//! every call can sit in a span.
//!
//! Untraced, this pass pins the digests the service's output is checked
//! against. Traced, it yields the per-layer figures. Either way its
//! records must equal the service's bit for bit.
//!
//! Two layers run only inside others: XICL translation (inside the
//! Evolve optimizer's `prepare`) and the opt pipeline (inside `Vm::run`).
//! The traced pass times them by calling them again — `Translator::
//! translate` on the same input, `Optimizer::compile_checked` for each
//! recompilation the run reported — in detached spans after the campaign
//! ends, outside every campaign tree.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use evovm::optimizer::{self, RunPlan};
use evovm::{
    AppInput, Bench, CampaignConfig, DefaultOracle, EvolveError, ForkExecutor, ForkPoint,
    ModelStore, RunRecord, RunSink, Scenario,
};
use evovm_bytecode::scalar::Scalar;
use evovm_bytecode::FuncId;
use evovm_learn::Raw;
use evovm_opt::{OptLevel, Optimizer};
use evovm_vm::{Outcome, Vm, VmConfig};
use evovm_xicl::FeatureValue;

use crate::check::{CampaignWork, Expected, StreamCheck};
use crate::trace::Tracer;

/// Counts one pass accumulates. Every field is a count the program's
/// behaviour fixes, so two passes over the same campaigns must agree.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PassCounts {
    /// Campaigns run.
    pub campaigns: u64,
    /// Production runs (records).
    pub runs: u64,
    /// Runs the optimizer executed on a VM (`RunPlan::Execute`).
    pub executed_runs: u64,
    /// Instructions those runs retired.
    pub instructions: u64,
    /// Recompilations those runs reported.
    pub compiles: u64,
    /// Virtual cycles those runs charged for compilation.
    pub compile_cycles: u64,
    /// Default-run oracle misses inside campaigns (baseline executions).
    pub default_runs: u64,
    /// Fork snapshots captured.
    pub fork_snapshots: u64,
    /// Snapshots that carried a pending decision (fork points).
    pub fork_points: u64,
    /// `ForkExecutor::replay` calls.
    pub fork_replays: u64,
    /// Counterfactual samples produced.
    pub fork_samples: u64,
    /// Learned-state exports.
    pub exports: u64,
    /// Bytes of exported learned state.
    pub state_bytes: u64,
}

/// One bench's default-run oracle, with the slots this pass has filled
/// (so a call is known to be a baseline execution or a memo hit).
#[derive(Debug)]
pub struct OracleMemo {
    oracle: DefaultOracle,
    seen: Vec<bool>,
}

impl OracleMemo {
    /// A cold oracle for `bench` at the default sampling interval.
    pub fn new(bench: &Bench, sample_interval_cycles: u64) -> OracleMemo {
        OracleMemo {
            oracle: DefaultOracle::for_bench(bench, sample_interval_cycles),
            seen: vec![false; bench.inputs.len()],
        }
    }

    /// Fill the slots a campaign with `config` will read, outside any
    /// campaign tree (the warm workloads' set-up does this through the
    /// service).
    ///
    /// # Errors
    ///
    /// VM errors from a baseline run.
    pub fn warm(
        &mut self,
        bench: &Bench,
        config: &CampaignConfig,
        tracer: &mut Tracer,
    ) -> Result<(), EvolveError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        for _ in 0..config.runs {
            let index = rng.gen_range(0..bench.inputs.len());
            if !self.seen[index] {
                let span = tracer.open_detached("oracle.warm");
                self.oracle.default_cycles(index, &bench.inputs[index])?;
                tracer.close(span);
                self.seen[index] = true;
            }
        }
        Ok(())
    }
}

/// Work re-done after a campaign to time a layer that ran inside another.
#[derive(Debug, Clone, Copy)]
enum Recall {
    Translate {
        input: usize,
    },
    Compile {
        input: usize,
        method: FuncId,
        level: OptLevel,
    },
}

/// One direct pass over a list of campaigns.
#[derive(Debug)]
pub struct Pass {
    /// The pass's spans (empty when tracing is off).
    pub tracer: Tracer,
    /// The pass's counts.
    pub counts: PassCounts,
    recalls: Vec<Recall>,
    stream: StreamCheck,
    work: CampaignWork,
    fork_error: Option<EvolveError>,
}

impl Pass {
    /// A pass; `traced` turns spans and the re-timed recalls on.
    pub fn new(traced: bool) -> Pass {
        Pass {
            tracer: Tracer::new(traced),
            counts: PassCounts::default(),
            recalls: Vec::new(),
            stream: StreamCheck::default(),
            work: CampaignWork::default(),
            fork_error: None,
        }
    }

    /// Run one campaign the way `Campaign::run_with_sink` does, against
    /// `oracle` and, when the config names a key, `store`.
    ///
    /// # Errors
    ///
    /// Any error the campaign itself would report.
    pub fn campaign(
        &mut self,
        id: u32,
        bench: &Bench,
        config: &CampaignConfig,
        oracle: &mut OracleMemo,
        store: Option<&dyn ModelStore>,
    ) -> Result<Expected, EvolveError> {
        self.tracer.set_campaign(id);
        self.stream = StreamCheck::default();
        self.work = CampaignWork::default();
        let root = self.tracer.open("campaign");
        self.campaign_body(bench, config, oracle, store)?;
        self.tracer.close(root);
        self.counts.campaigns += 1;
        self.replay_recalls(bench)?;
        Ok(Expected {
            digest: std::mem::take(&mut self.stream).finish(),
            work: std::mem::take(&mut self.work),
        })
    }

    fn campaign_body(
        &mut self,
        bench: &Bench,
        config: &CampaignConfig,
        oracle: &mut OracleMemo,
        store: Option<&dyn ModelStore>,
    ) -> Result<(), EvolveError> {
        let tr = &mut self.tracer;
        let inputs = &bench.inputs;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let span = tr.open("optimizer.for_scenario");
        let mut optimizer = optimizer::for_scenario(config.scenario, bench, &config.evolve);
        tr.close(span);
        if let (Some(store), Some(key)) = (store, config.model_key.as_deref()) {
            let span = tr.open("store.load");
            let loaded = store.load(key);
            tr.close(span);
            if let Some(state) = loaded {
                let span = tr.open("learn.import");
                let imported = optimizer.import_state(&state);
                tr.close(span);
                if imported.is_err() {
                    optimizer = optimizer::for_scenario(config.scenario, bench, &config.evolve);
                    store.metrics().record_recovery();
                }
            }
        }

        let mut fork_counter: u64 = 0;
        for run_index in 0..config.runs {
            let tr = &mut self.tracer;
            let run = tr.open("campaign.run");
            let input_index = rng.gen_range(0..inputs.len());
            let input = &inputs[input_index];

            let miss = !oracle.seen[input_index];
            let span = tr.open(if miss { "oracle.run" } else { "oracle.hit" });
            let default_cycles = oracle.oracle.default_cycles(input_index, input)?;
            tr.close(span);
            let mut run_cycles = 0;
            if miss {
                oracle.seen[input_index] = true;
                self.counts.default_runs += 1;
                run_cycles += default_cycles;
            }

            let span = tr.open("optimizer.prepare");
            let plan = optimizer.prepare(input)?;
            tr.close(span);
            let mut fork_points: Vec<ForkPoint> = Vec::new();
            let record = match plan {
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
                    if config.scenario == Scenario::Evolve {
                        self.recalls.push(Recall::Translate { input: input_index });
                    }
                    let span = tr.open("vm.new");
                    let mut vm = Vm::new(
                        Arc::clone(&input.program),
                        policy,
                        VmConfig {
                            sample_interval_cycles: config.evolve.sample_interval_cycles,
                            interp: config.interp,
                            fork_snapshots: config.fork_snapshots,
                            ..VmConfig::default()
                        },
                    )?;
                    vm.charge_overhead(overhead_cycles)?;
                    tr.close(span);
                    let result = loop {
                        let span = tr.open("vm.run");
                        let outcome = vm.run()?;
                        tr.close(span);
                        match outcome {
                            Outcome::Finished(result) => break result,
                            Outcome::FeaturesReady => {
                                let span = tr.open("optimizer.features_ready");
                                optimizer.features_ready(&mut vm)?;
                                tr.close(span);
                            }
                        }
                    };
                    run_cycles += result.total_cycles;
                    let counts = &mut self.counts;
                    counts.executed_runs += 1;
                    counts.instructions += result.instructions;
                    counts.compile_cycles += result.compile_cycles;
                    counts.compiles += result.profile.recompilations.len() as u64;
                    if tr.enabled() {
                        self.recalls
                            .extend(result.profile.recompilations.iter().map(|event| {
                                Recall::Compile {
                                    input: input_index,
                                    method: event.method,
                                    level: event.to,
                                }
                            }));
                    }

                    let span = tr.open("fork.capture");
                    let captured = vm.take_fork_snapshots();
                    let cycles = result.total_cycles;
                    if !captured.is_empty() {
                        counts.fork_snapshots += captured.len() as u64;
                        let features = fork_features(tr, bench, input, &result.published)?;
                        for snapshot in captured {
                            let Some((method, decided_level)) = snapshot.pending_decision() else {
                                continue;
                            };
                            counts.fork_points += 1;
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
                    tr.close(span);

                    let span = tr.open("learn.observe");
                    let report = optimizer.observe(input, *result)?;
                    tr.close(span);
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
            self.counts.runs += 1;
            self.work.run_cycles.push(run_cycles);
            self.on_record(&record);
            for point in fork_points {
                // This sink consumes every point, as the service does.
                let returned = self.on_fork_point(point);
                debug_assert!(returned.is_none());
            }
            if let Some(error) = self.fork_error.take() {
                return Err(error);
            }
            self.tracer.close(run);
        }

        if let (Some(store), Some(key)) = (store, config.model_key.as_deref()) {
            let tr = &mut self.tracer;
            let span = tr.open("learn.export");
            let state = optimizer.export_state();
            tr.close(span);
            if let Some(state) = state {
                self.counts.exports += 1;
                self.counts.state_bytes += state.len() as u64;
                let span = tr.open("store.save");
                store.save(key, &state);
                tr.close(span);
            }
        }
        Ok(())
    }

    /// Re-time the layers that ran inside others, in detached spans.
    fn replay_recalls(&mut self, bench: &Bench) -> Result<(), EvolveError> {
        let optimizer = Optimizer::new().with_fusion(VmConfig::default().fuse);
        for recall in std::mem::take(&mut self.recalls) {
            match recall {
                Recall::Translate { input } => {
                    let input = &bench.inputs[input];
                    let span = self.tracer.open_detached("xicl.translate");
                    let translated = bench.translator.translate(&input.args, &input.vfs);
                    self.tracer.close(span);
                    std::hint::black_box(translated?);
                }
                Recall::Compile {
                    input,
                    method,
                    level,
                } => {
                    let program = &bench.inputs[input].program;
                    let span = self.tracer.open_detached("opt.compile");
                    let compiled = optimizer.compile_checked(program, method, level);
                    self.tracer.close(span);
                    std::hint::black_box(compiled.map_err(evovm_vm::VmError::from)?);
                }
            }
        }
        Ok(())
    }
}

impl RunSink for Pass {
    fn on_record(&mut self, record: &RunRecord) {
        self.stream.record(record);
    }

    /// Replay the point here, in a span of the run that captured it.
    fn on_fork_point(&mut self, point: ForkPoint) -> Option<ForkPoint> {
        let span = self.tracer.open("fork.replay");
        let replayed = ForkExecutor::new().replay(&point);
        self.tracer.close(span);
        self.counts.fork_replays += 1;
        let resumed_at = point.snapshot.cycles();
        match replayed {
            Ok(samples) => {
                for sample in &samples {
                    self.work.fork_cycles += sample.total_cycles.saturating_sub(resumed_at);
                    self.counts.fork_samples += 1;
                    self.stream.fork_sample(sample);
                }
            }
            Err(error) => {
                self.fork_error.get_or_insert(error);
            }
        }
        None
    }
}

/// The feature row a run's fork points carry: the input's XICL features
/// with the run's published values merged in as `runtime.*`.
fn fork_features(
    tr: &mut Tracer,
    bench: &Bench,
    input: &AppInput,
    published: &[(String, Scalar)],
) -> Result<Vec<(String, Raw)>, EvolveError> {
    let span = tr.open("xicl.translate");
    let translated = bench.translator.translate(&input.args, &input.vfs);
    tr.close(span);
    let (mut vector, _stats) = translated?;
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
