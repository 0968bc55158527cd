//! The compilation-forking counterfactual data factory.
//!
//! A production run configured with
//! [`CampaignConfig::fork_snapshots`](crate::CampaignConfig::fork_snapshots)
//! self-captures a [`RunSnapshot`] at each recompilation decision (up to
//! the configured limit). Each captured snapshot becomes a [`ForkPoint`]:
//! the frozen run state, the method and level the live policy chose, and
//! the XICL feature row of the input that drove the run.
//!
//! The [`ForkExecutor`] then costs one fork point under *every*
//! optimization level — overriding the captured decision via
//! [`RunSnapshot::override_decision`] and resuming with [`Vm::resume`] —
//! and reports one [`ForkSample`] per level carrying the counterfactual
//! total cost. Because the VM clock is virtual and deterministic, the
//! replay of the *chosen* level reproduces the original run bit-for-bit
//! when the host did not intervene after the capture
//! (`tests/fork_equiv.rs` proves it), so the other levels' costs are
//! exactly the costs the original run *would* have paid.
//!
//! # One resume per distinct continuation
//!
//! The four levels do not need four resumes. Recompilation is
//! upward-only, so every level at or below the method's level at capture
//! resumes the same "stay" continuation; and the decided level's
//! continuation *is* the factual run's remainder whenever the VM stamped
//! the snapshot with the run's total
//! ([`RunSnapshot::factual_total_cycles`]). [`ForkExecutor::replay`]
//! resumes each remaining distinct continuation once and copies its
//! total to every level that shares it. The dedupe keys come from the
//! snapshot itself ([`RunSnapshot::pending_decision`],
//! [`RunSnapshot::level_of`]), never from the caller-writable
//! [`ForkPoint`] fields, and the samples are bit-identical to resuming
//! once per level (`tests/fork_equiv.rs` checks every fork point of the
//! Table I suite against that four-way loop).
//!
//! One campaign run thus yields up to `fork_snapshots × 4` labelled
//! `(features, level, cost)` training samples instead of one posterior
//! ideal strategy — the data factory the paper's cross-input learner is
//! starved without. Samples convert to
//! [`evovm_learn::dataset::CostSample`]s via [`ForkSample::cost_sample`]
//! and accumulate in a [`CostDataset`](evovm_learn::CostDataset).
//!
//! The same machinery doubles as a what-if debugger for the oracle:
//! `examples/what_if.rs` prints the counterfactual cost table of a run's
//! fork points under all four levels.
//!
//! # Determinism contract
//!
//! A replay runs the remainder of the snapshot under the snapshot's own
//! forked policy ([`AosPolicy::fork_box`](evovm_vm::AosPolicy::fork_box)).
//! Interactive `FeaturesReady` pauses are skipped — no host re-prediction
//! happens inside a counterfactual continuation — so a replay is a pure
//! function of (snapshot, override level). Resumed forks never self-
//! capture (the VM zeroes `fork_snapshots` on resume), so forking cannot
//! recurse.

use evovm_bytecode::FuncId;
use evovm_learn::dataset::{CostSample, Raw};
use evovm_opt::OptLevel;
use evovm_vm::{Outcome, RunSnapshot, Vm};

use crate::error::EvolveError;

/// One captured recompilation decision: the frozen run state plus
/// everything needed to label the counterfactual samples replayed from
/// it.
#[derive(Debug, Clone)]
pub struct ForkPoint {
    /// Campaign-wide fork counter (groups this point's samples).
    pub fork_index: u64,
    /// The campaign run the point was captured in.
    pub run_index: usize,
    /// Which input drove that run.
    pub input_index: usize,
    /// The method the live policy decided to recompile.
    pub method: FuncId,
    /// Its name (resolved from the program at capture).
    pub method_name: String,
    /// The method's compiled level at capture.
    pub from_level: OptLevel,
    /// The level the live policy chose.
    pub decided_level: OptLevel,
    /// Total cycles of the real (unforked) run, for reference.
    pub base_total_cycles: u64,
    /// XICL feature row of the run's input (static features merged with
    /// the run's published runtime features).
    pub features: Vec<(String, Raw)>,
    /// The frozen run state, decision pending.
    pub snapshot: RunSnapshot,
}

/// One counterfactual observation: what the run's total cost would have
/// been had the captured decision resolved to `level`.
#[derive(Debug, Clone)]
pub struct ForkSample {
    /// The originating fork point's campaign-wide index.
    pub fork_index: u64,
    /// The campaign run the fork point was captured in.
    pub run_index: usize,
    /// Which input drove that run.
    pub input_index: usize,
    /// Name of the method the decision concerned.
    pub method: String,
    /// The level this replay resolved the decision to.
    pub level: OptLevel,
    /// Total virtual cycles of the replayed run.
    pub total_cycles: u64,
    /// Total cycles of the real run. The `chosen` replay equals this
    /// only when the host did not intervene in the run after the capture
    /// (no overhead charged, strategy applied or policy replaced at a
    /// later pause; see [`RunSnapshot::factual_total_cycles`]).
    pub base_total_cycles: u64,
    /// Whether this replay's level is the one the live policy chose.
    pub chosen: bool,
    /// The fork point's feature row, repeated per sample so each sample
    /// is a self-contained training unit.
    pub features: Vec<(String, Raw)>,
}

impl ForkSample {
    /// This sample as a learning-layer cost observation: grouped by fork
    /// point, labelled with the level (shifted to `0..=3`), costed with
    /// the replay's total cycles.
    pub fn cost_sample(&self) -> CostSample {
        CostSample {
            group: self.fork_index,
            features: self.features.clone(),
            level: (self.level.as_i8() + 1) as u16,
            cost: self.total_cycles,
        }
    }
}

/// Replays [`ForkPoint`]s under counterfactual level assignments.
///
/// Stateless by design: a replay depends only on the point, so executors
/// can run anywhere — inline in a campaign loop, or as ordinary queue
/// units on [`CampaignService`](crate::CampaignService) workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForkExecutor {
    _private: (),
}

impl ForkExecutor {
    /// Create an executor.
    pub fn new() -> ForkExecutor {
        ForkExecutor::default()
    }

    /// Cost `point` under every [`OptLevel`], overriding the captured
    /// decision, and return the four counterfactual samples in level
    /// order. Overriding to a level at or below the method's level at
    /// capture is a natural no-op (recompilation is upward-only), which is
    /// precisely the "what if we had not upgraded" counterfactual.
    ///
    /// Each *distinct* continuation runs once: the levels at or below the
    /// capture level share one "stay" resume, and the captured decision's
    /// own level reuses the snapshot's factual stamp when it has one
    /// ([`RunSnapshot::factual_total_cycles`]). So a point captured at
    /// level −1 costs three resumes, at O0 two and at O1 one. The result
    /// equals resuming once per level, sample for sample.
    ///
    /// # Errors
    ///
    /// Propagates VM errors from the resumed runs (e.g. a pipeline
    /// miscompilation surfaced while replaying the overridden decision).
    pub fn replay(&self, point: &ForkPoint) -> Result<Vec<ForkSample>, EvolveError> {
        let snapshot = &point.snapshot;
        let factual = snapshot.pending_decision().and_then(|(_, decided)| {
            let total = snapshot.factual_total_cycles()?;
            Some((continuation(snapshot, decided), total))
        });
        // (continuation, total cycles) of every continuation costed so far.
        let mut costed: Vec<(Option<OptLevel>, u64)> = factual.into_iter().collect();
        let mut samples = Vec::with_capacity(OptLevel::ALL.len());
        for level in OptLevel::ALL {
            let target = continuation(snapshot, level);
            let total_cycles = match costed.iter().find(|(t, _)| *t == target) {
                Some(&(_, total)) => total,
                None => {
                    let total = resume_to_end(snapshot, target)?;
                    costed.push((target, total));
                    total
                }
            };
            samples.push(ForkSample {
                fork_index: point.fork_index,
                run_index: point.run_index,
                input_index: point.input_index,
                method: point.method_name.clone(),
                level,
                total_cycles,
                base_total_cycles: point.base_total_cycles,
                chosen: level == point.decided_level,
                features: point.features.clone(),
            });
        }
        Ok(samples)
    }
}

/// The continuation that resuming `snapshot` with its decision overridden
/// to `level` actually runs: `Some(level)` for a genuine upgrade of the
/// pending method, `None` ("stay") when `level` is at or below its level
/// at capture — or when the snapshot carries no decision to override.
fn continuation(snapshot: &RunSnapshot, level: OptLevel) -> Option<OptLevel> {
    match snapshot.pending_decision() {
        Some((method, _)) if level > snapshot.level_of(method) => Some(level),
        _ => None,
    }
}

#[cfg(test)]
thread_local! {
    /// Continuations [`resume_to_end`] ran on this thread.
    static RESUMES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Resume a copy of `snapshot` with its decision overridden to `target`
/// and run it to completion, returning its total virtual cycles.
/// Counterfactual continuations run under the snapshot's own policy;
/// interactive pauses pass.
fn resume_to_end(snapshot: &RunSnapshot, target: Option<OptLevel>) -> Result<u64, EvolveError> {
    #[cfg(test)]
    RESUMES.with(|n| n.set(n.get() + 1));
    let mut snapshot = snapshot.clone();
    snapshot.override_decision(target);
    let mut vm = Vm::resume(snapshot)?;
    loop {
        match vm.run()? {
            Outcome::Finished(result) => return Ok(result.total_cycles),
            Outcome::FeaturesReady => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use evovm_learn::CostDataset;
    use evovm_minijava::compile;
    use evovm_vm::{CostBenefitPolicy, VmConfig};

    use super::*;

    fn hot_program() -> Arc<evovm_bytecode::Program> {
        Arc::new(
            compile(
                "fn work(n) { let s = 0; for (let i = 0; i < n; i = i + 1) { s = s + i * i; } return s; }
                 fn main() { print work(60000); }",
            )
            .unwrap(),
        )
    }

    fn run_to_end(vm: &mut Vm) -> evovm_vm::RunResult {
        loop {
            match vm.run().unwrap() {
                Outcome::Finished(result) => return *result,
                Outcome::FeaturesReady => continue,
            }
        }
    }

    fn first_fork_point() -> (ForkPoint, u64) {
        let program = hot_program();
        let mut vm = Vm::new(
            program.clone(),
            Box::new(CostBenefitPolicy::new()),
            VmConfig {
                fork_snapshots: 4,
                ..VmConfig::default()
            },
        )
        .unwrap();
        let result = run_to_end(&mut vm);
        let snapshot = vm
            .take_fork_snapshots()
            .into_iter()
            .next()
            .expect("hot loop triggers at least one recompilation");
        let (method, decided_level) = snapshot.pending_decision().unwrap();
        let point = ForkPoint {
            fork_index: 0,
            run_index: 0,
            input_index: 0,
            method,
            method_name: program.function(method).name.clone(),
            from_level: snapshot.level_of(method),
            decided_level,
            base_total_cycles: result.total_cycles,
            features: vec![("input.N".to_owned(), Raw::Num(60_000.0))],
            snapshot,
        };
        (point, result.total_cycles)
    }

    #[test]
    fn replay_covers_all_levels_and_chosen_matches_the_real_run() {
        let (point, base_cycles) = first_fork_point();
        let samples = ForkExecutor::new().replay(&point).unwrap();
        assert_eq!(samples.len(), OptLevel::ALL.len());
        let levels: Vec<OptLevel> = samples.iter().map(|s| s.level).collect();
        assert_eq!(levels, OptLevel::ALL.to_vec());
        let chosen: Vec<&ForkSample> = samples.iter().filter(|s| s.chosen).collect();
        assert_eq!(chosen.len(), 1);
        // The chosen-level continuation IS the original run's remainder:
        // the counterfactual factory's costs are exact, not approximate.
        // `replay` takes it from the factual stamp, so check the stamp
        // against an explicit resume of the unmodified snapshot.
        assert_eq!(point.snapshot.factual_total_cycles(), Some(base_cycles));
        let mut vm = Vm::resume(point.snapshot.clone()).unwrap();
        assert_eq!(run_to_end(&mut vm).total_cycles, base_cycles);
        assert_eq!(chosen[0].total_cycles, base_cycles);
        assert_eq!(chosen[0].base_total_cycles, base_cycles);
        // The counterfactuals genuinely diverge from one another.
        let distinct: std::collections::BTreeSet<u64> =
            samples.iter().map(|s| s.total_cycles).collect();
        assert!(distinct.len() > 1, "all levels cost the same: {samples:?}");
    }

    #[test]
    fn samples_feed_the_learning_layer_as_cost_rows() {
        let (point, _) = first_fork_point();
        let samples = ForkExecutor::new().replay(&point).unwrap();
        let mut costs = CostDataset::new();
        for s in &samples {
            costs.push(s.cost_sample());
        }
        assert_eq!(costs.len(), 4);
        assert_eq!(costs.groups(), vec![0]);
        let classification = costs.to_classification().unwrap();
        assert_eq!(classification.len(), 1);
        // The argmin label is a valid shifted level.
        assert!(classification.labels()[0] <= 3);
    }

    /// A Table I workload as this crate's [`Bench`] (the workloads crate
    /// links its own copy of `evovm`, whose `Bench` is a distinct type).
    fn table1_bench(name: &str) -> crate::Bench {
        let bench = evovm_workloads::by_name(name).expect("bundled workload");
        crate::Bench {
            name: bench.name,
            translator: bench.translator,
            inputs: bench
                .inputs
                .into_iter()
                .map(|input| crate::AppInput {
                    args: input.args,
                    vfs: input.vfs,
                    program: input.program,
                })
                .collect(),
        }
    }

    /// Keeps every fork point instead of replaying it inline.
    #[derive(Default)]
    struct PointSink {
        points: Vec<ForkPoint>,
    }

    impl crate::RunSink for PointSink {
        fn on_record(&mut self, _: &crate::RunRecord) {}

        fn on_fork_point(&mut self, point: ForkPoint) -> Option<ForkPoint> {
            self.points.push(point);
            None
        }
    }

    /// The factory's cost in VM resumes is a deterministic count, so it
    /// can be pinned exactly: on a fixed Table I Evolve campaign it
    /// equals, over the fork points, the distinct continuations (one
    /// shared "stay" arm plus one per level above the capture level)
    /// minus the factual reuses — and stays below the four resumes per
    /// point of costing each level separately.
    #[test]
    fn replay_resumes_each_distinct_continuation_once() {
        let (mut points, mut expected, mut resumed) = (0u64, 0u64, 0u64);
        let mut by_from_level = [0u64; 4];
        for name in evovm_workloads::names() {
            let bench = table1_bench(name);
            let config = crate::CampaignConfig::new(crate::Scenario::Evolve)
                .runs(3)
                .seed(7)
                .fork_snapshots(8);
            let oracle =
                crate::DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles);
            let mut sink = PointSink::default();
            crate::Campaign::new(&bench, config)
                .unwrap()
                .run_with_sink(&oracle, None, &mut sink)
                .unwrap();
            for point in &sink.points {
                let before = RESUMES.with(std::cell::Cell::get);
                let samples = ForkExecutor::new().replay(point).unwrap();
                resumed += RESUMES.with(std::cell::Cell::get) - before;
                assert_eq!(samples.len(), OptLevel::ALL.len());
                let (method, _) = point.snapshot.pending_decision().unwrap();
                let from = point.snapshot.level_of(method);
                by_from_level[(from.as_i8() + 1) as usize] += 1;
                let upgrades = OptLevel::ALL.iter().filter(|&&l| l > from).count() as u64;
                let factual = u64::from(point.snapshot.factual_total_cycles().is_some());
                expected += 1 + upgrades - factual;
                points += 1;
            }
        }
        assert_eq!(by_from_level, [134, 92, 36, 0]);
        assert_eq!(resumed, expected);
        assert_eq!(resumed, 622);
        assert!(
            resumed < 4 * points,
            "{resumed} resumes for {points} points"
        );
    }
}
