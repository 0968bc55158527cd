//! Differential suite for the forkable run-state refactor.
//!
//! The VM now splits into an immutable program context and a
//! snapshotable `RunState`; `Vm::snapshot()` captures the run at any
//! host-control boundary and `Vm::resume` re-enters it. The virtual
//! clock is the reproduction's measurement instrument, so a snapshotted
//! and resumed run must be **bit-identical** to the straight-through
//! run — output, every cycle counter, sample attribution, recompilation
//! events — in both interpreter modes, on every Table I workload.
//!
//! Layers of proof:
//!
//! 1. **VM level, budget boundary** — trip a cycle budget mid-run,
//!    snapshot, lift the budget, resume; the finished `RunResult` must
//!    equal the uninterrupted run's, field for field.
//! 2. **VM level, feature pause** — snapshot at a `FeaturesReady`
//!    pause, drop the original machine, resume the copy to completion.
//! 3. **Campaign level** — record streams with fork capture on vs off
//!    must be identical across all workloads × scenarios × modes (the
//!    data factory observes runs, never perturbs them), and inline fork
//!    replays must reproduce the factual run exactly at the chosen
//!    level.
//! 4. **Property** — the window boundary is arbitrary: for random
//!    budgets the snapshot/resume run equals the straight run.
//! 5. **Replay exactness** — `ForkExecutor::replay` resumes each distinct
//!    continuation once (shared "stay" arm, factual stamp for the decided
//!    level); on every fork point of the suite, on hand-built points
//!    whose fields disagree with their snapshot, and across host
//!    interventions at an interactive pause, it must return exactly the
//!    samples of resuming once per level (`four_way_replay`).

use std::sync::Arc;

use proptest::prelude::*;

use evolvable_vm::evovm::{
    AppInput, Bench, Campaign, CampaignConfig, DefaultOracle, EvolveError, ForkExecutor, ForkPoint,
    ForkSample, RunRecord, RunSink, Scenario,
};
use evolvable_vm::learn::dataset::Raw;
use evolvable_vm::minijava;
use evolvable_vm::opt::OptLevel;
use evolvable_vm::vm::{CostBenefitPolicy, InterpMode, Outcome, RunResult, Vm, VmConfig, VmError};
use evolvable_vm::workloads;
use evolvable_vm::xicl::extract::Registry;
use evolvable_vm::xicl::{spec, Translator, Vfs};

/// The Table I benchmark order (kept in sync with `evovm-bench`, which
/// the façade crate deliberately does not depend on).
const TABLE1: [&str; 11] = [
    "mtrt",
    "compress",
    "db",
    "antlr",
    "bloat",
    "fop",
    "euler",
    "moldyn",
    "montecarlo",
    "search",
    "raytracer",
];

fn adaptive_config(mode: InterpMode) -> VmConfig {
    VmConfig {
        sample_interval_cycles: 10_000,
        interp: mode,
        ..VmConfig::default()
    }
}

/// Run one program to completion under `mode`, resuming through feature
/// pauses like the campaign loop does.
fn straight_run(program: &Arc<evolvable_vm::bytecode::Program>, mode: InterpMode) -> RunResult {
    finish(
        Vm::new(
            Arc::clone(program),
            Box::new(CostBenefitPolicy::new()),
            adaptive_config(mode),
        )
        .expect("workload programs verify"),
    )
}

/// The same run, interrupted once at `budget` cycles: the tripped
/// machine is snapshotted, the snapshot's budget lifted, and a resumed
/// machine carries the run to completion.
fn interrupted_run(
    program: &Arc<evolvable_vm::bytecode::Program>,
    mode: InterpMode,
    budget: u64,
) -> RunResult {
    let mut vm = Vm::new(
        Arc::clone(program),
        Box::new(CostBenefitPolicy::new()),
        VmConfig {
            cycle_budget: Some(budget),
            ..adaptive_config(mode)
        },
    )
    .expect("workload programs verify");
    loop {
        match vm.run() {
            Ok(Outcome::Finished(result)) => return *result,
            Ok(Outcome::FeaturesReady) => continue,
            Err(VmError::CycleBudgetExceeded { .. }) => {
                let mut snapshot = vm.snapshot();
                snapshot.set_cycle_budget(None);
                vm = Vm::resume(snapshot).expect("snapshot resumes");
            }
            Err(e) => panic!("workload trapped: {e}"),
        }
    }
}

fn assert_results_identical(workload: &str, resumed: &RunResult, straight: &RunResult) {
    assert_eq!(resumed.output, straight.output, "{workload}: output");
    assert_eq!(
        resumed.published, straight.published,
        "{workload}: published"
    );
    assert_eq!(
        resumed.total_cycles, straight.total_cycles,
        "{workload}: total_cycles"
    );
    assert_eq!(
        resumed.exec_cycles, straight.exec_cycles,
        "{workload}: exec_cycles"
    );
    assert_eq!(
        resumed.compile_cycles, straight.compile_cycles,
        "{workload}: compile_cycles"
    );
    assert_eq!(
        resumed.instructions, straight.instructions,
        "{workload}: instructions"
    );
    assert_eq!(
        resumed.profile.samples, straight.profile.samples,
        "{workload}: sample attribution"
    );
    assert_eq!(
        resumed.profile.invocations, straight.profile.invocations,
        "{workload}: invocations"
    );
    assert_eq!(
        resumed.profile.final_levels, straight.profile.final_levels,
        "{workload}: final levels"
    );
    assert_eq!(
        resumed.profile.recompilations, straight.profile.recompilations,
        "{workload}: recompilation events"
    );
}

#[test]
fn snapshot_resume_at_a_budget_boundary_is_bit_identical() {
    for name in TABLE1 {
        let bench = workloads::by_name(name).expect("bundled workload");
        let program = &bench.inputs[0].program;
        for mode in [InterpMode::Fast, InterpMode::Reference] {
            let straight = straight_run(program, mode);
            let budget = straight.total_cycles / 2;
            assert!(budget > 0, "{name}: run too short to interrupt");
            let resumed = interrupted_run(program, mode, budget);
            assert_results_identical(name, &resumed, &straight);
        }
    }
}

#[test]
fn snapshot_at_a_feature_pause_resumes_identically() {
    for name in TABLE1 {
        let bench = workloads::by_name(name).expect("bundled workload");
        let program = &bench.inputs[0].program;
        let straight = straight_run(program, InterpMode::Fast);
        let mut vm = Vm::new(
            Arc::clone(program),
            Box::new(CostBenefitPolicy::new()),
            adaptive_config(InterpMode::Fast),
        )
        .expect("workload programs verify");
        // Run to the first interactive pause; workloads that finish
        // without one are already covered by the budget-boundary test.
        let resumed = match vm.run().expect("workload programs do not trap") {
            Outcome::Finished(result) => *result,
            Outcome::FeaturesReady => {
                // Capture, then abandon the original machine: the
                // copy alone must carry the run home.
                let snapshot = vm.snapshot();
                drop(vm);
                let mut copy = Vm::resume(snapshot).expect("snapshot resumes");
                loop {
                    match copy.run().expect("resumed run does not trap") {
                        Outcome::Finished(result) => break *result,
                        Outcome::FeaturesReady => continue,
                    }
                }
            }
        };
        assert_results_identical(name, &resumed, &straight);
    }
}

/// Bit-pattern view of a record (floats via `to_bits`).
fn record_bits(r: &RunRecord) -> (usize, usize, u64, u64, u64, u64, u64, bool, u64) {
    (
        r.run_index,
        r.input_index,
        r.cycles,
        r.default_cycles,
        r.speedup.to_bits(),
        r.confidence.to_bits(),
        r.accuracy.to_bits(),
        r.predicted,
        r.overhead_fraction.to_bits(),
    )
}

/// A sink that records everything the campaign streams; `consume`
/// exercises the consumed-point arm of the fork protocol (no inline
/// replay, as the service does). Otherwise it keeps a copy of each point
/// it hands back for inline replay.
#[derive(Default)]
struct CollectSink {
    records: Vec<RunRecord>,
    points: Vec<ForkPoint>,
    samples: Vec<ForkSample>,
    consume: bool,
}

impl RunSink for CollectSink {
    fn on_record(&mut self, record: &RunRecord) {
        self.records.push(record.clone());
    }

    fn on_fork_point(&mut self, point: ForkPoint) -> Option<ForkPoint> {
        if self.consume {
            self.points.push(point);
            None
        } else {
            self.points.push(point.clone());
            Some(point)
        }
    }

    fn on_fork_sample(&mut self, sample: &ForkSample) {
        self.samples.push(sample.clone());
    }
}

fn campaign_records(
    name: &str,
    scenario: Scenario,
    mode: InterpMode,
    runs: usize,
    fork_snapshots: usize,
) -> CollectSink {
    let bench = workloads::by_name(name).expect("bundled workload");
    let config = CampaignConfig::new(scenario)
        .runs(runs)
        .seed(7)
        .interp(mode)
        .fork_snapshots(fork_snapshots);
    let oracle =
        DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles).with_interp(mode);
    let mut sink = CollectSink {
        consume: true,
        ..CollectSink::default()
    };
    Campaign::new(&bench, config)
        .expect("workload programs verify")
        .run_with_sink(&oracle, None, &mut sink)
        .expect("campaign runs");
    sink
}

#[test]
fn fork_capture_never_perturbs_the_measured_run() {
    for name in TABLE1 {
        for scenario in [Scenario::Default, Scenario::Rep, Scenario::Evolve] {
            for mode in [InterpMode::Fast, InterpMode::Reference] {
                let off = campaign_records(name, scenario, mode, 3, 0);
                let on = campaign_records(name, scenario, mode, 3, 2);
                assert!(off.points.is_empty(), "{name}: forking off captured points");
                assert_eq!(
                    off.records.iter().map(record_bits).collect::<Vec<_>>(),
                    on.records.iter().map(record_bits).collect::<Vec<_>>(),
                    "{name}/{scenario:?}/{mode:?}: fork capture changed the record stream"
                );
            }
        }
    }
}

#[test]
fn inline_replays_reproduce_the_factual_run_at_the_chosen_level() {
    // Evolve campaigns execute real VMs whose policies recompile; every
    // fork point's four counterfactuals must include exactly one chosen
    // replay, and that replay must land on the factual run's clock.
    // `replay` takes the chosen level's cost from the factual stamp, so
    // the chosen continuation is re-run here by an explicit resume of the
    // unmodified snapshot.
    let mut points_seen = 0usize;
    for name in TABLE1 {
        let bench = workloads::by_name(name).expect("bundled workload");
        let config = CampaignConfig::new(Scenario::Evolve)
            .runs(3)
            .seed(7)
            .fork_snapshots(2);
        let oracle = DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles);
        let mut sink = CollectSink::default();
        Campaign::new(&bench, config)
            .expect("workload programs verify")
            .run_with_sink(&oracle, None, &mut sink)
            .expect("campaign runs");
        assert_eq!(sink.samples.len(), sink.points.len() * OptLevel::ALL.len());
        for (point, group) in sink
            .points
            .iter()
            .zip(sink.samples.chunks(OptLevel::ALL.len()))
        {
            points_seen += 1;
            let levels: Vec<OptLevel> = group.iter().map(|s| s.level).collect();
            assert_eq!(levels, OptLevel::ALL.to_vec(), "{name}: level coverage");
            let chosen: Vec<&ForkSample> = group.iter().filter(|s| s.chosen).collect();
            assert_eq!(chosen.len(), 1, "{name}: exactly one factual replay");
            let resumed = finish(Vm::resume(point.snapshot.clone()).expect("fork point resumes"));
            assert_eq!(
                resumed.total_cycles, chosen[0].total_cycles,
                "{name}: the chosen sample must be the chosen continuation's cost"
            );
            assert_eq!(
                resumed.total_cycles, chosen[0].base_total_cycles,
                "{name}: the chosen replay must reproduce the factual run"
            );
            assert_eq!(
                point.snapshot.factual_total_cycles(),
                Some(point.base_total_cycles),
                "{name}: no host intervention after capture, so the point is stamped"
            );
            assert!(
                !group[0].features.is_empty(),
                "{name}: samples must carry the XICL feature row"
            );
        }
    }
    assert!(
        points_seen > 0,
        "no Table I Evolve campaign captured a fork point; the factory is dead"
    );
}

/// Drive a machine to completion, passing interactive pauses (as the
/// campaign loop and fork replays do).
fn finish(mut vm: Vm) -> RunResult {
    loop {
        match vm.run().expect("workload programs do not trap") {
            Outcome::Finished(result) => return *result,
            Outcome::FeaturesReady => continue,
        }
    }
}

/// The exactness oracle: resume the point once per level with the
/// decision overridden, with no deduplication and no factual stamp.
/// `ForkExecutor::replay` must return exactly these samples.
fn four_way_replay(point: &ForkPoint) -> Result<Vec<ForkSample>, EvolveError> {
    let mut samples = Vec::with_capacity(OptLevel::ALL.len());
    for level in OptLevel::ALL {
        let mut snapshot = point.snapshot.clone();
        snapshot.override_decision(Some(level));
        let mut vm = Vm::resume(snapshot)?;
        let result = loop {
            match vm.run()? {
                Outcome::Finished(result) => break *result,
                // Counterfactual continuations run under the
                // snapshot's own policy; interactive pauses pass.
                Outcome::FeaturesReady => continue,
            }
        };
        samples.push(ForkSample {
            fork_index: point.fork_index,
            run_index: point.run_index,
            input_index: point.input_index,
            method: point.method_name.clone(),
            level,
            total_cycles: result.total_cycles,
            base_total_cycles: point.base_total_cycles,
            chosen: level == point.decided_level,
            features: point.features.clone(),
        });
    }
    Ok(samples)
}

/// Every field of a sample, floats by bit pattern.
type SampleView = (
    u64,
    usize,
    usize,
    String,
    OptLevel,
    u64,
    u64,
    bool,
    Vec<(String, String)>,
);

fn sample_view(s: &ForkSample) -> SampleView {
    let features = s
        .features
        .iter()
        .map(|(name, raw)| {
            let value = match raw {
                Raw::Num(x) => format!("num {:#018x}", x.to_bits()),
                Raw::Cat(c) => format!("cat {c}"),
            };
            (name.clone(), value)
        })
        .collect();
    (
        s.fork_index,
        s.run_index,
        s.input_index,
        s.method.clone(),
        s.level,
        s.total_cycles,
        s.base_total_cycles,
        s.chosen,
        features,
    )
}

/// Replay `point` and assert the samples equal the oracle's, field for
/// field.
fn assert_replay_matches_oracle(context: &str, point: &ForkPoint) -> Vec<ForkSample> {
    let replayed = ForkExecutor::new()
        .replay(point)
        .unwrap_or_else(|e| panic!("{context}: replay failed: {e}"));
    let oracle = four_way_replay(point).unwrap_or_else(|e| panic!("{context}: oracle failed: {e}"));
    assert_eq!(
        replayed.iter().map(sample_view).collect::<Vec<_>>(),
        oracle.iter().map(sample_view).collect::<Vec<_>>(),
        "{context}: replay diverged from the four-way oracle"
    );
    replayed
}

/// Fork points per run in the oracle matrix: enough that later
/// decisions — upgrades from O0 and O1 — are captured too. One run per
/// campaign keeps the matrix affordable in debug builds: each point
/// costs about six resumes of a run's remainder here.
const ORACLE_FORKS: usize = 5;

#[test]
fn replay_matches_the_four_way_oracle_on_every_fork_point() {
    let mut by_from_level = [0usize; 4];
    let mut stamped = 0usize;
    for name in TABLE1 {
        for scenario in [Scenario::Default, Scenario::Rep, Scenario::Evolve] {
            for mode in [InterpMode::Fast, InterpMode::Reference] {
                let sink = campaign_records(name, scenario, mode, 1, ORACLE_FORKS);
                for point in &sink.points {
                    let context = format!("{name}/{scenario:?}/{mode:?}/fork {}", point.fork_index);
                    assert_replay_matches_oracle(&context, point);
                    let (method, _) = point
                        .snapshot
                        .pending_decision()
                        .expect("campaign fork points carry a decision");
                    by_from_level[(point.snapshot.level_of(method).as_i8() + 1) as usize] += 1;
                    stamped += usize::from(point.snapshot.factual_total_cycles().is_some());
                }
            }
        }
    }
    // Every dedupe path ran: a "stay" arm shared by one (from -1), two
    // (from O0) and three (from O1) levels, and the factual reuse.
    assert!(
        by_from_level[0] > 0 && by_from_level[1] > 0 && by_from_level[2] > 0,
        "points by capture level (-1, O0, O1, O2): {by_from_level:?}"
    );
    assert!(stamped > 0, "no point took the factual-stamp path");
}

#[test]
fn replay_keys_on_the_snapshot_not_on_the_point_fields() {
    // `ForkPoint`'s fields are caller-writable; the dedupe keys and the
    // factual reuse must come from the snapshot. Forge the fields so that
    // trusting them would collapse every level into one "stay" arm, or
    // hand the factual total to the wrong level.
    let sink = campaign_records("mtrt", Scenario::Evolve, InterpMode::Fast, 1, ORACLE_FORKS);
    let mut forged_points = 0usize;
    for from in [OptLevel::Baseline, OptLevel::O0] {
        let point = sink
            .points
            .iter()
            .find(|p| p.snapshot.level_of(p.method) == from)
            .unwrap_or_else(|| panic!("mtrt captured no point at {from:?}"));
        let (_, decided) = point.snapshot.pending_decision().expect("has a decision");
        let other_upgrade = OptLevel::ALL
            .into_iter()
            .find(|&l| l > from && l != decided)
            .expect("two upgrades exist below O2");
        for (from_level, decided_level) in [
            (OptLevel::O2, OptLevel::Baseline),
            (OptLevel::Baseline, other_upgrade),
        ] {
            let forged = ForkPoint {
                from_level,
                decided_level,
                ..point.clone()
            };
            let samples = assert_replay_matches_oracle(&format!("forged {from:?}"), &forged);
            assert_ne!(
                samples[0].total_cycles, samples[3].total_cycles,
                "staying and compiling to O2 cost the same; the forgery proves nothing"
            );
            forged_points += 1;
        }
        // Whatever the caller left in the snapshot's applied decision,
        // each level overrides it.
        let mut overridden = point.clone();
        overridden.snapshot.override_decision(None);
        assert_replay_matches_oracle("overridden snapshot", &overridden);
    }
    assert_eq!(forged_points, 4);

    // A host-side snapshot carries no decision and no factual stamp:
    // every level resumes the one continuation there is.
    let bench = workloads::by_name("mtrt").expect("bundled workload");
    let program = &bench.inputs[0].program;
    let vm = Vm::new(
        Arc::clone(program),
        Box::new(CostBenefitPolicy::new()),
        adaptive_config(InterpMode::Fast),
    )
    .expect("workload programs verify");
    let snapshot = vm.snapshot();
    assert_eq!(snapshot.factual_total_cycles(), None);
    let point = ForkPoint {
        fork_index: 0,
        run_index: 0,
        input_index: 0,
        method: program.entry(),
        method_name: "main".to_owned(),
        from_level: OptLevel::O1,
        decided_level: OptLevel::O0,
        base_total_cycles: 0,
        features: Vec::new(),
        snapshot,
    };
    let samples = assert_replay_matches_oracle("host snapshot", &point);
    let straight = straight_run(program, InterpMode::Fast).total_cycles;
    assert!(samples.iter().all(|s| s.total_cycles == straight));
}

/// An interactive session (the `tests/interactive.rs` pattern): load a
/// document, run an `index` pass, pause at `done` once the command's cost
/// is published, then run the command and a `render` pass. `index` and
/// `render` repeat `rounds` times and no feature reveals `rounds`, so a
/// confident Evolve predicts them cold; in a session where they are hot
/// the reactive fallback recompiles them, capturing fork points before
/// and after the pause. At the pause Evolve re-predicts from the newly
/// published cost: it charges overhead, applies the new strategy and
/// replaces the policy.
fn session_source(doc_size: u64, rounds: u64, command_cost: u64) -> String {
    format!(
        "
fn lcg(s) {{
    return (s * 1103515245 + 12345) & 2147483647;
}}

fn load_document(n) {{
    let doc = new [n];
    let s = 7;
    for (let i = 0; i < n; i = i + 1) {{
        s = lcg(s);
        doc[i] = s % 97;
    }}
    return doc;
}}

fn index(doc, n, rounds) {{
    let acc = 0;
    for (let r = 0; r < rounds; r = r + 1) {{
        for (let i = 0; i < n; i = i + 1) {{
            acc = (acc * 13 + doc[i]) & 1073741823;
        }}
    }}
    return acc;
}}

fn render(doc, n, rounds) {{
    let acc = 0;
    for (let r = 0; r < rounds; r = r + 1) {{
        for (let i = 0; i < n; i = i + 1) {{
            acc = (acc * 17 + doc[i]) & 1073741823;
        }}
    }}
    return acc;
}}

fn apply_command(doc, n, cost) {{
    let acc = 0;
    for (let r = 0; r < cost; r = r + 1) {{
        for (let i = 0; i < n; i = i + 1) {{
            acc = (acc * 31 + doc[i] + r) & 1073741823;
        }}
    }}
    return acc;
}}

fn main() {{
    let n = {doc_size};
    publish \"doc_size\", n;
    let doc = load_document(n);
    print index(doc, n, {rounds});
    let cost = {command_cost};
    publish \"command_cost\", cost;
    done;
    print apply_command(doc, n, cost);
    print render(doc, n, {rounds});
}}
"
    )
}

fn session_bench(sessions: &[(u64, u64, u64)]) -> Bench {
    let spec = "option {name=-s; type=num; attr=VAL; default=100; has_arg=y}";
    Bench {
        name: "session".to_owned(),
        translator: Translator::new(
            spec::parse(spec).expect("valid"),
            Registry::with_predefined(),
        ),
        inputs: sessions
            .iter()
            .map(|&(doc_size, rounds, command_cost)| AppInput {
                args: vec!["-s".into(), doc_size.to_string()],
                vfs: Vfs::new(),
                program: Arc::new(
                    minijava::compile(&session_source(doc_size, rounds, command_cost))
                        .expect("compiles"),
                ),
            })
            .collect(),
    }
}

#[test]
fn host_interventions_after_capture_drop_the_factual_stamp() {
    // Mostly cold `index`/`render` passes, so the learner predicts them
    // cold; the command cost decides `apply_command`'s level.
    let mut sessions = Vec::new();
    for doc_size in [2_000, 3_000] {
        for rounds in [0, 0, 0, 6] {
            for command_cost in [1, 20] {
                sessions.push((doc_size, rounds, command_cost));
            }
        }
    }
    let bench = session_bench(&sessions);
    let config = CampaignConfig::new(Scenario::Evolve)
        .runs(18)
        .seed(7)
        .fork_snapshots(8);
    let oracle = DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles);
    let mut sink = CollectSink {
        consume: true,
        ..CollectSink::default()
    };
    Campaign::new(&bench, config)
        .expect("session programs verify")
        .run_with_sink(&oracle, None, &mut sink)
        .expect("campaign runs");
    // Capture order is fork-index order, and the epoch only grows: in
    // every run the stamped points are a suffix, each stamped with the
    // run's total.
    let mut runs_with_intervention = 0usize;
    let mut chosen_diverged = 0usize;
    for run in sink.points.chunk_by(|a, b| a.run_index == b.run_index) {
        let unstamped = run
            .iter()
            .take_while(|p| p.snapshot.factual_total_cycles().is_none())
            .count();
        for point in &run[unstamped..] {
            assert_eq!(
                point.snapshot.factual_total_cycles(),
                Some(point.base_total_cycles),
                "run {}: stamps must be a suffix equal to the run's total",
                point.run_index
            );
        }
        if unstamped == 0 {
            continue;
        }
        // The host intervened after these captures. `replay` cannot reuse
        // the factual run for them and must still match the oracle.
        assert!(unstamped < run.len(), "no capture after the pause");
        runs_with_intervention += 1;
        for point in run {
            let samples = assert_replay_matches_oracle(
                &format!("session run {} fork {}", point.run_index, point.fork_index),
                point,
            );
            let chosen = samples.iter().find(|s| s.chosen).expect("one chosen level");
            if point.snapshot.factual_total_cycles().is_none()
                && chosen.total_cycles != chosen.base_total_cycles
            {
                chosen_diverged += 1;
            }
        }
    }
    assert!(
        runs_with_intervention > 0,
        "no run re-predicted at its pause after a fork capture"
    );
    // Why the stamp exists: a chosen-level replay skips the pause's
    // overhead and strategy, so it need not equal the factual run.
    assert!(chosen_diverged > 0);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// The snapshot boundary is arbitrary: interrupting the run at any
    /// budget and resuming reproduces the straight run bit for bit.
    #[test]
    fn snapshot_resume_equivalence_holds_at_random_boundaries(
        numerator in 1u64..100,
        mode_fast in proptest::bool::ANY,
    ) {
        let mode = if mode_fast { InterpMode::Fast } else { InterpMode::Reference };
        let bench = workloads::by_name("euler").expect("bundled workload");
        let program = &bench.inputs[0].program;
        let straight = straight_run(program, mode);
        let budget = (straight.total_cycles * numerator / 100).max(1);
        let resumed = interrupted_run(program, mode, budget);
        prop_assert_eq!(resumed.total_cycles, straight.total_cycles);
        prop_assert_eq!(resumed.instructions, straight.instructions);
        prop_assert_eq!(&resumed.output, &straight.output);
        prop_assert_eq!(&resumed.profile.samples, &straight.profile.samples);
        prop_assert_eq!(&resumed.profile.recompilations, &straight.profile.recompilations);
    }
}
