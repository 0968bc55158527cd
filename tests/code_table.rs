//! Exactness of the shared code table ([`CodeTable`]):
//!
//! - every version a table serves is exactly what
//!   [`Optimizer::compile_checked`] emits, on every workload, method and
//!   level, with fusion on and off, and the table's frame bounds are the
//!   verifier's;
//! - runs, resumes and fork replays on one table read the same clocks as
//!   runs on private tables, and the table compiles exactly the versions
//!   they install, each once;
//! - threads racing on one table's slots compile each slot once and get
//!   the same version;
//! - a Table I session through [`CampaignService`] compiles each
//!   (input, method, level) once, a pinned count, whatever the pool
//!   width;
//! - a table serves only the program it was built from, even when the
//!   service shares one oracle between two benches whose programs differ
//!   (the oracle keys on a fingerprint that does not hash code).

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::thread;

use evolvable_vm::bytecode::analysis::frame_bounds;
use evolvable_vm::bytecode::verify::verify_with_facts;
use evolvable_vm::bytecode::{FuncId, Instr, Program};
use evolvable_vm::evovm::{
    Bench, CampaignConfig, CampaignHandle, CampaignService, RunEvent, RunRecord, Scenario,
    ShutdownMode,
};
use evolvable_vm::opt::{CompiledCode, OptLevel, Optimizer};
use evolvable_vm::vm::{
    AosPolicy, BaselineOnlyPolicy, CodeTable, CostBenefitPolicy, Outcome, RunResult, Vm, VmConfig,
};
use evolvable_vm::workloads;

fn assert_same_version(got: &CompiledCode, want: &CompiledCode, what: &str) {
    assert_eq!(got.level, want.level, "{what}: level");
    assert_eq!(got.code, want.code, "{what}: code");
    assert_eq!(got.cost_milli, want.cost_milli, "{what}: cost_milli");
    assert_eq!(got.locals, want.locals, "{what}: locals");
    assert_eq!(
        got.compile_cycles, want.compile_cycles,
        "{what}: compile_cycles"
    );
    assert_eq!(
        got.quality.to_bits(),
        want.quality.to_bits(),
        "{what}: quality"
    );
    assert_eq!(
        got.quality_milli, want.quality_milli,
        "{what}: quality_milli"
    );
    assert_eq!(got.max_stack, want.max_stack, "{what}: max_stack");
}

/// Every (method, level) slot of `program`.
fn slots(program: &Program) -> Vec<(FuncId, OptLevel)> {
    (0..program.functions().len())
        .flat_map(|i| OptLevel::ALL.map(|level| (FuncId(i as u32), level)))
        .collect()
}

#[test]
fn table_versions_equal_compile_checked_on_every_workload() {
    for name in workloads::names() {
        let bench = workloads::by_name(name).expect("bundled workload");
        let program = &bench.inputs[0].program;
        let facts = verify_with_facts(program).expect("workloads verify");
        for fuse in [true, false] {
            let table = CodeTable::new(Arc::clone(program), fuse).expect("workloads verify");
            assert_eq!(table.fuse(), fuse);
            assert_eq!(
                table.frame_bounds(),
                frame_bounds(program, &facts),
                "{name}: frame bounds"
            );
            let optimizer = Optimizer::new().with_fusion(fuse);
            let slots = slots(program);
            for &(method, level) in &slots {
                let what = format!("{name} {method:?} {level:?} fuse={fuse}");
                let got = table.version(method, level).expect("no miscompile");
                let want = optimizer
                    .compile_checked(program, method, level)
                    .expect("no miscompile");
                assert_same_version(&got, &want, &what);
                // A second request serves the same buffers.
                let again = table.version(method, level).expect("memoized");
                assert!(Arc::ptr_eq(&got.code, &again.code), "{what}: code shared");
                assert!(
                    Arc::ptr_eq(&got.cost_milli, &again.cost_milli),
                    "{what}: costs shared"
                );
            }
            assert_eq!(
                table.compiles(),
                slots.len() as u64,
                "{name}: one compile per slot"
            );
        }
    }
}

/// Every version `result`'s run installed: the Baseline of each invoked
/// method and the target of each recompilation.
fn installed(result: &RunResult) -> BTreeSet<(u32, i8)> {
    let invoked = result
        .profile
        .invocations
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, _)| (i as u32, OptLevel::Baseline.as_i8()));
    let recompiled = result
        .profile
        .recompilations
        .iter()
        .map(|e| (e.method.0, e.to.as_i8()));
    invoked.chain(recompiled).collect()
}

fn run_to_end(mut vm: Vm) -> RunResult {
    loop {
        match vm.run().expect("workload runs") {
            Outcome::Finished(result) => return *result,
            Outcome::FeaturesReady => continue,
        }
    }
}

fn assert_same_clock(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.total_cycles, b.total_cycles, "{what}: total cycles");
    assert_eq!(a.compile_cycles, b.compile_cycles, "{what}: compile cycles");
    assert_eq!(a.instructions, b.instructions, "{what}: instructions");
    assert_eq!(a.output, b.output, "{what}: output");
    assert_eq!(
        a.profile.recompilations, b.profile.recompilations,
        "{what}: recompilations"
    );
    assert_eq!(a.profile.samples, b.profile.samples, "{what}: samples");
}

#[test]
fn runs_and_replays_on_one_table_compile_each_installed_version_once() {
    for name in ["db", "search", "fop"] {
        let bench = workloads::by_name(name).expect("bundled workload");
        let program = &bench.inputs[0].program;
        let table = Arc::new(CodeTable::new(Arc::clone(program), true).expect("verifies"));
        let config = VmConfig {
            fork_snapshots: 4,
            ..VmConfig::default()
        };
        let policies: [fn() -> Box<dyn AosPolicy>; 2] = [
            || Box::new(CostBenefitPolicy::new()),
            || Box::new(BaselineOnlyPolicy),
        ];
        let mut needed = BTreeSet::new();
        for policy in policies {
            // Twice on the shared table: the second run finds it warm.
            for _ in 0..2 {
                let mut vm = Vm::with_table(Arc::clone(&table), policy(), config.clone());
                let shared = loop {
                    match vm.run().expect("workload runs") {
                        Outcome::Finished(result) => break *result,
                        Outcome::FeaturesReady => continue,
                    }
                };
                let private =
                    Vm::new(Arc::clone(program), policy(), config.clone()).expect("verifies");
                assert_same_clock(&shared, &run_to_end(private), name);
                needed.extend(installed(&shared));
                // Every fork point resumed under every level, on the
                // table its snapshot carries.
                for point in vm.take_fork_snapshots() {
                    for level in OptLevel::ALL {
                        let mut snapshot = point.clone();
                        snapshot.override_decision(Some(level));
                        let resumed = Vm::resume(snapshot).expect("replays");
                        needed.extend(installed(&run_to_end(resumed)));
                    }
                }
            }
        }
        assert_eq!(
            table.compiles(),
            needed.len() as u64,
            "{name}: the table compiled each installed version exactly once"
        );
    }
}

#[test]
fn racing_threads_compile_each_slot_once() {
    let bench = workloads::by_name("db").expect("bundled workload");
    let program = &bench.inputs[0].program;
    let slots = slots(program);
    for round in 0..4 {
        let table = CodeTable::new(Arc::clone(program), true).expect("verifies");
        let barrier = Barrier::new(2);
        // Even rounds walk the slots in the same order, so the threads
        // contend on each slot; odd rounds walk them in opposite orders.
        let walk = |reverse: bool| {
            barrier.wait();
            let order: Vec<usize> = if reverse {
                (0..slots.len()).rev().collect()
            } else {
                (0..slots.len()).collect()
            };
            let mut versions: Vec<Option<CompiledCode>> = vec![None; slots.len()];
            for i in order {
                let (method, level) = slots[i];
                versions[i] = Some(table.version(method, level).expect("no miscompile"));
            }
            versions
        };
        let (a, b) = thread::scope(|s| {
            let a = s.spawn(|| walk(false));
            let b = s.spawn(|| walk(round % 2 == 1));
            (a.join().expect("thread a"), b.join().expect("thread b"))
        });
        assert_eq!(table.compiles(), slots.len() as u64, "round {round}");
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (x.as_ref().expect("filled"), y.as_ref().expect("filled"));
            assert!(Arc::ptr_eq(&x.code, &y.code), "round {round}: one version");
            assert!(
                Arc::ptr_eq(&x.cost_milli, &y.cost_milli),
                "round {round}: one cost table"
            );
        }
    }
}

fn records(handle: CampaignHandle) -> Vec<RunRecord> {
    let mut records = Vec::new();
    loop {
        match handle
            .next_event()
            .expect("a terminal event ends the stream")
        {
            RunEvent::Record(record) => records.push(record),
            RunEvent::ForkSample(_) => {}
            RunEvent::Finished(result) => {
                result.expect("campaign succeeds");
                return records;
            }
        }
    }
}

/// Compiles of a Table I session (11 workloads × Default, Rep and
/// Evolve, 3 runs each at seed 11): one per (input, method, level) the
/// session's baseline and campaign runs install.
const TABLE1_SESSION_COMPILES: u64 = 674;

fn table1_session(workers: usize) -> u64 {
    let service = CampaignService::builder().workers(workers).spawn();
    let session: Vec<(Arc<Bench>, CampaignConfig)> = workloads::names()
        .into_iter()
        .flat_map(|name| {
            let bench = Arc::new(workloads::by_name(name).expect("bundled workload"));
            [Scenario::Default, Scenario::Rep, Scenario::Evolve].map(|scenario| {
                (
                    Arc::clone(&bench),
                    CampaignConfig::new(scenario).runs(3).seed(11),
                )
            })
        })
        .collect();
    let submit_all = || {
        let handles: Vec<CampaignHandle> = session
            .iter()
            .map(|(bench, config)| {
                service
                    .submit(Arc::clone(bench), config.clone())
                    .expect("service accepts")
            })
            .collect();
        handles.into_iter().map(records).collect::<Vec<_>>()
    };
    let first = submit_all();
    let compiles = service.metrics().compiles;
    // The same session again: every version is in the tables already.
    let second = submit_all();
    assert_eq!(
        service.metrics().compiles,
        compiles,
        "a rerun compiles nothing"
    );
    for (a, b) in first.iter().flatten().zip(second.iter().flatten()) {
        assert_eq!(a.cycles, b.cycles);
    }
    service.shutdown(ShutdownMode::Drain);
    compiles
}

#[test]
fn a_table1_session_compiles_each_version_once() {
    let compiles = table1_session(1);
    assert_eq!(compiles, TABLE1_SESSION_COMPILES);
    assert_eq!(table1_session(3), compiles, "independent of the pool width");
}

/// `bench` with the first constant above 1 in each input's `main`
/// lowered by one: the same name, command lines, files and function
/// counts (so the same oracle fingerprint), different code.
fn with_changed_constant(bench: &Bench) -> Bench {
    let mut changed = bench.clone();
    for input in &mut changed.inputs {
        let mut program = (*input.program).clone();
        let main = program.find("main").expect("a main function");
        let constant = program
            .function_mut(main)
            .code
            .iter_mut()
            .find_map(|instr| match instr {
                Instr::Const(v) if *v > 1 => Some(v),
                _ => None,
            })
            .expect("main has a constant above 1");
        *constant -= 1;
        input.program = Arc::new(program);
    }
    changed
}

#[test]
fn a_shared_oracle_runs_each_bench_on_its_own_code() {
    let original = Arc::new(workloads::by_name("search").expect("bundled workload"));
    let changed = Arc::new(with_changed_constant(&original));
    assert_eq!(original.name, changed.name);
    for (a, b) in original.inputs.iter().zip(&changed.inputs) {
        assert_eq!((&a.args, &a.vfs), (&b.args, &b.vfs));
        assert_eq!(a.program.functions().len(), b.program.functions().len());
        assert_ne!(a.program, b.program);
    }
    let configs = [
        CampaignConfig::new(Scenario::Evolve).runs(6).seed(5),
        CampaignConfig::new(Scenario::Rep).runs(4).seed(8),
    ];
    let alone = |bench: &Arc<Bench>| -> Vec<Vec<RunRecord>> {
        let service = CampaignService::builder().workers(1).spawn();
        let out = configs
            .iter()
            .map(|config| {
                records(
                    service
                        .submit(Arc::clone(bench), config.clone())
                        .expect("accepts"),
                )
            })
            .collect();
        service.shutdown(ShutdownMode::Drain);
        out
    };
    let original_alone = alone(&original);
    let changed_alone = alone(&changed);
    // One service, one worker: the original fills the shared oracle and
    // its tables first, then the changed bench runs against them.
    let service = CampaignService::builder().workers(1).spawn();
    let handles: Vec<(bool, CampaignHandle)> = configs
        .iter()
        .flat_map(|config| {
            [(false, &original), (true, &changed)].map(|(is_changed, bench)| {
                let handle = service
                    .submit(Arc::clone(bench), config.clone())
                    .expect("accepts");
                (is_changed, handle)
            })
        })
        .collect();
    let mut shared: [Vec<Vec<RunRecord>>; 2] = [Vec::new(), Vec::new()];
    for (is_changed, handle) in handles {
        shared[usize::from(is_changed)].push(records(handle));
    }
    service.shutdown(ShutdownMode::Drain);

    let cycles = |runs: &[Vec<RunRecord>]| -> Vec<Vec<u64>> {
        runs.iter()
            .map(|r| r.iter().map(|x| x.cycles).collect())
            .collect()
    };
    assert_ne!(
        cycles(&original_alone),
        cycles(&changed_alone),
        "the changed constant shows in the clock"
    );
    assert_eq!(cycles(&shared[0]), cycles(&original_alone));
    assert_eq!(cycles(&shared[1]), cycles(&changed_alone));
    // The two benches did share one oracle: the changed bench's baseline
    // cycles are the original's memo. That is the oracle's standing
    // assumption about benches of equal fingerprint, left as it is.
    let defaults = |runs: &[Vec<RunRecord>]| -> Vec<Vec<u64>> {
        runs.iter()
            .map(|r| r.iter().map(|x| x.default_cycles).collect())
            .collect()
    };
    assert_eq!(defaults(&shared[1]), defaults(&original_alone));
}
