//! Engine-level tests: semantics, clock accounting, sampling, policies,
//! recompilation and the pause/resume protocol.

use std::sync::Arc;

use evovm_bytecode::asm::parse;
use evovm_bytecode::scalar::Scalar;
use evovm_opt::OptLevel;

use crate::{
    BaselineOnlyPolicy, CostBenefitPolicy, InterpMode, Outcome, Trap, Vm, VmConfig, VmError,
};

fn run_src(src: &str) -> crate::RunResult {
    run_src_with(src, VmConfig::default())
}

fn run_src_with(src: &str, config: VmConfig) -> crate::RunResult {
    let program = Arc::new(parse(src).unwrap());
    let mut vm = Vm::new(program, Box::new(CostBenefitPolicy::new()), config).unwrap();
    match vm.run().unwrap() {
        Outcome::Finished(r) => *r,
        Outcome::FeaturesReady => panic!("unexpected pause"),
    }
}

#[test]
fn arithmetic_and_print() {
    let r =
        run_src("entry func main/0 {\n  const 6\n  const 7\n  mul\n  print\n  null\n  return\n}");
    assert_eq!(r.output, vec!["42"]);
    assert!(r.total_cycles > 0);
    assert_eq!(r.total_cycles, r.exec_cycles + r.compile_cycles);
}

#[test]
fn loops_and_calls() {
    let r = run_src(
        "entry func main/0 locals=1 {
  const 0
  store 0
top:
  load 0
  const 5
  icmpge
  jumpif end
  load 0
  call square
  print
  load 0
  const 1
  iadd
  store 0
  jump top
end:
  null
  return
}
func square/1 {
  load 0
  load 0
  imul
  return
}",
    );
    assert_eq!(r.output, vec!["0", "1", "4", "9", "16"]);
    let p = parse("entry func main/0 {\n null\n return\n}").unwrap();
    drop(p);
    assert_eq!(r.profile.invocations[1], 5);
}

#[test]
fn recursion_works() {
    let r = run_src(
        "entry func main/0 {
  const 10
  call fib
  print
  null
  return
}
func fib/1 {
  load 0
  const 2
  icmplt
  jumpifnot rec
  load 0
  return
rec:
  load 0
  const 1
  isub
  call fib
  load 0
  const 2
  isub
  call fib
  iadd
  return
}",
    );
    assert_eq!(r.output, vec!["55"]);
}

#[test]
fn arrays_roundtrip() {
    let r = run_src(
        "entry func main/0 locals=2 {
  const 3
  newarray
  store 0
  load 0
  const 0
  const 11
  astore
  load 0
  const 2
  const 33
  astore
  load 0
  const 0
  aload
  load 0
  const 2
  aload
  iadd
  print
  load 0
  alen
  print
  null
  return
}",
    );
    assert_eq!(r.output, vec!["44", "3"]);
}

#[test]
fn float_formatting_is_stable() {
    let r = run_src(
        "entry func main/0 {\n  fconst 2.5\n  fconst 0.5\n  fadd\n  print\n  const 9\n  math sqrt\n  print\n  null\n  return\n}",
    );
    assert_eq!(r.output, vec!["3", "3"]);
}

#[test]
fn div_by_zero_traps() {
    let program = Arc::new(
        parse("entry func main/0 {\n  const 1\n  const 0\n  idiv\n  print\n  null\n  return\n}")
            .unwrap(),
    );
    let mut vm = Vm::new(program, Box::new(BaselineOnlyPolicy), VmConfig::default()).unwrap();
    assert_eq!(vm.run().unwrap_err(), VmError::Trap(Trap::DivByZero));
}

#[test]
fn deep_recursion_overflows() {
    let program = Arc::new(
        parse(
            "entry func main/0 {\n  const 0\n  call forever\n  print\n  null\n  return\n}\nfunc forever/1 {\n  load 0\n  call forever\n  return\n}",
        )
        .unwrap(),
    );
    let mut vm = Vm::new(program, Box::new(BaselineOnlyPolicy), VmConfig::default()).unwrap();
    assert_eq!(vm.run().unwrap_err(), VmError::Trap(Trap::StackOverflow));
}

#[test]
fn cycle_budget_is_enforced() {
    let src = "entry func main/0 {
top:
  const 1
  jumpif top
  null
  return
}";
    let program = Arc::new(parse(src).unwrap());
    let mut vm = Vm::new(
        program,
        Box::new(BaselineOnlyPolicy),
        VmConfig {
            cycle_budget: Some(100_000),
            ..VmConfig::default()
        },
    )
    .unwrap();
    assert!(matches!(
        vm.run().unwrap_err(),
        VmError::CycleBudgetExceeded { .. }
    ));
}

/// A program that spins in a hot helper long enough for the sampler and
/// cost-benefit policy to engage.
fn hot_program(iters: u64) -> String {
    format!(
        "entry func main/0 locals=1 {{
  const 0
  store 0
top:
  load 0
  const {iters}
  icmpge
  jumpif end
  load 0
  call work
  pop
  load 0
  const 1
  iadd
  store 0
  jump top
end:
  null
  return
}}
func work/1 locals=2 {{
  const 0
  store 1
inner:
  load 1
  const 200
  cmpge
  jumpif out
  load 1
  const 3
  mul
  const 7
  add
  pop
  load 1
  const 1
  add
  store 1
  jump inner
out:
  load 1
  return
}}"
    )
}

#[test]
fn sampler_attributes_samples_to_the_hot_method() {
    let r = run_src(&hot_program(2_000));
    let p = parse(&hot_program(2_000)).unwrap();
    let work = p.find("work").unwrap();
    assert!(r.profile.total_samples() > 10);
    assert!(
        r.profile.samples[work.index()] > r.profile.samples[p.entry().index()],
        "work should dominate the samples: {:?}",
        r.profile.samples
    );
}

#[test]
fn cost_benefit_policy_recompiles_hot_methods() {
    let r = run_src(&hot_program(2_000));
    let p = parse(&hot_program(2_000)).unwrap();
    let work = p.find("work").unwrap();
    assert!(
        !r.profile.recompilations.is_empty(),
        "expected at least one recompilation"
    );
    assert!(r.profile.final_levels[work.index()] > OptLevel::Baseline);
    assert!(r.compile_cycles > 0);
}

#[test]
fn adaptive_run_beats_baseline_only_run() {
    let src = hot_program(2_000);
    let adaptive = run_src(&src);
    let program = Arc::new(parse(&src).unwrap());
    let mut vm = Vm::new(program, Box::new(BaselineOnlyPolicy), VmConfig::default()).unwrap();
    let baseline = match vm.run().unwrap() {
        Outcome::Finished(r) => *r,
        Outcome::FeaturesReady => unreachable!(),
    };
    assert_eq!(
        adaptive.output, baseline.output,
        "semantics must not change"
    );
    assert!(
        adaptive.total_cycles < baseline.total_cycles,
        "adaptive {} should beat baseline {}",
        adaptive.total_cycles,
        baseline.total_cycles
    );
}

#[test]
fn publish_and_done_pause_the_machine() {
    let src = "entry func main/0 {
  const 128
  publish \"size\"
  fconst 0.5
  publish \"ratio\"
  done
  const 1
  print
  null
  return
}";
    let program = Arc::new(parse(src).unwrap());
    let mut vm = Vm::new(program, Box::new(BaselineOnlyPolicy), VmConfig::default()).unwrap();
    match vm.run().unwrap() {
        Outcome::FeaturesReady => {}
        Outcome::Finished(_) => panic!("expected a pause at done"),
    }
    assert_eq!(
        vm.published(),
        &[
            ("size".to_owned(), Scalar::Int(128)),
            ("ratio".to_owned(), Scalar::Float(0.5)),
        ]
    );
    // Swap in a different policy mid-pause (the evolvable VM's move).
    let _old = vm.replace_policy(Box::new(CostBenefitPolicy::new()));
    match vm.run().unwrap() {
        Outcome::Finished(r) => assert_eq!(r.output, vec!["1"]),
        Outcome::FeaturesReady => panic!("expected completion"),
    }
    assert!(matches!(vm.run(), Err(VmError::AlreadyFinished)));
}

#[test]
fn determinism_same_program_same_cycles() {
    let a = run_src(&hot_program(1_000));
    let b = run_src(&hot_program(1_000));
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.profile.samples, b.profile.samples);
    assert_eq!(a.output, b.output);
}

#[test]
fn optimized_code_is_semantically_identical() {
    // Force every method to each level via a policy that pins levels.
    #[derive(Debug, Clone)]
    struct PinPolicy(OptLevel);
    impl crate::AosPolicy for PinPolicy {
        fn on_first_compile(
            &mut self,
            _m: evovm_bytecode::FuncId,
            _ctx: crate::AosContext<'_>,
        ) -> Option<OptLevel> {
            Some(self.0)
        }
        fn fork_box(&self) -> Box<dyn crate::AosPolicy> {
            Box::new(self.clone())
        }
    }
    let src = hot_program(500);
    let mut outputs = Vec::new();
    for level in OptLevel::ALL {
        let program = Arc::new(parse(&src).unwrap());
        let mut vm = Vm::new(program, Box::new(PinPolicy(level)), VmConfig::default()).unwrap();
        match vm.run().unwrap() {
            Outcome::Finished(r) => outputs.push(r.output),
            Outcome::FeaturesReady => unreachable!(),
        }
    }
    for w in outputs.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

#[test]
fn pinned_higher_levels_run_fewer_exec_cycles() {
    #[derive(Debug, Clone)]
    struct PinPolicy(OptLevel);
    impl crate::AosPolicy for PinPolicy {
        fn on_first_compile(
            &mut self,
            _m: evovm_bytecode::FuncId,
            _ctx: crate::AosContext<'_>,
        ) -> Option<OptLevel> {
            Some(self.0)
        }
        fn fork_box(&self) -> Box<dyn crate::AosPolicy> {
            Box::new(self.clone())
        }
    }
    let src = hot_program(500);
    let mut exec = Vec::new();
    for level in [OptLevel::Baseline, OptLevel::O0, OptLevel::O1] {
        let program = Arc::new(parse(&src).unwrap());
        let mut vm = Vm::new(program, Box::new(PinPolicy(level)), VmConfig::default()).unwrap();
        match vm.run().unwrap() {
            Outcome::Finished(r) => exec.push(r.exec_cycles),
            Outcome::FeaturesReady => unreachable!(),
        }
    }
    assert!(exec[0] > exec[1], "O0 beats baseline: {exec:?}");
    assert!(exec[1] > exec[2], "O1 beats O0: {exec:?}");
}

#[test]
fn apply_strategy_recompiles_compiled_methods_upward() {
    let src = "entry func main/0 {
  const 1
  publish \"x\"
  done
  const 5
  call work
  print
  null
  return
}
func work/1 {
  load 0
  const 2
  imul
  return
}";
    let program = Arc::new(parse(src).unwrap());
    let work = program.find("work").unwrap();
    let mut vm = Vm::new(
        Arc::clone(&program),
        Box::new(BaselineOnlyPolicy),
        VmConfig::default(),
    )
    .unwrap();
    let Outcome::FeaturesReady = vm.run().unwrap() else {
        panic!("expected pause");
    };
    let cycles_before = vm.cycles();
    // main is compiled (it is running); work is not yet. Apply a strategy
    // covering both: only main recompiles now.
    let mut levels = vec![None; 2];
    levels[0] = Some(OptLevel::O2);
    levels[work.index()] = Some(OptLevel::O2);
    vm.apply_strategy(&levels).unwrap();
    assert!(vm.cycles() > cycles_before, "recompilation charged");
    let Outcome::Finished(r) = vm.run().unwrap() else {
        panic!("expected completion");
    };
    assert_eq!(r.output, vec!["10"]);
    // main was upgraded by apply_strategy; work stayed baseline because
    // apply_strategy only touches already-compiled methods.
    assert_eq!(r.profile.final_levels[0], OptLevel::O2);
    assert_eq!(r.profile.final_levels[work.index()], OptLevel::Baseline);
    assert_eq!(r.profile.recompilations.len(), 1);
}

#[test]
fn charge_overhead_moves_the_clock() {
    let program = Arc::new(parse("entry func main/0 {\n  null\n  return\n}").unwrap());
    let mut vm = Vm::new(program, Box::new(BaselineOnlyPolicy), VmConfig::default()).unwrap();
    vm.charge_overhead(1234).unwrap();
    assert_eq!(vm.cycles(), 1234);
    let Outcome::Finished(r) = vm.run().unwrap() else {
        panic!("expected completion");
    };
    assert!(r.total_cycles >= 1234);
    assert_eq!(r.total_cycles - r.exec_cycles - r.compile_cycles, 1234);
}

#[test]
fn seconds_conversion() {
    let r = run_src("entry func main/0 {\n  null\n  return\n}");
    assert!(r.seconds() > 0.0);
    assert!(r.seconds() < 1.0);
}

#[test]
fn fast_and_reference_interpreters_agree_bit_for_bit() {
    let src = hot_program(2_000);
    let mut results = Vec::new();
    for mode in [InterpMode::Fast, InterpMode::Reference] {
        let program = Arc::new(parse(&src).unwrap());
        let mut vm = Vm::new(
            program,
            Box::new(CostBenefitPolicy::new()),
            VmConfig {
                sample_interval_cycles: 10_000,
                interp: mode,
                ..VmConfig::default()
            },
        )
        .unwrap();
        let Outcome::Finished(r) = vm.run().unwrap() else {
            panic!("expected completion");
        };
        results.push(r);
    }
    let (a, b) = (&results[0], &results[1]);
    assert_eq!(a.output, b.output);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.compile_cycles, b.compile_cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.profile.samples, b.profile.samples);
    assert_eq!(a.profile.invocations, b.profile.invocations);
    assert_eq!(a.profile.final_levels, b.profile.final_levels);
    assert_eq!(a.profile.recompilations, b.profile.recompilations);
    // The comparison only means something if the run exercised sampling
    // and recompilation.
    assert!(a.profile.total_samples() > 0);
    assert!(!a.profile.recompilations.is_empty());
}

#[test]
fn budget_trips_at_the_same_cycle_in_both_modes() {
    let src = hot_program(50_000);
    let mut stops = Vec::new();
    for mode in [InterpMode::Fast, InterpMode::Reference] {
        let program = Arc::new(parse(&src).unwrap());
        let mut vm = Vm::new(
            program,
            Box::new(BaselineOnlyPolicy),
            VmConfig {
                cycle_budget: Some(500_000),
                interp: mode,
                ..VmConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            vm.run().unwrap_err(),
            VmError::CycleBudgetExceeded { .. }
        ));
        stops.push(vm.cycles());
    }
    assert_eq!(stops[0], stops[1]);
}

#[test]
fn launch_overhead_skips_ticks_instead_of_deferring_them() {
    let program = Arc::new(parse("entry func main/0 {\n  null\n  return\n}").unwrap());
    let mut vm = Vm::new(
        program,
        Box::new(BaselineOnlyPolicy),
        VmConfig {
            sample_interval_cycles: 1_000,
            ..VmConfig::default()
        },
    )
    .unwrap();
    // Ten intervals of prediction overhead before launch: nothing is
    // running, so the ticks are dropped (like a timer firing in an idle
    // VM), not delivered to the entry method's first instruction.
    vm.charge_overhead(10_000).unwrap();
    let Outcome::Finished(r) = vm.run().unwrap() else {
        panic!("expected completion");
    };
    assert_eq!(r.profile.total_samples(), 0);
    assert_eq!(r.total_cycles - r.exec_cycles - r.compile_cycles, 10_000);
}

#[test]
fn pause_overhead_delivers_ticks_to_the_paused_method() {
    let src = "entry func main/0 {\n  const 1\n  publish \"x\"\n  done\n  null\n  return\n}";
    let program = Arc::new(parse(src).unwrap());
    let mut vm = Vm::new(
        program,
        Box::new(BaselineOnlyPolicy),
        VmConfig {
            sample_interval_cycles: 1_000,
            ..VmConfig::default()
        },
    )
    .unwrap();
    let Outcome::FeaturesReady = vm.run().unwrap() else {
        panic!("expected pause");
    };
    // Five intervals of prediction overhead while main is paused
    // mid-method: an equal amount of executed cycles would have delivered
    // five samples, and so does the overhead.
    vm.charge_overhead(5_000).unwrap();
    let Outcome::Finished(r) = vm.run().unwrap() else {
        panic!("expected completion");
    };
    assert_eq!(r.profile.total_samples(), 5);
    assert_eq!(r.profile.samples[0], 5);
}

#[test]
fn run_result_counts_retired_instructions() {
    let r =
        run_src("entry func main/0 {\n  const 6\n  const 7\n  mul\n  print\n  null\n  return\n}");
    assert_eq!(r.instructions, 6);
}

/// Compare every bit-comparable field of two results (floats via output
/// formatting, which is already exact for identical bits).
fn assert_identical(a: &crate::RunResult, b: &crate::RunResult) {
    assert_eq!(a.output, b.output);
    assert_eq!(a.published, b.published);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.compile_cycles, b.compile_cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.profile.samples, b.profile.samples);
    assert_eq!(a.profile.invocations, b.profile.invocations);
    assert_eq!(a.profile.final_levels, b.profile.final_levels);
    assert_eq!(a.profile.recompilations, b.profile.recompilations);
    assert_eq!(a.profile.peak_call_depth, b.profile.peak_call_depth);
    assert_eq!(a.profile.peak_arena_slots, b.profile.peak_arena_slots);
}

#[test]
fn snapshot_at_pause_resumes_bit_identically() {
    let src = "entry func main/0 {
  const 1
  publish \"x\"
  done
  const 5
  call work
  print
  null
  return
}
func work/1 locals=2 {
  const 0
  store 1
inner:
  load 1
  const 50
  cmpge
  jumpif out
  load 1
  const 1
  add
  store 1
  jump inner
out:
  load 0
  load 1
  imul
  return
}";
    for mode in [InterpMode::Fast, InterpMode::Reference] {
        let config = VmConfig {
            sample_interval_cycles: 1_000,
            interp: mode,
            ..VmConfig::default()
        };
        let program = Arc::new(parse(src).unwrap());
        let mut straight = Vm::new(
            Arc::clone(&program),
            Box::new(CostBenefitPolicy::new()),
            config.clone(),
        )
        .unwrap();
        let Outcome::FeaturesReady = straight.run().unwrap() else {
            panic!("expected pause");
        };
        // Fork the paused run, then drive both to completion.
        let snap = straight.snapshot();
        let mut resumed = Vm::resume(snap).unwrap();
        let Outcome::Finished(a) = straight.run().unwrap() else {
            panic!("expected completion");
        };
        let Outcome::Finished(b) = resumed.run().unwrap() else {
            panic!("expected completion");
        };
        assert_identical(&a, &b);
    }
}

#[test]
fn fork_points_capture_recompilation_decisions() {
    let src = hot_program(2_000);
    for mode in [InterpMode::Fast, InterpMode::Reference] {
        let config = VmConfig {
            sample_interval_cycles: 10_000,
            interp: mode,
            fork_snapshots: 8,
            ..VmConfig::default()
        };
        let program = Arc::new(parse(&src).unwrap());
        let mut vm = Vm::new(program, Box::new(CostBenefitPolicy::new()), config).unwrap();
        let Outcome::Finished(straight) = vm.run().unwrap() else {
            panic!("expected completion");
        };
        let forks = vm.take_fork_snapshots();
        assert!(
            !straight.profile.recompilations.is_empty(),
            "run must recompile for the test to mean anything"
        );
        // Sample-driven decisions are captured (the proactive
        // on_first_compile path is not a fork point), and each snapshot
        // replays its decision to the same final result.
        assert!(!forks.is_empty());
        assert!(forks.len() <= straight.profile.recompilations.len());
        for snap in forks {
            let (method, level) = snap.pending_decision().expect("fork carries a decision");
            assert!(level > snap.level_of(method));
            let mut replay = Vm::resume(snap).unwrap();
            let Outcome::Finished(r) = replay.run().unwrap() else {
                panic!("expected completion");
            };
            assert_identical(&straight, &r);
        }
    }
}

#[test]
fn overridden_fork_decision_diverges_from_the_original() {
    let src = hot_program(2_000);
    let config = VmConfig {
        sample_interval_cycles: 10_000,
        fork_snapshots: 1,
        ..VmConfig::default()
    };
    let program = Arc::new(parse(&src).unwrap());
    let mut vm = Vm::new(program, Box::new(CostBenefitPolicy::new()), config).unwrap();
    let Outcome::Finished(straight) = vm.run().unwrap() else {
        panic!("expected completion");
    };
    let mut forks = vm.take_fork_snapshots();
    let mut snap = forks.pop().expect("one fork point");
    // Suppress the recompilation: the counterfactual keeps the sampled
    // method at its current level for now. The stateless cost-benefit
    // policy re-makes the decision on a later tick, so the observable
    // output is unchanged but the recompilation timeline shifts.
    snap.override_decision(None);
    let mut replay = Vm::resume(snap).unwrap();
    let Outcome::Finished(r) = replay.run().unwrap() else {
        panic!("expected completion");
    };
    assert_eq!(straight.output, r.output);
    assert_ne!(straight.profile.recompilations, r.profile.recompilations);
}

#[test]
fn resumed_runs_never_self_capture() {
    let src = hot_program(2_000);
    let config = VmConfig {
        sample_interval_cycles: 10_000,
        fork_snapshots: 8,
        ..VmConfig::default()
    };
    let program = Arc::new(parse(&src).unwrap());
    let mut vm = Vm::new(program, Box::new(CostBenefitPolicy::new()), config).unwrap();
    vm.run().unwrap();
    let snap = vm
        .take_fork_snapshots()
        .into_iter()
        .next()
        .expect("one fork point");
    let mut replay = Vm::resume(snap).unwrap();
    replay.run().unwrap();
    assert!(replay.take_fork_snapshots().is_empty());
}

/// Two hot phases separated by an interactive pause: each phase drives
/// its own method through sampler-driven recompilations, so fork points
/// are captured both before and after the pause.
fn two_phase_program(iters: u64) -> String {
    let phase = |label: &str, callee: &str, next: &str| {
        format!(
            "  const 0
  store 0
{label}:
  load 0
  const {iters}
  icmpge
  jumpif {next}
  load 0
  call {callee}
  pop
  load 0
  const 1
  iadd
  store 0
  jump {label}
"
        )
    };
    let kernel = |name: &str, mul: u32| {
        format!(
            "func {name}/1 locals=2 {{
  const 0
  store 1
{name}_loop:
  load 1
  const 200
  cmpge
  jumpif {name}_out
  load 1
  const {mul}
  mul
  const 7
  add
  pop
  load 1
  const 1
  add
  store 1
  jump {name}_loop
{name}_out:
  load 1
  return
}}
"
        )
    };
    format!(
        "entry func main/0 locals=1 {{
{}pause:
  const 1
  publish \"phase\"
  done
{}end:
  null
  return
}}
{}{}",
        phase("first", "early", "pause"),
        phase("second", "late", "end"),
        kernel("early", 3),
        kernel("late", 5),
    )
}

/// Run the two-phase program with fork capture on, letting `intervene`
/// act on the machine at the pause, and check the factual stamps: fork
/// points captured before the intervention carry none, later ones carry
/// the finished run's total, which resuming them under their captured
/// decision reproduces.
fn check_factual_stamps(intervene: impl Fn(&mut Vm)) {
    let program = Arc::new(parse(&two_phase_program(1_500)).unwrap());
    for mode in [InterpMode::Fast, InterpMode::Reference] {
        let config = VmConfig {
            sample_interval_cycles: 10_000,
            interp: mode,
            fork_snapshots: 16,
            ..VmConfig::default()
        };
        let mut vm = Vm::new(
            Arc::clone(&program),
            Box::new(CostBenefitPolicy::new()),
            config,
        )
        .unwrap();
        let Outcome::FeaturesReady = vm.run().unwrap() else {
            panic!("expected the pause");
        };
        let paused_at = vm.cycles();
        intervene(&mut vm);
        let Outcome::Finished(factual) = vm.run().unwrap() else {
            panic!("expected completion");
        };
        let forks = vm.take_fork_snapshots();
        let (before, after): (Vec<_>, Vec<_>) = forks
            .into_iter()
            .partition(|snap| snap.cycles() <= paused_at);
        assert!(!before.is_empty(), "{mode:?}: no capture before the pause");
        assert!(!after.is_empty(), "{mode:?}: no capture after the pause");
        for snap in &before {
            assert_eq!(snap.factual_total_cycles(), None, "{mode:?}");
        }
        for snap in after {
            assert_eq!(
                snap.factual_total_cycles(),
                Some(factual.total_cycles),
                "{mode:?}"
            );
            let mut replay = Vm::resume(snap).unwrap();
            let Outcome::Finished(r) = replay.run().unwrap() else {
                panic!("expected completion");
            };
            assert_identical(&factual, &r);
        }
    }
}

#[test]
fn charge_overhead_at_a_pause_drops_earlier_factual_stamps() {
    check_factual_stamps(|vm| vm.charge_overhead(25_000).unwrap());
}

#[test]
fn apply_strategy_at_a_pause_drops_earlier_factual_stamps() {
    check_factual_stamps(|vm| {
        let n = vm.program().functions().len();
        vm.apply_strategy(&vec![Some(OptLevel::O2); n]).unwrap();
    });
}

#[test]
fn replace_policy_at_a_pause_drops_earlier_factual_stamps() {
    check_factual_stamps(|vm| {
        vm.replace_policy(Box::new(CostBenefitPolicy::new()));
    });
}

#[test]
fn uninterrupted_runs_stamp_every_fork_point_and_snapshots_carry_none() {
    let program = Arc::new(parse(&two_phase_program(1_500)).unwrap());
    let config = VmConfig {
        sample_interval_cycles: 10_000,
        fork_snapshots: 16,
        ..VmConfig::default()
    };
    let mut vm = Vm::new(
        Arc::clone(&program),
        Box::new(CostBenefitPolicy::new()),
        config.clone(),
    )
    .unwrap();
    let Outcome::FeaturesReady = vm.run().unwrap() else {
        panic!("expected the pause");
    };
    // Reading features and snapshotting at a pause are not interventions.
    assert_eq!(vm.snapshot().factual_total_cycles(), None);
    let Outcome::Finished(factual) = vm.run().unwrap() else {
        panic!("expected completion");
    };
    let forks = vm.take_fork_snapshots();
    assert!(forks.len() > 1);
    for mut snap in forks {
        assert_eq!(snap.factual_total_cycles(), Some(factual.total_cycles));
        // A changed budget may trip where the factual run did not.
        snap.set_cycle_budget(Some(1));
        assert_eq!(snap.factual_total_cycles(), None);
    }
    // A run that errors out never finishes, so it stamps nothing.
    let mut tripped = Vm::new(
        program,
        Box::new(CostBenefitPolicy::new()),
        VmConfig {
            cycle_budget: Some(factual.total_cycles * 3 / 4),
            ..config
        },
    )
    .unwrap();
    loop {
        match tripped.run() {
            Ok(Outcome::FeaturesReady) => continue,
            Err(VmError::CycleBudgetExceeded { .. }) => break,
            other => panic!("expected the budget to trip, got {other:?}"),
        }
    }
    let forks = tripped.take_fork_snapshots();
    assert!(!forks.is_empty());
    assert!(forks
        .iter()
        .all(|snap| snap.factual_total_cycles().is_none()));
}

/// A trap inside a fused superinstruction must leave the same trap, the
/// same retired-instruction count as the unfused sequence, in both
/// dispatch loops: retirement is bracketed around the first component
/// that can trap. Each case's program sets up its locals, then runs one
/// fusable sequence whose trapping component fires; the pattern
/// names the superinstruction the −1 code must contain, so the case
/// really exercises the fused arm.
#[test]
fn traps_inside_fused_ops_retire_like_the_unfused_sequence() {
    use evovm_bytecode::Instr;
    // Locals: 0 = a 2-element array, 1 = the int 5, 2 = null; the `nop`
    // keeps the setup from fusing into the case.
    let setup = "const 2\n  newarray\n  store 0\n  const 5\n  store 1\n  null\n  store 2\n  nop";
    /// A source body, the fused form its −1 code must contain, the trap.
    type Case = (&'static str, fn(&Instr) -> bool, Trap);
    let cases: [Case; 11] = [
        // Out-of-bounds `a[5]` in `loadload; aload`.
        (
            "load 0\n  load 1\n  aload\n  print",
            |i| matches!(i, Instr::LoadLoadALoad(0, 1)),
            Trap::IndexOutOfBounds { index: 5, len: 2 },
        ),
        // Generic `null < 5` in `load; cmpbr`.
        (
            "null\n  load 1\n  cmplt\n  jumpif end",
            |i| matches!(i, Instr::LoadCmpBr(..)),
            Trap::TypeError,
        ),
        // `a[0 - 5]` in `load; sub; aload`: the op succeeds, the load traps.
        (
            "load 0\n  const 0\n  load 1\n  sub\n  aload\n  print",
            |i| matches!(i, Instr::LoadBinALoad(..)),
            Trap::IndexOutOfBounds { index: -5, len: 2 },
        ),
        // `null + 1` in `const; add; aload`: the op traps first.
        (
            "load 0\n  null\n  const 1\n  add\n  aload\n  print",
            |i| matches!(i, Instr::ConstBinALoad(..)),
            Trap::TypeError,
        ),
        // `a[5 + 1]` in `loadload; const; add; aload`.
        (
            "load 0\n  load 1\n  const 1\n  add\n  aload\n  print",
            |i| matches!(i, Instr::LoadLoadConstBinALoad(..)),
            Trap::IndexOutOfBounds { index: 6, len: 2 },
        ),
        // `a[null + 1]` in the same form: the op traps before the load.
        (
            "load 0\n  load 2\n  const 1\n  add\n  aload\n  print",
            |i| matches!(i, Instr::LoadLoadConstBinALoad(..)),
            Trap::TypeError,
        ),
        // `a[5 - 5]` is fine, `a[5 + 5]` is not, in `loadload; load; op; aload`.
        (
            "load 0\n  load 1\n  load 1\n  sub\n  aload\n  print\n  load 0\n  load 1\n  load 1\n  add\n  aload\n  print",
            |i| matches!(i, Instr::LoadLoadBinALoad(..)),
            Trap::IndexOutOfBounds { index: 10, len: 2 },
        ),
        // `x = null * 5` in `loadconst; mul; store`.
        (
            "load 2\n  const 5\n  mul\n  store 1",
            |i| matches!(i, Instr::LoadConstBinStore(..)),
            Trap::TypeError,
        ),
        // `x = null + 1; continue` in the loop-increment back-edge.
        (
            "load 2\n  const 1\n  add\n  store 1\n  jump end",
            |i| matches!(i, Instr::LoadConstBinStoreJump(..)),
            Trap::TypeError,
        ),
        // `x = 5 - null; continue` in `sub; store; jump`.
        (
            "load 1\n  null\n  sub\n  store 1\n  jump end",
            |i| matches!(i, Instr::BinStoreJump(..)),
            Trap::TypeError,
        ),
        // Out-of-bounds `a[5]` in the older `load; aload` form.
        (
            "load 0\n  pop\n  load 0\n  load 1\n  pop\n  load 1\n  aload\n  print",
            |i| matches!(i, Instr::LoadALoad(1)),
            Trap::IndexOutOfBounds { index: 5, len: 2 },
        ),
    ];
    for (body, fused_form, trap) in cases {
        let src = format!(
            "entry func main/0 locals=3 {{\n  {setup}\n  {body}\nend:\n  null\n  return\n}}"
        );
        let program = Arc::new(parse(&src).unwrap());
        let baseline =
            evovm_opt::Optimizer::new().compile(&program, program.entry(), OptLevel::Baseline);
        assert!(
            baseline.code.iter().any(fused_form),
            "{body}: −1 code lacks the fused form: {:?}",
            baseline.code
        );
        let mut seen = Vec::new();
        for fuse in [false, true] {
            for interp in [InterpMode::Fast, InterpMode::Reference] {
                let config = VmConfig {
                    fuse,
                    interp,
                    ..VmConfig::default()
                };
                let mut vm =
                    Vm::new(Arc::clone(&program), Box::new(BaselineOnlyPolicy), config).unwrap();
                assert_eq!(
                    vm.run().unwrap_err(),
                    VmError::Trap(trap),
                    "{body} (fuse={fuse})"
                );
                seen.push(vm.snapshot().instructions());
            }
        }
        assert!(
            seen.windows(2).all(|w| w[0] == w[1]),
            "{body}: the retired count differs: {seen:?}"
        );
    }
}

/// Recompiles one method a level up on every sample attributed to it,
/// and keeps asking for O2 (a no-op request) once it is there.
#[derive(Debug, Clone)]
struct EscalatePolicy {
    method: evovm_bytecode::FuncId,
}

impl crate::AosPolicy for EscalatePolicy {
    fn on_sample(
        &mut self,
        method: evovm_bytecode::FuncId,
        ctx: crate::AosContext<'_>,
    ) -> Option<OptLevel> {
        if method != self.method {
            return None;
        }
        let current = ctx.levels[method.index()];
        Some(
            OptLevel::ALL
                .into_iter()
                .find(|&level| level > current)
                .unwrap_or(OptLevel::O2),
        )
    }

    fn fork_box(&self) -> Box<dyn crate::AosPolicy> {
        Box::new(self.clone())
    }
}

/// `rec(6)` recurses to depth 6, runs a hot loop at the bottom (where the
/// sample ticks recompile `rec` through every level while all seven of
/// its frames are live), pauses at `done`, then every frame runs a
/// post-return loop on its way back up. No frame of `rec` is entered
/// after the first recompilation: the descent costs about a thousand
/// cycles, well inside the first sample interval.
const ACTIVE_FRAMES_SRC: &str = "entry func main/0 {
  const 6
  call rec
  print
  null
  return
}
func rec/1 locals=2 {
  load 0
  const 0
  icmpgt
  jumpif down
  const 0
  store 1
hot:
  load 1
  const 3000
  icmpge
  jumpif bottom
  load 1
  const 1
  iadd
  store 1
  jump hot
bottom:
  const 1
  publish \"bottom\"
  done
  load 1
  return
down:
  load 0
  const 1
  isub
  call rec
  store 1
  const 0
  store 0
post:
  load 0
  const 400
  icmpge
  jumpif up
  load 1
  const 1
  iadd
  store 1
  load 0
  const 1
  iadd
  store 0
  jump post
up:
  load 1
  return
}";

/// A method recompiled while frames of it are live keeps running its old
/// code *and* old cost table in those frames: frames name their compiled
/// version, not the method's current one.
#[test]
fn recompiling_a_method_leaves_its_active_frames_on_the_old_version() {
    let program = Arc::new(parse(ACTIVE_FRAMES_SRC).unwrap());
    let rec = program.find("rec").expect("rec");
    let config = |interp| VmConfig {
        sample_interval_cycles: 5_000,
        interp,
        ..VmConfig::default()
    };
    let finish = |vm: &mut Vm| match vm.run().unwrap() {
        Outcome::Finished(r) => *r,
        Outcome::FeaturesReady => panic!("expected completion"),
    };
    // Every instruction of `rec` runs in a frame entered at −1, so a run
    // that never recompiles executes the same instructions at the same
    // cost.
    let mut never = Vm::new(
        Arc::clone(&program),
        Box::new(BaselineOnlyPolicy),
        config(InterpMode::Fast),
    )
    .unwrap();
    assert!(matches!(never.run().unwrap(), Outcome::FeaturesReady));
    let never = finish(&mut never);
    assert_eq!(never.output, vec![(3000 + 6 * 400).to_string()]);

    let mut results = Vec::new();
    for interp in [InterpMode::Fast, InterpMode::Reference] {
        let mut vm = Vm::new(
            Arc::clone(&program),
            Box::new(EscalatePolicy { method: rec }),
            config(interp),
        )
        .unwrap();
        assert!(matches!(vm.run().unwrap(), Outcome::FeaturesReady));
        // At the pause `rec` is at O2 with all four versions kept, and
        // seven frames still run the −1 version.
        let snap = vm.snapshot();
        assert_eq!(snap.level_of(rec), OptLevel::O2);
        assert_eq!(vm.compiled_versions(rec), 4);
        let straight = finish(&mut vm);
        let resumed = finish(&mut Vm::resume(snap).unwrap());
        assert_identical(&straight, &resumed);
        for method in 0..program.functions().len() {
            let method = evovm_bytecode::FuncId(method as u32);
            assert!(vm.compiled_versions(method) <= 4);
        }
        assert_eq!(vm.compiled_versions(rec), 4);

        let levels: Vec<_> = straight
            .profile
            .recompilations
            .iter()
            .map(|event| (event.method, event.to))
            .collect();
        assert_eq!(
            levels,
            [
                (rec, OptLevel::O0),
                (rec, OptLevel::O1),
                (rec, OptLevel::O2)
            ]
        );
        assert_eq!(straight.profile.peak_call_depth, 8);
        assert_eq!(straight.output, never.output);
        assert_eq!(straight.instructions, never.instructions);
        // The old frames finished on the −1 cost table: not one cycle of
        // execution was charged at a recompiled version's quality.
        assert_eq!(straight.exec_cycles, never.exec_cycles);
        assert!(straight.compile_cycles > never.compile_cycles);
        results.push(straight);
    }
    assert_identical(&results[0], &results[1]);
}
