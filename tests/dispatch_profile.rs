//! The dispatch profiler's contracts, asserted over the full Table I
//! workload suite:
//!
//! 1. **Mode agreement** — the opcode and opcode-pair counters the fast
//!    loop gathers are *identical* to the reference loop's, fused and
//!    unfused, so profile-directed decisions never depend on which
//!    dispatch loop happened to observe the program.
//! 2. **Fusion transparency** — superinstruction fusion, which runs at
//!    every optimization level, changes neither output nor
//!    retired-instruction-equivalent counts nor the virtual clock: a
//!    fused op retires its component count, and fused costs are the
//!    exact sum of their parts. Adaptive runs and runs pinned at each of
//!    −1/O0/O1/O2 are checked.

use std::sync::Arc;

use evolvable_vm::bytecode::{Instr, Program};
use evolvable_vm::opt::{OptLevel, Optimizer};
use evolvable_vm::vm::{
    AosContext, AosPolicy, CostBenefitPolicy, DispatchProfile, InterpMode, Outcome, RunResult, Vm,
    VmConfig, VmError,
};
use evolvable_vm::workloads;
use evovm_bytecode::FuncId;

/// Run one workload program to completion under `config`, resuming
/// through feature pauses like the campaign loop does.
fn adaptive_run(program: &Arc<Program>, config: VmConfig) -> RunResult {
    let mut vm = Vm::new(
        Arc::clone(program),
        Box::new(CostBenefitPolicy::new()),
        config,
    )
    .expect("workload programs verify");
    loop {
        match vm.run().expect("workload programs do not trap") {
            Outcome::Finished(result) => return *result,
            Outcome::FeaturesReady => continue,
        }
    }
}

/// Pins every method to one level at its first compilation.
#[derive(Debug)]
struct PinPolicy(OptLevel);

impl AosPolicy for PinPolicy {
    fn on_first_compile(&mut self, _m: FuncId, _ctx: AosContext<'_>) -> Option<OptLevel> {
        Some(self.0)
    }

    fn fork_box(&self) -> Box<dyn AosPolicy> {
        Box::new(PinPolicy(self.0))
    }
}

/// Run one workload program with every method pinned at `level`, keeping
/// a trap as the result instead of panicking.
fn pinned_run(program: &Arc<Program>, level: OptLevel, fuse: bool) -> Result<RunResult, VmError> {
    let mut vm = Vm::new(
        Arc::clone(program),
        Box::new(PinPolicy(level)),
        VmConfig {
            profile_dispatch: true,
            fuse,
            ..VmConfig::default()
        },
    )
    .expect("workload programs verify");
    loop {
        match vm.run()? {
            Outcome::Finished(result) => return Ok(*result),
            Outcome::FeaturesReady => continue,
        }
    }
}

fn dispatch_profile(program: &Arc<Program>, interp: InterpMode, fuse: bool) -> DispatchProfile {
    let result = adaptive_run(
        program,
        VmConfig {
            interp,
            profile_dispatch: true,
            fuse,
            ..VmConfig::default()
        },
    );
    result.profile.dispatch.expect("profiling was on")
}

/// The fast and reference loops must gather bit-identical opcode and
/// opcode-pair counters on every workload, with fusion both off (the raw
/// distribution in `BENCH_dispatch.json`) and on (the stream the
/// interpreter actually executes at every level).
#[test]
fn pair_counters_agree_between_fast_and_reference() {
    for name in workloads::names() {
        let bench = workloads::by_name(name).expect("bundled");
        let program = &bench.inputs[0].program;
        for fuse in [false, true] {
            let fast = dispatch_profile(program, InterpMode::Fast, fuse);
            let reference = dispatch_profile(program, InterpMode::Reference, fuse);
            assert_eq!(
                fast, reference,
                "{name} (fuse={fuse}): fast/reference dispatch profiles disagree"
            );
            assert!(fast.total() > 0, "{name}: empty dispatch profile");
        }
    }
}

/// Fusion must be invisible to everything except host dispatch count:
/// retired-instruction-equivalent totals and the virtual clock are
/// bit-identical with fusion on and off, while the fused run performs
/// strictly fewer dispatches (that is the whole point).
#[test]
fn fusion_preserves_retired_counts_and_cycles() {
    let mut fused_somewhere = false;
    for name in workloads::names() {
        let bench = workloads::by_name(name).expect("bundled");
        let program = &bench.inputs[0].program;
        let unfused = adaptive_run(
            program,
            VmConfig {
                profile_dispatch: true,
                fuse: false,
                ..VmConfig::default()
            },
        );
        let fused = adaptive_run(
            program,
            VmConfig {
                profile_dispatch: true,
                fuse: true,
                ..VmConfig::default()
            },
        );
        assert_eq!(
            unfused.instructions, fused.instructions,
            "{name}: fusion changed the retired-instruction count"
        );
        assert_eq!(
            unfused.total_cycles, fused.total_cycles,
            "{name}: fusion moved the virtual clock"
        );
        // Retired-equivalents come from component counts; dispatches come
        // from the profiler. Fused dispatches never exceed unfused ones.
        let unfused_dispatches = unfused.profile.dispatch.expect("profiled").total();
        let fused_dispatches = fused.profile.dispatch.expect("profiled").total();
        assert!(
            fused_dispatches <= unfused_dispatches,
            "{name}: fusion increased dispatch count \
             ({fused_dispatches} > {unfused_dispatches})"
        );
        fused_somewhere |= fused_dispatches < unfused_dispatches;
    }
    assert!(
        fused_somewhere,
        "fusion never eliminated a dispatch on any workload"
    );
}

/// With every method pinned at one level, fused and unfused code agree
/// on output, trap, retired instructions and cycles at each of
/// −1/O0/O1/O2, and fusion never adds a dispatch. At −1 and O0, where
/// fusion is the whole pipeline, it must remove dispatches on every
/// workload.
#[test]
fn pinned_levels_fuse_transparently() {
    for name in workloads::names() {
        let bench = workloads::by_name(name).expect("bundled");
        let program = &bench.inputs[0].program;
        for level in OptLevel::ALL {
            let runs = [false, true].map(|fuse| pinned_run(program, level, fuse));
            let [unfused, fused] = runs.map(|run| match run {
                Ok(result) => Ok(result),
                Err(VmError::Trap(trap)) => Err(trap),
                Err(e) => panic!("{name}@{level}: {e}"),
            });
            let (unfused, fused) = match (unfused, fused) {
                (Ok(unfused), Ok(fused)) => (unfused, fused),
                (unfused, fused) => {
                    assert_eq!(
                        unfused.err(),
                        fused.err(),
                        "{name}@{level}: fusion changed the trap"
                    );
                    continue;
                }
            };
            assert_eq!(unfused.output, fused.output, "{name}@{level}: output");
            assert_eq!(
                unfused.instructions, fused.instructions,
                "{name}@{level}: retired instructions"
            );
            assert_eq!(
                unfused.total_cycles, fused.total_cycles,
                "{name}@{level}: virtual clock"
            );
            let unfused_dispatches = unfused.profile.dispatch.expect("profiled").total();
            let fused_dispatches = fused.profile.dispatch.expect("profiled").total();
            assert_eq!(unfused_dispatches, unfused.instructions);
            if matches!(level, OptLevel::Baseline | OptLevel::O0) {
                assert!(
                    fused_dispatches < unfused_dispatches,
                    "{name}@{level}: fusion removed no dispatch \
                     ({fused_dispatches} >= {unfused_dispatches})"
                );
            } else {
                assert!(
                    fused_dispatches <= unfused_dispatches,
                    "{name}@{level}: fusion added dispatches \
                     ({fused_dispatches} > {unfused_dispatches})"
                );
            }
        }
    }
}

/// Every fused opcode the optimizer actually emits at any level on the
/// workload suite reports a component count equal to the length of the
/// sequence it stands for, and a base cost equal to that sequence's
/// exact sum — the invariant that keeps the folded cost tables (and so
/// the virtual clock) bit-identical across fusion.
#[test]
fn emitted_fused_ops_report_exact_components_and_costs() {
    let optimizer = Optimizer::new();
    for level in OptLevel::ALL {
        let mut fused_seen = 0usize;
        for name in workloads::names() {
            let bench = workloads::by_name(name).expect("bundled");
            let program = &bench.inputs[0].program;
            for id in 0..program.functions().len() {
                let compiled = optimizer.compile(program, FuncId(id as u32), level);
                for instr in compiled.code.iter() {
                    let Some(parts) = instr.unfused() else {
                        assert_eq!(instr.component_count(), 1, "{instr:?}");
                        continue;
                    };
                    fused_seen += 1;
                    assert_eq!(
                        instr.component_count(),
                        parts.len() as u64,
                        "{name}@{level}: {instr:?} misreports its component count"
                    );
                    assert_eq!(
                        instr.base_cost(),
                        parts.iter().map(Instr::base_cost).sum::<u64>(),
                        "{name}@{level}: {instr:?} cost is not the sum of its parts"
                    );
                }
            }
        }
        assert!(
            fused_seen > 0,
            "{level} emitted no fused ops on any workload"
        );
    }
}
