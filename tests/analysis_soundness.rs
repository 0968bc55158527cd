//! Dynamic soundness of the static-analysis subsystem: every bound and
//! claim the analyzer derives must hold on real executions.
//!
//! Three families of evidence:
//!
//! 1. **Workload sweep** — for all bundled Table-I workloads, at every
//!    optimization level's emitted code: the reference interpreter's
//!    exact peak arena usage and call depth never exceed the verified
//!    static bounds; functions the call graph declares dead are never
//!    invoked; and the program lints clean under `vmlint`'s gates.
//! 2. **Property tests** — randomly generated MiniJava programs obey
//!    the same bound/deadness contracts.
//! 3. **Cost ordering** — on straight-line code (where the static cost
//!    model is exact up to folding), more instructions means both a
//!    larger static cost and no fewer executed cycles.

use std::sync::Arc;

use proptest::prelude::*;

use evolvable_vm::bytecode::analysis::{analyze, FrameBounds, ProgramAnalysis, Severity};
use evolvable_vm::bytecode::asm::parse;
use evolvable_vm::bytecode::Program;
use evolvable_vm::minijava;
use evolvable_vm::opt::{optimize_program, OptLevel};
use evolvable_vm::vm::{AosContext, AosPolicy, InterpMode, Outcome, RunResult, Vm, VmConfig};
use evolvable_vm::workloads;
use evovm_bytecode::FuncId;

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

/// Run `program` to completion under the *reference* interpreter with
/// every method pinned at Baseline, so the executed code is exactly the
/// code handed in (the Baseline pipeline only fuses, and fusing the
/// already-fused output of `optimize_program` changes nothing) and the
/// profile's peak arena / call-depth figures are exact, not sampled.
/// Returns the run result plus the static bounds the VM derived.
fn run_reference(program: &Arc<Program>) -> (RunResult, FrameBounds) {
    run_pinned(program, InterpMode::Reference)
}

/// Like [`run_reference`] but in the caller's choice of dispatch loop,
/// still pinned at Baseline so both modes execute identical code.
fn run_pinned(program: &Arc<Program>, interp: InterpMode) -> (RunResult, FrameBounds) {
    let mut vm = Vm::new(
        Arc::clone(program),
        Box::new(PinPolicy(OptLevel::Baseline)),
        VmConfig {
            interp,
            cycle_budget: Some(2_000_000_000),
            ..VmConfig::default()
        },
    )
    .expect("program verifies");
    let bounds = vm.static_bounds();
    loop {
        match vm.run().expect("program runs") {
            Outcome::Finished(r) => return (*r, bounds),
            Outcome::FeaturesReady => continue,
        }
    }
}

/// The soundness contract between one analysis and one exact run.
fn assert_sound(label: &str, analysis: &ProgramAnalysis, result: &RunResult, bounds: FrameBounds) {
    if let Some(depth) = bounds.call_depth {
        assert!(
            result.profile.peak_call_depth <= depth,
            "{label}: dynamic call depth {} exceeds static bound {depth}",
            result.profile.peak_call_depth
        );
    }
    if let Some(slots) = bounds.arena_slots {
        assert!(
            result.profile.peak_arena_slots <= slots,
            "{label}: dynamic arena peak {} exceeds static bound {slots}",
            result.profile.peak_arena_slots
        );
    }
    for id in analysis.call_graph.dead_functions() {
        let invocations = result.profile.invocations.get(id.index()).copied();
        assert_eq!(
            invocations,
            Some(0),
            "{label}: statically dead function {id:?} was invoked"
        );
    }
}

/// `vmlint`'s gate: `deny` always fails; `warn` additionally fails for
/// O1/O2 output, where the optimizer should have cleaned up.
fn gate_for(level: OptLevel) -> Severity {
    match level {
        OptLevel::Baseline | OptLevel::O0 => Severity::Deny,
        OptLevel::O1 | OptLevel::O2 => Severity::Warn,
    }
}

/// The committed acceptance check: every bundled workload, at every
/// optimization level's emitted code, satisfies the static bounds
/// dynamically and lints clean.
#[test]
fn workloads_obey_static_bounds_at_every_level() {
    for name in workloads::names() {
        let bench = workloads::by_name(name).expect("bundled");
        let input = &bench.inputs[0];
        for level in OptLevel::ALL {
            let label = format!("{name}@{level}");
            let transformed = Arc::new(
                optimize_program(&input.program, level)
                    .unwrap_or_else(|e| panic!("{label}: miscompiled: {e}")),
            );
            let analysis =
                analyze(&transformed).unwrap_or_else(|e| panic!("{label}: unverifiable: {e}"));
            let gating = analysis.findings(gate_for(level)).count();
            assert_eq!(gating, 0, "{label}: vmlint gate would fail");
            let (result, bounds) = run_reference(&transformed);
            assert_sound(&label, &analysis, &result, bounds);
        }
    }
}

/// The fast loop's peak-arena tracking is exact, not a frame-push lower
/// bound: for every workload at every level, both dispatch loops must
/// report the *same* peak arena occupancy and call depth. (This is what
/// lets `assert_sound` treat either mode's figures as ground truth.)
#[test]
fn fast_and_reference_agree_on_exact_peaks() {
    for name in workloads::names() {
        let bench = workloads::by_name(name).expect("bundled");
        let input = &bench.inputs[0];
        for level in OptLevel::ALL {
            let label = format!("{name}@{level}");
            let transformed = Arc::new(
                optimize_program(&input.program, level)
                    .unwrap_or_else(|e| panic!("{label}: miscompiled: {e}")),
            );
            let (fast, _) = run_pinned(&transformed, InterpMode::Fast);
            let (reference, _) = run_pinned(&transformed, InterpMode::Reference);
            assert_eq!(
                fast.profile.peak_arena_slots, reference.profile.peak_arena_slots,
                "{label}: fast/reference peak arena slots disagree"
            );
            assert_eq!(
                fast.profile.peak_call_depth, reference.profile.peak_call_depth,
                "{label}: fast/reference peak call depth disagree"
            );
        }
    }
}

/// A straight-line program: `1` followed by `k` add-a-constant steps,
/// printed. No branches, no calls — static cost is exact.
fn straight_line(k: usize) -> String {
    let mut s = String::from("entry func main/0 locals=0 {\n  const 1\n");
    for _ in 0..k {
        s.push_str("  const 2\n  iadd\n");
    }
    s.push_str("  print\n  null\n  return\n}\n");
    s
}

/// On straight-line code, the cost model must order programs the way
/// the virtual clock does: strictly more work means strictly larger
/// static cost and no fewer executed cycles.
#[test]
fn static_cost_orders_straight_line_programs() {
    let mut previous: Option<(u64, u64)> = None;
    for k in [0usize, 1, 5, 20, 100] {
        let program = Arc::new(parse(&straight_line(k)).expect("straight-line parses"));
        let analysis = analyze(&program).expect("straight-line verifies");
        // No loops → the loop-weighted cost equals the plain static cost.
        let profile = &analysis.profiles[0];
        assert_eq!(profile.weighted_cost, profile.static_cost);
        let (result, _) = run_reference(&program);
        if let Some((prev_cost, prev_cycles)) = previous {
            assert!(
                profile.static_cost > prev_cost,
                "k={k}: static cost failed to grow ({} <= {prev_cost})",
                profile.static_cost
            );
            assert!(
                result.exec_cycles > prev_cycles,
                "k={k}: exec cycles failed to grow ({} <= {prev_cycles})",
                result.exec_cycles
            );
        }
        previous = Some((profile.static_cost, result.exec_cycles));
    }
}

/// Generator for small MiniJava programs with a loop, a live helper,
/// and a helper that is never called (statically dead).
fn arb_source() -> impl Strategy<Value = String> {
    (1u32..24, 1i64..40, 0i64..10).prop_map(|(iters, scale, offset)| {
        format!(
            "fn live(a, b) {{ return a * {scale} + b; }}
fn dead(a) {{ return a * a + {offset}; }}
fn main() {{
    let s = {offset};
    for (let i = 0; i < {iters}; i = i + 1) {{
        s = live(s, i);
    }}
    print s;
}}"
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Generated programs obey the analyzer's contracts at every level's
    /// emitted code: exact dynamic peaks within static bounds, dead
    /// functions never invoked.
    #[test]
    fn generated_programs_obey_static_bounds(source in arb_source()) {
        let program = minijava::compile(&source).expect("generated source compiles");
        for level in OptLevel::ALL {
            let transformed = Arc::new(
                optimize_program(&program, level).expect("generated programs compile"),
            );
            let analysis = analyze(&transformed).expect("emitted code verifies");
            let (result, bounds) = run_reference(&transformed);
            if let Some(depth) = bounds.call_depth {
                prop_assert!(
                    result.profile.peak_call_depth <= depth,
                    "call depth {} > bound {depth} at {level} for:\n{source}",
                    result.profile.peak_call_depth
                );
            }
            if let Some(slots) = bounds.arena_slots {
                prop_assert!(
                    result.profile.peak_arena_slots <= slots,
                    "arena peak {} > bound {slots} at {level} for:\n{source}",
                    result.profile.peak_arena_slots
                );
            }
            for id in analysis.call_graph.dead_functions() {
                prop_assert_eq!(
                    result.profile.invocations.get(id.index()).copied(),
                    Some(0),
                    "dead function {:?} ran at {} for:\n{}", id, level, source
                );
            }
        }
    }
}
