//! Allocation guard for calls: a frame push or pop allocates nothing, so
//! a call-heavy program makes exactly as many allocations at 2k calls as
//! at 20k. Frames share one arena and name their compiled version by
//! index; a call path that allocated per frame (an argument or locals
//! vector, a growing table) would make the longer run allocate more.

mod alloc_counter;

use std::sync::Arc;

use alloc_counter::allocations;
use evolvable_vm::bytecode::asm::parse;
use evolvable_vm::vm::{BaselineOnlyPolicy, InterpMode, Outcome, RunResult, Vm, VmConfig};

/// The interpreter sweep's `calls_20k_frames` program
/// (`examples/perf_sweep.rs`) with the call count as a parameter.
fn calls_src(calls: u32) -> String {
    format!(
        "entry func main/0 locals=1 {{
  const 0
  store 0
top:
  load 0
  const {calls}
  icmpge
  jumpif end
  load 0
  call mix
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
func mix/1 locals=2 {{
  load 0
  const 2654435761
  imul
  store 1
  load 1
  load 0
  iadd
  return
}}"
    )
}

/// Allocations of building the machine and running it to completion.
/// The policy never recompiles, so the only work that grows with the
/// call count is dispatch and the frame pushes and pops themselves.
fn run(calls: u32, interp: InterpMode) -> (u64, RunResult) {
    let program = Arc::new(parse(&calls_src(calls)).expect("valid program"));
    allocations(|| {
        let config = VmConfig {
            interp,
            ..VmConfig::default()
        };
        let mut vm = Vm::new(program, Box::new(BaselineOnlyPolicy), config).expect("verifies");
        match vm.run().expect("runs") {
            Outcome::Finished(result) => *result,
            Outcome::FeaturesReady => panic!("the program has no done instruction"),
        }
    })
}

#[test]
fn call_count_does_not_change_the_allocation_count() {
    for interp in [InterpMode::Fast, InterpMode::Reference] {
        let (few, short) = run(2_000, interp);
        let (many, long) = run(20_000, interp);
        assert_eq!(short.profile.invocations[1], 2_000);
        assert_eq!(long.profile.invocations[1], 20_000);
        // Sample ticks fire in both runs, and cost nothing either.
        assert!(long.profile.total_samples() > short.profile.total_samples());
        assert_eq!(few, many, "{interp:?}: calls allocated");
    }
}
