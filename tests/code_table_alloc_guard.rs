//! Allocation guard for the shared code table: a run on a table an
//! earlier run filled compiles nothing and verifies nothing, so it
//! allocates a pinned count, the same on every later run, and at least
//! the first run's compile allocations fewer than that first run. A run
//! path that recompiled, re-verified or copied a version out of the
//! table would raise the count.

mod alloc_counter;

use std::sync::Arc;

use alloc_counter::allocations;
use evolvable_vm::bytecode::FuncId;
use evolvable_vm::opt::{OptLevel, Optimizer};
use evolvable_vm::vm::{CodeTable, CostBenefitPolicy, Outcome, RunResult, Vm, VmConfig};
use evolvable_vm::workloads;

/// Allocations of one Default (cost-benefit) run of `db`'s first input
/// on a table that already holds every version the run installs.
const WARM_RUN_ALLOCS: u64 = 19;

fn run_on(table: &Arc<CodeTable>) -> (u64, RunResult) {
    allocations(|| {
        let policy = Box::new(CostBenefitPolicy::new());
        let mut vm = Vm::with_table(Arc::clone(table), policy, VmConfig::default());
        loop {
            match vm.run().expect("db runs") {
                Outcome::Finished(result) => return *result,
                Outcome::FeaturesReady => continue,
            }
        }
    })
}

#[test]
fn a_warm_table_run_allocates_a_pinned_count() {
    let bench = workloads::by_name("db").expect("bundled workload");
    let program = &bench.inputs[0].program;
    let table = Arc::new(CodeTable::new(Arc::clone(program), true).expect("db verifies"));
    let (first, cold) = run_on(&table);
    let (second, warm) = run_on(&table);
    let (third, _) = run_on(&table);
    assert_eq!(
        warm.total_cycles, cold.total_cycles,
        "a warm table moves no clock"
    );
    assert_eq!(warm.profile.recompilations, cold.profile.recompilations);
    assert_eq!(second, third, "the warm count repeats");
    assert_eq!(second, WARM_RUN_ALLOCS, "pinned warm-run allocations");

    // What compiling the first run's versions allocates on its own.
    let optimizer = Optimizer::new();
    let mut versions: Vec<_> = cold
        .profile
        .invocations
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, _)| (i, OptLevel::Baseline))
        .chain(
            cold.profile
                .recompilations
                .iter()
                .map(|e| (e.method.index(), e.to)),
        )
        .collect();
    versions.sort_unstable();
    versions.dedup();
    assert_eq!(table.compiles(), versions.len() as u64);
    let (compile_allocs, ()) = allocations(|| {
        for &(method, level) in &versions {
            let code = optimizer.compile_checked(program, FuncId(method as u32), level);
            drop(code.expect("no miscompile"));
        }
    });
    assert!(
        first - second >= compile_allocs,
        "the first run's compiles ({compile_allocs} allocations) are what the warm run saves \
         (first {first}, warm {second})"
    );
}
