//! Allocation guard for observes: a warm relaunch — a VM that imported
//! its history and runs one more input — appends the run's row to its
//! live training views and refits each tree along the row's path, so the
//! observe allocates as often at 100 history rows as at 400. Re-encoding
//! the history, as a full refit does, would allocate once per row.

mod alloc_counter;

use std::sync::Arc;

use alloc_counter::allocations;
use evolvable_vm::evovm::optimizer::{self, CrossRunOptimizer, RunPlan};
use evolvable_vm::evovm::{EvolveConfig, EvolveState, Scenario};
use evolvable_vm::vm::{Outcome, Vm, VmConfig};
use evolvable_vm::workloads;

/// Allocations of one warm observe that makes the history `rows` long,
/// over `rows - 1` stored rows repeating one real 4-run `search` history.
fn warm_observe_allocations(rows: usize) -> u64 {
    let bench = workloads::by_name("search").expect("bundled workload");
    let config = EvolveConfig::default();
    let mut seed = optimizer::for_scenario(Scenario::Evolve, &bench, &config);
    for input in &bench.inputs[..4] {
        let result = run_planned(seed.as_mut(), input, &config);
        seed.observe(input, result).expect("observes");
    }
    let real: EvolveState =
        serde_json::from_str(&seed.export_state().expect("exports")).expect("parses");
    let state = EvolveState {
        history: (0..rows - 1)
            .map(|i| real.history[i % real.history.len()].clone())
            .collect(),
        confidence: real.confidence,
    };
    let blob = serde_json::to_string(&state).expect("serializes");

    let mut learner = optimizer::for_scenario(Scenario::Evolve, &bench, &config);
    learner.import_state(&blob).expect("imports");
    let input = &bench.inputs[1];
    let result = run_planned(learner.as_mut(), input, &config);
    let (allocs, report) = allocations(|| learner.observe(input, result));
    report.expect("observes");
    let exported: EvolveState =
        serde_json::from_str(&learner.export_state().expect("exports")).expect("parses");
    assert_eq!(exported.history.len(), rows);
    allocs
}

/// Run `input` under the plan `learner` makes, with its pauses.
fn run_planned(
    learner: &mut dyn CrossRunOptimizer,
    input: &evolvable_vm::evovm::AppInput,
    config: &EvolveConfig,
) -> evolvable_vm::vm::RunResult {
    let RunPlan::Execute {
        policy,
        overhead_cycles,
    } = learner.prepare(input).expect("prepares")
    else {
        panic!("Evolve runs execute");
    };
    let vm_config = VmConfig {
        sample_interval_cycles: config.sample_interval_cycles,
        ..VmConfig::default()
    };
    let mut vm = Vm::new(Arc::clone(&input.program), policy, vm_config).expect("verifies");
    vm.charge_overhead(overhead_cycles).expect("charges");
    loop {
        match vm.run().expect("runs") {
            Outcome::Finished(result) => return *result,
            Outcome::FeaturesReady => learner.features_ready(&mut vm).expect("re-predicts"),
        }
    }
}

#[test]
fn warm_observes_allocate_as_often_at_100_rows_as_at_400() {
    let few = warm_observe_allocations(100);
    let many = warm_observe_allocations(400);
    assert_eq!(few, many, "the observe allocated per stored row");
    assert!(few < 100, "{few} allocations for one new row");
}
