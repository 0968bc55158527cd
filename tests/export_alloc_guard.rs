//! Allocation guard for exports: a warm relaunch — a VM that exported
//! its state, learned one more run, and exports again — serializes only
//! the new row and splices in the tracker, so its export allocates as
//! often at 100 history rows as at 400. An export that re-serialized the
//! whole history would grow its buffers, and allocate more, with the row
//! count.

mod alloc_counter;

use alloc_counter::allocations;
use evolvable_vm::evovm::{EvolvableVm, EvolveConfig, EvolveState};
use evolvable_vm::workloads;

/// Allocations of the export after one warm relaunch over `rows - 1`
/// stored copies of one real `search` row.
fn warm_export_allocations(rows: usize) -> u64 {
    let bench = workloads::by_name("search").expect("bundled workload");
    let config = EvolveConfig::default();
    let mut seed = EvolvableVm::new(bench.translator.clone(), config);
    seed.run_once(&bench.inputs[0]).expect("run succeeds");
    let mut state: EvolveState = serde_json::from_str(&seed.export_state()).expect("parses");
    state.history = vec![state.history[0].clone(); rows - 1];
    let blob = serde_json::to_string(&state).expect("serializes");

    let mut vm = EvolvableVm::new(bench.translator.clone(), config);
    vm.import_state(&blob).expect("imports");
    // The launch that saved this state exported it.
    assert_eq!(vm.export_state(), blob);
    vm.run_once(&bench.inputs[1]).expect("run succeeds");
    let (allocs, exported) = allocations(|| vm.export_state());
    assert_eq!(vm.runs_observed(), rows);
    assert!(exported.starts_with(&blob[..blob.find("],\"confidence\"").expect("tracker")]));
    allocs
}

#[test]
fn warm_exports_allocate_as_often_at_100_rows_as_at_400() {
    let few = warm_export_allocations(100);
    let many = warm_export_allocations(400);
    assert_eq!(few, many, "the export allocated per stored row");
    assert!(few < 100, "{few} allocations for one new row");
}
