//! Cross-invocation persistence: the evolvable VM's learned state
//! (history + confidence) survives serialization, so a later VM process
//! resumes evolving instead of starting over — the paper's "repository"
//! aspect of cross-run learning.

use evolvable_vm::evovm::{EvolvableVm, EvolveConfig, EvolveError, EvolveState};
use evolvable_vm::workloads;

fn trained_vm(runs: usize) -> (EvolvableVm, evolvable_vm::evovm::Bench) {
    let bench = workloads::by_name("search").expect("bundled workload");
    let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    for i in 0..runs {
        let input = &bench.inputs[i % bench.inputs.len()];
        vm.run_once(input).expect("runs succeed");
    }
    (vm, bench)
}

#[test]
fn state_roundtrips_through_json() {
    let (vm, bench) = trained_vm(10);
    let json = vm.export_state();
    assert!(json.contains("history"));

    let mut restored = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    restored.import_state(&json).expect("state imports");
    assert_eq!(restored.runs_observed(), vm.runs_observed());
    // Floats print shortest-round-trip and parse back exactly.
    assert_eq!(restored.confidence().to_bits(), vm.confidence().to_bits());
    assert_eq!(
        restored.used_feature_indices(),
        vm.used_feature_indices(),
        "rebuilt models must agree"
    );
}

#[test]
fn restored_vm_continues_predicting() {
    let (vm, bench) = trained_vm(12);
    assert!(vm.confidence() > 0.7, "training should reach confidence");
    let json = vm.export_state();

    let mut restored = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    restored.import_state(&json).expect("state imports");
    // The very first run of the restored process predicts immediately —
    // no warmup replay needed.
    let record = restored
        .run_once(&bench.inputs[0])
        .expect("restored vm runs");
    assert!(
        record.predicted,
        "restored confidence should enable prediction"
    );
    assert!(record.accuracy > 0.5);
}

#[test]
fn corrupt_state_degrades_to_fresh_learning() {
    let bench = workloads::by_name("search").expect("bundled workload");
    let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    let fresh = vm.export_state();
    assert!(matches!(
        vm.import_state("this is not json"),
        Err(EvolveError::MalformedState(_))
    ));
    // The failed import left the VM as it was: fresh.
    assert_eq!(vm.export_state(), fresh);
    assert_eq!(vm.runs_observed(), 0);
    assert_eq!(vm.confidence(), 0.0);
    // And it still learns normally afterwards.
    vm.run_once(&bench.inputs[0]).expect("runs succeed");
    assert_eq!(vm.runs_observed(), 1);
}

#[test]
fn a_blob_without_a_tracker_restarts_confidence() {
    let (mut vm, _) = trained_vm(12);
    assert!(vm.confidence() > 0.7, "training should reach confidence");
    vm.import_state(r#"{"history":[],"confidence":null}"#)
        .expect("state imports");
    assert_eq!(vm.runs_observed(), 0);
    assert_eq!(vm.confidence(), 0.0);
}

#[test]
fn predictions_match_between_original_and_restored() {
    let (vm, bench) = trained_vm(14);
    let json = vm.export_state();
    let mut restored = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    restored.import_state(&json).expect("state imports");

    for input in bench.inputs.iter().take(4) {
        let (fv, _) = bench
            .translator
            .translate(&input.args, &input.vfs)
            .expect("legal input");
        let n = input.program.functions().len();
        // Note: trained predictions include runtime features published
        // during runs; command-line-only vectors may be unpredictable for
        // programs that publish. Search publishes nothing, so both sides
        // must agree exactly.
        assert_eq!(vm.predict(&fv, n), restored.predict(&fv, n));
    }
}

#[test]
fn pretty_printed_state_imports_like_the_compact_blob() {
    let (vm, bench) = trained_vm(14);
    let compact = vm.export_state();
    assert!(!compact.contains('\n'), "the state is one line of JSON");
    // Earlier builds wrote the same schema pretty-printed.
    let state: EvolveState = serde_json::from_str(&compact).expect("state parses");
    let pretty = serde_json::to_string_pretty(&state).expect("state serializes");
    assert!(pretty.contains('\n') && pretty.len() > compact.len());

    let restore = |json: &str| {
        let mut restored = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
        restored.import_state(json).expect("state imports");
        restored
    };
    let from_compact = restore(&compact);
    let from_pretty = restore(&pretty);
    for restored in [&from_compact, &from_pretty] {
        // Same history and confidence bits: the re-export is the original blob.
        assert_eq!(restored.export_state(), compact);
        assert_eq!(restored.confidence().to_bits(), vm.confidence().to_bits());
        let n = bench.inputs[0].program.functions().len();
        for m in 0..n {
            assert_eq!(
                format!("{:?}", restored.method_tree(m)),
                format!("{:?}", vm.method_tree(m)),
                "tree of method {m}"
            );
        }
        for input in bench.inputs.iter().take(4) {
            let (fv, _) = bench
                .translator
                .translate(&input.args, &input.vfs)
                .expect("legal input");
            assert_eq!(restored.predict(&fv, n), vm.predict(&fv, n));
        }
    }
}

/// A run whose feature row does not fit the stored schema fails, and
/// fails all or nothing: the history, confidence and models stay as they
/// were, so the export is byte for byte the one before and still imports.
#[test]
fn a_run_the_schema_refuses_leaves_the_state_unchanged() {
    let (vm, bench) = trained_vm(3);
    let mut state: EvolveState = serde_json::from_str(&vm.export_state()).expect("parses");
    let mut rewritten = 0;
    for entry in &mut state.history {
        for (name, value) in &mut entry.features {
            if name == "operand0.VAL" {
                *value = evolvable_vm::learn::dataset::Raw::Num(1.0);
                rewritten += 1;
            }
        }
    }
    assert_eq!(rewritten, 3, "every run has a categorical `operand0.VAL`");
    let blob = serde_json::to_string(&state).expect("serializes");

    let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    vm.import_state(&blob)
        .expect("a consistent history imports");
    let before = vm.export_state();
    let confidence = vm.confidence();
    let err = vm
        .run_once(&bench.inputs[0])
        .expect_err("a categorical value in a numeric column");
    assert!(
        err.to_string().contains("operand0.VAL"),
        "the error names the column: {err}"
    );
    assert_eq!(vm.runs_observed(), 3);
    assert_eq!(vm.confidence().to_bits(), confidence.to_bits());
    assert_eq!(vm.export_state(), before);
    let mut again = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    again
        .import_state(&before)
        .expect("the export still imports");
}
