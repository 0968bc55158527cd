//! Export equivalence: `EvolvableVm::export_state` keeps the text of the
//! history rows it has exported and serializes only the rows appended
//! since, then splices in the confidence tracker. Its blob must stay byte
//! for byte what `serde_json::to_string` writes for the `EvolveState`
//! built from the whole history — the export before the cache, kept here
//! as the oracle — for a fresh VM, an imported one, runs after an
//! import, exports in a row, and rows holding NaN and strings that need
//! escaping. A VM reads an infinite feature value as missing, so its
//! import of its own export is exactly the VM, and a stored ±∞ is
//! malformed.

use evolvable_vm::evovm::evolve::HistoryEntry;
use evolvable_vm::evovm::{
    ideal_levels, AppInput, Bench, EvolvableVm, EvolveConfig, EvolveError, EvolveRunRecord,
    EvolveState,
};
use evolvable_vm::learn::{ConfidenceTracker, Raw};
use evolvable_vm::workloads;
use evolvable_vm::xicl::FeatureValue;

/// The learned state rebuilt from the outside: every row the VM learned,
/// derived from its run records, and the tracker folding in their
/// accuracies.
struct Oracle {
    history: Vec<HistoryEntry>,
    confidence: ConfidenceTracker,
    config: EvolveConfig,
}

impl Oracle {
    fn fresh(config: EvolveConfig) -> Oracle {
        Oracle {
            history: Vec::new(),
            confidence: ConfidenceTracker::new(config.gamma, config.confidence_threshold),
            config,
        }
    }

    fn imported(blob: &str, config: EvolveConfig) -> Oracle {
        let state: EvolveState = serde_json::from_str(blob).expect("state parses");
        let mut oracle = Oracle::fresh(config);
        if let Some(stored) = state.confidence {
            oracle.confidence = stored
                .resumed(config.gamma, config.confidence_threshold)
                .expect("an in-range tracker");
        }
        oracle.history = state.history;
        oracle
    }

    /// Learn the row of `record`, a run of `input`: the input's features
    /// with the run's published runtime features merged in, non-finite
    /// numbers read as missing, aligned to the schema of the first row,
    /// and the run's ideal levels.
    fn observe(&mut self, bench: &Bench, input: &AppInput, record: &EvolveRunRecord) {
        let (mut vector, _) = bench
            .translator
            .translate(&input.args, &input.vfs)
            .expect("translates");
        for (name, value) in &record.result.published {
            vector.update(
                &format!("runtime.{name}"),
                FeatureValue::Num(value.as_f64()),
            );
        }
        let row: Vec<(String, Raw)> = vector
            .iter()
            .map(|(name, value)| {
                let value = match value {
                    FeatureValue::Num(v) if v.is_finite() => Raw::Num(*v),
                    FeatureValue::Num(_) => Raw::Num(f64::NAN),
                    FeatureValue::Cat(s) => Raw::Cat(s.clone()),
                };
                (name.to_owned(), value)
            })
            .collect();
        let features = match self.history.first() {
            None => row,
            Some(schema) => schema
                .features
                .iter()
                .map(|(name, template)| {
                    row.iter()
                        .find(|(n, _)| n == name)
                        .cloned()
                        .unwrap_or_else(|| {
                            let missing = match template {
                                Raw::Num(_) => Raw::Num(f64::NAN),
                                Raw::Cat(_) => Raw::Cat(String::new()),
                            };
                            (name.clone(), missing)
                        })
                })
                .collect(),
        };
        let ideal = ideal_levels(
            &input.program,
            &record.result.profile,
            self.config.sample_interval_cycles,
        )
        .iter()
        .map(|level| level.as_i8())
        .collect();
        self.history.push(HistoryEntry { features, ideal });
        self.confidence.update(record.accuracy);
        assert_eq!(
            self.confidence.value().to_bits(),
            record.confidence_after.to_bits()
        );
    }

    /// The export before the row cache: build the whole state, then
    /// serialize it.
    fn export(&self) -> String {
        serde_json::to_string(&EvolveState {
            history: self.history.clone(),
            confidence: Some(self.confidence),
        })
        .expect("state serializes")
    }
}

/// Run `runs` inputs on `vm` and `oracle` alike, exporting after the
/// runs `export_after` picks (the run's index within this call).
fn run_both(
    bench: &Bench,
    vm: &mut EvolvableVm,
    oracle: &mut Oracle,
    first_input: usize,
    runs: usize,
    export_after: impl Fn(usize) -> bool,
) {
    for k in 0..runs {
        let input = &bench.inputs[(first_input + k) % bench.inputs.len()];
        let record = vm.run_once(input).expect("run succeeds");
        oracle.observe(bench, input, &record);
        if export_after(k) {
            assert_eq!(vm.export_state(), oracle.export(), "after run {k}");
        }
    }
}

#[test]
fn exports_match_the_serde_oracle_on_every_workload() {
    let config = EvolveConfig::default();
    for name in workloads::names() {
        let bench = workloads::by_name(name).expect("bundled workload");

        // A fresh VM: empty, then exporting after every run, twice in a
        // row once.
        let mut vm = EvolvableVm::new(bench.translator.clone(), config);
        let mut oracle = Oracle::fresh(config);
        assert_eq!(vm.export_state(), oracle.export(), "{name}: fresh");
        run_both(&bench, &mut vm, &mut oracle, 0, 6, |_| true);
        let blob = vm.export_state();
        assert_eq!(blob, vm.export_state(), "{name}: two exports in a row");

        // An imported VM: exported as imported, then k runs after the
        // import with exports after some of them only.
        let mut imported = EvolvableVm::new(bench.translator.clone(), config);
        imported.import_state(&blob).expect("imports");
        let mut oracle = Oracle::imported(&blob, config);
        assert_eq!(imported.export_state(), oracle.export(), "{name}: imported");
        run_both(&bench, &mut imported, &mut oracle, 6, 5, |k| k % 2 == 1);
        assert_eq!(
            imported.export_state(),
            oracle.export(),
            "{name}: after import"
        );

        // Imported, then runs before the first export.
        let mut late = EvolvableVm::new(bench.translator.clone(), config);
        late.import_state(&blob).expect("imports");
        let mut oracle = Oracle::imported(&blob, config);
        run_both(&bench, &mut late, &mut oracle, 3, 2, |_| false);
        let late_blob = late.export_state();
        assert_eq!(late_blob, oracle.export(), "{name}: late export");

        // A VM that has exported, importing another history: nothing of
        // its own rows' text survives the import.
        let mut other: EvolveState = serde_json::from_str(&late_blob).expect("parses");
        other.history.remove(0);
        let other = serde_json::to_string(&other).expect("serializes");
        vm.import_state(&other).expect("imports");
        assert_eq!(vm.export_state(), other, "{name}: re-import");
    }
}

#[test]
fn non_finite_history_values_export_like_serde() {
    let config = EvolveConfig::default();
    let bench = workloads::by_name("search").expect("bundled workload");
    let mut vm = EvolvableVm::new(bench.translator.clone(), config);
    for input in bench.inputs.iter().take(4) {
        vm.run_once(input).expect("run succeeds");
    }
    // Rows holding NaN (`null`), +∞ and −∞ (`1e999`, which JSON reads
    // as infinite).
    let mut state: EvolveState = serde_json::from_str(&vm.export_state()).expect("parses");
    let markers = [111.5, 222.5, 333.5];
    for (entry, marker) in state.history.iter_mut().zip(markers) {
        let numeric = entry
            .features
            .iter_mut()
            .filter(|(_, value)| matches!(value, Raw::Num(_)));
        for (_, value) in numeric.take(2) {
            *value = Raw::Num(marker);
        }
    }
    let marked = serde_json::to_string(&state).expect("serializes");
    let held = |blob: &str, i: usize| {
        let parsed: EvolveState = serde_json::from_str(blob).expect("parses");
        parsed.history[i]
            .features
            .iter()
            .find_map(|(_, value)| match value {
                Raw::Num(v) => Some(*v),
                Raw::Cat(_) => None,
            })
            .expect("a numeric feature")
    };

    // NaN is what a VM writes for a missing value: it imports, exports as
    // `null`, and learning continues as the oracle's.
    let blob = marked.replace("111.5", "null");
    assert!(held(&blob, 0).is_nan());
    let mut imported = EvolvableVm::new(bench.translator.clone(), config);
    imported.import_state(&blob).expect("imports");
    let mut oracle = Oracle::imported(&blob, config);
    let exported = imported.export_state();
    assert_eq!(exported, oracle.export());
    assert!(exported.contains("{\"Num\":null}"));
    run_both(&bench, &mut imported, &mut oracle, 4, 3, |_| true);

    // No VM writes ±∞: it is malformed state, and the VM is unchanged.
    let before = imported.export_state();
    let infinities = [
        (1, "222.5", "1e999", f64::INFINITY),
        (2, "333.5", "-1e999", f64::NEG_INFINITY),
    ];
    for (row, marker, infinite, value) in infinities {
        let blob = marked.replace(marker, infinite);
        assert_eq!(held(&blob, row), value);
        assert!(
            matches!(
                imported.import_state(&blob),
                Err(EvolveError::MalformedState(_))
            ),
            "{infinite}"
        );
        assert_eq!(imported.export_state(), before, "{infinite}");
    }
}

/// `raytracer` with its `-n` value spelled `inf` on every third input
/// and `-inf` on the next. The programs are unchanged, so these inputs
/// run as before but carry an infinite feature value.
fn infinite_bench() -> Bench {
    let mut bench = workloads::by_name("raytracer").expect("bundled workload");
    for (i, input) in bench.inputs.iter_mut().enumerate() {
        match i % 3 {
            1 => input.args[1] = "inf".into(),
            2 => input.args[1] = "-inf".into(),
            _ => {}
        }
    }
    bench
}

fn record_bits(r: &EvolveRunRecord) -> (u64, u64, u64, bool, u32, [u64; 3]) {
    (
        r.result.total_cycles,
        r.extraction_cycles,
        r.prediction_cycles,
        r.predicted,
        r.predictions_made,
        [
            r.confidence_before.to_bits(),
            r.confidence_after.to_bits(),
            r.accuracy.to_bits(),
        ],
    )
}

#[test]
fn infinite_feature_values_round_trip_as_missing() {
    let config = EvolveConfig::default();
    let bench = infinite_bench();
    let inputs = &bench.inputs;
    let infinite = inputs
        .iter()
        .filter(|input| {
            let (vector, _) = bench
                .translator
                .translate(&input.args, &input.vfs)
                .expect("`inf` is a number");
            let infinite = vector
                .iter()
                .any(|(_, value)| matches!(value, FeatureValue::Num(v) if v.is_infinite()));
            infinite
        })
        .count();
    assert!(infinite > 0, "the bench carries infinite feature values");

    let mut live = EvolvableVm::new(bench.translator.clone(), config);
    for input in inputs.iter().take(12) {
        live.run_once(input).expect("run succeeds");
    }
    let blob = live.export_state();
    let mut imported = EvolvableVm::new(bench.translator.clone(), config);
    imported.import_state(&blob).expect("imports");
    assert_eq!(imported.export_state(), blob);
    let mut predicted = 0;
    for k in 0..12 {
        let input = &inputs[(12 + 5 * k) % inputs.len()];
        let a = live.run_once(input).expect("run succeeds");
        let b = imported.run_once(input).expect("run succeeds");
        assert_eq!(record_bits(&a), record_bits(&b), "run {k}");
        predicted += usize::from(a.predicted);
    }
    assert!(predicted > 0, "the continued runs predict");
    assert_eq!(live.export_state(), imported.export_state());
}

#[test]
fn escaped_strings_export_like_serde() {
    let names = [
        "plain",
        "q\"uote",
        "back\\slash",
        "line\nfeed\r\t",
        "\u{8}\u{c}\u{1}\u{1f}",
        "é€𝄞\u{7f}",
    ];
    let row = |i: usize| HistoryEntry {
        features: names
            .iter()
            .enumerate()
            .map(|(j, name)| {
                let value = if j % 2 == 0 {
                    Raw::Num(i as f64 * 0.1 + j as f64)
                } else {
                    Raw::Cat(format!("{name}#{}", i % 2))
                };
                (name.to_string(), value)
            })
            .collect(),
        ideal: vec![-1, 0, 1, 2],
    };
    let state = EvolveState {
        history: (0..5).map(row).collect(),
        confidence: Some(ConfidenceTracker::default()),
    };
    let blob = serde_json::to_string(&state).expect("serializes");
    let bench = workloads::by_name("search").expect("bundled workload");
    let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    vm.import_state(&blob).expect("imports");
    assert_eq!(vm.runs_observed(), 5);
    assert_eq!(vm.export_state(), blob);
}
