//! Whole-learner equivalence: the evolvable VM fits its per-method trees
//! over one shared encoding of the history, and must end up with exactly
//! the models of the per-method reference — one `Dataset` pushed per
//! method, then fitted — on every prefix of a paper-length Evolve history
//! of all 11 workloads, and on a hand-made history whose runs observed
//! different method counts.

use evolvable_vm::evovm::{EvolvableVm, EvolveConfig, EvolveState, LevelStrategy};
use evolvable_vm::learn::cv;
use evolvable_vm::learn::dataset::{Dataset, Raw};
use evolvable_vm::learn::tree::ClassificationTree;
use evolvable_vm::opt::OptLevel;
use evolvable_vm::workloads;
use evolvable_vm::xicl::{FeatureValue, FeatureVector};

fn raw_of(vector: &FeatureVector) -> Vec<(String, Raw)> {
    vector
        .iter()
        .map(|(name, value)| {
            let raw = match value {
                FeatureValue::Num(v) => Raw::Num(*v),
                FeatureValue::Cat(s) => Raw::Cat(s.clone()),
            };
            (name.to_owned(), raw)
        })
        .collect()
}

/// The per-method reference models of the VM's exported history.
fn reference_models(vm: &EvolvableVm) -> Vec<(Dataset, ClassificationTree)> {
    let state: EvolveState = serde_json::from_str(&vm.export_state()).expect("state parses");
    let n_methods = state
        .history
        .iter()
        .map(|e| e.ideal.len())
        .max()
        .unwrap_or(0);
    let params = EvolveConfig::default().tree_params;
    (0..n_methods)
        .map(|m| {
            let mut data = Dataset::new();
            for entry in &state.history {
                let Some(&level) = entry.ideal.get(m) else {
                    continue;
                };
                data.push(&entry.features, (level + 1) as u16)
                    .expect("consistent schema");
            }
            let tree = ClassificationTree::fit(&data, &params);
            (data, tree)
        })
        .collect()
}

fn reference_predict(
    models: &[(Dataset, ClassificationTree)],
    vector: &FeatureVector,
    n_methods: usize,
) -> Option<LevelStrategy> {
    if models.is_empty() {
        return None;
    }
    let raw = raw_of(vector);
    let mut strategy = LevelStrategy::empty(n_methods);
    let mut any = false;
    for (i, (data, tree)) in models.iter().enumerate().take(n_methods) {
        let label = tree.predict(&data.encode_by_name(&raw));
        strategy.levels[i] = OptLevel::from_i8(label as i8 - 1);
        any = true;
    }
    any.then_some(strategy)
}

/// Trees (thresholds by bits, via `Debug`), predictions on `probes`, used
/// features and the cross-validated accuracy all equal the reference.
fn assert_matches_reference(vm: &EvolvableVm, probes: &[FeatureVector], context: &str) {
    let models = reference_models(vm);
    for (m, (_, tree)) in models.iter().enumerate() {
        let got = vm.method_tree(m).expect("every observed method has a tree");
        assert_eq!(
            format!("{got:?}"),
            format!("{tree:?}"),
            "{context}: tree of method {m}"
        );
    }
    assert!(vm.method_tree(models.len()).is_none(), "{context}");
    for probe in probes {
        for n_methods in [
            models.len(),
            models.len().saturating_sub(1),
            models.len() + 1,
        ] {
            assert_eq!(
                vm.predict(probe, n_methods),
                reference_predict(&models, probe, n_methods),
                "{context}: prediction for {n_methods} methods"
            );
        }
    }
    let mut used: Vec<usize> = models
        .iter()
        .flat_map(|(_, tree)| tree.used_features())
        .collect();
    used.sort_unstable();
    used.dedup();
    assert_eq!(vm.used_feature_indices(), used, "{context}: used features");
    if !models.is_empty() {
        let params = EvolveConfig::default().tree_params;
        let cv: f64 = models
            .iter()
            .map(|(data, _)| cv::k_fold_accuracy(data, 5, &params))
            .sum::<f64>()
            / models.len() as f64;
        assert_eq!(
            vm.cross_validated_accuracy(5).to_bits(),
            cv.to_bits(),
            "{context}: cross-validated accuracy"
        );
    }
}

/// Run a paper-length Evolve history of `name` and check the models after
/// every run.
fn every_prefix_matches_the_reference(name: &str) {
    let bench = workloads::by_name(name).expect("bundled workload");
    let runs = workloads::info(name)
        .expect("bundled workload")
        .campaign_runs;
    let probes: Vec<FeatureVector> = bench
        .inputs
        .iter()
        .take(4)
        .map(|input| {
            let (vector, _) = bench
                .translator
                .translate(&input.args, &input.vfs)
                .expect("legal input");
            vector
        })
        .collect();
    let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    for run in 0..runs {
        vm.run_once(&bench.inputs[run % bench.inputs.len()])
            .expect("runs succeed");
        assert_matches_reference(&vm, &probes, &format!("{name} after {} runs", run + 1));
    }
}

/// One test per workload, so the harness runs them in parallel.
macro_rules! workload_tests {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                every_prefix_matches_the_reference(stringify!($name));
            }
        )*

        #[test]
        fn the_tests_cover_every_workload() {
            assert_eq!(workloads::names(), [$(stringify!($name)),*]);
        }
    };
}

workload_tests!(
    mtrt, compress, db, antlr, bloat, fop, euler, moldyn, montecarlo, search, raytracer,
);

/// A history whose runs observed 3, 1, 2, 0, 3, 2 and 1 methods: methods
/// train on different runs, and the categorical feature's values first
/// appear in a different order in each method's runs, so each set of
/// runs needs its own encoding.
#[test]
fn ragged_history_matches_the_reference() {
    let rows: [(f64, &str, &[i8]); 7] = [
        (1.0, "red", &[2, 0, 1]),
        (9.0, "blue", &[-1]),
        (4.0, "green", &[1, 2]),
        (7.0, "blue", &[]),
        (2.0, "blue", &[0, 2, 2]),
        (8.0, "red", &[2, 1]),
        (3.0, "green", &[1]),
    ];
    let history: Vec<String> = rows
        .iter()
        .map(|(size, color, ideal)| {
            format!(
                r#"{{"features":[["input.SIZE",{{"Num":{size:?}}}],["input.COLOR",{{"Cat":"{color}"}}]],"ideal":{ideal:?}}}"#
            )
        })
        .collect();
    let json = format!(r#"{{"history":[{}],"confidence":null}}"#, history.join(","));

    let bench = workloads::by_name("search").expect("bundled workload");
    let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    vm.import_state(&json).expect("state imports");
    assert_eq!(vm.runs_observed(), rows.len());

    let probes: Vec<FeatureVector> = [(1.5, "red"), (8.5, "blue"), (3.0, "green"), (5.0, "teal")]
        .iter()
        .map(|&(size, color)| {
            let mut v = FeatureVector::new();
            v.push("input.SIZE", FeatureValue::Num(size));
            v.push("input.COLOR", FeatureValue::Cat(color.to_owned()));
            v
        })
        .chain(std::iter::once(FeatureVector::new()))
        .collect();
    assert_matches_reference(&vm, &probes, "ragged history");
}
