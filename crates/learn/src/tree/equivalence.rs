//! Tree-equivalence properties: the sorted-sweep fit builds exactly the
//! tree of the reference split search ([`super::oracle`]), thresholds
//! compared by bits, and cross-validation returns the same bits; and a
//! refit after each appended row builds exactly the full fit's tree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{oracle, ClassificationTree, FitScratch, Node, TreeParams};
use crate::cv;
use crate::dataset::{Column, Dataset, Encoded, FeatureKind, Raw};

/// Structural equality with thresholds compared by bits (`==` would
/// equate `-0.0` with `+0.0`).
fn same_node(a: &Node, b: &Node) -> bool {
    match (a, b) {
        (Node::Leaf { label: x }, Node::Leaf { label: y }) => x == y,
        (
            Node::SplitNum {
                feature: f1,
                threshold: t1,
                left: l1,
                right: r1,
            },
            Node::SplitNum {
                feature: f2,
                threshold: t2,
                left: l2,
                right: r2,
            },
        ) => f1 == f2 && t1.to_bits() == t2.to_bits() && same_node(l1, l2) && same_node(r1, r2),
        (
            Node::SplitCat {
                feature: f1,
                category: c1,
                eq: e1,
                ne: n1,
            },
            Node::SplitCat {
                feature: f2,
                category: c2,
                eq: e2,
                ne: n2,
            },
        ) => f1 == f2 && c1 == c2 && same_node(e1, e2) && same_node(n1, n2),
        _ => false,
    }
}

fn assert_same_fit(data: &Dataset, params: &TreeParams) {
    let fast = ClassificationTree::fit(data, params);
    let reference = oracle::fit(data, params);
    assert!(
        same_node(&fast.root, &reference.root) && fast.columns == reference.columns,
        "trees differ on {:?} with {params:?}\nsweep:\n{}reference:\n{}",
        data,
        fast.render(),
        reference.render(),
    );
}

fn assert_same_cv(data: &Dataset, k: usize, params: &TreeParams) {
    let fast = cv::k_fold_accuracy(data, k, params);
    let reference = oracle::k_fold_accuracy(data, k, params);
    assert_eq!(fast.to_bits(), reference.to_bits(), "k={k} on {data:?}");
}

/// Build a dataset straight from encoded cells, so a column may hold
/// cells of the other kind (which `Dataset::push` would refuse), and
/// every float keeps its bits (serialization would turn ±∞ and `-NaN`
/// into `NaN`).
fn dataset(kinds: &[FeatureKind], rows: Vec<Vec<Encoded>>, labels: Vec<u16>) -> Dataset {
    let columns: Vec<Column> = kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| Column {
            name: format!("f{i}"),
            kind,
            categories: match kind {
                FeatureKind::Numeric => Vec::new(),
                FeatureKind::Categorical => (0..6).map(|c| format!("c{c}")).collect(),
            },
        })
        .collect();
    Dataset::from_parts(columns, rows, labels)
}

fn numeric(values: &[f64], labels: &[u16]) -> Dataset {
    dataset(
        &[FeatureKind::Numeric],
        values.iter().map(|&v| vec![Encoded::Num(v)]).collect(),
        labels.to_vec(),
    )
}

/// `x` moved `steps` representable values up.
fn up(x: f64, steps: u64) -> f64 {
    f64::from_bits(x.to_bits() + steps)
}

#[test]
fn edge_values_match_the_reference() {
    let max_below = f64::from_bits(f64::MAX.to_bits() - 1);
    let cases: Vec<(Vec<f64>, Vec<u16>)> = vec![
        // Midpoints that round onto the lower and onto the upper value.
        (
            vec![1.0, up(1.0, 1), up(1.0, 2), up(1.0, 3)],
            vec![0, 1, 0, 1],
        ),
        (
            vec![up(1.0, 1), up(1.0, 2), 1.0, up(1.0, 3)],
            vec![1, 0, 0, 1],
        ),
        // The midpoint overflows to +inf; with NaN rows that still splits.
        (
            vec![max_below, f64::MAX, f64::NAN, f64::MAX],
            vec![0, 1, 2, 1],
        ),
        (vec![-f64::MAX, -max_below, 0.0], vec![1, 0, 0]),
        // −inf next to +inf: a NaN threshold, never a split.
        (
            vec![f64::NEG_INFINITY, f64::INFINITY, f64::INFINITY],
            vec![0, 1, 1],
        ),
        (
            vec![f64::NEG_INFINITY, 3.0, f64::INFINITY, f64::NAN],
            vec![0, 1, 2, 3],
        ),
        // Signed zeros are one value; the kept one comes first in
        // total order.
        (vec![0.0, -0.0, 1.0, -1.0, 0.0], vec![0, 1, 0, 1, 1]),
        (vec![-0.0, 0.0, -0.0], vec![2, 1, 2]),
        // NaN of both signs, alone and mixed.
        (vec![f64::NAN, -f64::NAN, f64::NAN], vec![0, 1, 0]),
        (
            vec![-f64::NAN, 2.0, f64::NAN, 1.0, 2.0],
            vec![0, 1, 0, 1, 2],
        ),
        (vec![5.0], vec![3]),
        (vec![7.0, 7.0, 7.0, 7.0], vec![0, 1, 0, 1]),
        // Symmetric labels: the first of equal-gain thresholds wins.
        (vec![1.0, 2.0, 3.0, 4.0], vec![0, 1, 1, 0]),
    ];
    for params in [
        TreeParams::default(),
        TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        },
    ] {
        for (values, labels) in &cases {
            let data = numeric(values, labels);
            assert_same_fit(&data, &params);
            for k in [0, 1, 2, 3, values.len()] {
                assert_same_cv(&data, k, &params);
            }
        }
    }
}

const SPECIALS: [f64; 12] = [
    f64::NAN,
    -f64::NAN,
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    -1.0,
    f64::MAX,
    -f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
];

/// One numeric cell in one of several styles: a small pool (heavy
/// duplicates), special values, runs of adjacent floats (midpoints that
/// round onto an endpoint or overflow), or wide random values.
fn numeric_cell(rng: &mut StdRng, style: u32) -> f64 {
    match style {
        0 => f64::from(rng.gen_range(-3i32..=3)),
        1 => SPECIALS[rng.gen_range(0..SPECIALS.len())],
        2 => {
            let base = [1.0, 1e10, 3.5, 0.1][rng.gen_range(0..4usize)];
            up(base, rng.gen_range(0..5u64))
        }
        3 => f64::from_bits(f64::MAX.to_bits() - rng.gen_range(0..4u64)),
        4 => (rng.gen::<f64>() - 0.5) * 1e6,
        _ => {
            let style = rng.gen_range(0..5);
            numeric_cell(rng, style)
        }
    }
}

fn random_case(rng: &mut StdRng) -> (Dataset, TreeParams) {
    let n = if rng.gen_bool(0.05) {
        rng.gen_range(41..=150usize)
    } else {
        rng.gen_range(1..=40usize)
    };
    let n_features = rng.gen_range(1..=4usize);
    let kinds: Vec<FeatureKind> = (0..n_features)
        .map(|_| {
            if rng.gen_bool(0.3) {
                FeatureKind::Categorical
            } else {
                FeatureKind::Numeric
            }
        })
        .collect();
    let styles: Vec<u32> = (0..n_features).map(|_| rng.gen_range(0..6)).collect();
    let n_cats: Vec<u32> = (0..n_features).map(|_| rng.gen_range(1..=6)).collect();
    // Cells of the other kind in a column, in a tenth of the datasets.
    let stray = if rng.gen_bool(0.1) { 0.15 } else { 0.0 };
    let mut rows: Vec<Vec<Encoded>> = (0..n)
        .map(|_| {
            (0..n_features)
                .map(|f| {
                    let numeric = (kinds[f] == FeatureKind::Numeric) != rng.gen_bool(stray);
                    if numeric {
                        Encoded::Num(numeric_cell(rng, styles[f]))
                    } else {
                        Encoded::Cat(rng.gen_range(0..n_cats[f]))
                    }
                })
                .collect()
        })
        .collect();
    let mut kinds = kinds;
    // Forced gain ties: a duplicated column scores exactly like its
    // original, so only candidate order can pick between them.
    if rng.gen_bool(0.3) {
        let f = rng.gen_range(0..n_features);
        kinds.push(kinds[f]);
        for row in &mut rows {
            row.push(row[f]);
        }
    }
    // 1–6 labels drawn from a sparse range, either at random or as a
    // function of the first cell (which grows deeper trees).
    let n_labels = rng.gen_range(1..=6usize);
    let label_set: Vec<u16> = (0..n_labels).map(|_| rng.gen_range(0..12u16)).collect();
    let functional = rng.gen_bool(0.4);
    let labels = rows
        .iter()
        .map(|row| {
            let pick = match row[0] {
                Encoded::Num(v) if functional && v.is_finite() => v.abs() as usize,
                Encoded::Cat(c) if functional => c as usize,
                _ => rng.gen_range(0..n_labels),
            };
            label_set[pick % n_labels]
        })
        .collect();
    let params = TreeParams {
        max_depth: [0, 1, 2, 3, 8, 8, 8, 12][rng.gen_range(0..8usize)],
        min_samples_split: rng.gen_range(0..=5),
        min_gain: [0.0, 0.0, 0.0, 0.05, 0.3, -1.0][rng.gen_range(0..6usize)],
    };
    (dataset(&kinds, rows, labels), params)
}

#[test]
fn random_datasets_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(0x7ee5);
    for case in 0..3000 {
        let (data, params) = random_case(&mut rng);
        assert_same_fit(&data, &params);
        if case % 4 == 0 {
            let k = rng.gen_range(0..=data.len() + 1);
            assert_same_cv(&data, k, &params);
        }
    }
}

/// `data`'s first `rows` rows, with each categorical column listing only
/// the categories up to the largest id those rows use, so the schema
/// grows as `Dataset::push` grows it when a new category arrives.
fn prefix(data: &Dataset, rows: usize) -> Dataset {
    let columns = data
        .columns()
        .iter()
        .enumerate()
        .map(|(f, column)| {
            let seen = data.rows()[..rows]
                .iter()
                .filter_map(|row| match row[f] {
                    Encoded::Cat(c) => Some(c as usize + 1),
                    Encoded::Num(_) => None,
                })
                .max()
                .unwrap_or(0);
            Column {
                categories: column.categories[..seen.min(column.categories.len())].to_vec(),
                ..column.clone()
            }
        })
        .collect();
    Dataset::from_parts(
        columns,
        data.rows()[..rows].to_vec(),
        data.labels()[..rows].to_vec(),
    )
}

#[test]
fn appended_rows_refit_to_the_full_fit() {
    let mut rng = StdRng::seed_from_u64(0xadd5);
    // One scratch across every refit of every case, as one learner keeps
    // it across methods and runs: its leftovers must never leak.
    let mut scratch = FitScratch::default();
    for _ in 0..1000 {
        let (data, params) = random_case(&mut rng);
        let mut tree = ClassificationTree::fit(&prefix(&data, 1), &params);
        for rows in 2..=data.len() {
            let grown = prefix(&data, rows);
            tree.refit_appended(&grown, grown.labels(), &params, &mut scratch);
            let full = ClassificationTree::fit(&grown, &params);
            assert!(
                same_node(&tree.root, &full.root) && tree.columns == full.columns,
                "refit differs after {rows} rows of {data:?} with {params:?}\n\
                 refit:\n{}full fit:\n{}",
                tree.render(),
                full.render(),
            );
        }
    }
}

/// Rows pushed through `Dataset::push`, which interns new categories as
/// they arrive: a refit after each push matches the full fit, schema
/// copy included, as new categories and new labels appear.
#[test]
fn refits_follow_new_categories_and_labels() {
    let rows: [(f64, &str, u16); 10] = [
        (1.0, "a", 0),
        (2.0, "a", 0),
        (3.0, "b", 1),
        (f64::NAN, "c", 1),
        (2.5, "a", 2),
        (-0.0, "d", 0),
        (0.0, "b", 3),
        (9.0, "e", 2),
        (3.0, "a", 1),
        (1.5, "", 3),
    ];
    let params = TreeParams::default();
    let mut scratch = FitScratch::default();
    let mut data = Dataset::new();
    let mut tree: Option<ClassificationTree> = None;
    for (x, kind, label) in rows {
        let row = [
            ("x".to_owned(), Raw::Num(x)),
            ("kind".to_owned(), Raw::Cat(kind.to_owned())),
        ];
        data.push(&row, label).unwrap();
        let full = ClassificationTree::fit(&data, &params);
        let refit = match tree.take() {
            Some(mut refit) => {
                refit.refit_appended(&data, data.labels(), &params, &mut scratch);
                refit
            }
            None => full.clone(),
        };
        assert!(
            same_node(&refit.root, &full.root) && refit.columns == full.columns,
            "after {} rows:\nrefit:\n{}full fit:\n{}",
            data.len(),
            refit.render(),
            full.render(),
        );
        tree = Some(refit);
    }
}

/// A new row can move a split's threshold from `+0.0` to `-0.0` without
/// moving any row across it: the refit must still take the new bits.
#[test]
fn refits_keep_the_threshold_bits_of_the_full_fit() {
    let tiny = 5e-324;
    let params = TreeParams::default();
    let before = numeric(&[-tiny, tiny], &[0, 1]);
    let after = numeric(&[-tiny, tiny, 0.0], &[0, 1, 0]);
    let mut tree = ClassificationTree::fit(&before, &params);
    tree.refit_appended(&after, after.labels(), &params, &mut FitScratch::default());
    let full = ClassificationTree::fit(&after, &params);
    let Node::SplitNum { threshold, .. } = full.root else {
        panic!("a numeric split");
    };
    assert_eq!(threshold.to_bits(), (-0.0f64).to_bits());
    assert!(same_node(&tree.root, &full.root), "{}", tree.render());
}
