//! The split search as it stood before the sorted sweep, kept verbatim
//! as the oracle the tree-equivalence properties compare against: it
//! scores each candidate by materializing both sides and rescanning them.

use super::{ClassificationTree, Node, TreeParams};
use crate::dataset::{Dataset, Encoded, FeatureKind};

/// The reference fit.
pub(super) fn fit(data: &Dataset, params: &TreeParams) -> ClassificationTree {
    assert!(!data.is_empty(), "cannot fit a tree to an empty dataset");
    let indices: Vec<usize> = (0..data.len()).collect();
    let root = build(data, &indices, params, 0);
    ClassificationTree {
        root,
        columns: data.columns().to_vec(),
    }
}

/// The reference k-fold accuracy: the folds' trees are fitted by the
/// reference fit on copied subsets.
pub(super) fn k_fold_accuracy(data: &Dataset, k: usize, params: &TreeParams) -> f64 {
    if data.is_empty() || k == 0 {
        return 0.0;
    }
    let k = k.min(data.len());
    if k < 2 {
        let tree = fit(data, params);
        let correct = data
            .rows()
            .iter()
            .zip(data.labels())
            .filter(|(row, &label)| tree.predict(row) == label)
            .count();
        return correct as f64 / data.len() as f64;
    }
    let mut correct = 0usize;
    for fold in 0..k {
        let train: Vec<usize> = (0..data.len()).filter(|i| i % k != fold).collect();
        let test: Vec<usize> = (0..data.len()).filter(|i| i % k == fold).collect();
        if train.is_empty() {
            continue;
        }
        let tree = fit(&data.subset(&train), params);
        for &i in &test {
            if tree.predict(&data.rows()[i]) == data.labels()[i] {
                correct += 1;
            }
        }
    }
    correct as f64 / data.len() as f64
}

fn build(data: &Dataset, indices: &[usize], params: &TreeParams, depth: usize) -> Node {
    let majority = majority_label(data, indices);
    if depth >= params.max_depth
        || indices.len() < params.min_samples_split
        || is_pure(data, indices)
    {
        return Node::Leaf { label: majority };
    }
    let parent_entropy = entropy(data, indices);
    let mut best: Option<(f64, Split)> = None;
    for feature in 0..data.columns().len() {
        for split in candidate_splits(data, indices, feature) {
            let (l, r) = partition(data, indices, &split);
            if l.is_empty() || r.is_empty() {
                continue;
            }
            let n = indices.len() as f64;
            let children =
                (l.len() as f64 / n) * entropy(data, &l) + (r.len() as f64 / n) * entropy(data, &r);
            let gain = parent_entropy - children;
            if gain >= params.min_gain && best.as_ref().is_none_or(|(g, _)| gain > *g) {
                best = Some((gain, split));
            }
        }
    }
    match best {
        None => Node::Leaf { label: majority },
        Some((_, split)) => {
            let (l, r) = partition(data, indices, &split);
            let left = Box::new(build(data, &l, params, depth + 1));
            let right = Box::new(build(data, &r, params, depth + 1));
            match split {
                Split::Num { feature, threshold } => Node::SplitNum {
                    feature,
                    threshold,
                    left,
                    right,
                },
                Split::Cat { feature, category } => Node::SplitCat {
                    feature,
                    category,
                    eq: left,
                    ne: right,
                },
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Split {
    Num { feature: usize, threshold: f64 },
    Cat { feature: usize, category: u32 },
}

fn partition(data: &Dataset, indices: &[usize], split: &Split) -> (Vec<usize>, Vec<usize>) {
    let mut l = Vec::new();
    let mut r = Vec::new();
    for &i in indices {
        let goes_left = match split {
            Split::Num { feature, threshold } => match data.rows()[i][*feature] {
                Encoded::Num(v) => v <= *threshold,
                Encoded::Cat(_) => false,
            },
            Split::Cat { feature, category } => match data.rows()[i][*feature] {
                Encoded::Cat(c) => c == *category,
                Encoded::Num(_) => false,
            },
        };
        if goes_left {
            l.push(i);
        } else {
            r.push(i);
        }
    }
    (l, r)
}

fn candidate_splits(data: &Dataset, indices: &[usize], feature: usize) -> Vec<Split> {
    match data.columns()[feature].kind {
        FeatureKind::Numeric => {
            let mut values: Vec<f64> = indices
                .iter()
                .filter_map(|&i| match data.rows()[i][feature] {
                    Encoded::Num(v) => Some(v),
                    Encoded::Cat(_) => None,
                })
                .collect();
            values.sort_by(f64::total_cmp);
            values.dedup();
            values
                .windows(2)
                .map(|w| Split::Num {
                    feature,
                    threshold: (w[0] + w[1]) / 2.0,
                })
                .collect()
        }
        FeatureKind::Categorical => {
            let mut cats: Vec<u32> = indices
                .iter()
                .filter_map(|&i| match data.rows()[i][feature] {
                    Encoded::Cat(c) => Some(c),
                    Encoded::Num(_) => None,
                })
                .collect();
            cats.sort_unstable();
            cats.dedup();
            cats.into_iter()
                .map(|category| Split::Cat { feature, category })
                .collect()
        }
    }
}

fn is_pure(data: &Dataset, indices: &[usize]) -> bool {
    let first = data.labels()[indices[0]];
    indices.iter().all(|&i| data.labels()[i] == first)
}

fn majority_label(data: &Dataset, indices: &[usize]) -> u16 {
    let mut counts: Vec<(u16, usize)> = Vec::new();
    for &i in indices {
        let label = data.labels()[i];
        match counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => counts.push((label, 1)),
        }
    }
    // Ties break toward the smaller label for determinism.
    counts.sort_by_key(|&(l, c)| (std::cmp::Reverse(c), l));
    counts[0].0
}

fn entropy(data: &Dataset, indices: &[usize]) -> f64 {
    let mut counts: Vec<(u16, usize)> = Vec::new();
    for &i in indices {
        let label = data.labels()[i];
        match counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => counts.push((label, 1)),
        }
    }
    let n = indices.len() as f64;
    -counts
        .iter()
        .map(|&(_, c)| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>()
}
