//! Cross-validation: estimating a model's quality from its training data.
//!
//! The paper's discriminative prediction uses "cross-validation to compute
//! a confidence level that reflects the quality of the model" (§I). This
//! module provides deterministic k-fold (and leave-one-out) accuracy
//! estimation for classification trees.

use crate::dataset::Dataset;
use crate::tree::{ClassificationTree, TreeParams};

/// Deterministic k-fold cross-validated accuracy.
///
/// Rows are assigned to folds round-robin (`row % k`), so results are
/// reproducible. With fewer rows than folds this degrades gracefully to
/// leave-one-out. Returns a value in `[0, 1]`; an empty dataset scores 0.
pub fn k_fold_accuracy(data: &Dataset, k: usize, params: &TreeParams) -> f64 {
    if data.is_empty() || k == 0 {
        return 0.0;
    }
    let k = k.min(data.len());
    if k < 2 {
        // Can't hold anything out; resubstitution accuracy.
        let tree = ClassificationTree::fit(data, params);
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
        let tree = ClassificationTree::fit_rows(data, data.labels(), train, params);
        for &i in &test {
            if tree.predict(&data.rows()[i]) == data.labels()[i] {
                correct += 1;
            }
        }
    }
    correct as f64 / data.len() as f64
}

/// Leave-one-out accuracy (k = n).
pub fn leave_one_out_accuracy(data: &Dataset, params: &TreeParams) -> f64 {
    k_fold_accuracy(data, data.len(), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Raw;

    fn dataset(rows: &[(f64, u16)]) -> Dataset {
        let mut d = Dataset::new();
        for &(x, label) in rows {
            d.push(&[("x".to_owned(), Raw::Num(x))], label).unwrap();
        }
        d
    }

    #[test]
    fn separable_data_scores_high() {
        let rows: Vec<(f64, u16)> = (0..20).map(|i| (i as f64, u16::from(i >= 10))).collect();
        let acc = k_fold_accuracy(&dataset(&rows), 5, &TreeParams::default());
        assert!(acc >= 0.9, "expected high accuracy, got {acc}");
    }

    #[test]
    fn label_noise_scores_low() {
        // Labels unrelated to the feature: CV should be unimpressive.
        let rows: Vec<(f64, u16)> = (0..20)
            .map(|i| (((i * 7) % 13) as f64, (i % 2) as u16))
            .collect();
        let acc = k_fold_accuracy(&dataset(&rows), 5, &TreeParams::default());
        assert!(acc <= 0.8, "expected low accuracy, got {acc}");
    }

    #[test]
    fn empty_dataset_scores_zero() {
        assert_eq!(
            k_fold_accuracy(&Dataset::new(), 5, &TreeParams::default()),
            0.0
        );
    }

    #[test]
    fn single_row_uses_resubstitution() {
        let acc = k_fold_accuracy(&dataset(&[(1.0, 1)]), 5, &TreeParams::default());
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn loo_matches_kfold_with_k_equals_n() {
        let rows: Vec<(f64, u16)> = (0..8).map(|i| (i as f64, u16::from(i >= 4))).collect();
        let d = dataset(&rows);
        assert_eq!(
            leave_one_out_accuracy(&d, &TreeParams::default()),
            k_fold_accuracy(&d, 8, &TreeParams::default())
        );
    }

    #[test]
    fn deterministic() {
        let rows: Vec<(f64, u16)> = (0..16).map(|i| (i as f64, (i % 3) as u16)).collect();
        let d = dataset(&rows);
        let a = k_fold_accuracy(&d, 4, &TreeParams::default());
        let b = k_fold_accuracy(&d, 4, &TreeParams::default());
        assert_eq!(a, b);
    }
}
