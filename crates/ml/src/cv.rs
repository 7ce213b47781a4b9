//! k-fold cross-validation (the paper's §5.1 uses ten-fold to evaluate
//! model accuracy; §5.4 reports the resulting per-pattern accuracies).

use crate::tree::{DecisionTree, TrainParams};

/// Result of a cross-validation run.
#[derive(Clone, Debug)]
pub struct CvReport {
    /// Per-fold accuracy on the held-out fold.
    pub fold_accuracy: Vec<f64>,
    /// Confusion matrix summed over folds: `confusion[truth][predicted]`.
    pub confusion: Vec<Vec<usize>>,
    /// Number of classes.
    pub n_classes: usize,
}

impl CvReport {
    /// Mean held-out accuracy.
    pub fn mean_accuracy(&self) -> f64 {
        if self.fold_accuracy.is_empty() {
            return 0.0;
        }
        self.fold_accuracy.iter().sum::<f64>() / self.fold_accuracy.len() as f64
    }

    /// Per-class recall (diagonal over row sums); `None` for unseen
    /// classes.
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row = self.confusion.get(class)?;
        let total: usize = row.iter().sum();
        if total == 0 {
            None
        } else {
            Some(row[class] as f64 / total as f64)
        }
    }
}

/// Run `k`-fold cross-validation. Folds are assigned round-robin
/// (`i % k`), which is deterministic and — because records arrive grouped
/// by graph/iteration — spreads each graph's iterations across folds the
/// same way for every run.
///
/// # Panics
/// Panics when `k < 2` or there are fewer than `k` samples.
pub fn cross_validate(
    rows: &[Vec<f64>],
    labels: &[usize],
    k: usize,
    params: TrainParams,
) -> CvReport {
    assert!(k >= 2, "need at least 2 folds");
    assert!(rows.len() >= k, "need at least k samples");
    assert_eq!(rows.len(), labels.len());
    let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;

    // Per fold: one part each.
    let folds =
        gswitch_pool::parts(k, |fold| evaluate_fold(rows, labels, n_classes, k, fold, params));

    let mut confusion = vec![vec![0usize; n_classes]; n_classes];
    let mut fold_accuracy = Vec::with_capacity(k);
    for (acc, c) in folds {
        fold_accuracy.push(acc);
        for (row, crow) in confusion.iter_mut().zip(&c) {
            for (cell, &v) in row.iter_mut().zip(crow) {
                *cell += v;
            }
        }
    }
    CvReport { fold_accuracy, confusion, n_classes }
}

/// Train on every row but fold `fold`'s (rows `i` with `i % k == fold`),
/// test on those: the held-out accuracy and `confusion[truth][predicted]`.
fn evaluate_fold(
    rows: &[Vec<f64>],
    labels: &[usize],
    n_classes: usize,
    k: usize,
    fold: usize,
    params: TrainParams,
) -> (f64, Vec<Vec<usize>>) {
    let mut train_rows = Vec::new();
    let mut train_labels = Vec::new();
    let mut test_rows = Vec::new();
    let mut test_labels = Vec::new();
    for (i, (r, &l)) in rows.iter().zip(labels).enumerate() {
        if i % k == fold {
            test_rows.push(r.clone());
            test_labels.push(l);
        } else {
            train_rows.push(r.clone());
            train_labels.push(l);
        }
    }
    let tree = DecisionTree::train(&train_rows, &train_labels, params)
        .expect("cv folds are non-empty and rectangular");
    let mut confusion = vec![vec![0usize; n_classes]; n_classes];
    let mut hits = 0usize;
    for (r, &l) in test_rows.iter().zip(&test_labels) {
        let p = tree.predict(r).min(n_classes - 1);
        confusion[l][p] += 1;
        if p == l {
            hits += 1;
        }
    }
    let acc = if test_rows.is_empty() { 1.0 } else { hits as f64 / test_rows.len() as f64 };
    (acc, confusion)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        // Noisy but separable: class = x > 50 with interleaved order.
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![((i * 37) % 100) as f64]).collect();
        let labels = rows.iter().map(|r| usize::from(r[0] > 50.0)).collect();
        (rows, labels)
    }

    #[test]
    fn ten_fold_on_separable_data_is_accurate() {
        let (rows, labels) = dataset(500);
        let rep = cross_validate(&rows, &labels, 10, TrainParams::default());
        assert_eq!(rep.fold_accuracy.len(), 10);
        assert!(rep.mean_accuracy() > 0.95, "acc = {}", rep.mean_accuracy());
    }

    #[test]
    fn confusion_matrix_accounts_all_samples() {
        let (rows, labels) = dataset(100);
        let rep = cross_validate(&rows, &labels, 5, TrainParams::default());
        let total: usize = rep.confusion.iter().flatten().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn recall_defined_for_seen_classes() {
        let (rows, labels) = dataset(200);
        let rep = cross_validate(&rows, &labels, 4, TrainParams::default());
        assert!(rep.recall(0).unwrap() > 0.9);
        assert!(rep.recall(1).unwrap() > 0.9);
        assert!(rep.recall(7).is_none());
    }

    #[test]
    fn pooled_folds_equal_a_fold_by_fold_serial_loop() {
        let (rows, labels) = dataset(300);
        for k in [2, 3, 5, 10] {
            let rep = cross_validate(&rows, &labels, k, TrainParams::default());
            let mut confusion = vec![vec![0usize; 2]; 2];
            let mut accuracy = Vec::new();
            for fold in 0..k {
                let (acc, c) = evaluate_fold(&rows, &labels, 2, k, fold, TrainParams::default());
                accuracy.push(acc.to_bits());
                for (row, crow) in confusion.iter_mut().zip(&c) {
                    for (cell, &v) in row.iter_mut().zip(crow) {
                        *cell += v;
                    }
                }
            }
            let pooled: Vec<u64> = rep.fold_accuracy.iter().map(|a| a.to_bits()).collect();
            assert_eq!(pooled, accuracy, "k = {k}: fold accuracies, in fold order");
            assert_eq!(rep.confusion, confusion, "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "folds")]
    fn rejects_single_fold() {
        let (rows, labels) = dataset(10);
        cross_validate(&rows, &labels, 1, TrainParams::default());
    }
}
