//! Labelled datasets consumed by the trainer, and per-feature
//! standardization.

use crate::matrix::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-feature z-score standardization fitted on a training set and applied
/// to any later matrix with the same width.
///
/// Standardization matters doubly here: it conditions training, and it
/// makes gradient×input saliency compare features by *information* rather
/// than raw byte amplitude (a constant-ish opcode byte must be able to
/// outrank a full-range sequence-number byte).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fits per-column mean and standard deviation. Constant columns get a
    /// unit standard deviation, so they transform to zero.
    pub fn fit(features: &Matrix) -> Self {
        let cols = features.cols();
        let rows = features.rows().max(1) as f32;
        let mut mean = vec![0.0f32; cols];
        for r in 0..features.rows() {
            for (m, &v) in mean.iter_mut().zip(features.row(r)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= rows;
        }
        let mut var = vec![0.0f32; cols];
        for r in 0..features.rows() {
            for ((s, &v), &m) in var.iter_mut().zip(features.row(r)).zip(&mean) {
                let d = v - m;
                *s += d * d;
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / rows).sqrt();
                if s < 1e-6 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Standardizer { mean, std }
    }

    /// Number of features the standardizer was fitted on.
    pub fn width(&self) -> usize {
        self.mean.len()
    }

    /// Checks a standardizer read from outside: one mean and one standard
    /// deviation for each of `width` features.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch.
    pub fn check_width(&self, width: usize) -> Result<(), String> {
        if self.mean.len() == width && self.std.len() == width {
            Ok(())
        } else {
            Err(format!(
                "{} means and {} deviations for {width} features",
                self.mean.len(),
                self.std.len()
            ))
        }
    }

    /// Returns a standardized copy of `features`.
    ///
    /// # Panics
    ///
    /// Panics if the width differs from the fitted width.
    pub fn transform(&self, features: &Matrix) -> Matrix {
        assert_eq!(features.cols(), self.width(), "feature width mismatch");
        let mut out = features.clone();
        for r in 0..out.rows() {
            for ((v, &m), &s) in out.row_mut(r).iter_mut().zip(&self.mean).zip(&self.std) {
                *v = (*v - m) / s;
            }
        }
        out
    }

    /// Fits on `features` and returns the standardized copy.
    pub fn fit_transform(features: &Matrix) -> (Self, Matrix) {
        let st = Standardizer::fit(features);
        let out = st.transform(features);
        (st, out)
    }

    /// Returns a dataset with standardized features and unchanged labels.
    pub fn transform_dataset(&self, dataset: &Dataset) -> Dataset {
        Dataset::new(
            self.transform(dataset.features()),
            dataset.labels().to_vec(),
        )
    }
}

/// A labelled dataset: a `samples × features` matrix plus integer class
/// labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != features.rows()`.
    pub fn new(features: Matrix, labels: Vec<usize>) -> Self {
        assert_eq!(
            labels.len(),
            features.rows(),
            "label count {} does not match sample count {}",
            labels.len(),
            features.rows()
        );
        Dataset { features, labels }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per sample.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Borrows the feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Borrows the labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of distinct classes, computed as `max(label) + 1`.
    pub fn num_classes(&self) -> usize {
        self.labels.iter().max().map_or(0, |m| m + 1)
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes()];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Builds a sub-dataset from the given sample indices (repeats allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: self.features.select_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
        }
    }

    /// Builds a dataset keeping only the feature columns in `columns`.
    ///
    /// # Panics
    ///
    /// Panics if any column is out of bounds.
    pub fn project_columns(&self, columns: &[usize]) -> Dataset {
        Dataset {
            features: self.features.select_cols(columns),
            labels: self.labels.clone(),
        }
    }

    /// Randomly shuffles samples in place.
    pub fn shuffle(&mut self, rng: &mut impl Rng) {
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(rng);
        *self = self.select(&indices);
    }

    /// Splits into `(first, second)` with `fraction` of samples in the first
    /// part, preserving order.
    pub fn split_at_fraction(&self, fraction: f64) -> (Dataset, Dataset) {
        let cut = ((self.len() as f64 * fraction.clamp(0.0, 1.0)).round() as usize).min(self.len());
        let first: Vec<usize> = (0..cut).collect();
        let second: Vec<usize> = (cut..self.len()).collect();
        (self.select(&first), self.select(&second))
    }

    /// Downsamples the majority class so class counts differ by at most one
    /// sample per minority count, preserving sample order. Only meaningful
    /// for binary labels.
    pub fn balance_binary(&self, rng: &mut impl Rng) -> Dataset {
        let counts = self.class_counts();
        if counts.len() < 2 || counts[0] == 0 || counts[1] == 0 {
            return self.clone();
        }
        let minority = counts[0].min(counts[1]);
        let mut keep: Vec<usize> = Vec::with_capacity(minority * 2);
        for class in 0..2 {
            let mut idx: Vec<usize> = (0..self.len())
                .filter(|&i| self.labels[i] == class)
                .collect();
            idx.shuffle(rng);
            idx.truncate(minority);
            keep.extend(idx);
        }
        keep.sort_unstable();
        self.select(&keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        let features = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f32);
        Dataset::new(features, vec![0, 0, 0, 0, 1, 1])
    }

    #[test]
    fn accessors() {
        let d = dataset();
        assert_eq!(d.len(), 6);
        assert!(!d.is_empty());
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.class_counts(), vec![4, 2]);
    }

    #[test]
    fn select_and_project() {
        let d = dataset();
        let s = d.select(&[4, 5]);
        assert_eq!(s.labels(), &[1, 1]);
        let p = d.project_columns(&[1]);
        assert_eq!(p.feature_dim(), 1);
        assert_eq!(p.features().get(0, 0), 1.0);
    }

    #[test]
    fn shuffle_preserves_pairing() {
        let mut d = dataset();
        let mut rng = StdRng::seed_from_u64(3);
        d.shuffle(&mut rng);
        // Label 1 samples have first feature 8 or 10.
        for i in 0..d.len() {
            let f = d.features().get(i, 0);
            if d.labels()[i] == 1 {
                assert!(f == 8.0 || f == 10.0);
            } else {
                assert!(f < 8.0);
            }
        }
    }

    #[test]
    fn split_fraction() {
        let d = dataset();
        let (a, b) = d.split_at_fraction(0.5);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn balance_binary_downsamples_majority() {
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(5);
        let b = d.balance_binary(&mut rng);
        assert_eq!(b.class_counts(), vec![2, 2]);
    }

    #[test]
    fn balance_binary_is_noop_for_single_class() {
        let d = Dataset::new(Matrix::zeros(3, 1), vec![0, 0, 0]);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(d.balance_binary(&mut rng).len(), 3);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_labels_panic() {
        let _ = Dataset::new(Matrix::zeros(3, 1), vec![0]);
    }

    #[test]
    fn standardizer_zero_means_unit_stds() {
        let m = Matrix::from_vec(4, 2, vec![1.0, 10.0, 3.0, 10.0, 5.0, 10.0, 7.0, 10.0]);
        let (st, out) = Standardizer::fit_transform(&m);
        assert_eq!(st.width(), 2);
        // Column 0 standardizes to zero mean, unit-ish std.
        let col0: Vec<f32> = (0..4).map(|r| out.get(r, 0)).collect();
        let mean: f32 = col0.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        let var: f32 = col0.iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-4);
        // Constant column 1 becomes zero, not NaN.
        for r in 0..4 {
            assert_eq!(out.get(r, 1), 0.0);
        }
    }

    #[test]
    fn standardizer_transform_applies_train_statistics() {
        let train = Matrix::from_vec(2, 1, vec![0.0, 2.0]); // mean 1, std 1
        let st = Standardizer::fit(&train);
        let test = Matrix::from_vec(1, 1, vec![3.0]);
        let out = st.transform(&test);
        assert!((out.get(0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn standardizer_rejects_wrong_width() {
        let st = Standardizer::fit(&Matrix::zeros(2, 3));
        let _ = st.transform(&Matrix::zeros(1, 2));
    }
}
