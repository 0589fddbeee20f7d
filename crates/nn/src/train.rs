//! Minibatch training loop with per-epoch history (the data behind the
//! convergence figure, F5).

use crate::data::Dataset;
use crate::matrix::Matrix;
use crate::network::Mlp;
use crate::optim::Optimizer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training-loop hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// RNG seed for epoch shuffles.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 64,
            seed: 17,
        }
    }
}

/// Loss and accuracy after one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean minibatch loss across the epoch.
    pub loss: f32,
    /// Accuracy over the full training set after the epoch.
    pub train_accuracy: f32,
}

/// Per-epoch training history.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct History {
    /// Stats for each completed epoch, in order.
    pub epochs: Vec<EpochStats>,
}

impl History {
    /// Loss of the final epoch, or `None` when no epoch ran.
    pub fn final_loss(&self) -> Option<f32> {
        self.epochs.last().map(|e| e.loss)
    }

    /// Accuracy of the final epoch, or `None` when no epoch ran.
    pub fn final_accuracy(&self) -> Option<f32> {
        self.epochs.last().map(|e| e.train_accuracy)
    }
}

/// Trains `model` on `dataset`, returning the per-epoch history.
///
/// # Panics
///
/// Panics if the dataset is empty, the feature dimension does not match the
/// model, or `batch_size` is zero.
pub fn train(
    model: &mut Mlp,
    dataset: &Dataset,
    optimizer: &mut dyn Optimizer,
    config: &TrainConfig,
) -> History {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");
    assert!(config.batch_size > 0, "batch_size must be positive");
    assert_eq!(
        dataset.feature_dim(),
        model.config().input_dim,
        "dataset feature dimension does not match the model"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut history = History::default();
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    // One minibatch buffer for the whole run, refilled in place.
    let mut x = Matrix::default();
    let mut y: Vec<usize> = Vec::with_capacity(config.batch_size);
    for epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            dataset.features().select_rows_into(chunk, &mut x);
            y.clear();
            y.extend(chunk.iter().map(|&i| dataset.labels()[i]));
            loss_sum += model.train_batch(&x, &y, optimizer);
            batches += 1;
        }
        let loss = loss_sum / batches as f32;
        let train_accuracy = evaluate_accuracy(model, dataset);
        history.epochs.push(EpochStats {
            epoch,
            loss,
            train_accuracy,
        });
    }
    history
}

/// Fraction of dataset samples the model classifies correctly.
pub fn evaluate_accuracy(model: &Mlp, dataset: &Dataset) -> f32 {
    if dataset.is_empty() {
        return 0.0;
    }
    let preds = predict_in_batches(model, dataset.features(), 1024);
    let correct = preds
        .iter()
        .zip(dataset.labels())
        .filter(|(a, b)| a == b)
        .count();
    correct as f32 / dataset.len() as f32
}

/// Predicts labels in fixed-size windows of consecutive rows (read in
/// place) to bound peak memory.
pub fn predict_in_batches(model: &Mlp, features: &Matrix, batch: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(features.rows());
    let mut start = 0;
    while start < features.rows() {
        let end = (start + batch).min(features.rows());
        out.extend(model.predict_rows(features, start..end));
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::network::MlpConfig;
    use crate::optim::Adam;

    fn xor_dataset() -> Dataset {
        // XOR with replication so minibatches see every case.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..64 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                rows.extend_from_slice(&[a, b]);
                labels.push(usize::from((a != b) as u8 == 1));
            }
        }
        Dataset::new(Matrix::from_vec(labels.len(), 2, rows), labels)
    }

    #[test]
    fn trains_xor_to_high_accuracy() {
        let data = xor_dataset();
        let mut model = Mlp::new(MlpConfig {
            input_dim: 2,
            hidden: vec![16],
            num_classes: 2,
            activation: Activation::Tanh,
            dropout: 0.0,
            seed: 5,
        });
        let mut opt = Adam::new(0.02);
        let history = train(
            &mut model,
            &data,
            &mut opt,
            &TrainConfig {
                epochs: 60,
                batch_size: 32,
                seed: 1,
            },
        );
        assert_eq!(history.epochs.len(), 60);
        assert!(history.final_accuracy().unwrap() > 0.98);
        // Loss must broadly decrease.
        assert!(history.epochs[0].loss > history.final_loss().unwrap());
    }

    #[test]
    fn predict_in_batches_matches_single_shot() {
        let data = xor_dataset();
        let model = Mlp::new(MlpConfig::classifier(2, 2));
        let batched = predict_in_batches(&model, data.features(), 7);
        let single = model.predict(data.features());
        assert_eq!(batched, single);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let data = Dataset::new(Matrix::zeros(0, 2), vec![]);
        let mut model = Mlp::new(MlpConfig::classifier(2, 2));
        let mut opt = Adam::new(0.01);
        let _ = train(&mut model, &data, &mut opt, &TrainConfig::default());
    }
}
