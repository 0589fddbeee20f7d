//! Feature-importance attribution: the signal stage 1 uses to rank header
//! byte positions.

use crate::data::Dataset;
use crate::network::Mlp;

/// Mean `|gradient × input|` attribution per feature, computed for the
/// attack class over the whole dataset in batches.
///
/// The returned vector has one nonnegative score per feature; higher means
/// the feature moves the attack logit more.
///
/// # Panics
///
/// Panics if `class` is out of range for the model or the dataset feature
/// dimension does not match the model.
pub fn gradient_input_scores(model: &Mlp, dataset: &Dataset, class: usize) -> Vec<f32> {
    mean_attribution(model, dataset, class, |g, v| (g * v).abs())
}

/// Pure-gradient saliency (mean `|gradient|`), which also credits features
/// whose *current* value is zero but would flip the decision if set.
///
/// # Panics
///
/// Panics on a feature-dimension mismatch.
pub fn gradient_scores(model: &Mlp, dataset: &Dataset, class: usize) -> Vec<f32> {
    mean_attribution(model, dataset, class, |g, _| g.abs())
}

/// Mean over the samples of `score(gradient, value)` per feature, with the
/// gradient of `class`'s logit taken 512 samples at a time.
fn mean_attribution(
    model: &Mlp,
    dataset: &Dataset,
    class: usize,
    score: impl Fn(f32, f32) -> f32,
) -> Vec<f32> {
    assert_eq!(
        dataset.feature_dim(),
        model.config().input_dim,
        "dataset feature dimension does not match the model"
    );
    let dim = dataset.feature_dim();
    let mut scores = vec![0.0f32; dim];
    if dataset.is_empty() {
        return scores;
    }
    let batch = 512usize;
    let mut start = 0;
    while start < dataset.len() {
        let end = (start + batch).min(dataset.len());
        let indices: Vec<usize> = (start..end).collect();
        let x = dataset.features().select_rows(&indices);
        let grad = model.input_gradient(&x, class);
        for r in 0..x.rows() {
            for ((s, &g), &v) in scores.iter_mut().zip(grad.row(r)).zip(x.row(r)) {
                *s += score(g, v);
            }
        }
        start = end;
    }
    let n = dataset.len() as f32;
    for s in &mut scores {
        *s /= n;
    }
    scores
}

/// First-layer weight-magnitude importance: the L1 norm of each input
/// feature's outgoing weights. A cheap, data-free ablation baseline.
pub fn weight_magnitude_scores(model: &Mlp) -> Vec<f32> {
    let first = &model.layers()[0];
    let w = first.weights();
    (0..w.rows())
        .map(|r| w.row(r).iter().map(|v| v.abs()).sum())
        .collect()
}

/// Returns the indices of the `k` highest-scoring features, in descending
/// score order. Ties break toward the lower index for determinism.
pub fn top_k(scores: &[f32], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order.truncate(k);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::matrix::Matrix;
    use crate::network::MlpConfig;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_model_on_feature_two() -> (Mlp, Dataset) {
        // Only feature 2 is informative.
        let mut rng = StdRng::seed_from_u64(21);
        let n = 300;
        let x = Matrix::from_fn(n, 6, |_, _| rng.gen::<f32>());
        let y: Vec<usize> = (0..n).map(|r| usize::from(x.get(r, 2) > 0.5)).collect();
        let data = Dataset::new(x, y);
        let mut model = Mlp::new(MlpConfig {
            input_dim: 6,
            hidden: vec![16],
            num_classes: 2,
            activation: Activation::Tanh,
            dropout: 0.0,
            seed: 4,
        });
        let mut opt = Adam::new(0.02);
        for _ in 0..200 {
            model.train_batch(data.features(), data.labels(), &mut opt);
        }
        (model, data)
    }

    #[test]
    fn gradient_input_finds_informative_feature() {
        let (model, data) = trained_model_on_feature_two();
        let scores = gradient_input_scores(&model, &data, 1);
        let top = top_k(&scores, 1);
        assert_eq!(top, vec![2], "scores = {scores:?}");
    }

    #[test]
    fn gradient_scores_find_informative_feature() {
        let (model, data) = trained_model_on_feature_two();
        let scores = gradient_scores(&model, &data, 1);
        assert_eq!(top_k(&scores, 1), vec![2]);
    }

    #[test]
    fn weight_magnitude_finds_informative_feature() {
        let (model, _) = trained_model_on_feature_two();
        let scores = weight_magnitude_scores(&model);
        assert_eq!(scores.len(), 6);
        assert_eq!(top_k(&scores, 1), vec![2]);
    }

    #[test]
    fn top_k_breaks_ties_deterministically() {
        let scores = [1.0, 3.0, 3.0, 0.5];
        assert_eq!(top_k(&scores, 3), vec![1, 2, 0]);
        assert_eq!(top_k(&scores, 0), Vec::<usize>::new());
        assert_eq!(top_k(&scores, 10).len(), 4);
    }

    #[test]
    fn empty_dataset_gives_zero_scores() {
        let model = Mlp::new(MlpConfig::classifier(4, 2));
        let data = Dataset::new(Matrix::zeros(0, 4), vec![]);
        assert_eq!(gradient_input_scores(&model, &data, 1), vec![0.0; 4]);
    }
}
