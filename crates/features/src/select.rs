//! Header-field (byte-position) selection strategies — stage 1 of the
//! pipeline, plus the ablation baselines (experiment F8).

use crate::extract::ByteDataset;
use p4guard_nn::saliency;
use p4guard_nn::{Dataset, Mlp};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The outcome of stage 1: the byte positions the data plane will match on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldSelection {
    /// Selected byte offsets in the frame window, in descending importance.
    pub offsets: Vec<usize>,
    /// The per-position scores the selection was ranked by (full window
    /// width), when the strategy produces scores.
    pub scores: Option<Vec<f32>>,
    /// The strategy that produced this selection.
    pub strategy: SelectionStrategy,
}

impl FieldSelection {
    /// Number of selected positions.
    pub fn k(&self) -> usize {
        self.offsets.len()
    }
}

impl fmt::Display for FieldSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fields via {}: {:?}",
            self.k(),
            self.strategy,
            self.offsets
        )
    }
}

/// The implemented selection strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Gradient×input saliency from the trained stage-1 network (the
    /// paper's learned selection).
    Saliency,
    /// Pure-gradient saliency from the stage-1 network.
    GradientOnly,
    /// L1 norm of each input's first-layer weights.
    WeightMagnitude,
    /// Mutual information between byte value and label.
    MutualInformation,
    /// Chi-squared dependence between byte value and label.
    ChiSquared,
    /// Uniformly random positions (ablation lower bound).
    Random,
    /// The first `k` byte positions (a protocol-oblivious prefix).
    FirstK,
}

impl SelectionStrategy {
    /// All strategies, in ablation display order.
    pub const ALL: [SelectionStrategy; 7] = [
        SelectionStrategy::Saliency,
        SelectionStrategy::GradientOnly,
        SelectionStrategy::WeightMagnitude,
        SelectionStrategy::MutualInformation,
        SelectionStrategy::ChiSquared,
        SelectionStrategy::Random,
        SelectionStrategy::FirstK,
    ];

    /// Returns `true` when the strategy needs a trained stage-1 model.
    pub fn needs_model(&self) -> bool {
        matches!(
            self,
            SelectionStrategy::Saliency
                | SelectionStrategy::GradientOnly
                | SelectionStrategy::WeightMagnitude
        )
    }
}

impl fmt::Display for SelectionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SelectionStrategy::Saliency => "saliency",
            SelectionStrategy::GradientOnly => "gradient",
            SelectionStrategy::WeightMagnitude => "weight-magnitude",
            SelectionStrategy::MutualInformation => "mutual-information",
            SelectionStrategy::ChiSquared => "chi-squared",
            SelectionStrategy::Random => "random",
            SelectionStrategy::FirstK => "first-k",
        };
        write!(f, "{s}")
    }
}

/// Selects `k` byte positions from `bytes` using `strategy`.
///
/// Model-based strategies ([`SelectionStrategy::needs_model`]) require the
/// trained stage-1 network in `model`; `nn_view` must be the
/// [`ByteDataset::to_nn_dataset`] view of `bytes` (passed in so callers
/// reuse the conversion). `seed` only affects [`SelectionStrategy::Random`].
///
/// # Panics
///
/// Panics if a model-based strategy is requested without a model, or if
/// `k` exceeds the window width.
pub fn select_fields(
    strategy: SelectionStrategy,
    bytes: &ByteDataset,
    nn_view: Option<&Dataset>,
    model: Option<&Mlp>,
    k: usize,
    seed: u64,
) -> FieldSelection {
    assert!(k <= bytes.window(), "k exceeds the window width");
    let scores: Option<Vec<f32>> = match strategy {
        SelectionStrategy::Saliency => {
            let model = model.expect("saliency selection needs the stage-1 model");
            let view;
            let nn_view = match nn_view {
                Some(v) => v,
                None => {
                    view = bytes.to_nn_dataset();
                    &view
                }
            };
            Some(saliency::gradient_input_scores(model, nn_view, 1))
        }
        SelectionStrategy::GradientOnly => {
            let model = model.expect("gradient selection needs the stage-1 model");
            let view;
            let nn_view = match nn_view {
                Some(v) => v,
                None => {
                    view = bytes.to_nn_dataset();
                    &view
                }
            };
            Some(saliency::gradient_scores(model, nn_view, 1))
        }
        SelectionStrategy::WeightMagnitude => {
            let model = model.expect("weight-magnitude selection needs the stage-1 model");
            Some(saliency::weight_magnitude_scores(model))
        }
        SelectionStrategy::MutualInformation => Some(
            mutual_information_scores(bytes)
                .iter()
                .map(|&v| v as f32)
                .collect(),
        ),
        SelectionStrategy::ChiSquared => Some(
            chi_squared_scores(bytes)
                .iter()
                .map(|&v| v as f32)
                .collect(),
        ),
        SelectionStrategy::Random | SelectionStrategy::FirstK => None,
    };
    let offsets = match strategy {
        SelectionStrategy::Random => {
            let mut all: Vec<usize> = (0..bytes.window()).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            all.shuffle(&mut rng);
            all.truncate(k);
            all
        }
        SelectionStrategy::FirstK => (0..k).collect(),
        _ => saliency::top_k(scores.as_ref().expect("scored strategy"), k),
    };
    FieldSelection {
        offsets,
        scores,
        strategy,
    }
}

/// Mutual information `I(byte value at position; label)` in bits, per
/// position.
pub fn mutual_information_scores(bytes: &ByteDataset) -> Vec<f64> {
    let n = bytes.len();
    if n == 0 {
        return vec![0.0; bytes.window()];
    }
    let positives = bytes.labels().iter().filter(|&&l| l != 0).count();
    let p_attack = positives as f64 / n as f64;
    let h_label = entropy2(p_attack);
    (0..bytes.window())
        .map(|c| {
            // Joint counts: value × class.
            let mut counts = vec![[0usize; 2]; 256];
            for i in 0..n {
                let v = bytes.sample(i)[c] as usize;
                let class = usize::from(bytes.labels()[i] != 0);
                counts[v][class] += 1;
            }
            // H(label | byte) = Σ_v p(v) H(label | v).
            let mut h_cond = 0.0;
            for pair in &counts {
                let total = pair[0] + pair[1];
                if total == 0 {
                    continue;
                }
                let pv = total as f64 / n as f64;
                h_cond += pv * entropy2(pair[1] as f64 / total as f64);
            }
            (h_label - h_cond).max(0.0)
        })
        .collect()
}

/// Chi-squared statistic between byte value and label, per position, with
/// byte values bucketed into 16 bins to keep expected counts meaningful.
pub fn chi_squared_scores(bytes: &ByteDataset) -> Vec<f64> {
    let n = bytes.len();
    if n == 0 {
        return vec![0.0; bytes.window()];
    }
    let positives = bytes.labels().iter().filter(|&&l| l != 0).count() as f64;
    let negatives = n as f64 - positives;
    (0..bytes.window())
        .map(|c| {
            let mut counts = [[0usize; 2]; 16];
            for i in 0..n {
                let bin = (bytes.sample(i)[c] >> 4) as usize;
                let class = usize::from(bytes.labels()[i] != 0);
                counts[bin][class] += 1;
            }
            let mut chi2 = 0.0;
            for pair in &counts {
                let row_total = (pair[0] + pair[1]) as f64;
                if row_total == 0.0 {
                    continue;
                }
                for (class_total, &observed) in
                    [negatives, positives].iter().zip(&[pair[0], pair[1]])
                {
                    let expected = row_total * class_total / n as f64;
                    if expected > 0.0 {
                        let d = observed as f64 - expected;
                        chi2 += d * d / expected;
                    }
                }
            }
            chi2
        })
        .collect()
}

/// Binary entropy of probability `p`, in bits.
fn entropy2(p: f64) -> f64 {
    let mut h = 0.0;
    for q in [p, 1.0 - p] {
        if q > 0.0 {
            h -= q * q.log2();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4guard_nn::{train, Adam, MlpConfig, TrainConfig};

    /// Build a dataset where only position 3 separates the classes.
    fn separable_dataset() -> ByteDataset {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(99);
        let window = 8;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..400usize {
            let attack = i % 2 == 1;
            for c in 0..window {
                let v = if c == 3 {
                    if attack {
                        200
                    } else {
                        10
                    }
                } else {
                    // Noise uncorrelated with the label.
                    rng.gen::<u8>()
                };
                data.push(v);
            }
            labels.push(usize::from(attack));
        }
        ByteDataset::from_parts(window, data, labels)
    }

    #[test]
    fn mutual_information_ranks_the_separating_byte_first() {
        let bytes = separable_dataset();
        let scores = mutual_information_scores(&bytes);
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 3, "scores = {scores:?}");
        assert!(scores[3] > 0.9); // near-perfect 1-bit information
    }

    #[test]
    fn chi_squared_ranks_the_separating_byte_first() {
        let bytes = separable_dataset();
        let scores = chi_squared_scores(&bytes);
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 3);
    }

    #[test]
    fn saliency_selection_finds_the_separating_byte() {
        let bytes = separable_dataset();
        let nn_view = bytes.to_nn_dataset();
        let mut model = Mlp::new(MlpConfig {
            hidden: vec![16],
            ..MlpConfig::classifier(8, 2)
        });
        let mut opt = Adam::new(0.01);
        train(
            &mut model,
            &nn_view,
            &mut opt,
            &TrainConfig {
                epochs: 30,
                ..TrainConfig::default()
            },
        );
        let sel = select_fields(
            SelectionStrategy::Saliency,
            &bytes,
            Some(&nn_view),
            Some(&model),
            2,
            0,
        );
        assert_eq!(sel.offsets[0], 3, "selection = {sel}");
        assert_eq!(sel.k(), 2);
        assert!(sel.scores.is_some());
    }

    #[test]
    fn random_and_firstk_selections() {
        let bytes = separable_dataset();
        let r1 = select_fields(SelectionStrategy::Random, &bytes, None, None, 4, 7);
        let r2 = select_fields(SelectionStrategy::Random, &bytes, None, None, 4, 7);
        assert_eq!(r1.offsets, r2.offsets);
        let r3 = select_fields(SelectionStrategy::Random, &bytes, None, None, 4, 8);
        assert_ne!(r1.offsets, r3.offsets);
        let f = select_fields(SelectionStrategy::FirstK, &bytes, None, None, 3, 0);
        assert_eq!(f.offsets, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "needs the stage-1 model")]
    fn model_strategy_without_model_panics() {
        let bytes = separable_dataset();
        let _ = select_fields(SelectionStrategy::Saliency, &bytes, None, None, 2, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the window")]
    fn oversized_k_panics() {
        let bytes = separable_dataset();
        let _ = select_fields(SelectionStrategy::FirstK, &bytes, None, None, 9, 0);
    }

    #[test]
    fn strategy_metadata() {
        assert!(SelectionStrategy::Saliency.needs_model());
        assert!(!SelectionStrategy::MutualInformation.needs_model());
        assert_eq!(SelectionStrategy::ALL.len(), 7);
        assert_eq!(SelectionStrategy::ChiSquared.to_string(), "chi-squared");
    }

    #[test]
    fn empty_dataset_scores_are_zero() {
        let bytes = ByteDataset::from_parts(4, vec![], vec![]);
        assert_eq!(mutual_information_scores(&bytes), vec![0.0; 4]);
        assert_eq!(chi_squared_scores(&bytes), vec![0.0; 4]);
    }
}
