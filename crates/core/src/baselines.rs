//! The comparator methods the paper's evaluation ranks against:
//! a fixed-field (OpenFlow-style) 5-tuple firewall, a decision tree over
//! all window bytes, a full DNN in the controller, and logistic
//! regression.

use crate::config::GuardConfig;
use crate::pipeline::TrainedGuard;
use p4guard_dataplane::key::KeyLayout;
use p4guard_features::extract::ByteDataset;
use p4guard_nn::activation::Activation;
use p4guard_nn::data::Standardizer;
use p4guard_nn::network::{logistic_regression, Mlp, MlpConfig};
use p4guard_nn::optim::Adam;
use p4guard_nn::train::{train, TrainConfig};
use p4guard_nn::{binary_metrics, BinaryMetrics};
use p4guard_packet::trace::Trace;
use p4guard_rules::compile::{compile_tree, CompileConfig};
use p4guard_rules::tree::{DecisionTree, TreeConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// What a method costs in the data plane, and whether it can run there at
/// all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataPlaneCost {
    /// Whether the method can execute at line rate in a match-action
    /// pipeline.
    pub deployable: bool,
    /// Table entries required.
    pub entries: usize,
    /// Match-key width in bits.
    pub key_bits: usize,
    /// Memory bits required (TCAM bits for ternary methods, SRAM bits for
    /// exact-match methods; zero for undeployable methods).
    pub memory_bits: usize,
}

impl DataPlaneCost {
    /// The cost of a method that cannot run in the data plane.
    pub fn undeployable() -> Self {
        DataPlaneCost {
            deployable: false,
            entries: 0,
            key_bits: 0,
            memory_bits: 0,
        }
    }
}

/// A trained detection method that can be evaluated on traces.
pub trait Detector {
    /// Method name for reports.
    fn name(&self) -> &str;

    /// Per-record predictions (0 benign, 1 attack).
    fn predict_trace(&self, trace: &Trace) -> Vec<usize>;

    /// Data-plane cost of deploying the method.
    fn data_plane_cost(&self) -> DataPlaneCost;

    /// Training wall-clock time.
    fn train_time(&self) -> Duration;

    /// Evaluates predictions against ground truth.
    fn evaluate(&self, trace: &Trace) -> BinaryMetrics {
        let predicted = self.predict_trace(trace);
        let actual: Vec<usize> = trace.iter().map(|r| r.label.class()).collect();
        binary_metrics(&predicted, &actual)
    }
}

/// The two-stage guard as a [`Detector`] (rule-set decisions — what the
/// data plane enforces).
pub struct GuardDetector {
    guard: TrainedGuard,
    train_time: Duration,
    name: String,
}

impl GuardDetector {
    /// Trains the two-stage pipeline on `trace`.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::pipeline::PipelineError`].
    pub fn train(
        config: GuardConfig,
        trace: &Trace,
    ) -> Result<Self, crate::pipeline::PipelineError> {
        let t0 = Instant::now();
        let guard = crate::pipeline::TwoStagePipeline::new(config).train(trace)?;
        Ok(GuardDetector {
            name: format!("two-stage (k={})", guard.config.k),
            guard,
            train_time: t0.elapsed(),
        })
    }

    /// Borrows the trained guard.
    pub fn guard(&self) -> &TrainedGuard {
        &self.guard
    }
}

impl Detector for GuardDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict_trace(&self, trace: &Trace) -> Vec<usize> {
        trace
            .iter()
            .map(|r| self.guard.classify_frame(&r.frame))
            .collect()
    }

    fn data_plane_cost(&self) -> DataPlaneCost {
        let stats = &self.guard.compiled.stats;
        DataPlaneCost {
            deployable: true,
            entries: stats.entries,
            key_bits: stats.key_width * 8,
            memory_bits: stats.tcam_bits,
        }
    }

    fn train_time(&self) -> Duration {
        self.train_time
    }
}

/// OpenFlow-style fixed-field firewall: exact-match blacklist of the
/// 5-tuples observed in attack traffic. This is the state of the art the
/// paper's *universality* claim targets — it cannot express non-IP
/// protocols and memorizes spoofed tuples one by one.
pub struct FiveTupleFirewall {
    blacklist: HashSet<Vec<u8>>,
    layout: KeyLayout,
    train_time: Duration,
}

impl FiveTupleFirewall {
    /// Learns the blacklist from a labelled trace.
    pub fn train(trace: &Trace) -> Self {
        let t0 = Instant::now();
        let layout = KeyLayout::five_tuple();
        let mut blacklist = HashSet::new();
        for record in trace.iter() {
            if record.label.is_attack() {
                blacklist.insert(layout.build_key(&record.frame));
            }
        }
        FiveTupleFirewall {
            blacklist,
            layout,
            train_time: t0.elapsed(),
        }
    }

    /// Number of blacklist entries.
    pub fn entries(&self) -> usize {
        self.blacklist.len()
    }
}

impl Detector for FiveTupleFirewall {
    fn name(&self) -> &str {
        "5-tuple firewall"
    }

    fn predict_trace(&self, trace: &Trace) -> Vec<usize> {
        trace
            .iter()
            .map(|r| usize::from(self.blacklist.contains(&self.layout.build_key(&r.frame))))
            .collect()
    }

    fn data_plane_cost(&self) -> DataPlaneCost {
        DataPlaneCost {
            deployable: true,
            entries: self.blacklist.len(),
            key_bits: self.layout.bits(),
            memory_bits: self.blacklist.len() * self.layout.bits(),
        }
    }

    fn train_time(&self) -> Duration {
        self.train_time
    }
}

/// A decision tree over *all* window bytes, compiled without stage-1
/// selection — accuracy comparable to the two-stage method but with a key
/// as wide as the window (the efficiency strawman).
pub struct AllBytesTree {
    tree: DecisionTree,
    window: usize,
    cost: DataPlaneCost,
    train_time: Duration,
}

impl AllBytesTree {
    /// Fits the tree on `trace`.
    pub fn train(trace: &Trace, window: usize, tree_config: TreeConfig) -> Self {
        let t0 = Instant::now();
        let bytes = ByteDataset::from_trace(trace, window);
        let tree = DecisionTree::fit(window, bytes.data(), bytes.labels(), tree_config);
        // Compile with a generous budget; an over-budget expansion is
        // itself a result (the method does not fit).
        let compile = compile_tree(
            &tree,
            &CompileConfig {
                max_entries: 500_000,
                ..CompileConfig::default()
            },
        );
        let cost = match compile {
            Ok(c) => DataPlaneCost {
                deployable: true,
                entries: c.stats.entries,
                key_bits: window * 8,
                memory_bits: c.stats.tcam_bits,
            },
            Err(e) => DataPlaneCost {
                deployable: false,
                entries: e.reached,
                key_bits: window * 8,
                memory_bits: e.reached * window * 8 * 2,
            },
        };
        AllBytesTree {
            tree,
            window,
            cost,
            train_time: t0.elapsed(),
        }
    }
}

impl Detector for AllBytesTree {
    fn name(&self) -> &str {
        "all-bytes tree"
    }

    fn predict_trace(&self, trace: &Trace) -> Vec<usize> {
        let bytes = ByteDataset::from_trace(trace, self.window);
        (0..bytes.len())
            .map(|i| self.tree.predict(bytes.sample(i)))
            .collect()
    }

    fn data_plane_cost(&self) -> DataPlaneCost {
        self.cost
    }

    fn train_time(&self) -> Duration {
        self.train_time
    }
}

/// The full DNN over all window bytes, evaluated in the controller — the
/// accuracy upper reference that cannot run in the data plane.
pub struct FullDnn {
    model: Mlp,
    standardizer: Standardizer,
    window: usize,
    train_time: Duration,
}

impl FullDnn {
    /// Trains the network on `trace`.
    pub fn train(trace: &Trace, window: usize, epochs: usize, seed: u64) -> Self {
        let t0 = Instant::now();
        let bytes = ByteDataset::from_trace(trace, window);
        let raw = bytes.to_nn_dataset();
        let standardizer = Standardizer::fit(raw.features());
        let view = standardizer.transform_dataset(&raw);
        let mut model = Mlp::new(MlpConfig {
            input_dim: window,
            hidden: vec![64, 32],
            num_classes: 2,
            activation: Activation::Relu,
            dropout: 0.1,
            seed,
        });
        let mut opt = Adam::new(0.005);
        train(
            &mut model,
            &view,
            &mut opt,
            &TrainConfig {
                epochs,
                batch_size: 64,
                seed: seed ^ 7,
            },
        );
        FullDnn {
            model,
            standardizer,
            window,
            train_time: t0.elapsed(),
        }
    }

    /// Attack-class probability scores (for ROC comparisons).
    pub fn scores(&self, trace: &Trace) -> Vec<f32> {
        let bytes = ByteDataset::from_trace(trace, self.window);
        let view = self.standardizer.transform_dataset(&bytes.to_nn_dataset());
        let probs = p4guard_nn::activation::softmax_rows(&self.model.logits(view.features()));
        (0..probs.rows()).map(|r| probs.get(r, 1)).collect()
    }
}

impl Detector for FullDnn {
    fn name(&self) -> &str {
        "full DNN (controller)"
    }

    fn predict_trace(&self, trace: &Trace) -> Vec<usize> {
        let bytes = ByteDataset::from_trace(trace, self.window);
        let view = self.standardizer.transform_dataset(&bytes.to_nn_dataset());
        self.model.predict(view.features())
    }

    fn data_plane_cost(&self) -> DataPlaneCost {
        DataPlaneCost::undeployable()
    }

    fn train_time(&self) -> Duration {
        self.train_time
    }
}

/// Logistic regression over all window bytes (classical-ML baseline).
pub struct LogisticBaseline {
    model: Mlp,
    standardizer: Standardizer,
    window: usize,
    train_time: Duration,
}

impl LogisticBaseline {
    /// Trains the model on `trace`.
    pub fn train(trace: &Trace, window: usize, epochs: usize, seed: u64) -> Self {
        let t0 = Instant::now();
        let bytes = ByteDataset::from_trace(trace, window);
        let raw = bytes.to_nn_dataset();
        let standardizer = Standardizer::fit(raw.features());
        let view = standardizer.transform_dataset(&raw);
        let mut model = logistic_regression(window, 2, seed);
        let mut opt = Adam::new(0.01);
        train(
            &mut model,
            &view,
            &mut opt,
            &TrainConfig {
                epochs,
                batch_size: 64,
                seed: seed ^ 9,
            },
        );
        LogisticBaseline {
            model,
            standardizer,
            window,
            train_time: t0.elapsed(),
        }
    }

    /// Attack-class probability scores (for ROC comparisons).
    pub fn scores(&self, trace: &Trace) -> Vec<f32> {
        let bytes = ByteDataset::from_trace(trace, self.window);
        let view = self.standardizer.transform_dataset(&bytes.to_nn_dataset());
        let probs = p4guard_nn::activation::softmax_rows(&self.model.logits(view.features()));
        (0..probs.rows()).map(|r| probs.get(r, 1)).collect()
    }
}

impl Detector for LogisticBaseline {
    fn name(&self) -> &str {
        "logistic regression"
    }

    fn predict_trace(&self, trace: &Trace) -> Vec<usize> {
        let bytes = ByteDataset::from_trace(trace, self.window);
        let view = self.standardizer.transform_dataset(&bytes.to_nn_dataset());
        self.model.predict(view.features())
    }

    fn data_plane_cost(&self) -> DataPlaneCost {
        DataPlaneCost::undeployable()
    }

    fn train_time(&self) -> Duration {
        self.train_time
    }
}

/// Unsupervised anomaly detection: an autoencoder trained on *benign*
/// traffic only; frames whose reconstruction error exceeds a benign
/// percentile threshold are flagged. The classical deep-learning
/// alternative to the paper's supervised pipeline — needs no attack
/// labels, but cannot be compiled into match-action rules.
pub struct AutoencoderBaseline {
    model: Mlp,
    standardizer: Standardizer,
    window: usize,
    threshold: f32,
    train_time: Duration,
}

impl AutoencoderBaseline {
    /// Trains on the benign records of `trace`; the decision threshold is
    /// the `percentile` (e.g. 0.99) of benign training reconstruction
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds no benign records.
    pub fn train(trace: &Trace, window: usize, epochs: usize, percentile: f64, seed: u64) -> Self {
        let t0 = Instant::now();
        let benign: Trace = trace
            .iter()
            .filter(|r| !r.label.is_attack())
            .cloned()
            .collect();
        assert!(!benign.is_empty(), "autoencoder needs benign traffic");
        let bytes = ByteDataset::from_trace(&benign, window);
        let raw = bytes.to_nn_dataset();
        let standardizer = Standardizer::fit(raw.features());
        let view = standardizer.transform_dataset(&raw);
        let mut model = Mlp::new(MlpConfig {
            input_dim: window,
            hidden: vec![32, 8, 32],
            num_classes: window,
            activation: Activation::Tanh,
            dropout: 0.0,
            seed,
        });
        let mut opt = Adam::new(0.002);
        let n = view.len();
        let batch = 64usize;
        for _epoch in 0..epochs {
            let mut start = 0;
            while start < n {
                let end = (start + batch).min(n);
                let idx: Vec<usize> = (start..end).collect();
                let x = view.features().select_rows(&idx);
                model.train_batch_reconstruct(&x, &mut opt);
                start = end;
            }
        }
        let mut errors = model.reconstruction_errors(view.features());
        errors.sort_by(f32::total_cmp);
        let at = ((errors.len() as f64 - 1.0) * percentile.clamp(0.0, 1.0)).round() as usize;
        let threshold = errors[at];
        AutoencoderBaseline {
            model,
            standardizer,
            window,
            threshold,
            train_time: t0.elapsed(),
        }
    }

    /// The decision threshold on reconstruction error.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Raw anomaly scores (reconstruction errors) for ROC analysis.
    pub fn scores(&self, trace: &Trace) -> Vec<f32> {
        let bytes = ByteDataset::from_trace(trace, self.window);
        let view = self.standardizer.transform_dataset(&bytes.to_nn_dataset());
        self.model.reconstruction_errors(view.features())
    }
}

impl Detector for AutoencoderBaseline {
    fn name(&self) -> &str {
        "autoencoder (unsupervised)"
    }

    fn predict_trace(&self, trace: &Trace) -> Vec<usize> {
        self.scores(trace)
            .into_iter()
            .map(|e| usize::from(e > self.threshold))
            .collect()
    }

    fn data_plane_cost(&self) -> DataPlaneCost {
        DataPlaneCost::undeployable()
    }

    fn train_time(&self) -> Duration {
        self.train_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4guard_traffic::scenario::Scenario;
    use p4guard_traffic::split_temporal;

    fn traces() -> (Trace, Trace) {
        let trace = Scenario::smart_home_default(31).generate().unwrap();
        split_temporal(&trace, 0.6)
    }

    #[test]
    fn five_tuple_memorizes_training_attacks() {
        let (train_t, _) = traces();
        let fw = FiveTupleFirewall::train(&train_t);
        assert!(fw.entries() > 10);
        // On its own training data recall is (near-)perfect…
        let m = fw.evaluate(&train_t);
        assert!(m.recall > 0.95, "train recall {m:?}");
        assert!(fw.data_plane_cost().deployable);
        assert_eq!(fw.data_plane_cost().key_bits, 104);
    }

    #[test]
    fn five_tuple_fails_on_future_flows() {
        let (train_t, test_t) = traces();
        let fw = FiveTupleFirewall::train(&train_t);
        let m = fw.evaluate(&test_t);
        // Spoofed sources and fresh ephemeral ports defeat exact matching:
        // recall collapses relative to training.
        assert!(m.recall < 0.7, "test recall {:?}", m);
    }

    #[test]
    fn all_bytes_tree_is_accurate_but_wide() {
        let (train_t, test_t) = traces();
        let tree = AllBytesTree::train(&train_t, 64, TreeConfig::default());
        let m = tree.evaluate(&test_t);
        assert!(m.f1 > 0.8, "tree F1 {:?}", m);
        let cost = tree.data_plane_cost();
        assert_eq!(cost.key_bits, 512);
    }

    #[test]
    fn full_dnn_and_logistic_baselines_learn() {
        let (train_t, test_t) = traces();
        let dnn = FullDnn::train(&train_t, 64, 8, 3);
        let m = dnn.evaluate(&test_t);
        assert!(m.f1 > 0.85, "dnn F1 {:?}", m);
        assert!(!dnn.data_plane_cost().deployable);
        assert_eq!(dnn.scores(&test_t).len(), test_t.len());

        let lr = LogisticBaseline::train(&train_t, 64, 8, 3);
        let lm = lr.evaluate(&test_t);
        assert!(lm.accuracy > 0.6, "lr accuracy {:?}", lm);
    }

    #[test]
    fn autoencoder_flags_anomalies_without_labels() {
        let (train_t, test_t) = traces();
        let ae = AutoencoderBaseline::train(&train_t, 64, 6, 0.98, 5);
        let m = ae.evaluate(&test_t);
        // Unsupervised detection is far weaker than supervised; it only
        // needs to flag a meaningful share of attacks at a bounded FPR.
        assert!(m.recall > 0.15, "autoencoder recall {:?}", m);
        assert!(m.false_positive_rate < 0.25, "autoencoder FPR {:?}", m);
        assert!(!ae.data_plane_cost().deployable);
        assert!(ae.threshold() > 0.0);
    }

    #[test]
    fn guard_detector_wraps_the_pipeline() {
        let (train_t, test_t) = traces();
        let guard = GuardDetector::train(GuardConfig::fast(), &train_t).unwrap();
        let m = guard.evaluate(&test_t);
        assert!(m.f1 > 0.8, "guard F1 {:?}", m);
        let cost = guard.data_plane_cost();
        assert!(cost.deployable);
        assert_eq!(cost.key_bits, guard.guard().config.k * 8);
        assert!(guard.train_time() > Duration::ZERO);
        assert!(guard.name().contains("two-stage"));
    }
}
