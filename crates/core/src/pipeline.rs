//! The two-stage pipeline: train on a labelled trace, select header bytes,
//! synthesize match-action rules, deploy to a switch.

use crate::config::GuardConfig;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::{ControlPlane, PublishReport};
use p4guard_dataplane::table::TableError;
use p4guard_dataplane::{AclLayout, KeyLayout};
use p4guard_features::extract::ByteDataset;
use p4guard_features::naming;
use p4guard_features::select::{select_fields, FieldSelection};
use p4guard_gateway::{replay_batched, Gateway, GatewayConfig, GatewaySnapshot, ReplayReport};
use p4guard_nn::activation::softmax_rows;
use p4guard_nn::data::{Dataset, Standardizer};
use p4guard_nn::network::{Mlp, MlpConfig};
use p4guard_nn::optim::Adam;
use p4guard_nn::train::{train, History, TrainConfig};
use p4guard_nn::{binary_metrics, BinaryMetrics};
use p4guard_packet::arena::{FrameArena, FrameBatch};
use p4guard_packet::trace::{Record, Trace};
use p4guard_rules::compile::{compile_tree, CompiledRules, TooManyEntries};
use p4guard_rules::ruleset::RuleSetDiff;
use p4guard_rules::tree::DecisionTree;
use p4guard_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames per ingest [`FrameBatch`] in [`TrainedGuard::serve_live`] — the
/// one size the serving path packs to, and the size the ledger benchmark
/// measures.
pub const INGEST_BATCH: usize = 256;

/// Errors produced by [`TwoStagePipeline::train`].
#[derive(Debug)]
pub enum PipelineError {
    /// The training trace holds no records.
    EmptyTrace,
    /// The training trace holds only one class, so no detector can be
    /// learned.
    SingleClass,
    /// Rule expansion exceeded the configured entry budget.
    Compile(TooManyEntries),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::EmptyTrace => write!(f, "training trace is empty"),
            PipelineError::SingleClass => {
                write!(
                    f,
                    "training trace holds a single class; need benign and attack"
                )
            }
            PipelineError::Compile(e) => write!(f, "rule compilation failed: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TooManyEntries> for PipelineError {
    fn from(e: TooManyEntries) -> Self {
        PipelineError::Compile(e)
    }
}

/// Wall-clock cost of each pipeline phase (experiment T3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timings {
    /// Stage-1 network training.
    pub stage1_train: Duration,
    /// Field-selection (saliency + ranking).
    pub selection: Duration,
    /// Stage-2 network training.
    pub stage2_train: Duration,
    /// Decision-tree fitting (distillation).
    pub tree_fit: Duration,
    /// Rule compilation (range expansion + optimization).
    pub compile: Duration,
}

impl Timings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.stage1_train + self.selection + self.stage2_train + self.tree_fit + self.compile
    }
}

/// The two-stage training procedure.
#[derive(Debug, Clone, Default)]
pub struct TwoStagePipeline {
    /// Pipeline configuration.
    pub config: GuardConfig,
}

impl TwoStagePipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: GuardConfig) -> Self {
        TwoStagePipeline { config }
    }

    /// Trains on a labelled trace, producing a deployable guard.
    ///
    /// # Errors
    ///
    /// Returns an error for empty or single-class traces, or when rule
    /// expansion exceeds the entry budget.
    pub fn train(&self, trace: &Trace) -> Result<TrainedGuard, PipelineError> {
        let cfg = &self.config;
        if trace.is_empty() {
            return Err(PipelineError::EmptyTrace);
        }
        let attacks = trace.attack_count();
        if attacks == 0 || attacks == trace.len() {
            return Err(PipelineError::SingleClass);
        }
        let bytes = ByteDataset::from_trace(trace, cfg.window);
        let raw_view = bytes.to_nn_dataset();
        // Standardize per byte position so saliency ranks features by
        // information, not raw amplitude.
        let standardizer1 = Standardizer::fit(raw_view.features());
        let full_view = standardizer1.transform_dataset(&raw_view);
        let mut nn_view = full_view.clone();
        if cfg.balance {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xba1a);
            nn_view = nn_view.balance_binary(&mut rng);
        }

        // Stage 1: train the full-window network.
        let t0 = Instant::now();
        let mut stage1 = Mlp::new(MlpConfig {
            input_dim: cfg.window,
            hidden: cfg.stage1.hidden.clone(),
            num_classes: 2,
            activation: cfg.stage1.activation,
            dropout: cfg.stage1.dropout,
            seed: cfg.seed,
        });
        let mut opt1 = Adam::new(cfg.stage1.learning_rate);
        let stage1_history = train(
            &mut stage1,
            &nn_view,
            &mut opt1,
            &TrainConfig {
                epochs: cfg.stage1.epochs,
                batch_size: cfg.stage1.batch_size,
                seed: cfg.seed ^ 1,
            },
        );
        let stage1_train = t0.elapsed();

        // Stage 1b: rank byte positions and select the top k.
        let t0 = Instant::now();
        let selection = select_fields(
            cfg.strategy,
            &bytes,
            Some(&full_view),
            Some(&stage1),
            cfg.k,
            cfg.seed ^ 2,
        );
        let selection_time = t0.elapsed();

        // Stage 2: train the compact network on the selected bytes.
        let t0 = Instant::now();
        let selected_bytes = bytes.project(&selection.offsets);
        let selected_raw = selected_bytes.to_nn_dataset();
        let standardizer2 = Standardizer::fit(selected_raw.features());
        let mut selected_view = standardizer2.transform_dataset(&selected_raw);
        if cfg.balance {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xba1b);
            selected_view = selected_view.balance_binary(&mut rng);
        }
        let mut stage2 = Mlp::new(MlpConfig {
            input_dim: cfg.k,
            hidden: cfg.stage2.hidden.clone(),
            num_classes: 2,
            activation: cfg.stage2.activation,
            dropout: cfg.stage2.dropout,
            seed: cfg.seed ^ 3,
        });
        let mut opt2 = Adam::new(cfg.stage2.learning_rate);
        let stage2_history = train(
            &mut stage2,
            &selected_view,
            &mut opt2,
            &TrainConfig {
                epochs: cfg.stage2.epochs,
                batch_size: cfg.stage2.batch_size,
                seed: cfg.seed ^ 4,
            },
        );
        let stage2_train = t0.elapsed();

        // Distill into a decision tree over the selected byte values.
        let t0 = Instant::now();
        let tree_labels: Vec<usize> = if cfg.distill {
            let view = standardizer2.transform_dataset(&selected_raw);
            stage2.predict(view.features())
        } else {
            selected_bytes.labels().to_vec()
        };
        let tree = DecisionTree::fit(cfg.k, selected_bytes.data(), &tree_labels, cfg.tree);
        let tree_fit = t0.elapsed();

        // Compile to ternary rules.
        let t0 = Instant::now();
        let compiled = compile_tree(&tree, &cfg.compile)?;
        let compile = t0.elapsed();

        Ok(TrainedGuard {
            config: cfg.clone(),
            selection,
            stage1,
            stage2,
            standardizer1,
            standardizer2,
            stage1_history,
            stage2_history,
            tree,
            compiled,
            timings: Timings {
                stage1_train,
                selection: selection_time,
                stage2_train,
                tree_fit,
                compile,
            },
        })
    }
}

/// A trained, deployable guard: models, selection, tree and compiled rules.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedGuard {
    /// The configuration it was trained with.
    pub config: GuardConfig,
    /// The selected byte positions.
    pub selection: FieldSelection,
    /// Stage-1 network (full window).
    pub stage1: Mlp,
    /// Stage-2 network (selected bytes).
    pub stage2: Mlp,
    /// Per-byte standardization fitted on the full training window
    /// (stage-1 input space).
    pub standardizer1: Standardizer,
    /// Per-byte standardization fitted on the selected training bytes
    /// (stage-2 input space).
    pub standardizer2: Standardizer,
    /// Stage-1 training history.
    pub stage1_history: History,
    /// Stage-2 training history.
    pub stage2_history: History,
    /// The distilled decision tree.
    pub tree: DecisionTree,
    /// The compiled rule set.
    pub compiled: CompiledRules,
    /// Per-phase training cost.
    pub timings: Timings,
}

impl TrainedGuard {
    /// Classifies one frame with the compiled rules (1 = attack/drop).
    pub fn classify_frame(&self, frame: &[u8]) -> usize {
        let key = self.key_layout().build_key(frame);
        self.compiled.ternary.classify(&key)
    }

    /// The match key of the selected bytes — the layout the deployed ACL
    /// stages are keyed on, so offline classification and the data plane
    /// read a frame (short ones included) through one definition.
    pub(crate) fn key_layout(&self) -> KeyLayout {
        KeyLayout::new(self.selection.offsets.clone())
    }

    /// Evaluates the compiled rules against a labelled trace — the number
    /// the data plane actually achieves.
    pub fn evaluate_rules(&self, trace: &Trace) -> BinaryMetrics {
        let predicted: Vec<usize> = trace
            .iter()
            .map(|r| self.classify_frame(&r.frame))
            .collect();
        let actual: Vec<usize> = trace.iter().map(|r| r.label.class()).collect();
        binary_metrics(&predicted, &actual)
    }

    /// Evaluates the stage-2 network (pre-distillation accuracy).
    pub fn evaluate_stage2(&self, trace: &Trace) -> BinaryMetrics {
        let view = self.stage2_view(trace);
        let predicted = self.stage2.predict(view.features());
        binary_metrics(&predicted, view.labels())
    }

    /// Attack-probability scores from the stage-2 network (for ROC).
    pub fn scores(&self, trace: &Trace) -> Vec<f32> {
        let view = self.stage2_view(trace);
        let probs = softmax_rows(&self.stage2.logits(view.features()));
        (0..probs.rows()).map(|r| probs.get(r, 1)).collect()
    }

    /// `trace` as the stage-2 network sees it: the selected bytes of each
    /// frame's window, standardized.
    fn stage2_view(&self, trace: &Trace) -> Dataset {
        let bytes = ByteDataset::from_trace(trace, self.config.window);
        let selected = bytes.project(&self.selection.offsets);
        self.standardizer2
            .transform_dataset(&selected.to_nn_dataset())
    }

    /// Human names of the selected fields, inferred over `trace`.
    pub fn describe_fields(&self, trace: &Trace) -> Vec<String> {
        naming::describe_selection(&self.selection, trace, 2000)
    }

    /// Serializes the guard (models, selection, rules) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("guard serializes")
    }

    /// Restores a guard from [`TrainedGuard::to_json`] output.
    ///
    /// A model file is outside input: deserialization bypasses the
    /// constructors, so the invariants the rest of the pipeline relies on
    /// (rule widths, rule order, `k` selected offsets inside the window, two
    /// networks and standardizers shaped for their stages — see
    /// [`Mlp::validate`]) are checked here rather than panicking later in
    /// `classify`, `optimize` or a network's first product.
    ///
    /// # Errors
    ///
    /// Returns an error when the JSON does not describe a guard, or
    /// describes one whose rules and selection do not fit together.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let guard: TrainedGuard = serde_json::from_str(json)?;
        let rules = &guard.compiled.ternary;
        let offsets = &guard.selection.offsets;
        let invalid =
            |msg: String| Err(serde::DeError::custom(format!("invalid model: {msg}")).into());
        if let Err(msg) = rules.validate() {
            return invalid(format!("compiled rules: {msg}"));
        }
        if offsets.is_empty() {
            return invalid("no selected offsets: a guard matches at least one byte".into());
        }
        if offsets.len() != rules.key_width() {
            return invalid(format!(
                "{} selected offsets for a {}-byte rule key",
                offsets.len(),
                rules.key_width()
            ));
        }
        let (window, k) = (guard.config.window, guard.config.k);
        if let Some(&offset) = offsets.iter().find(|&&o| o >= window) {
            return invalid(format!(
                "selected offset {offset} outside the {window}-byte window"
            ));
        }
        if offsets.len() != k {
            return invalid(format!("{} selected offsets for k = {k}", offsets.len()));
        }
        // The networks and standardizers are read from the file too: a
        // shape that does not fit would panic at first use, or — in a
        // kernel reading rows as slice windows — compute garbage.
        for (stage, model, inputs) in [
            ("stage-1", &guard.stage1, window),
            ("stage-2", &guard.stage2, k),
        ] {
            if let Err(msg) = model.validate() {
                return invalid(format!("{stage} network: {msg}"));
            }
            if model.config().input_dim != inputs {
                return invalid(format!(
                    "{stage} network reads {} inputs, its stage has {inputs}",
                    model.config().input_dim
                ));
            }
        }
        for (stage, standardizer, inputs) in [
            ("stage-1", &guard.standardizer1, window),
            ("stage-2", &guard.standardizer2, k),
        ] {
            if let Err(msg) = standardizer.check_width(inputs) {
                return invalid(format!("{stage} standardizer: {msg}"));
            }
        }
        Ok(guard)
    }

    /// Builds a gateway switch with the guard's rules installed in a
    /// ternary ACL stage, returning the control plane.
    ///
    /// # Errors
    ///
    /// Returns a table error when `capacity` cannot hold the rule set.
    pub fn deploy(&self, capacity: usize) -> Result<ControlPlane, TableError> {
        let control = ControlPlane::new(
            self.acl_layout(capacity)
                .switch("p4guard-gateway", ["guard_acl"]),
        );
        control.replace_ruleset(0, &self.compiled.ternary, Action::Drop)?;
        Ok(control)
    }

    /// The switch layout this guard deploys on: its parse window and
    /// selected byte offsets, `capacity` entries per stage.
    pub fn acl_layout(&self, capacity: usize) -> AclLayout {
        AclLayout {
            window: self.config.window,
            offsets: self.selection.offsets.clone(),
            capacity,
        }
    }

    /// Serves `trace` through a sharded gateway live: replays the first
    /// half with the compiled rules, republishes mid-run (no forwarding
    /// stall — workers pick the new version up at the next batch boundary),
    /// then replays the second half. The republished ruleset is the
    /// compiled one run through [`RuleSet::optimize`](p4guard_rules::RuleSet::optimize)
    /// again; under the default [`CompileConfig`](p4guard_rules::compile::CompileConfig)
    /// compilation already optimized it, so the swap is a zero-churn
    /// publish that shares every compiled stage — the cheapest case of
    /// [`ControlPlane::replace_ruleset`], and the report's `diff` says so.
    ///
    /// The trace is packed into arena-backed [`FrameBatch`]es of
    /// [`INGEST_BATCH`] frames (one allocation per chunk instead of per
    /// frame). Ingest is lossless (blocking), so `dropped_backpressure` in
    /// the returned snapshot is always zero; pacing to `target_pps` applies
    /// to each half independently.
    ///
    /// With a telemetry bundle, shard workers feed its metrics registry
    /// and flight recorder, the mid-run publish leaves a swap audit event
    /// carrying the ruleset diff, `p4guard_arena_*` gauges report the
    /// packing arena's occupancy and `p4guard_batch_fill` the realized
    /// frames-per-batch per shard; a
    /// [`MetricsServer`](p4guard_telemetry::MetricsServer) bound to the
    /// same bundle exposes it all live.
    ///
    /// # Errors
    ///
    /// Returns a table error when deployment or the mid-run swap
    /// fails.
    pub fn serve_live(
        &self,
        trace: &Trace,
        config: GatewayConfig,
        target_pps: Option<f64>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<LiveReport, TableError> {
        let capacity = (self.compiled.ternary.len() * 2).max(64);
        let control = self.deploy(capacity)?;
        let gateway = Gateway::start_with_telemetry(&control, config, telemetry.clone());

        let mut arena = FrameArena::new(p4guard_packet::arena::DEFAULT_CHUNK_CAPACITY);
        let mut pack = |half: &[Record]| -> Vec<FrameBatch> {
            arena.pack(half.iter().map(|r| &r.frame[..]), INGEST_BATCH)
        };
        let (first, second) = trace.records().split_at(trace.len() / 2);
        let (first, second) = (pack(first), pack(second));
        if let Some(t) = &telemetry {
            let stats = arena.stats();
            for (name, help, value) in [
                (
                    "p4guard_arena_frames",
                    "Frames packed into the ingest arena",
                    stats.frames,
                ),
                (
                    "p4guard_arena_bytes",
                    "Frame bytes packed into the ingest arena",
                    stats.bytes,
                ),
                (
                    "p4guard_arena_batches",
                    "Batches sealed by the ingest arena",
                    stats.batches,
                ),
                (
                    "p4guard_arena_open_bytes",
                    "Bytes waiting in the arena's open chunk",
                    stats.open_bytes,
                ),
            ] {
                t.registry.gauge(name, help, &[]).set(value as f64);
            }
        }

        let first_half = replay_batched(&gateway, first, target_pps);

        // Compile the replacement off to the side, then swap: the shards
        // keep forwarding against the old snapshot until publish lands.
        let mut optimized = self.compiled.ternary.clone();
        optimized.optimize();
        let diff = control.replace_ruleset(0, &optimized, Action::Drop)?;
        let swap = control.publish_audited(Some(&diff), false);

        let second_half = replay_batched(&gateway, second, target_pps);
        let snapshot = gateway.finish();
        Ok(LiveReport {
            snapshot,
            first_half,
            second_half,
            swap,
            diff,
        })
    }
}

/// Outcome of [`TrainedGuard::serve_live`]: the final gateway snapshot,
/// the two replay legs around the hot swap, and what the swap changed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LiveReport {
    /// Aggregated gateway state after both halves drained.
    pub snapshot: GatewaySnapshot,
    /// Replay of the first half (original ruleset).
    pub first_half: ReplayReport,
    /// Replay of the second half (republished ruleset).
    pub second_half: ReplayReport,
    /// The mid-run publication.
    pub swap: PublishReport,
    /// Entries the mid-run swap removed from and added to the stage.
    pub diff: RuleSetDiff,
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4guard_traffic::scenario::Scenario;
    use p4guard_traffic::split_temporal;

    fn trained() -> (TrainedGuard, Trace, Trace) {
        let trace = Scenario::smart_home_default(21).generate().unwrap();
        let (train_trace, test_trace) = split_temporal(&trace, 0.6);
        let guard = TwoStagePipeline::new(GuardConfig::fast())
            .train(&train_trace)
            .unwrap();
        (guard, train_trace, test_trace)
    }

    #[test]
    fn end_to_end_detection_beats_chance_by_far() {
        let (guard, _, test) = trained();
        let m = guard.evaluate_rules(&test);
        assert!(m.f1 > 0.8, "rule F1 = {:?}", m);
        assert!(m.accuracy > 0.75, "rule accuracy = {:?}", m);
        let nn = guard.evaluate_stage2(&test);
        assert!(nn.f1 > 0.8, "stage-2 F1 = {:?}", nn);
    }

    #[test]
    fn selection_has_k_fields_and_timings_are_populated() {
        let (guard, train, _) = trained();
        assert_eq!(guard.selection.k(), guard.config.k);
        assert!(guard.timings.stage1_train > Duration::ZERO);
        assert!(guard.timings.total() >= guard.timings.compile);
        let names = guard.describe_fields(&train);
        assert_eq!(names.len(), guard.config.k);
    }

    #[test]
    fn deployed_switch_enforces_the_rules() {
        let (guard, _, test) = trained();
        let control = guard.deploy(100_000).unwrap();
        // Whole frames, and the same frames cut short inside the selected
        // offsets (still past the Ethernet header the parser asks for):
        // the offline key and the stage key zero-pad alike.
        let deepest = *guard.selection.offsets.iter().max().unwrap();
        let mut agree = 0usize;
        control.with_switch_mut(|sw| {
            for r in test.iter() {
                for frame in [&r.frame[..], &r.frame[..r.frame.len().min(deepest.max(14))]] {
                    let verdict_drop = sw.process(frame).is_drop();
                    let rule_drop = guard.classify_frame(frame) == 1;
                    agree += usize::from(verdict_drop == rule_drop);
                }
            }
        });
        assert_eq!(
            agree,
            2 * test.len(),
            "switch and ruleset must agree exactly"
        );
    }

    #[test]
    fn model_json_with_an_empty_selection_is_rejected() {
        // Widths agree (0 == 0) and no offset is outside the window, so
        // only the emptiness check stands between this file and the
        // `KeyLayout::new` panic in `deploy`.
        let (mut guard, _, _) = trained();
        guard.selection.offsets.clear();
        guard.compiled.ternary = p4guard_rules::RuleSet::new(0, 0);
        let err = TrainedGuard::from_json(&guard.to_json()).unwrap_err();
        assert!(err
            .to_string()
            .contains("invalid model: no selected offsets"));
    }

    #[test]
    fn model_json_still_carrying_range_paths_loads() {
        // Model files written before `CompiledRules::range_paths` was
        // deleted carry the attack paths a second time, and those written
        // before `CompileConfig::compile_class` became a constant carry it;
        // the loader ignores both keys and restores the same guard.
        let (guard, _, test) = trained();
        let json = guard.to_json();
        let paths = serde_json::to_string(&guard.tree.paths()).expect("paths serialize");
        let old = json
            .replacen(
                "\"compiled\":{",
                &format!("\"compiled\":{{\"range_paths\":{paths},"),
                1,
            )
            .replacen("\"compile\":{", "\"compile\":{\"compile_class\":1,", 1);
        assert!(
            old.len() > json.len() + paths.len() + "\"compile_class\":1,".len(),
            "both old keys were spliced in"
        );
        let loaded = TrainedGuard::from_json(&old).expect("an old model file loads");
        assert_eq!(loaded.compiled, guard.compiled);
        assert_eq!(loaded.evaluate_rules(&test), guard.evaluate_rules(&test));
    }

    /// `TrainedGuard::from_json` of `json`, as the error it must be.
    fn rejection(json: &str) -> String {
        TrainedGuard::from_json(json)
            .expect_err("a misshapen guard must not load")
            .to_string()
    }

    #[test]
    fn model_json_whose_stage2_weights_do_not_fill_their_shape_is_rejected() {
        // The reproduced file: stage 2's first weight matrix declares 8x16
        // and holds one value. It used to load, then panic in
        // `evaluate_stage2`.
        let (guard, _, _) = trained();
        let json = guard.to_json();
        let stage2 = json.find("\"stage2\":{\"layers\"").expect("stage-2 model");
        let data = stage2 + json[stage2..].find("\"data\":[").expect("weights") + 8;
        let end = data + json[data..].find(']').expect("array end");
        let hostile = format!("{}0.5{}", &json[..data], &json[end..]);
        let err = rejection(&hostile);
        assert!(
            err.contains("invalid model: stage-2 network: layer 0: 1 weights for a 8x16 matrix"),
            "{err}"
        );
    }

    #[test]
    fn model_json_with_fewer_offsets_than_k_is_rejected() {
        // Rules and offsets agree with each other (7 == 7), not with the
        // stage-2 network and standardizer (k = 8): `evaluate_stage2`
        // panicked on the width mismatch.
        let (mut guard, _, _) = trained();
        guard.selection.offsets.pop();
        guard.compiled.ternary = p4guard_rules::RuleSet::new(guard.config.k - 1, 0);
        assert!(rejection(&guard.to_json()).contains("invalid model: 7 selected offsets for k = 8"));
    }

    #[test]
    fn model_json_with_a_stage1_network_off_the_window_is_rejected() {
        let (mut guard, _, _) = trained();
        guard.stage1 = Mlp::new(MlpConfig {
            input_dim: guard.config.window + 1,
            ..guard.stage1.config().clone()
        });
        assert!(rejection(&guard.to_json())
            .contains("invalid model: stage-1 network reads 65 inputs, its stage has 64"));
    }

    #[test]
    fn model_json_with_a_stage2_network_off_the_selection_is_rejected() {
        let (mut guard, _, _) = trained();
        guard.stage2 = Mlp::new(MlpConfig {
            input_dim: guard.config.k - 1,
            ..guard.stage2.config().clone()
        });
        assert!(rejection(&guard.to_json())
            .contains("invalid model: stage-2 network reads 7 inputs, its stage has 8"));
    }

    #[test]
    fn model_json_with_a_misfit_standardizer_is_rejected() {
        let (guard, _, _) = trained();
        let misfit = |width| Standardizer::fit(&p4guard_nn::Matrix::zeros(1, width));
        let mut one = guard.clone();
        one.standardizer1 = misfit(guard.config.window - 1);
        assert!(rejection(&one.to_json()).contains(
            "invalid model: stage-1 standardizer: 63 means and 63 deviations for 64 features"
        ));
        let mut two = guard;
        two.standardizer2 = misfit(two.config.k + 1);
        assert!(rejection(&two.to_json()).contains(
            "invalid model: stage-2 standardizer: 9 means and 9 deviations for 8 features"
        ));
    }

    #[test]
    fn live_serving_replays_the_whole_trace_with_a_mid_run_swap() {
        let (guard, _, test) = trained();
        let live = guard
            .serve_live(&test, GatewayConfig::with_shards(4), None, None)
            .unwrap();
        assert_eq!(live.snapshot.totals.received, test.len() as u64);
        assert_eq!(
            live.first_half.offered + live.second_half.offered,
            test.len() as u64
        );
        // Blocking ingest: the hot swap must not cost a single packet.
        assert_eq!(live.snapshot.dropped_backpressure, 0);
        assert_eq!(live.swap.version, live.snapshot.version);
        assert!(live.swap.subscribers >= 1);
        // The optimized ruleset classifies identically, so the gateway's
        // drop count matches the offline rule evaluation.
        let rule_drops = test
            .iter()
            .filter(|r| guard.classify_frame(&r.frame) == 1)
            .count() as u64;
        assert_eq!(live.snapshot.totals.dropped, rule_drops);
        assert_eq!(
            live.snapshot.totals.forwarded,
            test.len() as u64 - rule_drops
        );
    }

    #[test]
    fn errors_on_degenerate_traces() {
        let p = TwoStagePipeline::new(GuardConfig::fast());
        assert!(matches!(
            p.train(&Trace::new()),
            Err(PipelineError::EmptyTrace)
        ));
        let benign = Scenario::benign_only(p4guard_traffic::Fleet::smart_home(), 20.0, 1)
            .generate()
            .unwrap();
        assert!(matches!(p.train(&benign), Err(PipelineError::SingleClass)));
    }

    #[test]
    fn training_is_deterministic() {
        let trace = Scenario::smart_home_default(5).generate().unwrap();
        let (train_trace, _) = split_temporal(&trace, 0.6);
        let a = TwoStagePipeline::new(GuardConfig::fast())
            .train(&train_trace)
            .unwrap();
        let b = TwoStagePipeline::new(GuardConfig::fast())
            .train(&train_trace)
            .unwrap();
        assert_eq!(a.selection.offsets, b.selection.offsets);
        assert_eq!(a.compiled.ternary, b.compiled.ternary);
    }
}
