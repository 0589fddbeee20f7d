//! The four pinned workloads and the set-up that builds each one: traffic
//! from `--seed`, rules from the pinned fixture seed, a control plane with
//! the rules installed, and the scan oracle's verdict for every frame.

use crate::yardstick;
use bytes::Bytes;
use p4guard::config::GuardConfig;
use p4guard::pipeline::{TrainedGuard, TwoStagePipeline};
use p4guard_dataplane::action::{Action, Verdict};
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::parser::ParserSpec;
use p4guard_dataplane::switch::Switch;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use p4guard_dataplane::vote::{EarlyExit, VoteStage};
use p4guard_features::extract::ByteDataset;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_packet::trace::Trace;
use p4guard_rules::forest::{CompiledForest, ForestConfig, RandomForest};
use p4guard_rules::{CompileConfig, TreeConfig};
use p4guard_telemetry::{Telemetry, TelemetryConfig};
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::split_temporal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Seed of everything that is part of a workload's *definition*: the
/// training trace the rules are learned from and the random ACL. `--seed`
/// draws only the served traffic. Learning from the `--seed` trace instead
/// makes the ruleset itself a random variable — 1.2k to 9.3k ternary
/// entries over six seeds, a 6x swing in `serve_pps` on the scan engine —
/// which no regression bound survives.
pub const FIXTURE_SEED: u64 = 2020;

/// Frames per ingest batch.
pub const BATCH: usize = 256;

/// Table capacity handed to `TrainedGuard::deploy`.
const CAPACITY: usize = 1 << 16;

/// Trees in the `gw_forest` ensemble.
const FOREST_TREES: usize = 5;

/// Where a workload's rules come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rules {
    /// 16 hand-written ternary entries on an 8-byte window key.
    Acl,
    /// The paper's pipeline: two-stage model distilled to one tree.
    Guard { full: bool },
    /// A bagged forest over the guard's selected bytes, one stage per tree.
    Forest,
}

/// One named, pinned workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub rules: Rules,
    /// Served frames are cut to this many bytes (smallest-packet case).
    pub truncate: Option<usize>,
    /// Serve with the registry telemetry sink attached.
    pub telemetry: bool,
    /// Republish a 1% ruleset delta and scrape the gateway while serving.
    pub churn: bool,
    /// Frames in one closed-loop trial: fixed work, the same on every
    /// commit, sized for about an eighth of a second on the 2-core reference box, so
    /// that a trial mostly sees one speed of the machine (see `yardstick`).
    pub frames_per_trial: u64,
    /// Open-loop offered rate: half the closed-loop median measured when
    /// the benchmark landed, rounded to two digits, then frozen.
    pub offered_pps: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "gw_small",
        why: "bare forwarding of 64 B frames through a 16-entry ACL: lookup is a third of the cost, so packing, the queue hop and parse/key/apply show undiluted",
        rules: Rules::Acl,
        truncate: Some(64),
        telemetry: false,
        churn: false,
        frames_per_trial: 1_500_000,
        offered_pps: 6_500_000.0,
    },
    Workload {
        name: "gw_tree",
        why: "the paper's deployment: ~2k learned ternary entries on the scan engine, lookup is over 90% of the work and the gateway hop vanishes",
        rules: Rules::Guard { full: false },
        truncate: None,
        telemetry: false,
        churn: false,
        frames_per_trial: 110_000,
        offered_pps: 440_000.0,
    },
    Workload {
        name: "gw_forest",
        why: "vote path: five medium per-tree tables with early exit and alive-set compaction, the same lookup layer used differently from one large table",
        rules: Rules::Forest,
        truncate: None,
        telemetry: false,
        churn: false,
        frames_per_trial: 40_000,
        offered_pps: 150_000.0,
    },
    Workload {
        name: "loop_churn",
        why: "the control loop: full-config train to live, then serving with telemetry while 1% deltas republish and the gateway is scraped, so reads run beside writes",
        rules: Rules::Guard { full: true },
        truncate: None,
        telemetry: true,
        churn: true,
        frames_per_trial: 85_000,
        offered_pps: 350_000.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How big a run is. `--smoke` shrinks every dimension about twentyfold.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Multiplier on every traffic intensity of `Scenario::mixed_default`.
    pub traffic_scale: f64,
    /// Divisor on frames per trial and fixed batch counts.
    pub shrink: u64,
    /// Times the set-up is repeated (median reported).
    pub setup_reps: usize,
}

impl Sizing {
    pub const FULL: Sizing = Sizing {
        traffic_scale: 8.0,
        shrink: 1,
        setup_reps: 3,
    };
    pub const SMOKE: Sizing = Sizing {
        traffic_scale: 1.0,
        shrink: 20,
        setup_reps: 1,
    };
}

/// Frames in one closed-loop trial at this sizing; a churning trial is
/// never too short to republish twice.
pub fn trial_frames(workload: &Workload, sizing: Sizing) -> u64 {
    let floor = if workload.churn { 128 } else { 1 } * BATCH as u64;
    (workload.frames_per_trial / sizing.shrink).max(floor)
}

/// Shard workers: one dispatcher plus `S` workers never exceed the cores.
pub fn shards() -> usize {
    nproc().min(4).saturating_sub(1).max(1)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn gateway_config() -> GatewayConfig {
    GatewayConfig::with_shards(shards())
}

/// The mixed scenario with every intensity scaled, split 60/40 in time.
pub fn generate(seed: u64, scale: f64) -> (Trace, Trace) {
    let mut scenario = Scenario::mixed_default(seed);
    scenario.benign_intensity *= scale;
    for attack in &mut scenario.attacks {
        attack.intensity *= scale;
    }
    let trace = scenario.generate().expect("mixed scenario generates");
    split_temporal(&trace, 0.6)
}

pub fn guard_config(full: bool) -> GuardConfig {
    if full {
        GuardConfig::default()
    } else {
        GuardConfig::fast()
    }
}

/// The `gw_small` ACL: the old `f4_gateway` shape (random byte masks on an
/// 8-byte window key, diverse enough to lower to the scan engine) at 16
/// entries. Values are the window bytes of attack frames drawn from the
/// pinned training trace — a blocklist of MAC patterns — so the served
/// traffic takes both the hit and the miss path and `detect_f1` is not 0.
fn acl_switch(train: &Trace) -> Switch {
    const KEY_WIDTH: usize = 8;
    let mut rng = StdRng::seed_from_u64(FIXTURE_SEED);
    let attacks: Vec<&[u8]> = train
        .iter()
        .filter(|r| r.label.is_attack() && r.frame.len() >= KEY_WIDTH)
        .map(|r| &r.frame[..KEY_WIDTH])
        .collect();
    let mut sw = Switch::new("ledger-acl", ParserSpec::raw_window(64, 14), 1);
    let mut acl = Table::new(
        "acl",
        MatchKind::Ternary,
        KeyLayout::window(KEY_WIDTH),
        1024,
        Action::NoOp,
    );
    for _ in 0..16 {
        let value = attacks[rng.gen_range(0..attacks.len())].to_vec();
        // Byte 5 (the destination MAC's last byte) is always compared, so
        // no entry degenerates into match-all.
        let mask: Vec<u8> = (0..KEY_WIDTH)
            .map(|i| {
                if i == 5 || rng.gen::<bool>() {
                    0xff
                } else {
                    0x00
                }
            })
            .collect();
        acl.insert(MatchSpec::Ternary { value, mask }, Action::Drop, 1)
            .expect("16 entries fit");
    }
    sw.add_stage(acl);
    sw
}

/// The regularised-bagging recipe of the F16 forest frontier (one tree is
/// the plain CART baseline).
pub fn forest_config(trees: usize) -> ForestConfig {
    let base = GuardConfig::fast();
    let bagged = trees > 1;
    ForestConfig {
        trees,
        tree: TreeConfig {
            min_samples_leaf: base.tree.min_samples_leaf.max(if bagged { 16 } else { 0 }),
            min_samples_split: base.tree.min_samples_split.max(if bagged { 64 } else { 0 }),
            ..base.tree
        },
        max_features: None,
        bootstrap: bagged,
        seed: base.seed ^ 0xf0_5e_57,
    }
}

/// The selected bytes of `train` as the flat matrix forests are fitted on.
pub fn forest_inputs(train: &Trace, window: usize, offsets: &[usize]) -> (Vec<u8>, Vec<usize>) {
    let bytes = ByteDataset::from_trace(train, window).project(offsets);
    let flat = (0..bytes.len())
        .flat_map(|i| bytes.sample(i).to_vec())
        .collect();
    (flat, bytes.labels().to_vec())
}

/// Lowers a compiled forest into a vote-mode switch: one ternary stage per
/// tree.
pub fn forest_switch(
    compiled: &CompiledForest,
    window: usize,
    offsets: &[usize],
    vote: VoteStage,
) -> Switch {
    let mut sw = Switch::new("ledger-forest", ParserSpec::raw_window(window, 14), 1);
    for (t, rs) in compiled.rulesets().iter().enumerate() {
        let mut table = Table::new(
            format!("tree{t}"),
            MatchKind::Ternary,
            KeyLayout::new(offsets.to_vec()),
            rs.len().max(1),
            Action::NoOp,
        );
        for e in rs.entries() {
            let spec = MatchSpec::Ternary {
                value: e.value.clone(),
                mask: e.mask.clone(),
            };
            table
                .insert(spec, Action::Drop, e.priority)
                .expect("table sized to the ruleset");
        }
        sw.add_stage(table);
    }
    sw.set_vote(Some(vote));
    sw
}

/// Everything a run serves and checks against.
pub struct Fixture {
    pub workload: &'static Workload,
    /// Distinct served frames (the test half of the `--seed` trace), cycled.
    pub frames: Vec<Bytes>,
    /// Ground truth per frame (1 = attack).
    pub labels: Vec<usize>,
    /// The switch with the workload's rules installed: the source of a
    /// fresh control plane per trial, and the scan oracle.
    pub switch: Switch,
    pub parser: ParserSpec,
    /// Pinned training half.
    pub train: Trace,
    /// What the learning step produced and what each call into it cost.
    pub learned: Learned,
    /// Frames in the whole `--seed` trace, and the time to generate it.
    pub generated_frames: usize,
    pub generate_s: f64,
    /// Pinned train trace in hand -> published version visible in the
    /// gateway's cell.
    pub to_live_s: f64,
    pub setup_s: f64,
}

impl Fixture {
    /// One full set-up. The train-to-live interval inside it ends when the
    /// gateway's publication cells show the published version.
    pub fn build(workload: &'static Workload, seed: u64, sizing: Sizing) -> Fixture {
        let t0 = Instant::now();
        let (unserved, served) = generate(seed, sizing.traffic_scale);
        let generate_s = t0.elapsed().as_secs_f64();
        let generated_frames = unserved.len() + served.len();
        let frames: Vec<Bytes> = served
            .iter()
            .map(|r| match workload.truncate {
                Some(n) => r.frame.slice(..r.frame.len().min(n)),
                None => r.frame.clone(),
            })
            .collect();
        let labels = served.iter().map(|r| r.label.class()).collect();
        let train = generate(FIXTURE_SEED, sizing.traffic_scale).0;

        let live0 = Instant::now();
        let (control, learned) = learn(workload.rules, &train);
        let telemetry = workload
            .telemetry
            .then(|| Arc::new(Telemetry::new(TelemetryConfig::default())));
        let gw = yardstick::on_shard_cpus(|| {
            Gateway::start_with_telemetry(&control, gateway_config(), telemetry)
        });
        let published = control.publish().version;
        assert!(
            gw.cells().iter().all(|c| c.version() == published),
            "published version is visible in every gateway cell"
        );
        let to_live_s = live0.elapsed().as_secs_f64();
        gw.finish();

        let switch = control.with_switch(Switch::clone);
        let window = match workload.rules {
            Rules::Acl => 64,
            _ => GuardConfig::default().window,
        };
        Fixture {
            workload,
            frames,
            labels,
            switch,
            parser: ParserSpec::raw_window(window, 14),
            train,
            learned,
            generated_frames,
            generate_s,
            to_live_s,
            setup_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// A control plane of its own for one trial, so republishes and
    /// subscriber lists never leak from one trial into the next.
    pub fn control(&self) -> ControlPlane {
        ControlPlane::new(self.switch.clone())
    }

    /// The scan oracle's verdict for every distinct frame
    /// (`Switch::process`, the mutable reference model).
    pub fn oracle(&self) -> Vec<Verdict> {
        let mut switch = self.switch.clone();
        self.frames.iter().map(|f| switch.process(f)).collect()
    }
}

/// The learning step's products and the wall time of each public call the
/// ledger made into it (seconds; zero where the workload has no such call).
#[derive(Default)]
pub struct Learned {
    pub guard: Option<TrainedGuard>,
    /// `TwoStagePipeline::train`.
    pub train_s: f64,
    /// `TrainedGuard::deploy`.
    pub deploy_s: f64,
    /// `RandomForest::fit` and `RandomForest::compile`.
    pub forest_fit_s: f64,
    pub forest_compile_s: f64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot = t0.elapsed().as_secs_f64();
    out
}

/// Runs the workload's learning step and returns the control plane with the
/// rules installed (nothing published yet).
fn learn(rules: Rules, train: &Trace) -> (ControlPlane, Learned) {
    let mut learned = Learned::default();
    if rules == Rules::Acl {
        return (ControlPlane::new(acl_switch(train)), learned);
    }
    let config = guard_config(rules == Rules::Guard { full: true });
    let guard = timed(&mut learned.train_s, || {
        TwoStagePipeline::new(config.clone())
            .train(train)
            .expect("pinned trace trains")
    });
    let control = if rules == Rules::Forest {
        let offsets = &guard.selection.offsets;
        let (flat, labels) = forest_inputs(train, config.window, offsets);
        let forest = timed(&mut learned.forest_fit_s, || {
            RandomForest::fit(offsets.len(), &flat, &labels, forest_config(FOREST_TREES))
        });
        let compiled = timed(&mut learned.forest_compile_s, || {
            forest
                .compile(&CompileConfig::default())
                .expect("fixture forests stay below the entry cap")
        });
        let vote = VoteStage::with_early_exit(EarlyExit::sound_majority(FOREST_TREES));
        ControlPlane::new(forest_switch(&compiled, config.window, offsets, vote))
    } else {
        timed(&mut learned.deploy_s, || {
            guard.deploy(CAPACITY).expect("ruleset fits")
        })
    };
    learned.guard = Some(guard);
    (control, learned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(workload(w.name).map(|x| x.name), Some(w.name));
            assert!(w.why.len() <= 200, "{} why fits the contract", w.name);
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn shards_leave_a_core_for_the_dispatcher() {
        assert!(shards() >= 1);
        assert!(shards() < nproc().max(2));
    }
}
