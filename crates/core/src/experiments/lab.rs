//! The lab every experiment of one session runs in: the standard traces,
//! the session's [`GuardConfig`], and a train-once cache of the guards and
//! baselines trained on them.

use crate::baselines::{
    AllBytesTree, AutoencoderBaseline, FiveTupleFirewall, FullDnn, GuardDetector, LogisticBaseline,
};
use crate::config::GuardConfig;
use p4guard_packet::trace::Trace;
use p4guard_rules::tree::TreeConfig;
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::split_temporal;
use std::sync::{Arc, Mutex, OnceLock};

/// One cached guard: filled by the first caller that asks for its config,
/// waited on by any other that asks meanwhile.
type Slot = Arc<OnceLock<Arc<GuardDetector>>>;

/// The shared setup most experiments start from: the mixed-protocol
/// scenario split temporally 60/40, the profile's pipeline config, and
/// every guard and baseline already trained on that split.
pub struct ExperimentContext {
    /// Scenario seed.
    pub seed: u64,
    /// Whether this is the paper-scale profile: [`GuardConfig::default`]
    /// and the wider sweeps, instead of [`GuardConfig::fast`].
    pub full: bool,
    /// The profile's pipeline config.
    pub config: GuardConfig,
    /// Training trace (the temporal prefix).
    pub train: Trace,
    /// Test trace (the temporal suffix).
    pub test: Trace,
    guards: Mutex<Vec<(GuardConfig, Slot)>>,
    full_dnn: OnceLock<FullDnn>,
    all_bytes_tree: OnceLock<AllBytesTree>,
    logistic: OnceLock<LogisticBaseline>,
    five_tuple: OnceLock<FiveTupleFirewall>,
    autoencoder: OnceLock<AutoencoderBaseline>,
}

impl ExperimentContext {
    /// Builds the standard context for `seed` in the fast or the `full`
    /// profile.
    ///
    /// # Panics
    ///
    /// Panics if the built-in scenario fails to generate (cannot happen for
    /// the shipped fleets).
    pub fn standard(seed: u64, full: bool) -> Self {
        let trace = Scenario::mixed_default(seed)
            .generate()
            .expect("mixed scenario generates");
        let (train, test) = split_temporal(&trace, 0.6);
        ExperimentContext {
            seed,
            full,
            config: if full {
                GuardConfig::default()
            } else {
                GuardConfig::fast()
            },
            train,
            test,
            guards: Mutex::default(),
            full_dnn: OnceLock::new(),
            all_bytes_tree: OnceLock::new(),
            logistic: OnceLock::new(),
            five_tuple: OnceLock::new(),
            autoencoder: OnceLock::new(),
        }
    }

    /// The guard `config` trains on [`Self::train`]: trained by the first
    /// request for that config, shared by every later one.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails on the standard scenario.
    pub fn guard(&self, config: &GuardConfig) -> Arc<GuardDetector> {
        self.guards(std::slice::from_ref(config)).remove(0)
    }

    /// The guards of a sweep's `configs`, in input order; the ones no
    /// experiment has asked for yet train in parallel.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails on the standard scenario.
    pub fn guards(&self, configs: &[GuardConfig]) -> Vec<Arc<GuardDetector>> {
        let slots: Vec<(&GuardConfig, Slot)> = {
            let mut cache = self.guards.lock().expect("no lookup panics");
            let mut slot_of = |config: &GuardConfig| {
                if let Some((_, slot)) = cache.iter().find(|(known, _)| known == config) {
                    return Arc::clone(slot);
                }
                cache.push((config.clone(), Slot::default()));
                Arc::clone(&cache[cache.len() - 1].1)
            };
            configs.iter().map(|c| (c, slot_of(c))).collect()
        };
        sweep(&slots, |(config, slot)| {
            let train = || GuardDetector::train((*config).clone(), &self.train);
            Arc::clone(slot.get_or_init(|| Arc::new(train().expect("pipeline trains"))))
        })
    }

    /// One report row per point of a sweep's `axis`: the guard of the
    /// config `config_at` gives the point, trained or recalled through
    /// [`Self::guards`], handed to `row`.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails on the standard scenario.
    pub fn sweep_rows<A, R>(
        &self,
        axis: &[A],
        config_at: impl Fn(&A) -> GuardConfig,
        row: impl Fn(&A, &GuardDetector) -> R,
    ) -> Vec<R> {
        let configs: Vec<GuardConfig> = axis.iter().map(config_at).collect();
        let guards = self.guards(&configs);
        axis.iter().zip(&guards).map(|(a, g)| row(a, g)).collect()
    }

    /// The session's config with the distilled tree limited to `max_depth`.
    pub fn config_at_depth(&self, max_depth: usize) -> GuardConfig {
        GuardConfig {
            tree: TreeConfig {
                max_depth,
                ..self.config.tree
            },
            ..self.config.clone()
        }
    }

    /// The full-window DNN baseline on [`Self::train`], trained once.
    pub fn full_dnn(&self) -> &FullDnn {
        let c = &self.config;
        self.full_dnn
            .get_or_init(|| FullDnn::train(&self.train, c.window, c.stage1.epochs, self.seed))
    }

    /// The all-bytes decision tree baseline on [`Self::train`], trained
    /// once.
    pub fn all_bytes_tree(&self) -> &AllBytesTree {
        let c = &self.config;
        self.all_bytes_tree
            .get_or_init(|| AllBytesTree::train(&self.train, c.window, c.tree))
    }

    /// The logistic-regression baseline on [`Self::train`], trained once.
    pub fn logistic(&self) -> &LogisticBaseline {
        let c = &self.config;
        self.logistic.get_or_init(|| {
            LogisticBaseline::train(&self.train, c.window, c.stage1.epochs, self.seed)
        })
    }

    /// The 5-tuple firewall baseline on [`Self::train`], built once.
    pub fn five_tuple(&self) -> &FiveTupleFirewall {
        self.five_tuple
            .get_or_init(|| FiveTupleFirewall::train(&self.train))
    }

    /// The unsupervised autoencoder baseline on [`Self::train`], trained
    /// once.
    pub fn autoencoder(&self) -> &AutoencoderBaseline {
        let c = &self.config;
        self.autoencoder.get_or_init(|| {
            let epochs = c.stage1.epochs.min(8);
            AutoencoderBaseline::train(&self.train, c.window, epochs, 0.98, self.seed)
        })
    }
}

/// Runs `job` on every item, one scoped thread each, and returns the
/// results in input order — the one place experiments fan out, whatever
/// trace a sweep trains on.
///
/// # Panics
///
/// Propagates a panic of any `job`.
pub(crate) fn sweep<T: Sync, R: Send>(items: &[T], job: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let job = &job;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .iter()
            .map(|item| scope.spawn(move |_| job(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread completes"))
            .collect()
    })
    .expect("sweep scope completes")
}
