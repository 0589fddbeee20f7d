//! Regenerates every table and figure of the evaluation and prints them,
//! optionally saving JSON artifacts.
//!
//! Usage:
//!
//! ```text
//! reproduce [EXPERIMENT ...] [--seed N] [--full] [--out DIR]
//!
//! EXPERIMENT one of the ids in `EXPERIMENTS` below (a bad argument
//!            prints them), or `all`  (default: all)
//! --seed N   scenario seed (default 2020, the publication year)
//! --full     use the full (paper-scale) pipeline config instead of the
//!            fast profile
//! --out DIR  also write one JSON file per experiment into DIR
//! ```

use p4guard::config::GuardConfig;
use p4guard::experiments::{
    adaptation, convergence, dataplane_exp, dataset, detection, efficiency, extensions, fleet_exp,
    forest_exp, minimize_exp, observe_exp, universality, ExperimentContext,
};
use p4guard_packet::trace::AttackFamily;
use serde::Serialize;
use std::cell::OnceCell;
use std::collections::HashSet;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;

/// What an experiment needs from the command line, plus the standard
/// context most of them share (built on first use).
struct Session {
    seed: u64,
    full: bool,
    config: GuardConfig,
    out: Option<PathBuf>,
    ctx: OnceCell<ExperimentContext>,
}

impl Session {
    fn ctx(&self) -> &ExperimentContext {
        self.ctx
            .get_or_init(|| ExperimentContext::standard(self.seed))
    }

    /// Prints `report` and, with `--out`, writes it to `<id>.json`.
    fn emit<T: Display + Serialize>(&self, id: &str, report: &T) {
        println!("{report}");
        let Some(dir) = &self.out else { return };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{id}.json"));
        match serde_json::to_string_pretty(report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot serialize {id}: {e}"),
        }
    }
}

/// Runs one experiment and emits its report under the given id.
type Run = fn(&Session, &str);

/// One row of [`EXPERIMENTS`].
type Experiment = (&'static str, Run);

/// Every experiment, in the order `all` runs them: the one list the
/// argument parser, the usage line and the dispatch read.
const EXPERIMENTS: &[Experiment] = &[
    ("t1", |s, id| s.emit(id, &dataset::run(s.seed))),
    ("t2", |s, id| {
        s.emit(id, &detection::run_t2(s.ctx(), &s.config))
    }),
    ("t3", |s, id| {
        s.emit(id, &detection::run_t3(s.ctx(), &s.config))
    }),
    ("f1", |s, id| {
        let ks = [1, 2, 4, 6, 8, 12, 16, 24, 32];
        s.emit(id, &efficiency::run_f1(s.ctx(), &s.config, &ks))
    }),
    ("f2", |s, id| {
        let depths = [1, 2, 3, 4, 6, 8, 10, 12];
        s.emit(id, &efficiency::run_f2(s.ctx(), &s.config, &depths))
    }),
    ("f3", |s, id| {
        s.emit(id, &efficiency::run_f3(s.ctx(), &s.config))
    }),
    ("f4", |s, id| {
        s.emit(id, &dataplane_exp::run_f4(s.ctx(), &s.config))
    }),
    ("f5", |s, id| {
        s.emit(id, &convergence::run_f5(s.ctx(), &s.config))
    }),
    ("f6", |s, id| {
        s.emit(
            id,
            &universality::run_f6(s.seed, &s.config, &AttackFamily::ALL),
        )
    }),
    ("f7", |s, id| {
        s.emit(id, &detection::run_f7(s.ctx(), &s.config))
    }),
    ("f8", |s, id| {
        s.emit(id, &efficiency::run_f8(s.ctx(), &s.config))
    }),
    ("f9", |s, id| {
        s.emit(id, &detection::run_f9(s.ctx(), &s.config))
    }),
    ("f10", |s, id| {
        s.emit(
            id,
            &dataplane_exp::run_f10(s.seed, &[0, 64, 256, 1024, 4096]),
        )
    }),
    ("f11", |s, id| {
        s.emit(id, &extensions::run_f11(s.ctx(), &s.config))
    }),
    ("f12", |s, id| {
        let rates = [0.0, 0.05, 0.1, 0.2, 0.35, 0.5];
        s.emit(id, &extensions::run_f12(s.ctx(), &s.config, &rates))
    }),
    ("f13", |s, id| {
        let ctx = s.ctx();
        let guard = p4guard::multiclass::FamilyGuard::train(s.config.clone(), &ctx.train)
            .expect("family guard trains");
        s.emit(id, &guard.evaluate(&ctx.test));
        println!("total rules across family tables: {}", guard.total_rules());
    }),
    ("f14", |s, id| {
        let retrain_every = [None, Some(60.0), Some(30.0)];
        s.emit(id, &extensions::run_f14(s.seed, &s.config, &retrain_every))
    }),
    ("f15_observe", |s, id| {
        s.emit(id, &observe_exp::run_f15_observe(s.seed, 4))
    }),
    ("f16_forest", |s, id| {
        // Accuracy-vs-table-entries frontier of compiled forests against
        // the single-tree baseline; the full profile adds the 9-tree
        // column and two more depths.
        let (sizes, depths): (&[usize], &[usize]) = if s.full {
            (&[1, 3, 5, 9], &[4, 5, 6, 8])
        } else {
            (&[1, 3, 5], &[6, 8])
        };
        s.emit(
            id,
            &forest_exp::run_f16_forest(s.ctx(), &s.config, sizes, depths),
        )
    }),
    ("f17_lookup", |s, id| {
        s.emit(
            id,
            &dataplane_exp::run_f17_lookup(s.seed, &[16, 64, 256, 1024, 4096]),
        )
    }),
    ("f18_adapt", |s, id| {
        s.emit(id, &adaptation::run_f18_adapt(s.seed, 4, None))
    }),
    ("f19_fleet", |s, id| {
        // ≥10⁵ devices across 4 tenants; the full profile runs the
        // million-device fleet.
        let devices = if s.full { 1_000_000 } else { 100_000 };
        s.emit(id, &fleet_exp::run_f19_fleet(s.seed, devices, 4, 4, None))
    }),
    ("f20_minimize", |s, id| {
        // 1-entry diffs against a 1024-entry stage; the full profile
        // quadruples the trial count for tighter tails.
        let trials = if s.full { 128 } else { 32 };
        s.emit(
            id,
            &minimize_exp::run_f20_minimize(s.ctx(), &s.config, &[2, 4, 6, 8], 1024, trials),
        )
    }),
];

/// Parses the command line (without the program name). Experiments run
/// in first-mention order, each at most once, however often it is named.
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(Session, Vec<&'static Experiment>), String> {
    let mut selected: Vec<&'static Experiment> = Vec::new();
    let mut seed = 2020u64;
    let mut full = false;
    let mut out = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--full" => full = true,
            "--out" => {
                let v = args.next().ok_or("--out needs a directory")?;
                out = Some(PathBuf::from(v));
            }
            "all" => selected.extend(EXPERIMENTS),
            id => selected.push(
                EXPERIMENTS
                    .iter()
                    .find(|(known, _)| *known == id)
                    .ok_or_else(|| format!("unknown argument {id:?}"))?,
            ),
        }
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS);
    }
    let mut seen = HashSet::new();
    selected.retain(|(id, _)| seen.insert(*id));
    let session = Session {
        seed,
        full,
        config: if full {
            GuardConfig::default()
        } else {
            GuardConfig::fast()
        },
        out,
        ctx: OnceCell::new(),
    };
    Ok((session, selected))
}

/// Every experiment id, in table order.
fn all_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(id, _)| *id).collect()
}

/// The usage line, listing every experiment id.
fn usage() -> String {
    format!(
        "usage: reproduce [{} | all] [--seed N] [--full] [--out DIR]",
        all_ids().join(" ")
    )
}

fn main() -> ExitCode {
    let (session, selected) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "p4guard reproduce — seed {}, {} profile\n",
        session.seed,
        if session.full { "full" } else { "fast" }
    );
    for (id, run) in selected {
        let started = std::time::Instant::now();
        run(&session, id);
        println!("[{id} took {:?}]\n", started.elapsed());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let (_, selected) = parse_args(args.iter().map(|a| a.to_string()))?;
        Ok(selected.iter().map(|(id, _)| *id).collect())
    }

    #[test]
    fn a_repeated_id_runs_once_in_first_mention_order() {
        assert_eq!(ids(&["t1", "f3", "t1"]).unwrap(), ["t1", "f3"]);
        assert_eq!(ids(&["f3", "t1", "f3", "f3"]).unwrap(), ["f3", "t1"]);
        assert_eq!(ids(&["all", "f1"]).unwrap(), all_ids());
        let last_first = ids(&["f20_minimize", "all"]).unwrap();
        assert_eq!(last_first[0], "f20_minimize");
        assert_eq!(last_first.len(), all_ids().len());
        assert_eq!(ids(&[]).unwrap(), all_ids());
    }

    #[test]
    fn a_bad_id_is_an_error_and_the_usage_lists_every_id() {
        let err = ids(&["t1", "f99"]).unwrap_err();
        assert!(err.contains("f99"), "{err}");
        let usage = usage();
        for id in all_ids() {
            assert!(usage.contains(id), "{id} missing from {usage}");
        }
    }

    /// Every experiment has a committed artifact and every committed
    /// artifact an experiment: `reproduce all --out results` writes
    /// exactly the files under `results/`.
    #[test]
    fn experiment_ids_are_the_committed_result_files() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut stems: Vec<String> = std::fs::read_dir(results)
            .expect("results/ is committed")
            .map(|entry| entry.expect("readable entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        stems.sort();
        let mut expected = all_ids();
        expected.sort_unstable();
        assert_eq!(stems, expected);
    }
}
