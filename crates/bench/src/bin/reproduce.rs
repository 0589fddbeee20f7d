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

fn parse_args() -> Result<(Session, Vec<&'static Experiment>), String> {
    let mut selected = Vec::new();
    let mut seed = 2020u64;
    let mut full = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
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
    selected.dedup_by_key(|(id, _)| *id);
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

fn main() -> ExitCode {
    let (session, selected) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: reproduce [{} | all] [--seed N] [--full] [--out DIR]",
                ids.join(" ")
            );
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
