//! Experiment drivers: one function per table/figure of the reconstructed
//! evaluation (see DESIGN.md's experiment index), and the harness they
//! share. Each driver returns a serializable result struct whose `Display`
//! prints the table/series the paper reports; [`EXPERIMENTS`] lists them
//! all, [`ExperimentContext`] is the lab that trains each guard and
//! baseline once per session, [`crate::report::TextTable::of`] renders
//! every table, and `live` is the one serve-and-conserve phase of the
//! experiments that drive a gateway.

pub mod adaptation;
#[cfg(test)]
mod claims;
pub mod convergence;
pub mod dataplane_exp;
pub mod dataset;
pub mod detection;
pub mod efficiency;
pub mod extensions;
pub mod fleet_exp;
pub mod forest_exp;
mod lab;
mod live;
pub mod minimize_exp;
pub mod observe_exp;
pub mod universality;

pub use lab::ExperimentContext;

use crate::multiclass::FamilyGuard;
use p4guard_packet::trace::AttackFamily;
use serde::Serialize;
use std::fmt::Display;

/// What one experiment hands back: the console rendering of its report and
/// the JSON artifact `reproduce --out` writes.
#[derive(Debug)]
pub struct Emitted {
    /// The report as `reproduce` prints it.
    pub text: String,
    /// The report as pretty-printed JSON.
    pub json: Result<String, serde_json::Error>,
}

impl Emitted {
    fn of<T: Display + Serialize>(report: &T) -> Emitted {
        Emitted {
            text: report.to_string(),
            json: serde_json::to_string_pretty(report),
        }
    }
}

/// Runs one experiment in the session's lab.
pub type Run = fn(&ExperimentContext) -> Emitted;

/// Every experiment with its sweep axes, in the order `reproduce all` runs
/// them: the one list the `reproduce` argument parser and usage line, the
/// `results/` currency test and ci.sh read. The wider axes are the
/// paper-scale profile's ([`ExperimentContext::full`]).
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("t1", |lab| Emitted::of(&dataset::run(lab.seed))),
    ("t2", |lab| Emitted::of(&detection::run_t2(lab))),
    ("t3", |lab| Emitted::of(&detection::run_t3(lab))),
    ("f1", |lab| {
        let ks = [1, 2, 4, 6, 8, 12, 16, 24, 32];
        Emitted::of(&efficiency::run_f1(lab, &ks))
    }),
    ("f2", |lab| {
        let depths = [1, 2, 3, 4, 6, 8, 10, 12];
        Emitted::of(&efficiency::run_f2(lab, &depths))
    }),
    ("f3", |lab| Emitted::of(&efficiency::run_f3(lab))),
    ("f4", |lab| Emitted::of(&dataplane_exp::run_f4(lab))),
    ("f5", |lab| Emitted::of(&convergence::run_f5(lab))),
    ("f6", |lab| {
        Emitted::of(&universality::run_f6(lab, &AttackFamily::ALL))
    }),
    ("f7", |lab| Emitted::of(&detection::run_f7(lab))),
    ("f8", |lab| Emitted::of(&efficiency::run_f8(lab))),
    ("f9", |lab| Emitted::of(&detection::run_f9(lab))),
    ("f10", |lab| {
        let occupancies = [0, 64, 256, 1024, 4096];
        Emitted::of(&dataplane_exp::run_f10(lab.seed, &occupancies))
    }),
    ("f11", |lab| Emitted::of(&extensions::run_f11(lab))),
    ("f12", |lab| {
        let rates = [0.0, 0.05, 0.1, 0.2, 0.35, 0.5];
        Emitted::of(&extensions::run_f12(lab, &rates))
    }),
    ("f13", |lab| {
        let guard =
            FamilyGuard::train(lab.config.clone(), &lab.train).expect("family guard trains");
        let mut emitted = Emitted::of(&guard.evaluate(&lab.test));
        let total = guard.total_rules();
        emitted.text += &format!("\ntotal rules across family tables: {total}");
        emitted
    }),
    ("f14", |lab| {
        let retrain_every = [None, Some(60.0), Some(30.0)];
        Emitted::of(&extensions::run_f14(lab, &retrain_every))
    }),
    ("f15_observe", |lab| {
        Emitted::of(&observe_exp::run_f15_observe(lab.seed, 4))
    }),
    ("f16_forest", |lab| {
        // Accuracy-vs-table-entries frontier of compiled forests against
        // the single-tree baseline; the full profile adds the 9-tree
        // column and two more depths.
        let (sizes, depths): (&[usize], &[usize]) = if lab.full {
            (&[1, 3, 5, 9], &[4, 5, 6, 8])
        } else {
            (&[1, 3, 5], &[6, 8])
        };
        Emitted::of(&forest_exp::run_f16_forest(lab, sizes, depths))
    }),
    ("f17_lookup", |lab| {
        let entry_counts = [16, 64, 256, 1024, 4096];
        Emitted::of(&dataplane_exp::run_f17_lookup(lab.seed, &entry_counts))
    }),
    ("f18_adapt", |lab| {
        Emitted::of(&adaptation::run_f18_adapt(lab.seed, 4, None))
    }),
    ("f19_fleet", |lab| {
        // ≥10⁵ devices across 4 tenants; the full profile runs the
        // million-device fleet.
        let devices = if lab.full { 1_000_000 } else { 100_000 };
        Emitted::of(&fleet_exp::run_f19_fleet(lab.seed, devices, 4, 4, None))
    }),
    ("f20_minimize", |lab| {
        // 1-entry diffs against a 1024-entry stage; the full profile
        // quadruples the trial count for tighter tails.
        let trials = if lab.full { 128 } else { 32 };
        Emitted::of(&minimize_exp::run_f20_minimize(
            lab,
            &[2, 4, 6, 8],
            1024,
            trials,
        ))
    }),
];

#[cfg(test)]
mod tests {
    use super::claims::CLAIMS;
    use super::*;
    use serde_json::Value;

    /// `(id, key, why)`: the keys of `results/<id>.json` that two runs of
    /// the same code at the same seed do not agree on, and the clock or
    /// scheduler each comes from. Everything else in `results/` is a
    /// function of the code and the seed, and [`results_are_current`]
    /// holds it to that.
    const VOLATILE: &[(&str, &str, &str)] = &[
        ("t2", "rows.[].train_time", "wall clock of each training"),
        ("t3", "phases.[].1", "wall clock of each pipeline phase"),
        ("t3", "rules_per_sec", "entries over that wall clock"),
        ("f4", "guard_point.pps", "timed replay"),
        ("f4", "key_width_sweep.[].pps", "timed replay"),
        ("f4", "table_size_sweep.[].pps", "timed replay"),
        ("f4", "gateway.batched_pps", "timed live serve"),
        ("f10", "points.[].insert", "timed table inserts"),
        ("f10", "points.[].remove", "timed table removes"),
        ("f15_observe", "replay.exemplar_trace", "the slowest frame"),
        ("f15_observe", "replay.slow_stage", "its slowest stage"),
        ("f15_observe", "replay.stage_sum_ratio", "its timed laps"),
        ("f17_lookup", "points.[].scan_pps", "timed lookups"),
        ("f17_lookup", "points.[].compiled_pps", "timed lookups"),
        ("f17_lookup", "points.[].speedup", "ratio of the two rates"),
        ("f19_fleet", "elapsed_s", "wall clock of the replay"),
        ("f19_fleet", "pps", "frames over that wall clock"),
        ("f20_minimize", "incremental.p50_us", "timed publishes"),
        ("f20_minimize", "incremental.p99_us", "timed publishes"),
        ("f20_minimize", "scratch.p50_us", "timed publishes"),
        ("f20_minimize", "scratch.p99_us", "timed publishes"),
        ("f20_minimize", "live_publish.p50_us", "timed publishes"),
        ("f20_minimize", "live_publish.p99_us", "timed publishes"),
        ("f20_minimize", "speedup", "ratio of two timed medians"),
    ];

    /// Blanks what `path` names in `value`, appending it to `taken`:
    /// `.`-separated map keys and tuple indices, `[]` for every element of
    /// a sequence. A path that names nothing (a file written under an
    /// older schema) blanks nothing, and the comparison then reports the
    /// file.
    fn blank(value: &mut Value, path: &[&str], taken: &mut Vec<Value>) {
        let Some((head, rest)) = path.split_first() else {
            return taken.push(std::mem::replace(value, Value::Null));
        };
        let named: Vec<&mut Value> = match value {
            Value::Seq(items) if *head == "[]" => items.iter_mut().collect(),
            Value::Seq(items) => head
                .parse()
                .ok()
                .and_then(|i: usize| items.get_mut(i))
                .into_iter()
                .collect(),
            Value::Map(entries) => entries
                .iter_mut()
                .filter(|(key, _)| key == head)
                .map(|(_, v)| v)
                .collect(),
            _ => Vec::new(),
        };
        named.into_iter().for_each(|v| blank(v, rest, taken));
    }

    /// `value` with `id`'s [`VOLATILE`] keys blanked, and what they held,
    /// each key before its values: the figures a load-sensitive claim is
    /// read from.
    fn stable(id: &str, mut value: Value) -> (Value, Vec<Value>) {
        let mut taken = Vec::new();
        for (_, key, _) in VOLATILE.iter().filter(|(of, _, _)| *of == id) {
            taken.push(Value::Str(key.to_string()));
            blank(&mut value, &key.split('.').collect::<Vec<_>>(), &mut taken);
        }
        (value, taken)
    }

    /// `results/` is an output of this code, and it shows what the
    /// evaluation claims: every experiment, rerun at seed 2020 in the
    /// default profile (`reproduce all --out results`), reproduces its
    /// committed JSON outside the [`VOLATILE`] keys, its report holds each
    /// of its [`CLAIMS`] (read before blanking, so timing claims see their
    /// numbers), and its text is headed by its figure (`F15` for
    /// `f15_observe`).
    #[test]
    fn results_are_current() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let lab = ExperimentContext::standard(2020, false);
        let (mut stale, mut broken, mut checked) = (Vec::new(), Vec::new(), 0);
        for (id, run) in EXPERIMENTS {
            let committed = std::fs::read_to_string(format!("{results}/{id}.json"))
                .unwrap_or_else(|e| panic!("results/{id}.json is committed: {e}"));
            let committed = serde_json::parse_value_str(&committed).expect("committed JSON");
            let emitted = run(&lab);
            let rerun = emitted.json.expect("report serializes");
            let report = serde_json::parse_value_str(&rerun).expect("report is JSON");
            for (_, claim, holds) in CLAIMS.iter().filter(|(of, _, _)| of == id) {
                checked += 1;
                if !holds(&report) {
                    broken.push(format!("{id}: {claim}; {:?}", stable(id, report.clone()).1));
                }
            }
            let figure = id.split('_').next().unwrap_or(id).to_uppercase();
            if emitted.text.split([' ', '-']).next() != Some(figure.as_str()) {
                broken.push(format!("{id}: its text is headed {figure}"));
            }
            if stable(id, report).0 != stable(id, committed).0 {
                stale.push(*id);
            }
        }
        assert_eq!(checked, CLAIMS.len(), "a claim names no experiment");
        assert!(broken.is_empty(), "claims that do not hold: {broken:#?}");
        assert!(
            stale.is_empty(),
            "{stale:?} differ from results/; regenerate with `reproduce all --out results`"
        );
    }
}
