//! Regenerates every table and figure of the evaluation and prints them,
//! optionally saving JSON artifacts.
//!
//! Usage:
//!
//! ```text
//! reproduce [EXPERIMENT ...] [--seed N] [--full] [--out DIR]
//!
//! EXPERIMENT one of the ids in `p4guard::experiments::EXPERIMENTS` (a bad
//!            argument prints them), or `all`  (default: all)
//! --seed N   scenario seed (default 2020, the publication year)
//! --full     use the full (paper-scale) pipeline config and sweeps instead
//!            of the fast profile
//! --out DIR  also write one JSON file per experiment into DIR
//! ```
//!
//! Exits non-zero if any `--out` artifact could not be written, after the
//! remaining experiments have run.

use p4guard::experiments::{Emitted, ExperimentContext, Run, EXPERIMENTS};
use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

/// One row of [`EXPERIMENTS`].
type Experiment = (&'static str, Run);

/// What an experiment needs from the command line: the lab (seed,
/// profile, shared traces and trained guards) and where artifacts go.
struct Session {
    lab: ExperimentContext,
    out: Option<PathBuf>,
}

impl Session {
    /// Prints the report and, with `--out`, writes it to `<id>.json`.
    fn emit(&self, id: &str, emitted: Emitted) -> Result<(), String> {
        println!("{}", emitted.text);
        let Some(dir) = &self.out else { return Ok(()) };
        let json = emitted
            .json
            .map_err(|e| format!("cannot serialize {id}: {e}"))?;
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{id}.json"));
        std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

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
    let lab = ExperimentContext::standard(seed, full);
    Ok((Session { lab, out }, selected))
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
        session.lab.seed,
        if session.lab.full { "full" } else { "fast" }
    );
    let mut status = ExitCode::SUCCESS;
    for (id, run) in selected {
        let started = std::time::Instant::now();
        if let Err(e) = session.emit(id, run(&session.lab)) {
            eprintln!("error: {e}");
            status = ExitCode::FAILURE;
        }
        println!("[{id} took {:?}]\n", started.elapsed());
    }
    status
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

    /// An artifact that cannot be written is an error the caller turns
    /// into a failing exit code, not a warning: a directory under a
    /// regular file can never be created.
    #[test]
    fn an_unwritable_out_dir_is_reported() {
        let under_a_file = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/results");
        let args = ["t1", "--out", under_a_file].map(String::from);
        let (session, selected) = parse_args(args).unwrap();
        let (id, run) = selected[0];
        let err = session.emit(id, run(&session.lab)).unwrap_err();
        assert!(err.contains("cannot create"), "{err}");
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
