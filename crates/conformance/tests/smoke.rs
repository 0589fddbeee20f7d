//! Fixed-seed conformance smoke: structure-aware frame fuzzing plus
//! compiled-table differential testing, deterministic and fast enough for
//! every `cargo test` run (see `ci.sh` for the time-boxed CI gate).
//!
//! New failures shrink to minimal repros and are persisted under
//! `tests/corpus/` so they become pinned regressions (`corpus_replay.rs`)
//! even before the underlying bug is fixed.

use p4guard_conformance::{corpus, gen, mutate, oracle, shrink, tables};
use p4guard_dataplane::CompiledTable;
use rand::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// One seed for the whole smoke so every run covers the identical input
/// set; bump deliberately to rotate coverage.
const SEED: u64 = 0x1cdc_2020;

/// Mutated frames per protocol family.
const FRAMES_PER_FAMILY: usize = 10_000;

/// Valid frames per family given the exhaustive truncation sweep.
const SWEEP_FRAMES: usize = 8;

/// Adversarial tables for the differential table oracle.
const TABLES: usize = 120;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn report_frame_failure(
    failures: &mut Vec<String>,
    family: gen::Family,
    frame: &[u8],
    failure: &oracle::Failure,
) {
    // Shrink while the *same kind* of failure reproduces, then pin it.
    let minimal = shrink::shrink_frame(frame, |f| oracle::check_frame(f).is_err());
    let comment = format!("family {family}: {failure}");
    let path = corpus::write_repro(&corpus_dir(), "frame", &comment, &minimal)
        .map(|p| p.display().to_string())
        .unwrap_or_else(|e| format!("<corpus write failed: {e}>"));
    failures.push(format!(
        "{comment}\n  repro ({} bytes, saved to {path}):\n{}",
        minimal.len(),
        corpus::to_hex(&minimal)
    ));
}

#[test]
fn frame_families_survive_structured_corruption() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut failures = Vec::new();
    for family in gen::Family::ALL {
        let budget = failures.len() + 3; // cap noise per family
                                         // Valid frames must pass outright, and every truncation must be
                                         // rejected cleanly (never a panic, never a broken fixpoint).
        for _ in 0..SWEEP_FRAMES {
            let frame = gen::valid_frame(family, &mut rng);
            for cut in (0..=frame.len()).rev() {
                if failures.len() >= budget {
                    break;
                }
                if let Err(e) = oracle::check_frame(&frame[..cut]) {
                    report_frame_failure(&mut failures, family, &frame[..cut], &e);
                }
            }
        }
        // Structure-aware corruption: length lies, bit flips, truncation,
        // region duplication/deletion on fresh valid frames.
        for _ in 0..FRAMES_PER_FAMILY {
            let mut frame = gen::valid_frame(family, &mut rng);
            mutate::mutate(&mut frame, &mut rng);
            if let Err(e) = oracle::check_frame(&frame) {
                report_frame_failure(&mut failures, family, &frame, &e);
                if failures.len() >= budget {
                    break;
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} conformance failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn compiled_tables_agree_with_reference_scan() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x7ab1e);
    let mut strategies = BTreeSet::new();
    let mut failures = Vec::new();
    for index in 0..TABLES {
        let adv = tables::adversarial_table(&mut rng, index);
        let compiled = CompiledTable::compile(&adv.table);
        strategies.insert(compiled.strategy());
        for key in &adv.probes {
            if let Err(e) = oracle::check_compiled(&adv.table, &compiled, key) {
                failures.push(format!("table {index}: {e}"));
                if failures.len() >= 10 {
                    break;
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} divergence(s) between scan and compiled engines:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // The generator must actually exercise the engine.
    assert!(
        strategies.contains("bit-vector"),
        "strategy bit-vector never compiled; saw {strategies:?}"
    );
}
