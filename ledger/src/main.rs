//! `ledger`: the one benchmark for p4guard's learn -> compile -> publish ->
//! serve loop, end to end and layer by layer. See `README.md` beside the
//! manifest for the workload and metric catalogue.
//!
//! ```text
//! ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! ledger [--seed N] [--seconds S] [--runs R] [--out FILE] [--smoke]     every workload
//! ledger --compare A.json B.json
//! ```

mod fixture;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;
mod yardstick;

use fixture::{Fixture, Sizing, Workload, BATCH, WORKLOADS};
use p4guard_dataplane::action::Verdict;
use p4guard_nn::binary_metrics;
use report::{Metric, RunResult};
use serve::{Churn, Mode};
use spans::Tracer;
use stats::Timed;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use yardstick::{Speed, Yardstick};

#[global_allocator]
static ALLOC: spans::CountingAlloc = spans::CountingAlloc;

/// Rounds measured per run at the least, after one discarded warm-up round.
const MIN_ROUNDS: usize = 5;
/// Inline batches timed per round at the least. A round times half a
/// trial's frames where that is more.
const MIN_INLINE_BATCHES: u64 = 128;
/// Republishes sampled per round, at the least, on a workload that does not
/// churn by itself. Its churning serve is a fifth of a trial where that
/// republishes more often.
const MIN_REPUBLISHES: u64 = 4;
/// Set-ups are repeated until this many seconds are spent on them (three
/// at the least, `MAX_SETUP_REPS` at the most), so that the calm median has
/// a window of seconds to find calm repetitions in, however short one set-up
/// is.
const SETUP_POOL_S: f64 = 4.0;
const MAX_SETUP_REPS: usize = 100;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2020,
        seconds: 16.0,
        trace: false,
        smoke: false,
        runs: 5,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(fixture::workload(&name).ok_or(format!(
                    "unknown workload `{name}` (one of {})",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => args.seed = parse(&value("a number")?)?,
            "--seconds" => args.seconds = parse(&value("a number")?)?,
            "--runs" => args.runs = parse(&value("a number")?)?,
            "--out" => args.out = Some(value("a file")?),
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
            },
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("`{v}` is not a number"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return report::compare_files(a, b);
    }
    if cfg!(debug_assertions) {
        eprintln!("error: the ledger measures release builds only (cargo run --release)");
        return ExitCode::from(2);
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => report::run_suite(args.seed, args.seconds, args.runs, args.smoke, args.out),
    }
}

/// One workload, one run: the driver's unit. Human-readable lines go to
/// stderr; the last stdout line is the result object.
fn run_one(workload: &'static Workload, args: &Args) -> ExitCode {
    let sizing = if args.smoke {
        Sizing::SMOKE
    } else {
        Sizing::FULL
    };
    let seconds = if args.smoke { 1.0 } else { args.seconds };
    yardstick::place(fixture::shards());
    let provenance = report::Provenance::collect(workload, args.seed, sizing);
    eprintln!("{}", provenance.header());
    let mut tracer = Tracer::new(args.trace);
    let mut result = if args.trace {
        layers::run(workload, args.seed, seconds, sizing, &mut tracer)
    } else {
        run_end_to_end(workload, args.seed, seconds, sizing)
    };
    result.provenance = Some(provenance);
    for m in &result.metrics {
        eprintln!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for note in &result.notes {
        eprintln!("note: {note}");
    }
    if let Some(out) = &args.out {
        if let Err(e) = result.write(out, args.trace.then_some(&tracer)) {
            eprintln!("error: writing {out}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.contract_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} frames failed (lost, refused or judged differently from the oracle)",
            result.failed, result.attempted
        );
        ExitCode::FAILURE
    }
}

/// Sets the workload up repeatedly (see `SETUP_POOL_S`), each repetition
/// between two yardstick probes. Returns the last fixture with every
/// repetition's set-up seconds.
fn set_up(
    workload: &'static Workload,
    seed: u64,
    sizing: Sizing,
    yardstick: &mut Yardstick,
) -> (Fixture, Vec<Timed>) {
    let mut setups = Vec::new();
    let mut fixture = None;
    let t0 = Instant::now();
    let pool_s = SETUP_POOL_S / sizing.shrink as f64;
    let mut before = yardstick.probe_here();
    while setups.len() < sizing.setup_reps
        || (setups.len() < MAX_SETUP_REPS && t0.elapsed().as_secs_f64() < pool_s)
    {
        // Drop the previous fixture first so peak memory holds one.
        fixture = None;
        let f = fixture.insert(Fixture::build(workload, seed, sizing));
        let after = yardstick.probe_here();
        setups.push(Timed::time(f.setup_s, (before + after) / 2.0));
        before = after;
    }
    (fixture.expect("at least one set-up"), setups)
}

/// F1 of the served rules against ground truth on the served frames: the
/// oracle's verdicts stand in for the data plane's because the run checks
/// that they are equal.
fn detect_f1(oracle: &[Verdict], labels: &[usize]) -> f64 {
    let predicted: Vec<usize> = oracle
        .iter()
        .map(|v| usize::from(*v == Verdict::Drop))
        .collect();
    binary_metrics(&predicted, labels).f1
}

/// The untraced run: every end-to-end metric of one workload.
///
/// The measured part is a sequence of short rounds, each one closed-loop
/// trial, one inline slice and (where the workload does not churn by
/// itself) one short churning serve, each between two yardstick probes.
/// Every timing is the calm median over rounds (`stats::calm_median`): the
/// rounds the yardstick found the machine fastest in, each brought to
/// yardstick speed 1.0.
fn run_end_to_end(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    sizing: Sizing,
) -> RunResult {
    let mut yardstick = Yardstick::new();
    let (fx, setups) = set_up(workload, seed, sizing, &mut yardstick);
    let oracle = fx.oracle();
    let pipeline = fx.control().snapshot();
    let mut tracer = Tracer::new(false);
    let mut churn = Churn::new(&fx);
    let frames = fixture::trial_frames(workload, sizing);
    let inline_batches =
        (frames / 2 / BATCH as u64).max(MIN_INLINE_BATCHES / sizing.shrink) as usize;
    let churn_frames = (frames / 5).max(MIN_REPUBLISHES * churn.every * BATCH as u64);
    let mode = if workload.telemetry {
        Mode::Registry
    } else {
        Mode::Plain
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut pps, mut cpu_ns, mut p50_us, mut republish_ms) = (vec![], vec![], vec![], vec![]);
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut rounds = 0;
    let mut before = yardstick.probe();
    while pps.len() < MIN_ROUNDS || t0.elapsed() < budget {
        let trial = serve::closed_trial(
            &fx,
            frames,
            mode,
            workload.churn.then_some(&mut churn),
            &mut tracer,
        );
        let after_trial = yardstick.probe();
        let inline = serve::inline_pass(&fx, &pipeline, Some(&oracle), inline_batches);
        let mut after = yardstick.probe();
        attempted += trial.frames + inline.frames;
        failed += serve::closed_failures(&trial, &oracle, workload.churn) + inline.mismatches;
        let during_trial = Speed::between(before, after_trial);
        let during_inline = (after_trial.dispatcher + after.dispatcher) / 2.0;
        let mut during_churn = during_trial.dispatcher;
        // A workload that does not churn samples `republish_ms` in a short
        // churning serve of its own, so the metric means the same
        // everywhere: a 1% delta applied and published while the gateway
        // forwards.
        if !workload.churn {
            let t = serve::closed_trial(&fx, churn_frames, mode, Some(&mut churn), &mut tracer);
            attempted += t.frames;
            failed += serve::closed_failures(&t, &oracle, true);
            let after_churn = yardstick.probe();
            during_churn = (after.dispatcher + after_churn.dispatcher) / 2.0;
            after = after_churn;
        }
        before = after;
        let republished = std::mem::take(&mut churn.republish_ms);
        // The first round faults the heap in; it is served and checked but
        // not measured.
        rounds += 1;
        if rounds == 1 {
            continue;
        }
        let shard_cpu_s = trial.cpu_s - trial.dispatcher_cpu_s;
        let seen = during_trial.seen_by(trial.dispatcher_cpu_s, shard_cpu_s);
        pps.push(Timed::rate(trial.pps(), seen));
        cpu_ns.push(Timed::time(trial.cpu_s * 1e9 / trial.frames as f64, seen));
        p50_us.push(Timed::time(
            stats::median(&inline.batch_ns) / 1e3,
            during_inline,
        ));
        republish_ms.extend(republished.iter().map(|&ms| Timed::time(ms, during_churn)));
    }

    let mut result = RunResult::new(workload.name, seed, attempted, failed);
    result.strategies = report::strategies(&pipeline);
    let mut put =
        |name: &str, value: f64, unit: &str| result.metrics.push(Metric::new(name, value, unit));
    put("setup_s", stats::calm_median(&setups), "s");
    put("serve_pps", stats::calm_median(&pps), "1/s");
    put("serve_cpu_ns_per_frame", stats::calm_median(&cpu_ns), "ns");
    put("batch_p50_us", stats::calm_median(&p50_us), "us");
    // A republish is five milliseconds of allocation, copying and page
    // faults beside a busy shard: what disturbs it only ever delays it, and
    // by far more than it slows the yardstick, so its calm rounds report
    // their lower quartile where the other timings report their median.
    put(
        "republish_ms",
        stats::calm_quantile(&republish_ms, 0.25),
        "ms",
    );
    put("detect_f1", detect_f1(&oracle, &fx.labels), "ratio");
    put(
        "tcam_entries",
        pipeline.minimized_entry_count() as f64,
        "count",
    );
    put("peak_rss_mb", serve::peak_rss_mb(), "MiB");
    let as_timed: Vec<f64> = pps.iter().map(|t| t.as_timed).collect();
    let speeds: Vec<f64> = pps.iter().map(|t| t.speed).collect();
    result.notes.push(format!(
        "yardstick speed over {} rounds: median {:.3}, best {:.3}; serve_pps as timed, before the calm rounds are brought to speed 1.0: median {:.0} 1/s",
        pps.len(),
        stats::median(&speeds),
        speeds.iter().copied().fold(0.0, f64::max),
        stats::median(&as_timed),
    ));
    result.trials = Some(stats::Summary::of(&as_timed));
    result
}
