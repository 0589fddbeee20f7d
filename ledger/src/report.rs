//! Result records, the machine written next to every number, the
//! every-workload suite, and `--compare`.

use crate::fixture::{self, Sizing, Workload, WORKLOADS};
use crate::spans::Tracer;
use crate::stats::{number, Summary};
use p4guard_dataplane::pipeline::ReadPipeline;
use serde::Value;
use std::process::{Command, ExitCode};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// The machine and build a number was measured on.
#[derive(Debug, Clone)]
pub struct Provenance {
    fields: Vec<(String, Value)>,
}

/// The machine and build, without anything particular to a workload.
fn machine_fields(seed: u64) -> Vec<(String, Value)> {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let or_unknown = |v: Option<String>| Value::Str(v.unwrap_or_else(|| "unknown".into()));
    let git_dirty = run("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("seed".into(), Value::UInt(seed)),
        ("fixture_seed".into(), Value::UInt(fixture::FIXTURE_SEED)),
        ("nproc".into(), Value::UInt(fixture::nproc() as u64)),
        ("shards".into(), Value::UInt(fixture::shards() as u64)),
        ("profile".into(), Value::Str(profile.into())),
        (
            "git_rev".into(),
            or_unknown(run("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty".into(), Value::Bool(git_dirty)),
        ("rustc".into(), or_unknown(run("rustc", &["--version"]))),
    ]
}

impl Provenance {
    pub fn collect(workload: &Workload, seed: u64, sizing: Sizing) -> Provenance {
        let mut fields = vec![
            ("workload".into(), Value::Str(workload.name.into())),
            ("why".into(), Value::Str(workload.why.into())),
            (
                "frames_per_trial".into(),
                Value::UInt(fixture::trial_frames(workload, sizing)),
            ),
            ("offered_pps".into(), Value::Float(workload.offered_pps)),
            ("traffic_scale".into(), Value::Float(sizing.traffic_scale)),
        ];
        fields.extend(machine_fields(seed));
        Provenance { fields }
    }

    pub fn header(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    Value::Str(s) => s.clone(),
                    other => serde_json::to_string(other).expect("scalar serializes"),
                };
                format!("{k}={v}")
            })
            .collect();
        format!("ledger: {}", fields.join(" "))
    }
}

/// What one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub provenance: Option<Provenance>,
    /// Lookup engine each stage of the served pipeline lowered to.
    pub strategies: Vec<String>,
    /// Closed-loop `serve_pps` over this run's trials.
    pub trials: Option<Summary>,
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, attempted: u64, failed: u64) -> RunResult {
        RunResult {
            workload,
            seed,
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
            provenance: None,
            strategies: Vec::new(),
            trials: None,
        }
    }

    /// Nothing failed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn metrics_value(&self) -> Value {
        Value::Map(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::Map(vec![
                            ("value".into(), Value::Float(m.value)),
                            ("unit".into(), Value::Str(m.unit.clone())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one JSON object the driver reads from the last stdout line.
    pub fn contract_line(&self) -> String {
        let v = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), self.metrics_value()),
        ]);
        serde_json::to_string(&v).expect("result serializes")
    }

    /// Writes the full record to `path` and, for a traced run, the spans to
    /// its sibling `*.trace.json`.
    pub fn write(&self, path: &str, tracer: Option<&Tracer>) -> std::io::Result<()> {
        let mut fields = vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("seed".into(), Value::UInt(self.seed)),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            (
                "strategies".into(),
                Value::Seq(self.strategies.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics".into(), self.metrics_value()),
            (
                "notes".into(),
                Value::Seq(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
        ];
        if let Some(p) = &self.provenance {
            fields.insert(0, ("provenance".into(), Value::Map(p.fields.clone())));
        }
        if let Some(t) = self.trials {
            fields.push(("serve_pps_trials".into(), t.to_value()));
        }
        write_json(path, &Value::Map(fields))?;
        if let Some(tracer) = tracer {
            let stem = path.strip_suffix(".json").unwrap_or(path);
            write_json(&format!("{stem}.trace.json"), &tracer.to_value())?;
        }
        Ok(())
    }
}

/// Lookup engine each stage of `pipeline` lowered to.
pub fn strategies(pipeline: &ReadPipeline) -> Vec<String> {
    pipeline
        .stages()
        .iter()
        .map(|s| s.strategy().to_owned())
        .collect()
}

fn write_json(path: &str, v: &Value) -> std::io::Result<()> {
    let mut text = serde_json::to_string_pretty(v).expect("value serializes");
    text.push('\n');
    std::fs::write(path, text)
}

/// Runs this executable once on one workload and parses its result line.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    match serde_json::parse_value_str(line) {
        Ok(v) if out.status.success() && v.get("correct") == Some(&Value::Bool(true)) => Ok(v),
        // The child's own account (header, metric table, error) explains.
        _ => Err(format!(
            "{workload} seed {seed}: run failed: {line}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

fn metric_pairs(run: &Value) -> Vec<(String, f64, String)> {
    run.get("metrics")
        .and_then(Value::as_map)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                number(m.get("value")?)?,
                m.get("unit")?.as_str()?.to_owned(),
            ))
        })
        .collect()
}

/// One workload of the suite: `runs` untraced runs on seeds `seed..`, then
/// (unless smoking) one traced run. Prints every metric by name with its
/// unit and returns the workload's suite record.
fn suite_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    runs: usize,
    smoke: bool,
) -> Result<Value, String> {
    // (metric, unit, one value per run), in the order runs print them.
    let mut samples: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..runs {
        let run = child_run(name, seed + i as u64, seconds, false, smoke)?;
        for (metric, value, unit) in metric_pairs(&run) {
            match samples.iter_mut().find(|(m, ..)| *m == metric) {
                Some((.., values)) => values.push(value),
                None => samples.push((metric, unit, vec![value])),
            }
        }
    }
    println!("== {name} ({runs} runs, seeds {seed}..) ==");
    let mut end_to_end = Vec::new();
    for (metric, unit, values) in samples {
        let s = Summary::of(&values);
        println!(
            "{metric:<36} {:>16.4} {unit:<6} p25 {:.4} p75 {:.4} n {}",
            s.median, s.p25, s.p75, s.n
        );
        let Value::Map(mut fields) = s.to_value() else {
            unreachable!("summary is a map")
        };
        fields.push(("unit".into(), Value::Str(unit)));
        let raw = values.into_iter().map(Value::Float).collect();
        fields.push(("values".into(), Value::Seq(raw)));
        end_to_end.push((metric, Value::Map(fields)));
    }
    let mut record = vec![("end_to_end".into(), Value::Map(end_to_end))];
    if !smoke {
        let run = child_run(name, seed, seconds, true, false)?;
        for (metric, value, unit) in metric_pairs(&run) {
            println!("{metric:<36} {value:>16.4} {unit}");
        }
        let per_layer = run.get("metrics").cloned().unwrap_or(Value::Null);
        record.push(("per_layer".into(), per_layer));
    }
    Ok(Value::Map(record))
}

/// Every workload, each in child processes of its own (so `peak_rss_mb` is
/// per workload). Writes the suite record `--compare` reads.
pub fn run_suite(
    seed: u64,
    seconds: f64,
    runs: usize,
    smoke: bool,
    out: Option<String>,
) -> ExitCode {
    let runs = if smoke { 1 } else { runs };
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        match suite_workload(w.name, seed, seconds, runs, smoke) {
            Ok(record) => workloads.push((w.name.to_owned(), record)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = out {
        let suite = Value::Map(vec![
            ("provenance".into(), Value::Map(machine_fields(seed))),
            ("runs".into(), Value::UInt(runs as u64)),
            ("seconds".into(), Value::Float(seconds)),
            ("workloads".into(), Value::Map(workloads)),
        ]);
        if let Err(e) = write_json(&path, &suite) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// How a metric in B stands against the same metric in A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Standing {
    Ok,
    Regressed,
    /// Neither side's run-to-run spread fits inside the bound, so "no
    /// worse" cannot be told from "worse".
    Unresolved,
}

/// `(how much worse B's median is than A's, as a share of A's; standing)`.
pub fn judge(a: Summary, b: Summary, higher_is_better: bool, bound: f64) -> (f64, Standing) {
    let change = (b.median - a.median) / a.median.abs();
    let worse = if higher_is_better { -change } else { change };
    let standing = if worse > bound {
        Standing::Regressed
    } else if a.spread().max(b.spread()) > bound {
        Standing::Unresolved
    } else {
        Standing::Ok
    };
    (worse, standing)
}

/// `--compare A.json B.json`: per workload and end-to-end metric, both
/// medians with quartiles, the change with its base, the bound from
/// `BENCHMARK.json` in the working directory, and the standing. Exits
/// non-zero on any `regressed`.
pub fn compare_files(a_path: &str, b_path: &str) -> ExitCode {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::parse_value_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b, spec) = match (load(a_path), load(b_path), load("BENCHMARK.json")) {
        (Ok(a), Ok(b), Ok(spec)) => (a, b, spec),
        (a, b, spec) => {
            for e in [a.err(), b.err(), spec.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<11} {:<24} {:>14} {:>14} {:>9} {:>7}  standing",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for w in &WORKLOADS {
        let side = |v: &Value| v.get("workloads")?.get(w.name)?.get("end_to_end").cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            println!("{:<11} missing from one side", w.name);
            unresolved += 1;
            continue;
        };
        for m in spec
            .get("end_to_end")
            .and_then(Value::as_seq)
            .unwrap_or_default()
        {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or_default();
            let name = field("name");
            let bound = m.get("bound").and_then(number).unwrap_or(0.0);
            let summaries = (
                wa.get(name).and_then(Summary::from_value),
                wb.get(name).and_then(Summary::from_value),
            );
            let (Some(sa), Some(sb)) = summaries else {
                println!("{:<11} {name:<24} missing from one side", w.name);
                unresolved += 1;
                continue;
            };
            let (worse, standing) = judge(sa, sb, field("better") == "higher", bound);
            match standing {
                Standing::Regressed => regressed += 1,
                Standing::Unresolved => unresolved += 1,
                Standing::Ok => {}
            }
            println!(
                "{:<11} {name:<24} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {:?} (A {:.4}..{:.4} n{}, B {:.4}..{:.4} n{}, base A {:.4} {})",
                w.name,
                sa.median,
                sb.median,
                worse * 100.0,
                bound * 100.0,
                standing,
                sa.p25,
                sa.p75,
                sa.n,
                sb.p25,
                sb.p75,
                sb.n,
                sa.median,
                field("unit"),
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            p25: median * 0.995,
            p75: median * 1.005,
            n: 10,
        }
    }

    #[test]
    fn judge_respects_direction_and_bound() {
        // Throughput: 6% lower is worse than a 5% bound allows.
        let (worse, s) = judge(tight(100.0), tight(94.0), true, 0.05);
        assert!((worse - 0.06).abs() < 1e-12);
        assert_eq!(s, Standing::Regressed);
        // Higher throughput is never a regression.
        assert_eq!(
            judge(tight(100.0), tight(120.0), true, 0.05).1,
            Standing::Ok
        );
        // Latency: 4% higher is inside a 5% bound.
        assert_eq!(judge(tight(10.0), tight(10.4), false, 0.05).1, Standing::Ok);
        assert_eq!(
            judge(tight(10.0), tight(10.6), false, 0.05).1,
            Standing::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = Summary {
            median: 100.0,
            p25: 95.0,
            p75: 105.0,
            n: 10,
        };
        assert_eq!(
            judge(tight(100.0), noisy, true, 0.05).1,
            Standing::Unresolved
        );
        assert_eq!(judge(noisy, tight(100.0), true, 0.15).1, Standing::Ok);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut r = RunResult::new("gw_small", 1, 1000, 0);
        r.metrics.push(Metric::new("serve_pps", 1.5e6, "1/s"));
        let v = serde_json::parse_value_str(&r.contract_line()).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("serve_pps"))
            .expect("metric");
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("1/s"));
        r.failed = 1;
        assert!(!r.correct());
    }
}
