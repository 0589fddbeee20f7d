//! The `p4guard` command-line tool: generate datasets, train guards,
//! evaluate them, and export deployable P4 artifacts — the workflow a
//! gateway operator would actually run.
//!
//! ```text
//! p4guard-cli generate --scenario mixed --seed 7 --out trace.p4gt [--pcap trace.pcap]
//! p4guard-cli train    --trace trace.p4gt --out guard.json [--k 8] [--window 64] [--fast]
//! p4guard-cli evaluate --model guard.json --trace test.p4gt
//! p4guard-cli export   --model guard.json --trace trace.p4gt --out-dir p4/
//! p4guard-cli stats    --trace trace.p4gt
//! p4guard-cli stats    --metrics 127.0.0.1:9100
//! p4guard-cli serve    --shards 4 [--model guard.json] [--trace test.p4gt] [--pps 50000]
//!                      [--metrics-addr 127.0.0.1:9100] [--hold SECS]
//! ```
//!
//! `serve` replays a trace through the sharded online gateway, hot-swapping
//! an optimized ruleset mid-run, and prints the aggregated snapshot. With
//! `--metrics-addr` it also serves live Prometheus metrics (`/metrics`)
//! and flight-recorder events (`/events`) while replaying; `--tracing`
//! additionally samples structured spans and stage profiles, served on
//! `/traces` and `/profile`; `--hold` keeps the endpoint up after the
//! replay finishes so scrapers can collect the final state. `stats
//! --metrics` fetches and prints a snapshot from such a running gateway
//! (`--path` picks a different route, e.g. `/profile`).

use p4guard::config::GuardConfig;
use p4guard::pipeline::{TrainedGuard, TwoStagePipeline, INGEST_BATCH};
use p4guard::{p4gen, report};
use p4guard_gateway::GatewayConfig;
use p4guard_packet::pcap;
use p4guard_packet::trace::Trace;
use p4guard_telemetry::{http_get, MetricsServer, Telemetry, TelemetryConfig};
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::stats::TraceStats;
use std::collections::HashMap;
use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage:
  p4guard-cli generate --scenario <mixed|smart-home|industrial> [--seed N] --out FILE [--pcap FILE]
  p4guard-cli train    --trace FILE --out FILE [--k N] [--window N] [--fast]
  p4guard-cli evaluate --model FILE --trace FILE
  p4guard-cli export   --model FILE --trace FILE --out-dir DIR
  p4guard-cli stats    --trace FILE | --metrics ADDR [--events] [--path P]
  p4guard-cli serve    [--shards N] [--model FILE] [--trace FILE] [--scenario S] [--seed N]
                       [--pps N] [--queue N] [--batch N] [--adapt] [--tracing]
                       [--tenants N] [--devices N]
                       [--metrics-addr ADDR] [--hold SECS] [--sample-every N]";

/// The flags `command` reads: `(value-taking, boolean)`, or `None` for an
/// unknown command.
fn command_flags(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match command {
        "generate" => (&["scenario", "seed", "out", "pcap"], &[]),
        "train" => (&["trace", "out", "k", "window"], &["fast"]),
        "evaluate" => (&["model", "trace"], &[]),
        "export" => (&["model", "trace", "out-dir"], &[]),
        "stats" => (&["trace", "metrics", "path"], &["events"]),
        "serve" => (
            &[
                "shards",
                "model",
                "trace",
                "scenario",
                "seed",
                "pps",
                "queue",
                "batch",
                "tenants",
                "devices",
                "metrics-addr",
                "hold",
                "sample-every",
            ],
            &["adapt", "tracing"],
        ),
        _ => return None,
    })
}

/// Parses `args` against the flags its subcommand reads. A flag outside
/// both sets is an error — never silently taken as value-bearing, which
/// would swallow the argument after a typo.
fn parse_flags(
    args: &[String],
    valued: &[&str],
    boolean: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found {:?}", args[i]))?;
        if boolean.contains(&key) {
            flags.insert(key.to_owned(), "true".to_owned());
            i += 1;
        } else if valued.contains(&key) {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_owned(), value.clone());
            i += 2;
        } else {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

/// `serve`'s observability, built the same way by all three arms: the
/// telemetry hub and, with `--metrics-addr`, the live endpoint serving it.
struct Observability {
    telemetry: Arc<Telemetry>,
    server: Option<MetricsServer>,
    hold: u64,
}

impl Observability {
    /// Builds the hub from `--sample-every` (default `sample_every`) and
    /// `--tracing`, and binds `--metrics-addr` when given, announcing
    /// `/metrics` plus the routes the arm asks for — one line per endpoint;
    /// stdout is line-buffered, so scripts polling the log see the bound
    /// (possibly ephemeral) port as soon as the server is up.
    fn start(
        flags: &HashMap<String, String>,
        seed: u64,
        sample_every: u64,
        announce_events: bool,
        announce_tracing: bool,
    ) -> Result<Self, Box<dyn Error>> {
        let hold: u64 = flags.get("hold").map_or(Ok(0), |v| v.parse())?;
        let sample_every: u64 = flags
            .get("sample-every")
            .map_or(Ok(sample_every), |v| v.parse())?;
        let tracing = flags.contains_key("tracing");
        let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
            sample_every,
            seed,
            tracing,
            ..TelemetryConfig::default()
        }));
        let server = match flags.get("metrics-addr") {
            Some(addr) => {
                let server = MetricsServer::serve(addr, Arc::clone(&telemetry))?;
                let at = server.local_addr();
                println!("metrics: listening on http://{at}/metrics");
                if announce_events {
                    println!("events : listening on http://{at}/events");
                }
                if announce_tracing && tracing {
                    println!("tracing: listening on http://{at}/profile and /traces");
                }
                Some(server)
            }
            None => None,
        };
        Ok(Observability {
            telemetry,
            server,
            hold,
        })
    }

    /// Keeps the endpoint up for `--hold` seconds so scrapers can collect
    /// the final state, then shuts it down.
    fn hold_and_shutdown(self) {
        if let Some(mut server) = self.server {
            if self.hold > 0 {
                println!("holding metrics endpoint for {}s", self.hold);
                std::thread::sleep(Duration::from_secs(self.hold));
            }
            server.shutdown();
        }
    }
}

fn run() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    let Some((valued, boolean)) = command_flags(command) else {
        return Err(format!("unknown command {command:?}\n{USAGE}").into());
    };
    let flags = parse_flags(rest, valued, boolean).map_err(|e| format!("{e}\n{USAGE}"))?;
    match command.as_str() {
        "generate" => {
            let seed: u64 = flags.get("seed").map_or(Ok(1), |v| v.parse())?;
            let scenario = match required(&flags, "scenario")? {
                "mixed" => Scenario::mixed_default(seed),
                "smart-home" => Scenario::smart_home_default(seed),
                "industrial" => Scenario::industrial_default(seed),
                other => return Err(format!("unknown scenario {other:?}").into()),
            };
            let out = required(&flags, "out")?;
            let trace = scenario.generate()?;
            trace.save(out)?;
            println!("wrote {} packets to {out}", trace.len());
            if let Some(pcap_path) = flags.get("pcap") {
                pcap::save_pcap(&trace, pcap_path)?;
                println!("wrote pcap mirror to {pcap_path}");
            }
            Ok(())
        }
        "train" => {
            let trace = Trace::load(required(&flags, "trace")?)?;
            let mut config = if flags.contains_key("fast") {
                GuardConfig::fast()
            } else {
                GuardConfig::default()
            };
            if let Some(k) = flags.get("k") {
                config.k = k.parse()?;
            }
            if let Some(w) = flags.get("window") {
                config.window = w.parse()?;
            }
            let guard = TwoStagePipeline::new(config).train(&trace)?;
            let out = required(&flags, "out")?;
            std::fs::write(out, guard.to_json())?;
            println!(
                "trained on {} packets: {} fields, {} rules, {:?} total",
                trace.len(),
                guard.selection.k(),
                guard.compiled.stats.entries,
                guard.timings.total()
            );
            for name in guard.describe_fields(&trace) {
                println!("  field: {name}");
            }
            println!("model saved to {out}");
            Ok(())
        }
        "evaluate" => {
            let guard =
                TrainedGuard::from_json(&std::fs::read_to_string(required(&flags, "model")?)?)?;
            let trace = Trace::load(required(&flags, "trace")?)?;
            let m = guard.evaluate_rules(&trace);
            let mut table = report::TextTable::new(["metric", "value"]);
            table.row(["packets", &trace.len().to_string()]);
            table.row(["accuracy", &report::num3(m.accuracy)]);
            table.row(["precision", &report::num3(m.precision)]);
            table.row(["recall", &report::num3(m.recall)]);
            table.row(["F1", &report::num3(m.f1)]);
            table.row(["FPR", &report::num3(m.false_positive_rate)]);
            println!("{table}");
            Ok(())
        }
        "export" => {
            let guard =
                TrainedGuard::from_json(&std::fs::read_to_string(required(&flags, "model")?)?)?;
            let trace = Trace::load(required(&flags, "trace")?)?;
            let out_dir = PathBuf::from(required(&flags, "out-dir")?);
            std::fs::create_dir_all(&out_dir)?;
            let names = guard.describe_fields(&trace);
            std::fs::write(
                out_dir.join("guard.p4"),
                p4gen::emit_program(&guard, &names),
            )?;
            std::fs::write(out_dir.join("entries.txt"), p4gen::emit_entries(&guard))?;
            println!(
                "exported guard.p4 and entries.txt ({} entries) to {}",
                guard.compiled.stats.entries,
                out_dir.display()
            );
            Ok(())
        }
        "stats" => {
            if let Some(addr) = flags.get("metrics") {
                return fetch_remote_stats(
                    addr,
                    flags.contains_key("events"),
                    flags.get("path").map(String::as_str),
                );
            }
            let trace = Trace::load(required(&flags, "trace")?)?;
            println!("{}", TraceStats::compute(&trace));
            Ok(())
        }
        "serve" => {
            // Validate the cheap flags before generating/training anything.
            let mut config =
                GatewayConfig::with_shards(flags.get("shards").map_or(Ok(4), |v| v.parse())?);
            if let Some(q) = flags.get("queue") {
                config.queue_capacity = q.parse()?;
            }
            if let Some(b) = flags.get("batch") {
                config.batch_size = b.parse()?;
            }
            if config.shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            if config.queue_capacity == 0 {
                return Err("--queue must be at least 1".into());
            }
            let pps: Option<f64> = flags.get("pps").map(|v| v.parse()).transpose()?;
            let seed: u64 = flags.get("seed").map_or(Ok(1), |v| v.parse())?;
            if let Some(tenants) = flags.get("tenants") {
                // Multi-tenant fleet: train one detector per tenant, admit
                // the rulesets against the shared table budget, and replay
                // the deterministic fleet simulation through the shared
                // shard workers, optionally serving per-tenant metrics.
                let tenants: usize = tenants.parse()?;
                if !(1..=16).contains(&tenants) {
                    return Err("--tenants must be between 1 and 16".into());
                }
                let devices: u64 = flags.get("devices").map_or(Ok(20_000), |v| v.parse())?;
                if devices < tenants as u64 {
                    return Err("--devices must be at least --tenants".into());
                }
                let observability = Observability::start(&flags, seed, 64, false, true)?;
                println!(
                    "fleet: {tenants} tenant(s), {devices} simulated devices, {} shards (seed {seed})",
                    config.shards
                );
                let report = p4guard::experiments::fleet_exp::run_f19_fleet(
                    seed,
                    devices,
                    tenants,
                    config.shards,
                    Some(Arc::clone(&observability.telemetry)),
                );
                println!("{report}");
                observability.hold_and_shutdown();
                return Ok(());
            }
            if flags.contains_key("adapt") {
                // Closed-loop demo: drive the adaptation engine through a
                // scripted regime shift (promote path) and a poisoned
                // proposal (rollback path) on a live gateway, optionally
                // serving the adapt_* counters and audit events while the
                // loop runs.
                let observability = Observability::start(&flags, seed, 8, false, false)?;
                println!(
                    "adaptation loop: injecting a regime shift across {} shards (seed {seed})",
                    config.shards
                );
                let report = p4guard::experiments::adaptation::run_f18_adapt(
                    seed,
                    config.shards,
                    Some(Arc::clone(&observability.telemetry)),
                );
                println!("{report}");
                observability.hold_and_shutdown();
                return Ok(());
            }
            let trace = match flags.get("trace") {
                Some(path) => Trace::load(path)?,
                None => {
                    let scenario = match flags.get("scenario").map(String::as_str) {
                        None | Some("smart-home") => Scenario::smart_home_default(seed),
                        Some("mixed") => Scenario::mixed_default(seed),
                        Some("industrial") => Scenario::industrial_default(seed),
                        Some(other) => return Err(format!("unknown scenario {other:?}").into()),
                    };
                    let trace = scenario.generate()?;
                    println!(
                        "no --trace given; generated {} packets (seed {seed})",
                        trace.len()
                    );
                    trace
                }
            };
            let guard = match flags.get("model") {
                Some(path) => TrainedGuard::from_json(&std::fs::read_to_string(path)?)?,
                None => {
                    println!("no --model given; training a fast guard on the trace");
                    TwoStagePipeline::new(GuardConfig::fast()).train(&trace)?
                }
            };
            let observability = Observability::start(&flags, seed, 64, true, true)?;
            println!(
                "serving {} packets through {} shards (queue {}, batch {}, ingest batches of {INGEST_BATCH}){}",
                trace.len(),
                config.shards,
                config.queue_capacity,
                config.batch_size,
                pps.map_or(String::new(), |p| format!(" at {p} pps")),
            );
            // The sink seam is only paid for when an endpoint serves it.
            let telemetry = observability
                .server
                .is_some()
                .then(|| Arc::clone(&observability.telemetry));
            let live = guard.serve_live(&trace, config, pps, telemetry)?;
            println!(
                "first half : {} packets in {:?} ({:.0} pps offered)",
                live.first_half.offered, live.first_half.elapsed, live.first_half.offered_pps
            );
            println!(
                "hot swap   : v{} ({} entries, {} churn: {}) published to {} shard cell(s) in {:?}",
                live.swap.version,
                live.swap.entries,
                live.diff.churn(),
                live.diff,
                live.swap.subscribers,
                live.swap.elapsed
            );
            println!(
                "second half: {} packets in {:?} ({:.0} pps offered)",
                live.second_half.offered, live.second_half.elapsed, live.second_half.offered_pps
            );
            print!("{}", live.snapshot);
            if live.snapshot.dropped_backpressure == 0 {
                println!("hot swap completed with zero packets dropped to backpressure");
            }
            observability.hold_and_shutdown();
            Ok(())
        }
        _ => unreachable!("command_flags accepted {command:?}"),
    }
}

/// Fetches and prints `/metrics` (and with `events`, `/events`; with
/// `path`, that route instead — e.g. `/profile` or `/traces?recent=4`)
/// from a gateway started with `serve --metrics-addr`. Non-200 responses
/// and connection failures surface as errors, so scripts can gate on the
/// exit code without needing `curl`.
fn fetch_remote_stats(addr: &str, events: bool, path: Option<&str>) -> Result<(), Box<dyn Error>> {
    let timeout = Duration::from_secs(5);
    let unreachable = |e: std::io::Error| {
        format!(
            "cannot reach metrics endpoint {addr}: {e} \
             (is a gateway running with serve --metrics-addr {addr}?)"
        )
    };
    let path = path.unwrap_or("/metrics");
    let (status, body) = http_get(addr, path, timeout).map_err(unreachable)?;
    if status != 200 {
        return Err(format!("GET {path} on {addr} returned HTTP {status}").into());
    }
    print!("{body}");
    if !body.ends_with('\n') {
        println!();
    }
    if events {
        let (status, body) = http_get(addr, "/events", timeout).map_err(unreachable)?;
        if status != 200 {
            return Err(format!("GET /events on {addr} returned HTTP {status}").into());
        }
        println!("{body}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
