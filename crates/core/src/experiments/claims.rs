//! The evaluation's claims, each stated once. A row of [`CLAIMS`] names an
//! experiment, says in words what its report must show, and checks that on
//! the JSON of the run `results_are_current` already makes: seed 2020, the
//! default profile, the registered axes. So every claim holds for the code
//! as it is and for whatever `results/` is next regenerated to. Claims on
//! wall-clock ratios that need a release build (F17's engine gates, F20's
//! 10× publish speed-up) stay in `ci.sh`.

use p4guard_features::select::SelectionStrategy;
use p4guard_packet::trace::AttackFamily;
use serde_json::Value;

/// What `path` names in `report`, or `Null` (so a claim on a key that is
/// not there fails). Steps are `.`-separated: a map key, a sequence index,
/// `last`, or `field=value` for the first element of a sequence whose
/// `field` starts with `value` (a string) or equals it (a number).
fn at<'a>(report: &'a Value, path: &str) -> &'a Value {
    path.split('.').fold(report, |value, step| {
        let items = value.as_seq().unwrap_or_default();
        let found = match (step.parse::<usize>(), step.split_once('=')) {
            (Ok(i), _) => items.get(i),
            (_, Some((field, want))) => items.iter().find(|item| {
                text(item, field).starts_with(want) || num(item, field).to_string() == want
            }),
            _ if step == "last" => items.last(),
            _ => value.get(step),
        };
        found.unwrap_or(&Value::Null)
    })
}

/// The number at `path`, or NaN, which fails every comparison.
fn num(report: &Value, path: &str) -> f64 {
    match *at(report, path) {
        Value::Float(x) => x,
        Value::UInt(n) => n as f64,
        Value::Int(n) => n as f64,
        _ => f64::NAN,
    }
}

fn yes(report: &Value, path: &str) -> bool {
    *at(report, path) == Value::Bool(true)
}

fn text<'a>(report: &'a Value, path: &str) -> &'a str {
    at(report, path).as_str().unwrap_or_default()
}

fn rows<'a>(report: &'a Value, path: &str) -> &'a [Value] {
    at(report, path).as_seq().unwrap_or_default()
}

/// Whether the sequence at `path` has elements and `claim` holds for each.
fn all(report: &Value, path: &str, claim: impl Fn(&Value) -> bool) -> bool {
    let rows = rows(report, path);
    !rows.is_empty() && rows.iter().all(claim)
}

/// The mean of `of` over the sequence at `path` (NaN when it is empty).
fn mean(report: &Value, path: &str, of: impl Fn(&Value) -> f64) -> f64 {
    let rows = rows(report, path);
    rows.iter().map(of).sum::<f64>() / rows.len() as f64
}

/// Whether a report shows a claim.
type Holds = fn(&Value) -> bool;

/// `(experiment id, the claim in words, whether its report shows it)`.
#[rustfmt::skip]
pub(super) const CLAIMS: &[(&str, &str, Holds)] = &[
    ("t1", "three scenarios are generated", |r| rows(r, "scenarios").len() == 3),
    ("t1", "every scenario holds over 1,000 packets", |r| all(r, "scenarios", |s| num(s, "1.total") > 1000.0)),
    ("t1", "every scenario is over 5 % attack", |r| all(r, "scenarios", |s| 1.0 - num(s, "1.benign") / num(s, "1.total") > 0.05)),
    ("t2", "six methods are compared", |r| rows(r, "rows").len() == 6),
    ("t2", "two-stage rules reach F1 > 0.8", |r| num(r, "rows.name=two-stage.metrics.f1") > 0.8),
    ("t2", "two-stage beats the 5-tuple firewall by > 0.15 F1", |r| num(r, "rows.name=two-stage.metrics.f1") > num(r, "rows.name=5-tuple.metrics.f1") + 0.15),
    ("t2", "the full DNN reaches F1 > 0.85", |r| num(r, "rows.name=full DNN.metrics.f1") > 0.85),
    ("t2", "two-stage rules deploy to the data plane, the full DNN does not", |r| yes(r, "rows.name=two-stage.cost.deployable") && *at(r, "rows.name=full DNN.cost.deployable") == Value::Bool(false)),
    ("t3", "six phases are timed", |r| rows(r, "phases").len() == 6),
    ("t3", "rules are generated at a positive rate", |r| num(r, "rules_per_sec") > 0.0),
    ("f1", "at k = 2 learned selection beats random", |r| num(r, "points.k=2.f1_learned") > num(r, "points.k=2.f1_random")),
    ("f1", "at k = 8 learned selection reaches F1 > 0.8", |r| num(r, "points.k=8.f1_learned") > 0.8),
    ("f2", "depth 6 has at least depth 1's leaves", |r| num(r, "points.max_depth=6.leaves") >= num(r, "points.max_depth=1.leaves")),
    ("f2", "depth 6 loses under 0.05 F1 to depth 1", |r| num(r, "points.max_depth=6.f1") >= num(r, "points.max_depth=1.f1") - 0.05),
    ("f3", "range entries are no more than ternary ones", |r| num(r, "rows.name=two-stage (range.entries") <= num(r, "rows.name=two-stage (k=.entries")),
    ("f3", "two-stage keys are under a quarter of all bytes'", |r| num(r, "rows.name=two-stage (k=.key_bits") < num(r, "rows.name=all-bytes.key_bits") / 4.0),
    ("f3", "two-stage rules take less memory than all bytes'", |r| num(r, "rows.name=two-stage (k=.memory_bits") < num(r, "rows.name=all-bytes.memory_bits")),
    ("f4", "the guard replays at over 1,000 pps", |r| num(r, "guard_point.pps") > 1000.0),
    ("f4", "the guard drops over 5 % of the test trace", |r| num(r, "guard_point.drop_fraction") > 0.05),
    ("f4", "six key widths and five table sizes", |r| rows(r, "key_width_sweep").len() == 6 && rows(r, "table_size_sweep").len() == 5),
    ("f4", "the scan's smallest table outruns its largest", |r| num(r, "table_size_sweep.0.pps") > num(r, "table_size_sweep.last.pps")),
    ("f4", "the gateway serves at a positive rate", |r| num(r, "gateway.batched_pps") > 0.0),
    ("f5", "stage 1 trains two epochs or more", |r| rows(r, "stage1.epochs").len() >= 2),
    ("f5", "stage-1 loss falls from first epoch to last", |r| num(r, "stage1.epochs.last.loss") < num(r, "stage1.epochs.0.loss")),
    ("f5", "both stages end above 0.85 accuracy", |r| num(r, "stage1.epochs.last.train_accuracy") > 0.85 && num(r, "stage2.epochs.last.train_accuracy") > 0.85),
    ("f6", "the ZWire hijack is the non-IP row", |r| text(r, "rows.family=zwire-hijack.protocol") == "zwire (non-IP)"),
    ("f6", "two-stage catches the ZWire hijack: F1 > 0.85", |r| num(r, "rows.family=zwire.f1_two_stage") > 0.85),
    ("f6", "on ZWire two-stage beats 5-tuple by > 0.3 F1", |r| num(r, "rows.family=zwire.f1_two_stage") - num(r, "rows.family=zwire.f1_five_tuple") > 0.3),
    ("f6", "two-stage catches the spoofed SYN flood: F1 > 0.85", |r| num(r, "rows.family=syn-flood.f1_two_stage") > 0.85),
    ("f6", "spoofed tuples defeat the 5-tuple firewall: F1 < 0.5", |r| num(r, "rows.family=syn-flood.f1_five_tuple") < 0.5),
    ("f6", "on the SYN flood two-stage beats 5-tuple", |r| num(r, "rows.family=syn-flood.f1_two_stage") > num(r, "rows.family=syn-flood.f1_five_tuple")),
    ("f6", "no Modbus code, Modbus abuse at F1 > 0.65", |r| num(r, "rows.family=modbus.f1_two_stage") > 0.65),
    ("f6", "two-stage catches the MQTT flood: F1 > 0.75", |r| num(r, "rows.family=mqtt.f1_two_stage") > 0.75),
    ("f6", "two-stage catches the DNS tunnel: F1 > 0.8", |r| num(r, "rows.family=dns.f1_two_stage") > 0.8),
    ("f7", "four ROC curves", |r| rows(r, "curves").len() == 4),
    ("f7", "the two-stage network's AUC > 0.9", |r| num(r, "curves.name=two-stage.auc") > 0.9),
    ("f8", "one row per selection strategy", |r| rows(r, "rows").len() == SelectionStrategy::ALL.len()),
    ("f8", "saliency loses under 0.02 F1 to random", |r| num(r, "rows.strategy=saliency.f1") >= num(r, "rows.strategy=random.f1") - 0.02),
    ("f9", "one recall row per attack family", |r| rows(r, "rows").len() == AttackFamily::ALL.len()),
    ("f9", "benign FPR < 0.2", |r| num(r, "benign_fpr") < 0.2),
    ("f9", "mean recall over families > 0.6", |r| mean(r, "rows", |row| num(row, "2")) > 0.6),
    ("f10", "one point per occupancy", |r| rows(r, "points").len() == 5),
    ("f10", "every insert takes measurable time", |r| all(r, "points", |p| num(p, "insert.secs") + num(p, "insert.nanos") > 0.0)),
    ("f11", "four design variants", |r| rows(r, "rows").len() == 4),
    ("f11", "every variant reaches F1 > 0.6", |r| all(r, "rows", |row| num(row, "f1") > 0.6)),
    ("f12", "clean F1 > 0.75", |r| num(r, "points.0.f1") > 0.75),
    ("f12", "half the frames corrupted costs under 0.25 F1", |r| num(r, "points.last.f1") > num(r, "points.0.f1") - 0.25),
    ("f13", "mean family identification recall > 0.9", |r| mean(r, "rows", |row| num(row, "identified") / num(row, "actual")) > 0.9),
    ("f14", "30 s retraining retrains more than static", |r| num(r, "rows.strategy=retrain every 30.retrains") > num(r, "rows.strategy=static.retrains")),
    ("f14", "it catches the novel attack: recall > static + 0.3", |r| num(r, "rows.strategy=retrain every 30.recall_novel") > num(r, "rows.strategy=static.recall_novel") + 0.3),
    ("f14", "it keeps known-attack recall > 0.8", |r| num(r, "rows.strategy=retrain every 30.recall_known") > 0.8),
    ("f14", "it keeps FPR < 0.2", |r| num(r, "rows.strategy=retrain every 30.fpr") < 0.2),
    ("f15_observe", "the traced replay serves frames and leaves traces", |r| num(r, "replay.frames") > 0.0 && num(r, "replay.traces") > 0.0),
    ("f15_observe", "the swap audit event joins the trace store", |r| yes(r, "replay.swap_trace_joined")),
    ("f15_observe", "the exemplar has a root and a stage child", |r| num(r, "replay.exemplar_spans") >= 2.0),
    ("f15_observe", "the exemplar names its slowest stage", |r| !text(r, "replay.slow_stage").is_empty()),
    ("f15_observe", "stage spans sum to 0.1-3x the frame span", |r| { let x = num(r, "replay.stage_sum_ratio"); x > 0.1 && x < 3.0 }),
    ("f15_observe", "the attack wave trips the victim's burn gauge above quiet", |r| yes(r, "wave.tripped") && num(r, "wave.attack_burn") > num(r, "wave.quiet_burn")),
    ("f16_forest", "two tasks", |r| rows(r, "tasks").len() == 2),
    ("f16_forest", "each task charts 3 sizes x 2 depths", |r| all(r, "tasks", |t| rows(t, "points").len() == 6)),
    ("f16_forest", "accuracy in [0, 1], minimizing adds no entries", |r| all(r, "tasks", |t| all(t, "points", |p| (0.0..=1.0).contains(&num(p, "accuracy")) && num(p, "entries_minimized") <= num(p, "entries")))),
    ("f16_forest", "every 1-tree baseline is admitted", |r| all(r, "tasks", |t| all(t, "points", |p| num(p, "trees") != 1.0 || yes(p, "admitted")))),
    ("f16_forest", "trimming keeps or drops each tree", |r| all(r, "tasks", |t| num(t, "trim.kept") + num(t, "trim.dropped") == num(t, "trim.submitted"))),
    ("f16_forest", "some forest matches its baseline", |r| yes(r, "gate_matches_baseline")),
    ("f16_forest", "some forest beats it within 3x the entries", |r| yes(r, "gate_beats_baseline")),
    ("f16_forest", "a best forest is admitted within budget", |r| yes(r, "gate_within_budget")),
    ("f16_forest", "the live vote phase conserves frames", |r| yes(r, "live.conserved")),
    ("f16_forest", "the live phase serves an ensemble", |r| num(r, "live.trees") > 1.0),
    ("f16_forest", "a one-tree edit re-lowers one stage, shares the rest", |r| num(r, "live.delta_recompiled") == 1.0 && num(r, "live.delta_shared") == num(r, "live.trees") - 1.0),
    ("f16_forest", "early exits are at most the frames", |r| num(r, "live.vote_exits") <= num(r, "live.frames")),
    ("f17_lookup", "six series at five sizes", |r| rows(r, "points").len() == 30),
    ("f17_lookup", "every scan and compiled rate is positive", |r| all(r, "points", |p| num(p, "scan_pps") > 0.0 && num(p, "compiled_pps") > 0.0)),
    ("f17_lookup", "exact tables compile to the bit-vector", |r| all(r, "points", |p| text(p, "series") != "exact" || text(p, "strategy") == "bit-vector")),
    ("f17_lookup", "exact at 1,024 entries: > 2x the scan", |r| { let p = at(r, "points.3"); text(p, "series") == "exact" && num(p, "entries") == 1024.0 && num(p, "speedup") > 2.0 }),
    ("f18_adapt", "two recovery paths", |r| rows(r, "paths").len() == 2),
    ("f18_adapt", "the shifted regime is promoted fleet-wide", |r| text(r, "paths.path=promote.outcome") == "promoted" && yes(r, "paths.path=promote.fleet_converged")),
    ("f18_adapt", "one version up", |r| num(r, "paths.path=promote.final_version") == num(r, "paths.path=promote.baseline_version") + 1.0),
    ("f18_adapt", "shadow starts after some frames", |r| num(r, "paths.path=promote.frames_to_shadow") > 0.0),
    ("f18_adapt", "shadow, canary, outcome in order", |r| all(r, "paths", |p| num(p, "frames_to_shadow") <= num(p, "frames_to_canary") && num(p, "frames_to_canary") <= num(p, "frames_to_outcome"))),
    ("f18_adapt", "the poisoned candidate is rolled back", |r| text(r, "paths.path=rollback.outcome") == "rolled_back"),
    ("f18_adapt", "to the exact baseline, fleet-wide", |r| yes(r, "paths.path=rollback.fleet_converged") && num(r, "paths.path=rollback.final_version") == num(r, "paths.path=rollback.baseline_version")),
    ("f19_fleet", "four tenants", |r| rows(r, "tenants").len() == 4),
    ("f19_fleet", "every frame resolves to a tenant", |r| num(r, "unknown_tenant") == 0.0),
    ("f19_fleet", "the oversized publish is rejected", |r| num(r, "rejected_publishes") >= 1.0),
    ("f19_fleet", "the padded publish is trimmed", |r| num(r, "trimmed_entries") > 0.0),
    ("f19_fleet", "every tenant is within budget, its gateway agrees with offline", |r| all(r, "tenants", |t| yes(t, "within_budget") && yes(t, "gateway_agrees"))),
    ("f19_fleet", "every tenant sends frames and attacks", |r| all(r, "tenants", |t| num(t, "frames") > 0.0 && num(t, "attack_frames") > 0.0)),
    ("f19_fleet", "every tenant's accuracy > 0.9", |r| all(r, "tenants", |t| num(t, "accuracy") > 0.9)),
    ("f20_minimize", "one margin per depth", |r| rows(r, "margins").len() == 4),
    ("f20_minimize", "every ruleset has entries, minimizing adds none nor bits", |r| all(r, "margins", |m| num(m, "entries_source") > 0.0 && num(m, "entries_minimized") <= num(m, "entries_source") && num(m, "tcam_bits_minimized") <= num(m, "tcam_bits"))),
    ("f20_minimize", "some learned ruleset minimizes", |r| rows(r, "margins").iter().any(|m| num(m, "margin") > 0.0)),
    ("f20_minimize", "the delta pipeline is probed against its twin", |r| num(r, "equality_probes") > 0.0),
    ("f20_minimize", "the live delta chain conserves frames", |r| yes(r, "conserved")),
    ("f20_minimize", "one delta lands per 500-frame live chunk", |r| num(r, "live_publishes") * 500.0 == num(r, "live_frames")),
    ("f20_minimize", "incremental publish beats from-scratch", |r| num(r, "speedup") > 1.0),
];
