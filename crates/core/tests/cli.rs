//! End-to-end test of the `p4guard-cli` binary: generate → train →
//! evaluate → export, the operator workflow.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_p4guard-cli"))
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join("p4guard-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_operator_workflow() {
    let dir = workdir();
    let trace = dir.join("trace.p4gt");
    let pcap = dir.join("trace.pcap");
    let model = dir.join("guard.json");
    let p4dir = dir.join("p4");

    // generate
    let out = cli()
        .args(["generate", "--scenario", "smart-home", "--seed", "5"])
        .args(["--out", trace.to_str().unwrap()])
        .args(["--pcap", pcap.to_str().unwrap()])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());
    assert!(pcap.exists());
    // The pcap mirror is a valid classic pcap.
    let loaded = p4guard_packet::pcap::load_pcap(&pcap).unwrap();
    assert!(loaded.len() > 1000);

    // train (fast profile keeps the test quick)
    let out = cli()
        .args(["train", "--trace", trace.to_str().unwrap()])
        .args(["--out", model.to_str().unwrap()])
        .args(["--k", "6", "--fast"])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rules"), "stdout: {stdout}");
    assert!(model.exists());

    // evaluate
    let out = cli()
        .args(["evaluate", "--model", model.to_str().unwrap()])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("F1"), "stdout: {stdout}");

    // export
    let out = cli()
        .args(["export", "--model", model.to_str().unwrap()])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--out-dir", p4dir.to_str().unwrap()])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let program = std::fs::read_to_string(p4dir.join("guard.p4")).unwrap();
    assert!(program.contains("table guard_acl"));
    let entries = std::fs::read_to_string(p4dir.join("entries.txt")).unwrap();
    assert!(entries.contains("table_add"));

    // stats
    let out = cli()
        .args(["stats", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("cli runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("per protocol"));
}

#[test]
fn bad_arguments_fail_cleanly() {
    let out = cli().args(["nonsense"]).output().expect("cli runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = cli()
        .args(["train", "--k", "8"])
        .output()
        .expect("cli runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));

    // Unknown flags are rejected by name instead of being taken as
    // value-bearing: the removed `--batched` must not swallow `--tracing`,
    // nor a typo the boolean flag after it.
    for (args, flag) in [
        (["serve", "--batched", "--tracing"], "--batched"),
        (["serve", "--trcing", "--adapt"], "--trcing"),
        (["train", "--fsat", "--fast"], "--fsat"),
    ] {
        let out = cli().args(args).output().expect("cli runs");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn hostile_model_json_is_an_error_not_a_panic() {
    use p4guard::config::GuardConfig;
    use p4guard::pipeline::TwoStagePipeline;
    use p4guard_traffic::scenario::Scenario;

    let dir = workdir();
    let trace_path = dir.join("hostile-trace.p4gt");
    let model_path = dir.join("hostile.json");
    let trace = Scenario::smart_home_default(5).generate().unwrap();
    trace.save(&trace_path).unwrap();
    let guard = TwoStagePipeline::new(GuardConfig::fast())
        .train(&trace)
        .unwrap();

    // A well-formed model whose ruleset holds one ragged entry: a 1-byte
    // value under a key-width mask. Serde accepts it — `RuleSet::push` and
    // `TernaryEntry::new` never run — and classify/optimize used to panic.
    let width = guard.compiled.ternary.key_width();
    let rules = serde_json::to_string(&guard.compiled.ternary).unwrap();
    let hostile_rules = format!(
        r#"{{"key_width":{width},"entries":[{{"value":[1],"mask":{:?},"class":1,"priority":1}}],"default_class":0}}"#,
        vec![255u8; width]
    )
    .replace(' ', "");
    let json = guard.to_json();
    assert!(json.contains(&rules), "ruleset JSON is embedded verbatim");
    std::fs::write(&model_path, json.replace(&rules, &hostile_rules)).unwrap();

    let out = cli()
        .args(["evaluate", "--model", model_path.to_str().unwrap()])
        .args(["--trace", trace_path.to_str().unwrap()])
        .output()
        .expect("cli runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "hostile model must be rejected");
    assert!(stderr.contains("error: "), "stderr: {stderr}");
    assert!(stderr.contains("entry 0"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
