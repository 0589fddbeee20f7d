//! Round-trips the Prometheus text exposition through a small
//! line-oriented parser: every sample the registry renders must parse
//! back to the exact name, labels and value it was registered with, and
//! the format invariants scrapers rely on (HELP/TYPE headers, sorted
//! labels, cumulative histogram buckets) must hold on the wire.

use p4guard_telemetry::Registry;
use std::collections::BTreeMap;
use std::time::Duration;

/// One parsed sample line: metric name, sorted label pairs, value.
#[derive(Debug, PartialEq)]
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

/// A deliberately strict parser for the subset of the exposition format
/// the registry emits. Panics (failing the test) on anything malformed:
/// unescaped quotes, missing values, label syntax errors, a float the
/// format does not spell (`inf` for `+Inf`), or two samples of one series
/// (a histogram bucket `le` repeated).
fn parse_exposition(text: &str) -> (Vec<Sample>, BTreeMap<String, String>) {
    let mut samples: Vec<Sample> = Vec::new();
    let mut types = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE {kind:?}"
            );
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "unexpected comment: {line}");
            continue;
        }
        let sample = parse_sample(line);
        assert!(
            !samples
                .iter()
                .any(|s| s.name == sample.name && s.labels == sample.labels),
            "a second sample of one series: {line}"
        );
        samples.push(sample);
    }
    (samples, types)
}

fn parse_sample(line: &str) -> Sample {
    let (head, value) = line.rsplit_once(' ').expect("sample has a value");
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        value => {
            let parsed: f64 = value.parse().expect("numeric sample value");
            assert!(
                parsed.is_finite(),
                "{value:?} is not how the format writes it"
            );
            parsed
        }
    };
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), BTreeMap::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').expect("closing brace");
            let mut labels = BTreeMap::new();
            let mut remaining = body;
            while !remaining.is_empty() {
                let (key, rest) = remaining.split_once("=\"").expect("label key=\"");
                let mut val = String::new();
                let mut chars = rest.chars();
                let mut consumed = 0;
                let mut escaped = false;
                for c in chars.by_ref() {
                    consumed += c.len_utf8();
                    if escaped {
                        val.push(match c {
                            'n' => '\n',
                            other => other,
                        });
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        break;
                    } else {
                        val.push(c);
                    }
                }
                labels.insert(key.to_string(), val);
                remaining = rest[consumed..]
                    .strip_prefix(',')
                    .unwrap_or(&rest[consumed..]);
            }
            (name.to_string(), labels)
        }
    };
    Sample {
        name,
        labels,
        value,
    }
}

fn find<'a>(samples: &'a [Sample], name: &str, want: &[(&str, &str)]) -> &'a Sample {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && want
                    .iter()
                    .all(|(k, v)| s.labels.get(*k).map(String::as_str) == Some(*v))
                && s.labels.len() == want.len()
        })
        .unwrap_or_else(|| panic!("no sample {name} with labels {want:?}"))
}

#[test]
fn exposition_round_trips_through_a_strict_parser() {
    let registry = Registry::new();
    registry
        .counter(
            "p4guard_frames_received_total",
            "Frames in",
            &[("shard", "0")],
        )
        .add(42);
    registry
        .counter(
            "p4guard_frames_received_total",
            "Frames in",
            &[("shard", "1")],
        )
        .add(7);
    registry
        .counter(
            "p4guard_drops_total",
            "Drops by reason",
            &[("shard", "0"), ("reason", "rule_drop")],
        )
        .add(3);
    registry
        .gauge("p4guard_ruleset_version", "Live version", &[])
        .set(5.0);
    let histo = registry.histogram(
        "p4guard_forward_latency_seconds",
        "Latency",
        &[("shard", "0")],
    );
    histo.observe(Duration::from_nanos(100));
    histo.observe(Duration::from_micros(10));
    histo.observe(Duration::from_millis(1));

    let text = registry.render_prometheus();
    let (samples, types) = parse_exposition(&text);

    // Family types survive the trip.
    assert_eq!(types["p4guard_frames_received_total"], "counter");
    assert_eq!(types["p4guard_ruleset_version"], "gauge");
    assert_eq!(types["p4guard_forward_latency_seconds"], "histogram");

    // Every registered value parses back exactly.
    let s = find(&samples, "p4guard_frames_received_total", &[("shard", "0")]);
    assert_eq!(s.value, 42.0);
    let s = find(&samples, "p4guard_frames_received_total", &[("shard", "1")]);
    assert_eq!(s.value, 7.0);
    let s = find(
        &samples,
        "p4guard_drops_total",
        &[("shard", "0"), ("reason", "rule_drop")],
    );
    assert_eq!(s.value, 3.0);
    let s = find(&samples, "p4guard_ruleset_version", &[]);
    assert_eq!(s.value, 5.0);

    // Histogram wire invariants: buckets are cumulative and monotonic,
    // the +Inf bucket equals _count, and _sum is in seconds.
    let buckets: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "p4guard_forward_latency_seconds_bucket")
        .collect();
    assert!(buckets.len() >= 2, "expected multiple buckets");
    let mut last = -1.0f64;
    let mut les: Vec<f64> = Vec::new();
    for b in &buckets {
        assert!(b.value >= last, "bucket counts must be cumulative");
        last = b.value;
        let le = b.labels.get("le").expect("bucket has le");
        les.push(if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse().expect("numeric le")
        });
    }
    assert!(
        les.windows(2).all(|w| w[0] < w[1]),
        "le bounds must be strictly increasing: {les:?}"
    );
    assert_eq!(*les.last().unwrap(), f64::INFINITY, "last bucket is +Inf");
    let count = find(
        &samples,
        "p4guard_forward_latency_seconds_count",
        &[("shard", "0")],
    );
    assert_eq!(count.value, 3.0);
    assert_eq!(buckets.last().unwrap().value, count.value);
    let sum = find(
        &samples,
        "p4guard_forward_latency_seconds_sum",
        &[("shard", "0")],
    );
    let expected = 100e-9 + 10e-6 + 1e-3;
    assert!(
        (sum.value - expected).abs() < 1e-12,
        "sum {} != {expected}",
        sum.value
    );
}

#[test]
fn label_values_with_quotes_and_backslashes_round_trip() {
    let registry = Registry::new();
    registry
        .counter(
            "odd_labels_total",
            "escaping",
            &[("table", "say \"hi\"\\now")],
        )
        .add(1);
    let text = registry.render_prometheus();
    let (samples, _) = parse_exposition(&text);
    let s = find(
        &samples,
        "odd_labels_total",
        &[("table", "say \"hi\"\\now")],
    );
    assert_eq!(s.value, 1.0);
}

mod golden;

/// The renderer's exact bytes for the golden registry.
#[test]
fn the_golden_registry_renders_to_the_golden_text() {
    let text = golden::registry().render_prometheus();
    assert_eq!(text, golden::TEXT, "rendered:\n{text}");
}

/// The golden text passes the strict parser: one `+Inf` bucket for the
/// histogram whose last sample was clamped, and the infinite gauges spelt
/// `+Inf` and `-Inf`.
#[test]
fn the_golden_text_parses_strictly() {
    let (samples, _) = parse_exposition(golden::TEXT);
    let level = |case| find(&samples, "golden_level", &[("case", case)]).value;
    assert_eq!(level("pos_inf"), f64::INFINITY);
    assert_eq!(level("neg_inf"), f64::NEG_INFINITY);
    assert!(level("nan").is_nan());
    let inf = find(
        &samples,
        "golden_latency_seconds_bucket",
        &[("shard", "1"), ("le", "+Inf")],
    );
    assert_eq!(inf.value, 3.0);
}

#[test]
#[should_panic(expected = "a second sample of one series")]
fn the_parser_rejects_a_repeated_le() {
    parse_exposition("h_bucket{le=\"+Inf\"} 3\nh_bucket{le=\"+Inf\"} 3\n");
}

#[test]
#[should_panic(expected = "is not how the format writes it")]
fn the_parser_rejects_lowercase_inf() {
    parse_exposition("g inf\n");
}
