//! One registry that exercises every corner of the text exposition, and
//! the exact text it renders to: a counter, gauges of NaN, ±inf, −0.0 and
//! 1e-9, a histogram with an empty, a middle and a clamped (`+Inf`)
//! bucket, label values carrying `\`, `"` and a newline, and help text
//! with a newline.

use p4guard_telemetry::Registry;
use std::time::Duration;

/// The golden registry.
pub fn registry() -> Registry {
    let registry = Registry::new();
    registry
        .counter(
            "golden_frames_total",
            "Frames in\nper shard, \\ included",
            &[("shard", "0"), ("path", "a\\b\"c\nd")],
        )
        .add(42);
    for (case, value) in [
        ("nan", f64::NAN),
        ("pos_inf", f64::INFINITY),
        ("neg_inf", f64::NEG_INFINITY),
        ("neg_zero", -0.0),
        ("tiny", 1e-9),
    ] {
        registry
            .gauge("golden_level", "Odd floats", &[("case", case)])
            .set(value);
    }
    registry.gauge("golden_plain", "No labels", &[]).set(2.5);
    let histo = registry.histogram("golden_latency_seconds", "Latency", &[("shard", "1")]);
    histo.observe(Duration::from_nanos(3));
    histo.observe(Duration::from_nanos(3));
    histo.observe(Duration::MAX);
    registry.histogram("golden_idle_seconds", "Never observed", &[]);
    registry
}

/// What [`registry`] renders to.
pub const TEXT: &str = r#"# HELP golden_frames_total Frames in\nper shard, \\ included
# TYPE golden_frames_total counter
golden_frames_total{path="a\\b\"c\nd",shard="0"} 42
# HELP golden_idle_seconds Never observed
# TYPE golden_idle_seconds histogram
golden_idle_seconds_bucket{le="+Inf"} 0
golden_idle_seconds_sum 0
golden_idle_seconds_count 0
# HELP golden_latency_seconds Latency
# TYPE golden_latency_seconds histogram
golden_latency_seconds_bucket{shard="1",le="0"} 0
golden_latency_seconds_bucket{shard="1",le="0.000000002"} 0
golden_latency_seconds_bucket{shard="1",le="0.000000004"} 2
golden_latency_seconds_bucket{shard="1",le="0.000000008"} 2
golden_latency_seconds_bucket{shard="1",le="0.000000016"} 2
golden_latency_seconds_bucket{shard="1",le="0.000000032"} 2
golden_latency_seconds_bucket{shard="1",le="0.000000064"} 2
golden_latency_seconds_bucket{shard="1",le="0.000000128"} 2
golden_latency_seconds_bucket{shard="1",le="0.000000256"} 2
golden_latency_seconds_bucket{shard="1",le="0.000000512"} 2
golden_latency_seconds_bucket{shard="1",le="0.000001024"} 2
golden_latency_seconds_bucket{shard="1",le="0.000002048"} 2
golden_latency_seconds_bucket{shard="1",le="0.000004096"} 2
golden_latency_seconds_bucket{shard="1",le="0.000008192"} 2
golden_latency_seconds_bucket{shard="1",le="0.000016384"} 2
golden_latency_seconds_bucket{shard="1",le="0.000032768"} 2
golden_latency_seconds_bucket{shard="1",le="0.000065536"} 2
golden_latency_seconds_bucket{shard="1",le="0.000131072"} 2
golden_latency_seconds_bucket{shard="1",le="0.000262144"} 2
golden_latency_seconds_bucket{shard="1",le="0.000524288"} 2
golden_latency_seconds_bucket{shard="1",le="0.001048576"} 2
golden_latency_seconds_bucket{shard="1",le="0.002097152"} 2
golden_latency_seconds_bucket{shard="1",le="0.004194304"} 2
golden_latency_seconds_bucket{shard="1",le="0.008388608"} 2
golden_latency_seconds_bucket{shard="1",le="0.016777216"} 2
golden_latency_seconds_bucket{shard="1",le="0.033554432"} 2
golden_latency_seconds_bucket{shard="1",le="0.067108864"} 2
golden_latency_seconds_bucket{shard="1",le="0.134217728"} 2
golden_latency_seconds_bucket{shard="1",le="0.268435456"} 2
golden_latency_seconds_bucket{shard="1",le="0.536870912"} 2
golden_latency_seconds_bucket{shard="1",le="1.073741824"} 2
golden_latency_seconds_bucket{shard="1",le="2.147483648"} 2
golden_latency_seconds_bucket{shard="1",le="4.294967296"} 2
golden_latency_seconds_bucket{shard="1",le="8.589934592"} 2
golden_latency_seconds_bucket{shard="1",le="17.179869184"} 2
golden_latency_seconds_bucket{shard="1",le="34.359738368"} 2
golden_latency_seconds_bucket{shard="1",le="68.719476736"} 2
golden_latency_seconds_bucket{shard="1",le="137.438953472"} 2
golden_latency_seconds_bucket{shard="1",le="274.877906944"} 2
golden_latency_seconds_bucket{shard="1",le="549.755813888"} 2
golden_latency_seconds_bucket{shard="1",le="1099.511627776"} 2
golden_latency_seconds_bucket{shard="1",le="2199.023255552"} 2
golden_latency_seconds_bucket{shard="1",le="4398.046511104"} 2
golden_latency_seconds_bucket{shard="1",le="8796.093022208"} 2
golden_latency_seconds_bucket{shard="1",le="17592.186044416"} 2
golden_latency_seconds_bucket{shard="1",le="35184.372088832"} 2
golden_latency_seconds_bucket{shard="1",le="70368.744177664"} 2
golden_latency_seconds_bucket{shard="1",le="140737.488355328"} 2
golden_latency_seconds_bucket{shard="1",le="281474.976710656"} 2
golden_latency_seconds_bucket{shard="1",le="562949.953421312"} 2
golden_latency_seconds_bucket{shard="1",le="1125899.906842624"} 2
golden_latency_seconds_bucket{shard="1",le="2251799.813685248"} 2
golden_latency_seconds_bucket{shard="1",le="4503599.627370496"} 2
golden_latency_seconds_bucket{shard="1",le="9007199.254740993"} 2
golden_latency_seconds_bucket{shard="1",le="18014398.509481985"} 2
golden_latency_seconds_bucket{shard="1",le="36028797.01896397"} 2
golden_latency_seconds_bucket{shard="1",le="72057594.03792794"} 2
golden_latency_seconds_bucket{shard="1",le="144115188.07585588"} 2
golden_latency_seconds_bucket{shard="1",le="288230376.15171176"} 2
golden_latency_seconds_bucket{shard="1",le="576460752.3034235"} 2
golden_latency_seconds_bucket{shard="1",le="1152921504.606847"} 2
golden_latency_seconds_bucket{shard="1",le="2305843009.213694"} 2
golden_latency_seconds_bucket{shard="1",le="4611686018.427388"} 2
golden_latency_seconds_bucket{shard="1",le="+Inf"} 3
golden_latency_seconds_sum{shard="1"} 18446744073.709553
golden_latency_seconds_count{shard="1"} 3
# HELP golden_level Odd floats
# TYPE golden_level gauge
golden_level{case="nan"} NaN
golden_level{case="neg_inf"} -Inf
golden_level{case="neg_zero"} -0
golden_level{case="pos_inf"} +Inf
golden_level{case="tiny"} 0.000000001
# HELP golden_plain No labels
# TYPE golden_plain gauge
golden_plain 2.5
"#;
