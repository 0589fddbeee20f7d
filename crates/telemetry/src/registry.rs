//! The metrics registry: named counter/gauge/histogram families with
//! label support, rendered as Prometheus text exposition format or JSON.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! registered once and updated lock-free (counters and gauges are plain
//! `AtomicU64`s; histograms take an uncontended per-series mutex). The
//! registry lock is only taken at registration and render time, never on
//! the packet path.
//!
//! A Prometheus render writes every line in place into one `String`: its
//! growth is all it allocates (`tests/render_allocs.rs` holds it to that),
//! and a histogram's mutex is held only to copy its buckets out.

use crate::histogram::{bounded, LatencyHistogram, BUCKETS};
use parking_lot::{Mutex, RwLock};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Label set of one series: sorted `(name, value)` pairs.
pub type Labels = Vec<(String, String)>;

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Arbitrary `f64` level.
    Gauge,
    /// A [`LatencyHistogram`] of durations.
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword for the exposition format.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle (stored as `f64` bits in an `AtomicU64`).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram handle; one mutex per series, so per-shard series never
/// contend.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<LatencyHistogram>>);

impl Histogram {
    /// Records one duration sample.
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.0.lock().record(d);
    }

    /// Records `count` samples of `nanos` each in O(1) under one lock —
    /// the bulk path batch-profiling sinks fold stage means through.
    #[inline]
    pub fn observe_nanos_n(&self, nanos: u64, count: u64) {
        self.0.lock().record_n(Duration::from_nanos(nanos), count);
    }

    /// Clones out the current histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.lock().clone()
    }

    /// Merges a locally accumulated histogram in one lock acquisition —
    /// the flush path for batch-buffered sinks.
    pub fn merge(&self, other: &LatencyHistogram) {
        self.0.lock().merge(other);
    }
}

#[derive(Debug, Clone)]
enum Series {
    Int(Arc<AtomicU64>),
    Float(Arc<AtomicU64>),
    Histo(Arc<Mutex<LatencyHistogram>>),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    series: BTreeMap<Labels, Series>,
}

/// A registry of metric families. Cheap to share (`Arc<Registry>`); all
/// updates go through handles.
#[derive(Debug, Default)]
pub struct Registry {
    families: RwLock<BTreeMap<String, Family>>,
}

fn own_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
    ) -> Series {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name {name:?}"
        );
        let mut families = self.families.write();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} registered as {} and {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
            .series
            .entry(own_labels(labels))
            .or_insert_with(|| match kind {
                MetricKind::Counter => Series::Int(Arc::new(AtomicU64::new(0))),
                MetricKind::Gauge => Series::Float(Arc::new(AtomicU64::new(0f64.to_bits()))),
                MetricKind::Histogram => {
                    Series::Histo(Arc::new(Mutex::new(LatencyHistogram::new())))
                }
            })
            .clone()
    }

    /// Registers (or re-fetches) a counter series.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or if `name` was already
    /// registered with a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels) {
            Series::Int(v) => Counter(v),
            _ => unreachable!("counter registration returned a non-counter series"),
        }
    }

    /// Registers (or re-fetches) a gauge series.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or kind conflict.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, labels) {
            Series::Float(v) => Gauge(v),
            _ => unreachable!("gauge registration returned a non-gauge series"),
        }
    }

    /// Registers (or re-fetches) a histogram series.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or kind conflict.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, MetricKind::Histogram, labels) {
            Series::Histo(v) => Histogram(v),
            _ => unreachable!("histogram registration returned a non-histogram series"),
        }
    }

    /// Value of one counter series, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let families = self.families.read();
        match families.get(name)?.series.get(&own_labels(labels))? {
            Series::Int(v) => Some(v.load(Ordering::Relaxed)),
            _ => None,
        }
    }

    /// Sum of every series of a counter family (0 if unregistered).
    pub fn family_sum(&self, name: &str) -> u64 {
        let families = self.families.read();
        families.get(name).map_or(0, |f| {
            f.series
                .values()
                .map(|s| match s {
                    Series::Int(v) => v.load(Ordering::Relaxed),
                    _ => 0,
                })
                .sum()
        })
    }

    /// Flattened `(family, labels, value)` view of every counter series —
    /// the input to rolling-rate computation.
    pub fn counter_snapshot(&self) -> Vec<(String, Labels, u64)> {
        let families = self.families.read();
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            if family.kind != MetricKind::Counter {
                continue;
            }
            for (labels, series) in &family.series {
                if let Series::Int(v) = series {
                    out.push((name.clone(), labels.clone(), v.load(Ordering::Relaxed)));
                }
            }
        }
        out
    }

    /// Flattened `(family, labels, histogram)` view of every histogram
    /// series — the input to latency SLO evaluation.
    pub fn histogram_snapshot(&self) -> Vec<(String, Labels, LatencyHistogram)> {
        let families = self.families.read();
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            if family.kind != MetricKind::Histogram {
                continue;
            }
            for (labels, series) in &family.series {
                if let Series::Histo(h) = series {
                    out.push((name.clone(), labels.clone(), h.lock().clone()));
                }
            }
        }
        out
    }

    /// Renders every family in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, one
    /// `name{labels} value` line per series, and `_bucket`/`_sum`/`_count`
    /// triples (with `le` in seconds) for histograms. Everything is written
    /// in place into the one returned `String`, so its growth is all a
    /// render allocates; a histogram is copied out under its lock and
    /// formatted after the lock is released, so a shard's flush never waits
    /// on formatting.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counts = [0u64; BUCKETS];
        let families = self.families.read();
        for (name, family) in families.iter() {
            for (header, text) in [("HELP", &family.help[..]), ("TYPE", family.kind.as_str())] {
                let _ = write!(out, "# {header} {name} ");
                push_escaped(&mut out, text, false);
                out.push('\n');
            }
            for (labels, series) in &family.series {
                let sample = |out: &mut String, suffix, le, value: &dyn Display| {
                    push_sample(out, (name, suffix), labels, le, value);
                };
                match series {
                    Series::Int(v) => sample(&mut out, "", None, &v.load(Ordering::Relaxed)),
                    Series::Float(v) => match f64::from_bits(v.load(Ordering::Relaxed)) {
                        f64::INFINITY => sample(&mut out, "", None, &"+Inf"),
                        f64::NEG_INFINITY => sample(&mut out, "", None, &"-Inf"),
                        v => sample(&mut out, "", None, &v),
                    },
                    Series::Histo(h) => {
                        let (count, sum_nanos) = h.lock().copy_into(&mut counts);
                        let mut cumulative = 0u64;
                        // The clamped bucket's bound, `u64::MAX`, is the
                        // closing `+Inf` line's, which carries `count`.
                        for (bound_nanos, n) in bounded(&counts) {
                            if bound_nanos == u64::MAX {
                                break;
                            }
                            cumulative += n;
                            let le = bound_nanos as f64 / 1e9;
                            sample(&mut out, "_bucket", Some(le), &cumulative);
                        }
                        sample(&mut out, "_bucket", Some(f64::INFINITY), &count);
                        sample(&mut out, "_sum", None, &(sum_nanos as f64 / 1e9));
                        sample(&mut out, "_count", None, &count);
                    }
                }
            }
        }
        out
    }

    /// Renders every family as a JSON object (`name → {help, type,
    /// series: [{labels, value…}]}`), reusing the serde value model.
    pub fn render_json(&self) -> String {
        let families = self.families.read();
        let mut family_values: Vec<(String, Value)> = Vec::new();
        for (name, family) in families.iter() {
            let mut series_values: Vec<Value> = Vec::new();
            for (labels, series) in &family.series {
                let label_map = Value::Map(
                    labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                );
                let mut fields = vec![("labels".to_string(), label_map)];
                match series {
                    Series::Int(v) => {
                        fields.push(("value".to_string(), Value::UInt(v.load(Ordering::Relaxed))));
                    }
                    Series::Float(v) => {
                        fields.push((
                            "value".to_string(),
                            Value::Float(f64::from_bits(v.load(Ordering::Relaxed))),
                        ));
                    }
                    Series::Histo(h) => {
                        let h = h.lock().clone();
                        let buckets: Vec<Value> = h
                            .buckets()
                            .map(|(bound, n)| Value::Seq(vec![Value::UInt(bound), Value::UInt(n)]))
                            .collect();
                        fields.push(("count".to_string(), Value::UInt(h.count())));
                        fields.push(("sum_nanos".to_string(), Value::UInt(h.sum_nanos())));
                        fields.push(("buckets".to_string(), Value::Seq(buckets)));
                    }
                }
                series_values.push(Value::Map(fields));
            }
            family_values.push((
                name.clone(),
                Value::Map(vec![
                    ("help".to_string(), Value::Str(family.help.clone())),
                    (
                        "type".to_string(),
                        Value::Str(family.kind.as_str().to_string()),
                    ),
                    ("series".to_string(), Value::Seq(series_values)),
                ]),
            ));
        }
        serde_json::to_string(&Value::Map(family_values)).expect("metric JSON always serializes")
    }
}

/// Appends one sample line: the family name and `suffix`, then
/// `{k="v",…}` (with `le` last, in seconds, `+Inf` when infinite) unless
/// there is no label at all, then `value` (a float as `{}` writes it, the
/// shortest form that reads back; an infinite one comes as the format's
/// `+Inf` or `-Inf`).
fn push_sample(
    out: &mut String,
    (name, suffix): (&str, &str),
    labels: &Labels,
    le: Option<f64>,
    value: &dyn Display,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || le.is_some() {
        let mut sep = '{';
        for (k, v) in labels {
            let _ = write!(out, "{sep}{k}=\"");
            push_escaped(out, v, true);
            out.push('"');
            sep = ',';
        }
        match le {
            Some(le) if le == f64::INFINITY => {
                let _ = write!(out, "{sep}le=\"+Inf\"");
            }
            Some(le) => {
                let _ = write!(out, "{sep}le=\"{le}\"");
            }
            None => {}
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// Appends `text` escaped for the exposition format: `\` → `\\` and
/// newline → `\n`, and `"` → `\"` where `quoted` (a label value). The
/// escaped bytes are ASCII, so every cut falls on a character boundary.
fn push_escaped(out: &mut String, text: &str, quoted: bool) {
    let mut run = 0;
    for (at, byte) in text.bytes().enumerate() {
        let escaped = match byte {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'"' if quoted => "\\\"",
            _ => continue,
        };
        out.push_str(&text[run..at]);
        out.push_str(escaped);
        run = at + 1;
    }
    out.push_str(&text[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("test_frames_total", "frames", &[("shard", "0")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(
            r.counter_value("test_frames_total", &[("shard", "0")]),
            Some(5)
        );
        assert_eq!(
            r.counter_value("test_frames_total", &[("shard", "1")]),
            None
        );
        let g = r.gauge("test_version", "ruleset version", &[]);
        g.set(3.0);
        assert_eq!(g.get(), 3.0);
        // Re-registration returns a handle to the same series.
        let c2 = r.counter("test_frames_total", "frames", &[("shard", "0")]);
        c2.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn family_sum_spans_label_sets() {
        let r = Registry::new();
        r.counter("drops_total", "", &[("reason", "a")]).add(2);
        r.counter("drops_total", "", &[("reason", "b")]).add(3);
        assert_eq!(r.family_sum("drops_total"), 5);
        assert_eq!(r.family_sum("missing"), 0);
        assert_eq!(r.counter_snapshot().len(), 2);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let r = Registry::new();
        let a = r.counter("x_total", "", &[("b", "2"), ("a", "1")]);
        let b = r.counter("x_total", "", &[("a", "1"), ("b", "2")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(r.render_prometheus().contains("x_total{a=\"1\",b=\"2\"} 2"));
    }

    #[test]
    fn prometheus_render_has_headers_and_escapes() {
        let r = Registry::new();
        r.counter("t_total", "say \"hi\"\nplease", &[("q", "a\"b")])
            .inc();
        let text = r.render_prometheus();
        assert!(text.contains("# HELP t_total say \"hi\"\\nplease"));
        assert!(text.contains("# TYPE t_total counter"));
        assert!(text.contains("t_total{q=\"a\\\"b\"} 1"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", "latency", &[("shard", "0")]);
        h.observe(Duration::from_nanos(1));
        h.observe(Duration::from_nanos(3));
        h.observe(Duration::from_nanos(3));
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE lat_seconds histogram"));
        // Bucket bounds are cumulative and end with +Inf == count.
        assert!(text.contains("lat_seconds_bucket{shard=\"0\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_seconds_count{shard=\"0\"} 3"));
        assert_eq!(h.snapshot().count(), 3);
    }

    #[test]
    fn json_render_parses_back() {
        let r = Registry::new();
        r.counter("a_total", "as", &[("k", "v")]).add(7);
        r.gauge("b", "bs", &[]).set(1.5);
        r.histogram("h_seconds", "hs", &[])
            .observe(Duration::from_nanos(9));
        let json = r.render_json();
        let v = serde_json::parse_value_str(&json).unwrap();
        let a = v.get("a_total").unwrap();
        assert_eq!(a.get("type").and_then(Value::as_str), Some("counter"));
        let series = a.get("series").unwrap().as_seq().unwrap();
        assert_eq!(series.len(), 1);
        assert!(v.get("h_seconds").is_some());
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("same", "", &[]);
        r.gauge("same", "", &[]);
    }
}
