//! In-memory spans recorded from the ledger's own code around the calls
//! into each crate, and the allocation counter that goes with them.
//!
//! End-to-end numbers are measured with the tracer disabled (`enter` is one
//! branch); the traced run enables it and derives the per-layer numbers
//! from the spans: total time per name, and self time = a span's duration
//! minus the part of it its child spans cover.

use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that was open on this
/// thread when this one was entered; `trial` groups the spans of one pass;
/// `allocs` is what this thread allocated inside it (children included)
/// while [`count_allocs`] was on.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub trial: u32,
    pub allocs: u64,
}

/// Handle returned by [`Tracer::enter`]; `None` inside when disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Span recorder for the one thread that drives a workload (the dispatcher
/// / inline thread — the ledger never traces from a shard worker).
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    trial: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            trial: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off between passes (no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled between spans");
        self.enabled = enabled;
    }

    /// Starts a new pass; later spans carry the new trial number.
    pub fn next_trial(&mut self) {
        self.trial += 1;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            trial: self.trial,
            // Holds the counter at entry until `exit` turns it into a delta.
            allocs: allocs_thread(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.allocs = allocs_thread() - span.allocs;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans exit in LIFO order");
    }

    /// Total nanoseconds and allocations of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, allocs), s| {
                (ns + s.end_ns - s.start_ns, allocs + s.allocs)
            })
    }

    /// Microseconds of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn to_value(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p.into())),
                    ),
                    ("trial".into(), Value::UInt(s.trial.into())),
                    ("allocs".into(), Value::UInt(s.allocs)),
                ])
            })
            .collect();
        let rollup = rollup(&self.spans)
            .into_iter()
            .map(|(name, r)| {
                (
                    name.to_owned(),
                    Value::Map(vec![
                        ("count".into(), Value::UInt(r.count)),
                        ("total_ns".into(), Value::UInt(r.total_ns)),
                        ("self_ns".into(), Value::UInt(r.self_ns)),
                    ]),
                )
            })
            .collect();
        Value::Map(vec![
            ("rollup".into(), Value::Map(rollup)),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rollup {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Total and self time per span name. Children of one parent never overlap
/// (one thread, LIFO), so the covered part is the sum of their durations.
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, Rollup> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let total = s.end_ns - s.start_ns;
        let r = out.entry(s.name).or_default();
        r.count += 1;
        r.total_ns += total;
        r.self_ns += total.saturating_sub(covered);
    }
    out
}

/// Counts allocations while [`count_allocs`] is on: process-wide in an
/// atomic (shard workers included) and per thread in a thread-local, so the
/// dispatcher can attribute its own allocations to the span it is in.
/// Disabled, it costs one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
thread_local! {
    // Const-initialised and without a destructor, so touching it from the
    // allocator neither allocates nor registers a TLS destructor.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the counters it
// bumps are an atomic and a destructor-free thread-local, neither of which
// allocates or can unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        }
        // SAFETY: same contract as the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        }
        // SAFETY: same contract as the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off (traced regions only).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far on every thread.
pub fn allocs_process() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations counted so far on the calling thread.
pub fn allocs_thread() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            trial: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("serve", 0, 100, None),
            span("pack", 10, 30, Some(0)),
            span("dispatch", 30, 70, Some(0)),
            span("inner", 40, 50, Some(2)),
            span("pack", 70, 80, Some(0)),
        ];
        let r = rollup(&spans);
        assert_eq!(
            r["serve"],
            Rollup {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            r["pack"],
            Rollup {
                count: 2,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(r["dispatch"].self_ns, 30);
        assert_eq!(r["inner"].self_ns, 10);
        // Self times of a tree partition the root.
        assert_eq!(r.values().map(|x| x.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b);
        t.exit(a);
        t.next_trial();
        let c = t.enter("c");
        t.exit(c);
        let s = &t.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].trial, s[2].trial), (0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.total("b"), (s[1].end_ns - s[1].start_ns, 0));

        let mut off = Tracer::new(false);
        let id = off.enter("a");
        off.exit(id);
        assert!(off.spans.is_empty());
    }
}
