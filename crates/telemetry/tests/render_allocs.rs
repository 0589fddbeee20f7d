//! Allocation tripwire for the Prometheus renderer: one render of the
//! golden registry may allocate only what growing its output `String`
//! takes. The count is deterministic, so a per-line or per-label
//! allocation creeping back fails here rather than as scrape time drifting
//! between benchmark runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod golden;

/// Counts the allocations and reallocations of the calling thread; the
/// test harness runs other threads beside the test's.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from the
    // allocator neither allocates nor registers a TLS destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the counter it
// bumps is a destructor-free thread-local, which neither allocates nor can
// unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Growing a `String` to the golden text's 4,800 bytes, each growth at
/// least doubling it from its first write, takes ten allocations (the
/// renderer this replaced made 1,116: a `String` per label set, escape
/// and bucket bound).
const RENDER_ALLOCS_MAX: u64 = 10;

#[test]
fn a_render_allocates_only_its_output() {
    let registry = golden::registry();
    let before = ALLOCS.with(Cell::get);
    let text = registry.render_prometheus();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(text, golden::TEXT);
    assert!(
        allocs <= RENDER_ALLOCS_MAX,
        "one render of {} bytes allocated {allocs} times (at most {RENDER_ALLOCS_MAX})",
        text.len()
    );
}
