//! Every builtin scenario gives back all the memory it allocated.
//!
//! A run's fabric is a web of tasks and timers holding handles to the
//! simulation they run in; unless the fabric shuts the simulation down
//! when it drops, the whole cluster outlives its run. This binary counts
//! this thread's live heap bytes with its own global allocator and checks
//! that they return to where they were once a run's output is dropped.
//! It holds one test only, so no other test's allocations interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cord_workload::scenarios::{self, Scale};
use cord_workload::{run_scenario_full, RunOptions};

/// Forwards to [`System`] and keeps a per-thread count of live bytes.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // Late in a thread's teardown the slot may be gone; nothing is
    // measured then.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a plain `Cell` of this thread and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn every_builtin_frees_what_its_run_allocated() {
    let scale = Scale {
        nodes: 8,
        tenants: 4,
        requests: 20,
        ..Scale::default()
    };
    for &name in scenarios::NAMES {
        let spec = scenarios::by_name(name, scale).expect("builtin");
        for trace_capacity in [None, Some(1 << 14)] {
            // The payload-buffer pool keeps buffers between runs: empty
            // it on both sides so only the run's own memory is compared.
            bytes::clear_pool();
            let before = live_bytes();
            let out = run_scenario_full(&spec, RunOptions { trace_capacity }).expect("runs");
            assert!(out.report.total_completed > 0, "{name}: no traffic");
            assert_eq!(out.trace.is_some(), trace_capacity.is_some());
            drop(out);
            bytes::clear_pool();
            let leaked = live_bytes() - before;
            assert_eq!(
                leaked, 0,
                "{name} (trace {trace_capacity:?}): {leaked} bytes outlive the run"
            );
        }
    }
}
