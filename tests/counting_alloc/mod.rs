//! A counting global allocator for the allocation-bound tests: it
//! tallies the allocation events one thread makes while a closure runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocation events (`alloc`, `alloc_zeroed`, `realloc`) made
/// by the current thread while its counting flag is up.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static EVENTS: Cell<usize> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: a thread being torn down has no locals left to bump.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = EVENTS.try_with(|e| e.set(e.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer; the bookkeeping touches only const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded unchanged under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded unchanged under the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: forwarded unchanged under the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged under the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its value with the allocation events it made on
/// this thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    EVENTS.with(|e| e.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, EVENTS.with(Cell::get))
}
