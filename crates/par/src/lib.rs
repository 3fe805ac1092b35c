//! Hermetic scoped-thread parallelism for the OPM workspace.
//!
//! The workspace builds in environments with no access to crates.io, so
//! this crate stands in for the tiny slice of `rayon` the tree actually
//! needs — in the same spirit as `opm-rng` (a `rand` stand-in). It is
//! `std`-only: workers are [`std::thread::scope`] threads pulling
//! indices from an atomic counter, so borrowed inputs work without
//! `'static` bounds and there is no global pool to configure or poison.
//!
//! Two entry points:
//!
//! - [`par_map`] — map a slice through a `Sync` closure on `threads`
//!   workers; the output vector is in input order regardless of
//!   scheduling, so callers stay deterministic.
//! - [`default_threads`] — the worker count the batch runtime sizes
//!   itself by: `OPM_THREADS` when set to a positive integer, otherwise
//!   [`std::thread::available_parallelism`] capped at
//!   [`MAX_DEFAULT_THREADS`].
//!
//! Determinism contract: `par_map` only distributes *which worker*
//! computes each element; per-element computation and output placement
//! are unaffected by the thread count. Callers whose per-element work is
//! deterministic therefore get bit-identical results for every
//! `threads` value — the property the engine's batch solver and the
//! `OPM_THREADS={1,4}` CI matrix pin down.
//!
//! ```
//! let squares = opm_par::par_map(4, &[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

// No unsafe anywhere in this crate; the only unsafe in the workspace
// is the audited AVX panel dispatch in opm-{core,sparse,fracnum}.
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The one primitive the dynamic work distribution needs: an atomic
/// claim counter handing out strictly increasing indices.
///
/// Extracted as a trait so the claim loop ([`claim_indices`]) is
/// generic over the primitive: production uses [`AtomicUsize`],
/// `opm-verify` substitutes its deterministic-scheduler shim and
/// exhaustively checks that every index in `0..len` is claimed exactly
/// once and every worker's loop terminates, for any interleaving.
pub trait ClaimCounter: Sync {
    /// Atomically returns the current value and increments it — each
    /// call observes a distinct value, across all threads.
    fn claim_next(&self) -> usize;
}

impl ClaimCounter for AtomicUsize {
    fn claim_next(&self) -> usize {
        // Relaxed is enough: the counter is the only shared state in the
        // claim protocol, and `fetch_add`'s read-modify-write atomicity
        // alone guarantees uniqueness of the returned indices. The
        // results each worker writes are published to the caller by the
        // thread join, not by this counter.
        self.fetch_add(1, Ordering::Relaxed)
    }
}

/// The work-claiming loop every `par_map` worker runs: pull indices
/// from the shared counter until it runs past `len`, visiting each
/// claimed index. The counter hands out each index at most once, so
/// across all workers every index in `0..len` is visited exactly once;
/// a worker that draws `>= len` stops — the loop always terminates
/// after at most one overdraw per worker.
pub fn claim_indices<C: ClaimCounter>(next: &C, len: usize, mut visit: impl FnMut(usize)) {
    loop {
        let i = next.claim_next();
        if i >= len {
            break;
        }
        visit(i);
    }
}

/// Cap on the *default* worker count (explicit `OPM_THREADS` values may
/// exceed it): beyond a handful of cores the sparse sweeps here are
/// memory-bound, and a modest cap keeps shared CI runners polite.
pub const MAX_DEFAULT_THREADS: usize = 8;

/// Worker count for the calling environment: the `OPM_THREADS`
/// environment variable when it parses as a positive integer, otherwise
/// [`std::thread::available_parallelism`] capped at
/// [`MAX_DEFAULT_THREADS`].
///
/// `OPM_THREADS` is re-read on every call so tests and long-lived
/// processes can retune without restarting; the core count is probed
/// once per process — `available_parallelism` walks cgroup files on
/// Linux (microseconds per call), far too slow for a function sitting
/// on the per-solve path.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("OPM_THREADS") {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(MAX_DEFAULT_THREADS)
    })
}

/// Maps `items` through `f` on up to `threads` scoped workers, returning
/// the results **in input order**.
///
/// Work is distributed dynamically (an atomic index; cheap elements do
/// not stall behind expensive ones), but the mapping from input index to
/// output slot is fixed, so the result is independent of scheduling and
/// thread count. `threads <= 1` (or a single-element input) runs inline
/// on the caller's thread with no spawning at all.
///
/// # Panics
/// Propagates the first worker panic to the caller (the remaining
/// workers finish their in-flight elements first).
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let t = threads.max(1).min(items.len());
    if t <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut local: Vec<(usize, R)> = Vec::new();
        claim_indices(&next, items.len(), |i| local.push((i, f(&items[i]))));
        local
    };
    let gathered: Vec<Result<Vec<(usize, R)>, _>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..t).map(|_| s.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for res in gathered {
        match res {
            Ok(pairs) => {
                for (i, r) in pairs {
                    slots[i] = Some(r);
                }
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_every_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * 31 + 7).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            assert_eq!(par_map(threads, &items, |&x| x * 31 + 7), serial);
        }
    }

    #[test]
    fn borrows_without_static_bounds() {
        let words = ["alpha".to_string(), "beta".to_string()];
        let lens = par_map(2, &words, |w| w.len());
        assert_eq!(lens, vec![5, 4]);
        drop(words); // still owned by the caller
    }

    #[test]
    fn empty_and_oversubscribed_inputs() {
        let none: Vec<i32> = par_map(8, &[], |&x: &i32| x);
        assert!(none.is_empty());
        assert_eq!(par_map(16, &[42], |&x| x + 1), vec![43]);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            par_map(4, &[1, 2, 3, 4, 5, 6, 7, 8], |&x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
