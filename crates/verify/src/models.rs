//! The concurrency models `opm-verify -- model-check` explores.
//!
//! Six of the seven models instantiate *production* protocol code —
//! [`opm_core::gate::GateCache`] (alone, and nested two levels deep as
//! the plan cache's pattern tier, `opm-serve`'s pre-key tier and a
//! plan's window-kernel cache nest it), [`opm_par::claim_indices`],
//! [`opm_core::cancel::CancelCore`] — on the shim primitives in
//! [`crate::sync`], so the checked code is byte-for-byte the code the
//! engine runs (the generic-over-[`MonitorFamily`] refactor exists for
//! exactly this). The seventh, [`BuggyLatch`], carries a deliberately
//! seeded lost-wakeup and exists to prove the checker *can* catch the
//! bug class the real latch is claimed to be free of: its exploration
//! must fail, replay deterministically, and shrink to a short trace.
//!
//! [`MonitorFamily`]: opm_core::sync::MonitorFamily

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::PoisonError;

use opm_core::cancel::{CancelCore, CancelReason};
use opm_core::gate::GateCache;

use crate::sched::{explore, ExploreOpts, Report};
use crate::sync::{
    thread, Arc, AtomicUsize, Condvar, Mutex, ShimAtomicCounter, ShimCancelFlag, ShimSync,
    TickDeadline,
};

/// The cache the single-flight models drive: the production
/// [`GateCache`] on the shim sync family.
type ShimCache = GateCache<u64, u64, String, ShimSync>;

const PANIC_ERROR: &str = "build panicked";

/// Single-flight: two racers hit a cold key; the checker proves that in
/// **every** interleaving exactly one runs the build closure, the other
/// parks on the key's latch and wakes with the built value (a lost
/// wakeup would leave it asleep forever — reported as a deadlock), and
/// both observe the same value.
pub fn cache_single_flight_model() -> impl Fn() + Send + Sync + 'static {
    || {
        let cache: Arc<ShimCache> = Arc::new(GateCache::new(2, || PANIC_ERROR.to_string()));
        let builds = Arc::new(AtomicUsize::new(0));
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                thread::spawn(move || {
                    let (v, hit) = cache
                        .get_or_build(7, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            Ok(40)
                        })
                        .expect("the build closure is infallible");
                    assert_eq!(v, 40, "waiter observed a value it did not wait for");
                    hit
                })
            })
            .collect();
        let hits: Vec<bool> = racers
            .into_iter()
            .map(|h| h.join().expect("racer panicked"))
            .collect();
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "N racers must cost exactly one build"
        );
        assert_eq!(
            hits.iter().filter(|&&h| !h).count(),
            1,
            "exactly one racer may report a miss"
        );
        let s = cache.stats();
        assert_eq!((s.misses, s.len), (1, 1), "one interned value, one miss");
    }
}

/// Panic containment: every racer's build panics. The checker proves
/// the builder re-raises on its own thread, every waiter wakes with the
/// `panic_error` (not a hang, not a poisoned lock), the placeholder is
/// removed, and the cache remains fully usable for the next build.
pub fn cache_panicking_build_model() -> impl Fn() + Send + Sync + 'static {
    || {
        let cache: Arc<ShimCache> = Arc::new(GateCache::new(2, || PANIC_ERROR.to_string()));
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        cache.get_or_build(7, || panic!("injected build failure"))
                    }));
                    match out {
                        // The builder: the injected panic resumed here.
                        Err(_) => {}
                        // A waiter: woken with the panic error.
                        Ok(Err(e)) => assert_eq!(e, PANIC_ERROR),
                        Ok(Ok(_)) => panic!("no value can come out of a panicking build"),
                    }
                })
            })
            .collect();
        for h in racers {
            h.join().expect("racer panicked outside the injected path");
        }
        // The placeholder must be gone and the key rebuildable.
        let (v, hit) = cache
            .get_or_build(7, || Ok(1))
            .expect("cache unusable after a panicked build");
        assert_eq!((v, hit), (1, false), "the failed build must not be cached");
    }
}

/// The plan cache's two tiers: plans keyed by value, pattern analyses
/// keyed by sparsity pattern, both on the production [`GateCache`].
type ShimTier = GateCache<u64, Arc<u64>, String, ShimSync>;

/// The pattern key both plan builds share.
const PATTERN: u64 = 7;

/// Counts the racers that have reached their plan build, so an
/// analysis can hold off until the other racer is on its way to the
/// same pattern key — the interleaving a latch waiter needs. Without
/// it, partial-order reduction would see no conflict between an
/// analysis in flight and the other racer's plan-key claim, and never
/// schedule a pattern-level waiter.
struct Arrivals {
    count: Mutex<usize>,
    cv: Condvar,
}

impl Arrivals {
    /// Registers its shims with the running exploration (`Default`
    /// would leave them unscheduled).
    fn new() -> Self {
        Arrivals {
            count: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn arrive(&self) {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.cv.notify_all();
    }

    fn await_both(&self) {
        let mut g = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        while *g < 2 {
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One plan build's pattern lookup, as `opm_core`'s pattern tier makes
/// it: the builder records (and interns) the analysis; a hit shares the
/// interned one; a waiter whose builder failed records its own,
/// uninterned. `fail_first` makes the first analysis panic.
fn analyse(
    patterns: &ShimTier,
    analyses: &AtomicUsize,
    fail_first: &AtomicUsize,
    arrivals: &Arrivals,
) -> Result<Arc<u64>, String> {
    let mut built_here = false;
    let looked_up = patterns.get_or_build_with(PATTERN, || {
        built_here = true;
        arrivals.await_both();
        if fail_first.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("injected analysis failure");
        }
        analyses.fetch_add(1, Ordering::SeqCst);
        Ok((Arc::new(40), ()))
    });
    match looked_up {
        Ok((analysis, _)) => Ok(analysis),
        Err(e) if built_here => Err(e),
        Err(_) => {
            analyses.fetch_add(1, Ordering::SeqCst);
            Ok(Arc::new(40))
        }
    }
}

/// Nested single flight: two plan builds on *different* plan keys race
/// on one pattern key, each running its pattern lookup inside its
/// plan-key build. With `panicking`, the first pattern analysis panics.
/// The checker proves, in every schedule: no deadlock across the two
/// levels of latches; without the panic exactly one analysis is
/// recorded and both plans hold the same `Arc`; with it, the panicking
/// build fails only its own plan, the other plan still gets an
/// analysis, and both the pattern entry and the failed plan key are
/// rebuildable afterwards.
pub fn pattern_tier_model(panicking: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let plans: Arc<ShimTier> = Arc::new(GateCache::new(4, || PANIC_ERROR.to_string()));
        let patterns: Arc<ShimTier> = Arc::new(GateCache::new(4, || PANIC_ERROR.to_string()));
        let analyses = Arc::new(AtomicUsize::new(0));
        let fail_first = Arc::new(AtomicUsize::new(usize::from(!panicking)));
        let arrivals = Arc::new(Arrivals::new());
        let racers: Vec<_> = [1u64, 2]
            .into_iter()
            .map(|plan_key| {
                let plans = Arc::clone(&plans);
                let patterns = Arc::clone(&patterns);
                let analyses = Arc::clone(&analyses);
                let fail_first = Arc::clone(&fail_first);
                let arrivals = Arc::clone(&arrivals);
                thread::spawn(move || {
                    arrivals.arrive();
                    std::panic::catch_unwind(AssertUnwindSafe(|| {
                        plans.get_or_build(plan_key, || {
                            analyse(&patterns, &analyses, &fail_first, &arrivals)
                        })
                    }))
                    .ok()
                    .map(|built| built.expect("a plan build only fails by panicking").0)
                })
            })
            .collect();
        let built: Vec<Option<Arc<u64>>> = racers
            .into_iter()
            .map(|h| h.join().expect("racer panicked outside the injected path"))
            .collect();
        assert_eq!(plans.stats().misses, 2, "distinct plan keys both miss");
        if !panicking {
            assert_eq!(
                analyses.load(Ordering::SeqCst),
                1,
                "two builds on one pattern must record one analysis"
            );
            let (a, b) = (built[0].as_ref().unwrap(), built[1].as_ref().unwrap());
            assert!(Arc::ptr_eq(a, b), "both plans must share the analysis");
            return;
        }
        assert_eq!(
            built.iter().filter(|b| b.is_none()).count(),
            1,
            "the panic fails exactly its own plan build"
        );
        // The pattern entry is rebuildable (or was rebuilt by the other
        // racer) and then interned.
        let again =
            analyse(&patterns, &analyses, &fail_first, &arrivals).expect("pattern entry unusable");
        let (interned, built_now) = patterns
            .get_or_build_with(PATTERN, || -> Result<(Arc<u64>, ()), String> {
                unreachable!("the entry must be interned by now")
            })
            .expect("pattern entry unusable");
        assert!(built_now.is_none() && Arc::ptr_eq(&again, &interned));
        let failed = if built[0].is_none() { 1 } else { 2 };
        let (_, hit) = plans
            .get_or_build(failed, || Ok(again))
            .expect("the failed plan key must rebuild");
        assert!(!hit, "a panicked plan build must not be cached");
    }
}

/// A plan as its window kernels see it: an interned value of the plan
/// tier that owns a second [`GateCache`], keyed by window count.
struct ShimPlan {
    kernels: ShimTier,
}

/// The window count both racers of [`window_kernel_model`] solve at.
const WINDOWS: u64 = 4;

/// A plan's window-kernel cache nested under the plan tier, both on the
/// production [`GateCache`]: two requests for one plan race to its
/// first solve at one window count, each resolving the plan and then
/// the plan's kernel for that count. With `panicking`, the first kernel
/// build panics. The checker proves, in every schedule: no deadlock
/// across the two levels of latches; one plan build; without the panic
/// exactly one kernel build, both racers holding the same `Arc`; with
/// it, the panic fails only its own solve, the plan stays interned, and
/// the kernel rebuilds on the next solve.
pub fn window_kernel_model(panicking: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let plans: Arc<GateCache<u64, Arc<ShimPlan>, String, ShimSync>> =
            Arc::new(GateCache::new(2, || PANIC_ERROR.to_string()));
        let builds = Arc::new(AtomicUsize::new(0));
        let fail_first = Arc::new(AtomicUsize::new(usize::from(!panicking)));
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let plans = Arc::clone(&plans);
                let (builds, fail_first) = (Arc::clone(&builds), Arc::clone(&fail_first));
                thread::spawn(move || {
                    let (plan, _) = plans
                        .get_or_build(PLAN, || {
                            let kernels = GateCache::new(2, || PANIC_ERROR.to_string());
                            Ok(Arc::new(ShimPlan { kernels }))
                        })
                        .expect("the plan build is infallible");
                    std::panic::catch_unwind(AssertUnwindSafe(|| {
                        plan.kernels.get_or_build(WINDOWS, || {
                            if fail_first.fetch_add(1, Ordering::SeqCst) == 0 {
                                panic!("injected kernel build failure");
                            }
                            builds.fetch_add(1, Ordering::SeqCst);
                            Ok(Arc::new(40))
                        })
                    }))
                    .map(|solved| solved.map(|(kernel, _)| kernel))
                })
            })
            .collect();
        let solved: Vec<_> = racers
            .into_iter()
            .map(|h| h.join().expect("racer panicked outside the injected path"))
            .collect();
        assert_eq!(plans.stats().misses, 1, "one plan, built once");
        if !panicking {
            assert_eq!(builds.load(Ordering::SeqCst), 1, "one kernel build");
            let kernel = |i: usize| match &solved[i] {
                Ok(Ok(kernel)) => Arc::clone(kernel),
                _ => panic!("an infallible kernel build failed"),
            };
            assert!(
                Arc::ptr_eq(&kernel(0), &kernel(1)),
                "racers share the kernel"
            );
            return;
        }
        let panicked = solved.iter().filter(|s| s.is_err()).count();
        assert_eq!(panicked, 1, "the panic resumes on its builder alone");
        for e in solved.iter().flatten().filter_map(|s| s.as_ref().err()) {
            assert_eq!(e, PANIC_ERROR, "a waiter sees the panic error");
        }
        // The plan still serves, and its kernel builds (or was built).
        let (plan, hit) = plans
            .get_or_build(PLAN, || -> Result<Arc<ShimPlan>, String> {
                unreachable!("the plan must stay interned")
            })
            .expect("plan tier unusable");
        assert!(hit);
        let (kernel, _) = plan
            .kernels
            .get_or_build(WINDOWS, || Ok(Arc::new(40)))
            .expect("the kernel must rebuild after a panicked build");
        assert_eq!(*kernel, 40);
    }
}

/// The plan key both pre-keys of [`prekey_tier_model`] map to.
const PLAN: u64 = 7;

/// `opm-serve`'s pre-key tier over the plan cache, both on the
/// production [`GateCache`], with the plan evicted between the two
/// tiers: pre-key 1 is interned and maps to plan `PLAN`, which a later
/// plan pushed out of the capacity-1 plan tier. One racer hits pre-key
/// 1 and looks the plan up under the entry's key; the other misses on
/// pre-key 2 (the same plan inputs, spelled differently) and looks the
/// plan up inside its pre-key build. The checker proves, in every
/// schedule: no deadlock across the two levels of latches, exactly one
/// rebuild of the evicted plan, and both racers holding the same `Arc`.
pub fn prekey_tier_model() -> impl Fn() + Send + Sync + 'static {
    || {
        let plans: Arc<ShimTier> = Arc::new(GateCache::new(1, || PANIC_ERROR.to_string()));
        let prekeys: Arc<ShimTier> = Arc::new(GateCache::new(4, || PANIC_ERROR.to_string()));
        let _ = prekeys.get_or_build(1, || {
            plans.get_or_build(PLAN, || Ok(Arc::new(40)))?;
            Ok(Arc::new(PLAN))
        });
        let _ = plans.get_or_build(PLAN + 1, || Ok(Arc::new(41)));
        assert!(
            plans.values().iter().all(|(k, _)| *k != PLAN),
            "the set-up must evict the plan under the live pre-key"
        );
        let rebuilds = Arc::new(AtomicUsize::new(0));
        let arrivals = Arc::new(Arrivals::new());
        let racers: Vec<_> = [1u64, 2]
            .into_iter()
            .map(|pre_key| {
                let (plans, prekeys) = (Arc::clone(&plans), Arc::clone(&prekeys));
                let (rebuilds, arrivals) = (Arc::clone(&rebuilds), Arc::clone(&arrivals));
                thread::spawn(move || {
                    // The rebuild holds off until both racers are on
                    // their way to the plan key (see [`Arrivals`]).
                    let plan = |key: u64| {
                        arrivals.arrive();
                        plans.get_or_build(key, || {
                            arrivals.await_both();
                            rebuilds.fetch_add(1, Ordering::SeqCst);
                            Ok(Arc::new(40))
                        })
                    };
                    let (entry, built) = prekeys
                        .get_or_build_with(pre_key, || {
                            let (built, _) = plan(PLAN)?;
                            Ok((Arc::new(PLAN), built))
                        })
                        .expect("the builds are infallible");
                    match built {
                        Some(built) => built,
                        None => plan(*entry).expect("the builds are infallible").0,
                    }
                })
            })
            .collect();
        let got: Vec<Arc<u64>> = racers
            .into_iter()
            .map(|h| h.join().expect("racer panicked"))
            .collect();
        assert_eq!(
            rebuilds.load(Ordering::SeqCst),
            1,
            "an evicted plan is rebuilt exactly once"
        );
        assert!(
            Arc::ptr_eq(&got[0], &got[1]),
            "racers must share the rebuilt plan"
        );
        assert_eq!(
            prekeys.stats().misses,
            2,
            "pre-key 2 is interned on its miss"
        );
    }
}

/// Work distribution: three workers run the production
/// [`opm_par::claim_indices`] loop over a shared shim counter. The
/// checker proves every index in `0..len` is claimed exactly once
/// across workers and every loop terminates (non-termination would trip
/// the deadlock/step-limit detector) — for every interleaving of the
/// counter's read-modify-writes.
pub fn work_index_model() -> impl Fn() + Send + Sync + 'static {
    || {
        const LEN: usize = 3;
        let next = Arc::new(ShimAtomicCounter::new());
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let next = Arc::clone(&next);
                thread::spawn(move || {
                    let mut mine = Vec::new();
                    opm_par::claim_indices(&*next, LEN, |i| mine.push(i));
                    mine
                })
            })
            .collect();
        let mut all: Vec<usize> = workers
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..LEN).collect::<Vec<_>>(),
            "every index must be claimed exactly once across workers"
        );
    }
}

/// Cancellation: the production [`CancelCore`] on a shim flag and a
/// virtual-clock deadline, with one thread cancelling explicitly and
/// another expiring the deadline. The checker proves cancellation is
/// monotone (no observer ever sees cancelled → not-cancelled), an
/// `Explicit` observation never degrades to `Deadline`, and with both
/// causes fired every clone settles on `Explicit` (the documented
/// flag-before-deadline priority).
pub fn cancel_model() -> impl Fn() + Send + Sync + 'static {
    || {
        let clock = Arc::new(AtomicUsize::new(0));
        let core = Arc::new(CancelCore::new(
            ShimCancelFlag::new(),
            Some(TickDeadline {
                now: Arc::clone(&clock),
                at: 1,
            }),
        ));
        let canceller = {
            let core = Arc::clone(&core);
            thread::spawn(move || core.cancel())
        };
        let ticker = thread::spawn(move || clock.store(1, Ordering::SeqCst));
        let mut seen: Option<CancelReason> = None;
        for _ in 0..4 {
            let r = core.reason();
            match (seen, r) {
                (Some(_), None) => panic!("cancellation went backwards"),
                (Some(CancelReason::Explicit), Some(CancelReason::Deadline)) => {
                    panic!("an Explicit observation degraded to Deadline")
                }
                _ => {}
            }
            if r.is_some() {
                seen = r;
            }
        }
        canceller.join().expect("canceller panicked");
        ticker.join().expect("ticker panicked");
        assert_eq!(
            core.reason(),
            Some(CancelReason::Explicit),
            "with both causes fired, the flag must outrank the deadline"
        );
        assert!(core.is_cancelled());
    }
}

// ---------------------------------------------------------------------------
// The seeded bug
// ---------------------------------------------------------------------------

/// A latch with a deliberately seeded **lost wakeup** — the bug class
/// [`opm_core::latch::Latch`] is model-checked to be free of. `wait`
/// checks the slot under the lock, *releases* it, then reacquires to
/// sleep: a `resolve` landing in that gap stores the value and fires
/// its notify while nobody is sleeping, and the waiter then sleeps
/// forever. The checker must find this as a deadlock within a bounded
/// number of schedules.
pub struct BuggyLatch<T: Clone> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T: Clone> Default for BuggyLatch<T> {
    fn default() -> Self {
        BuggyLatch::new()
    }
}

impl<T: Clone> BuggyLatch<T> {
    /// An unresolved buggy latch.
    pub fn new() -> Self {
        BuggyLatch {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Stores the outcome and wakes current sleepers — correct on its
    /// own; the bug is on the wait side.
    pub fn resolve(&self, v: T) {
        let mut g = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if g.is_none() {
            *g = Some(v);
        }
        drop(g);
        self.cv.notify_all();
    }

    /// BUG: the slot check and the sleep are under *separate* lock
    /// acquisitions, so a resolve between them is lost. (The correct
    /// pattern — the one `Monitor::wait_until` hard-codes — re-checks
    /// the predicate under the same lock the wait releases.)
    pub fn wait(&self) -> T {
        loop {
            if let Some(v) = self
                .slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
            {
                return v;
            }
            // <-- the gap: a resolve + notify landing here is lost.
            let g = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
            let _woken = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One waiter, one resolver, over [`BuggyLatch`]. Exploration must
/// report a deadlock (the lost wakeup) — this model failing to fail
/// would mean the checker has lost its teeth.
pub fn buggy_latch_model() -> impl Fn() + Send + Sync + 'static {
    || {
        let latch: Arc<BuggyLatch<u32>> = Arc::new(BuggyLatch::new());
        let waiter = {
            let latch = Arc::clone(&latch);
            thread::spawn(move || latch.wait())
        };
        latch.resolve(9);
        assert_eq!(waiter.join().expect("waiter panicked"), 9);
    }
}

// ---------------------------------------------------------------------------
// Exploration entry points (shared by `main.rs` and the self-tests)
// ---------------------------------------------------------------------------

/// Per-model exploration budgets tuned so the three protocol models
/// clear the CI floor on explored schedules while the whole pass stays
/// in single-digit seconds. Half the budget goes to exhaustive DFS,
/// half to the seeded random phase (skipped when DFS already covered
/// the whole tree) — either way the schedule count is deterministic,
/// which is what lets a bench-style gate assert a floor on it.
fn protocol_opts(max_schedules: usize) -> ExploreOpts {
    ExploreOpts {
        max_schedules,
        dfs_budget: max_schedules / 2,
        spurious_budget: 1,
        ..ExploreOpts::default()
    }
}

/// Explores the single-flight model (plus its panic-containment
/// variant, folded into one report: the sum of schedules, the first
/// violation of either).
pub fn check_cache_latch(max_schedules: usize) -> Report {
    let a = explore(
        "cache_latch/single_flight",
        &protocol_opts(max_schedules / 2),
        cache_single_flight_model(),
    );
    if a.violation.is_some() {
        return a;
    }
    let b = explore(
        "cache_latch/panicking_build",
        &protocol_opts(max_schedules - a.schedules),
        cache_panicking_build_model(),
    );
    Report {
        name: "cache_latch".into(),
        schedules: a.schedules + b.schedules,
        complete: a.complete && b.complete,
        violation: b.violation,
    }
}

/// Explores the nested-gate pattern-tier model, plain and with a
/// panicking analysis, folded into one report.
pub fn check_pattern_tier(max_schedules: usize) -> Report {
    let a = explore(
        "pattern_tier/shared_analysis",
        &protocol_opts(max_schedules / 2),
        pattern_tier_model(false),
    );
    if a.violation.is_some() {
        return a;
    }
    let b = explore(
        "pattern_tier/panicking_analysis",
        &protocol_opts(max_schedules - a.schedules),
        pattern_tier_model(true),
    );
    Report {
        name: "pattern_tier".into(),
        schedules: a.schedules + b.schedules,
        complete: a.complete && b.complete,
        violation: b.violation,
    }
}

/// Explores the window-kernel model, plain and with a panicking kernel
/// build, folded into one report.
pub fn check_window_kernel(max_schedules: usize) -> Report {
    let a = explore(
        "window_kernel/single_build",
        &protocol_opts(max_schedules / 2),
        window_kernel_model(false),
    );
    if a.violation.is_some() {
        return a;
    }
    let b = explore(
        "window_kernel/panicking_build",
        &protocol_opts(max_schedules - a.schedules),
        window_kernel_model(true),
    );
    Report {
        name: "window_kernel".into(),
        schedules: a.schedules + b.schedules,
        complete: a.complete && b.complete,
        violation: b.violation,
    }
}

/// Explores the pre-key tier model.
pub fn check_prekey_tier(max_schedules: usize) -> Report {
    explore(
        "prekey_tier",
        &protocol_opts(max_schedules),
        prekey_tier_model(),
    )
}

/// Explores the work-index model.
pub fn check_work_index(max_schedules: usize) -> Report {
    explore(
        "work_index",
        &protocol_opts(max_schedules),
        work_index_model(),
    )
}

/// Explores the cancellation model.
pub fn check_cancel(max_schedules: usize) -> Report {
    explore("cancel", &protocol_opts(max_schedules), cancel_model())
}

/// Budget for the buggy-latch hunt: the lost wakeup must surface within
/// this many schedules (it shows up almost immediately under DFS — the
/// bound exists so a regression fails loudly instead of spinning).
pub const BUGGY_LATCH_BUDGET: usize = 200;

/// Exploration options for the buggy-latch model: no spurious wakeups
/// (a spurious wake would *mask* the lost wakeup — precisely why real
/// code must not rely on them).
pub fn buggy_opts() -> ExploreOpts {
    ExploreOpts {
        max_schedules: BUGGY_LATCH_BUDGET,
        dfs_budget: BUGGY_LATCH_BUDGET,
        spurious_budget: 0,
        ..ExploreOpts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The models are also plain functions over pass-through shims:
    /// outside an exploration they must run clean on the real OS
    /// scheduler (one arbitrary interleaving). The buggy-latch model is
    /// deliberately absent — on the OS scheduler its lost wakeup is a
    /// genuine (if unlikely) hang, which is the whole point of checking
    /// it under a controlled one instead.
    #[test]
    fn models_pass_through_outside_the_checker() {
        cache_single_flight_model()();
        cache_panicking_build_model()();
        pattern_tier_model(false)();
        pattern_tier_model(true)();
        prekey_tier_model()();
        window_kernel_model(false)();
        window_kernel_model(true)();
        work_index_model()();
        cancel_model()();
    }
}
