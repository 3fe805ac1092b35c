//! Checker self-tests: the production protocols stay clean under
//! bounded exploration, and the seeded buggy latch is caught, replays
//! deterministically, and shrinks. Budgets here are a fraction of the
//! CI `model-check` run — these are regression canaries for the
//! checker itself, not the coverage pass.

use opm_verify::models;
use opm_verify::sched::{self, replay, shrink, ExploreOpts, ViolationKind};

/// Small shared budget: enough to hit real interleavings (the buggy
/// latch falls over within ~10 schedules), small enough for `cargo
/// test` to stay fast.
const BUDGET: usize = 300;

fn assert_clean(r: &sched::Report) {
    if let Some(v) = &r.violation {
        panic!(
            "{}: {}\nschedule {:?}\ntrace:\n  {}",
            r.name,
            v.kind,
            v.schedule.choices,
            v.trace.join("\n  ")
        );
    }
    assert!(r.schedules > 0);
}

#[test]
fn gate_cache_protocols_hold_under_exploration() {
    assert_clean(&models::check_cache_latch(BUDGET));
}

#[test]
fn nested_pattern_tier_holds_under_exploration() {
    assert_clean(&models::check_pattern_tier(BUDGET));
}

#[test]
fn work_index_claims_hold_under_exploration() {
    assert_clean(&models::check_work_index(BUDGET));
}

#[test]
fn cancel_core_holds_under_exploration() {
    assert_clean(&models::check_cancel(BUDGET));
}

#[test]
fn seeded_lost_wakeup_is_caught_within_bounded_schedules() {
    let report = sched::explore(
        "buggy_latch",
        &models::buggy_opts(),
        models::buggy_latch_model(),
    );
    let v = report.violation.as_ref().unwrap_or_else(|| {
        panic!(
            "the seeded lost wakeup escaped {} schedules — the checker lost its teeth",
            report.schedules
        )
    });
    assert!(
        matches!(v.kind, ViolationKind::Deadlock(_)),
        "a lost wakeup must surface as a deadlock, got: {}",
        v.kind
    );
    assert!(
        report.schedules <= models::BUGGY_LATCH_BUDGET,
        "took {} schedules",
        report.schedules
    );
    assert!(!v.trace.is_empty(), "violations must carry a step trace");
}

#[test]
fn buggy_latch_replay_is_deterministic_and_shrinks() {
    let report = sched::explore(
        "buggy_latch",
        &models::buggy_opts(),
        models::buggy_latch_model(),
    );
    let v = report.violation.expect("seeded bug must be caught");

    // Replay twice: identical violation kind and identical trace.
    let a = replay(
        models::buggy_latch_model(),
        &v.schedule,
        &models::buggy_opts(),
    )
    .expect("first replay must reproduce");
    let b = replay(
        models::buggy_latch_model(),
        &v.schedule,
        &models::buggy_opts(),
    )
    .expect("second replay must reproduce");
    assert!(matches!(a.kind, ViolationKind::Deadlock(_)), "{}", a.kind);
    assert_eq!(a.trace, b.trace, "replay must be deterministic");

    // Shrink: still failing, no longer than the original.
    let small = shrink(models::buggy_latch_model(), &v, &models::buggy_opts(), 64);
    assert!(
        matches!(small.kind, ViolationKind::Deadlock(_)),
        "shrinking must preserve the violation kind"
    );
    assert!(
        small.schedule.choices.len() <= v.schedule.choices.len(),
        "shrink grew the schedule: {:?} -> {:?}",
        v.schedule.choices,
        small.schedule.choices
    );
    let again = replay(
        models::buggy_latch_model(),
        &small.schedule,
        &models::buggy_opts(),
    )
    .expect("the shrunk schedule must still reproduce");
    assert!(matches!(again.kind, ViolationKind::Deadlock(_)));
}

/// A correct latch under the same harness as the buggy one: the
/// production `Latch` on shim sync, same thread structure, full
/// exploration — must be clean. (Pairs with the buggy model to show
/// the checker separates the two implementations, not just that it
/// can fail.)
#[test]
fn production_latch_survives_the_buggy_latch_harness() {
    use opm_core::latch::Latch;
    use opm_verify::sync::{thread, Arc, ShimSync};

    let report = sched::explore(
        "production_latch",
        &ExploreOpts {
            max_schedules: BUDGET,
            dfs_budget: BUDGET,
            spurious_budget: 1,
            ..ExploreOpts::default()
        },
        || {
            let latch: Arc<Latch<u32, ShimSync>> = Arc::new(Latch::new());
            let waiter = {
                let latch = Arc::clone(&latch);
                thread::spawn(move || latch.wait())
            };
            latch.resolve(9);
            assert_eq!(waiter.join().expect("waiter panicked"), 9);
        },
    );
    assert_clean(&report);
}
