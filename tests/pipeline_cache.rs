//! Integration: the keyed `Arc<SimPlan>` cache end to end through the
//! facade — hit ≡ miss bit-identity, LRU eviction order, value-edit
//! misses, and concurrent hits sharing one factorization.

use std::sync::Arc;

use opm::circuits::ladder::rc_ladder;
use opm::circuits::mna::{assemble_mna, Output};
use opm::core::cache::plan_key;
use opm::waveform::{InputSet, Waveform};
use opm::{PlanCache, Simulation, SolveOptions};

fn ladder_sim(stages: usize, r: f64, c: f64) -> Simulation {
    let ckt = rc_ladder(stages, r, c, Waveform::step(0.0, 1.0));
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(stages + 1)]).unwrap();
    Simulation::from_system(model.system).horizon(1e-5)
}

fn drive() -> InputSet {
    InputSet::new(vec![Waveform::sine(0.0, 1.0, 2e5, 0.0, 0.0)])
}

/// The same request through a cold and then warm cache returns
/// bit-identical results: a hit reuses the *same* factorization, so
/// `max_abs_delta == 0` exactly, not just to tolerance.
#[test]
fn hit_equals_miss_bit_identity() {
    let cache = PlanCache::new(4);
    let opts = SolveOptions::new().resolution(128);
    let u = drive();

    let sim = ladder_sim(6, 1e3, 1e-9);
    let cold = cache.get_or_plan(&sim, &opts).unwrap();
    let r_cold = cold.solve(&u).unwrap();

    // A *fresh* but structurally identical session must hit.
    let sim2 = ladder_sim(6, 1e3, 1e-9);
    let warm = cache.get_or_plan(&sim2, &opts).unwrap();
    assert!(Arc::ptr_eq(&cold, &warm), "identical request must hit");
    let r_warm = warm.solve(&u).unwrap();

    let mut max_abs_delta = 0.0f64;
    for i in 0..r_cold.order() {
        for j in 0..r_cold.num_intervals() {
            let d = (r_cold.state_coeff(i, j) - r_warm.state_coeff(i, j)).abs();
            max_abs_delta = max_abs_delta.max(d);
        }
    }
    assert_eq!(max_abs_delta, 0.0, "hit and miss must agree bit-for-bit");

    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    // One plan, factored once, for both solves.
    assert_eq!(warm.factor_profile().num_symbolic, 1);
    assert_eq!(warm.factor_profile().num_factorizations(), 1);
}

/// Eviction is least-recently-used: touching an old entry saves it and
/// dooms the untouched one.
#[test]
fn lru_eviction_order() {
    let cache = PlanCache::new(2);
    let opts = SolveOptions::new().resolution(64);
    let sim_a = ladder_sim(3, 1e3, 1e-9);
    let sim_b = ladder_sim(4, 1e3, 1e-9);
    let sim_c = ladder_sim(5, 1e3, 1e-9);
    let (ka, kb, kc) = (
        plan_key(&sim_a, &opts),
        plan_key(&sim_b, &opts),
        plan_key(&sim_c, &opts),
    );

    cache.get_or_plan(&sim_a, &opts).unwrap(); // A
    cache.get_or_plan(&sim_b, &opts).unwrap(); // A B
    assert_eq!(cache.keys_by_recency(), vec![kb, ka]);

    cache.get_or_plan(&sim_a, &opts).unwrap(); // touch A → B is LRU
    cache.get_or_plan(&sim_c, &opts).unwrap(); // evicts B
    assert_eq!(cache.keys_by_recency(), vec![kc, ka]);

    // B comes back as a miss, evicting A (LRU after C's insert).
    cache.get_or_plan(&sim_b, &opts).unwrap();
    assert_eq!(cache.keys_by_recency(), vec![kb, kc]);

    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.evictions), (1, 4, 2));
}

/// A value-only edit (same sparsity pattern, one resistor bumped) must
/// change the key and miss: the old plan's factors are the factors of
/// other numbers. Only the values-free pattern tier under the plans
/// serves it — an exact replay of the old plan's analysis.
#[test]
fn value_edit_misses() {
    let opts = SolveOptions::new().resolution(64);
    let sim_a = ladder_sim(4, 1e3, 1e-9);
    let sim_b = ladder_sim(4, 1e3 * (1.0 + 1e-12), 1e-9); // pattern-identical
    assert_ne!(plan_key(&sim_a, &opts), plan_key(&sim_b, &opts));

    let cache = PlanCache::new(4);
    cache.get_or_plan(&sim_a, &opts).unwrap();
    cache.get_or_plan(&sim_b, &opts).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (0, 2), "value edit must not hit");
    assert_eq!(cache.pattern_stats().hits, 1, "…but shares the analysis");

    // Option edits miss too.
    cache
        .get_or_plan(&sim_a, &SolveOptions::new().resolution(128))
        .unwrap();
    assert_eq!(cache.stats().misses, 3);

    // Horizon edits miss.
    let sim_c = ladder_sim(4, 1e3, 1e-9).horizon(2e-5);
    assert_ne!(plan_key(&sim_a, &opts), plan_key(&sim_c, &opts));
}

/// Four threads racing the same cold request share exactly one
/// factorization (1 symbolic + 1 numeric total), and each gets a usable
/// plan whose solves agree bit-for-bit.
#[test]
fn concurrent_hits_share_one_factorization() {
    let cache = Arc::new(PlanCache::new(4));
    let opts = SolveOptions::new().resolution(128);
    let u = drive();

    let results: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let opts = opts.clone();
                let u = u.clone();
                s.spawn(move || {
                    let sim = ladder_sim(6, 1e3, 1e-9);
                    let plan = cache.get_or_plan(&sim, &opts).unwrap();
                    plan.solve(&u).unwrap().state_row(0)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for r in &results[1..] {
        assert_eq!(r, &results[0], "concurrent solves must agree exactly");
    }
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, 4);
    assert_eq!((s.misses, s.len), (1, 1), "exactly one cold build");

    // The shared plan factored once, total, across all four requests.
    let sim = ladder_sim(6, 1e3, 1e-9);
    let plan = cache.get_or_plan(&sim, &opts).unwrap();
    assert_eq!(plan.factor_profile().num_symbolic, 1);
    assert_eq!(plan.factor_profile().num_factorizations(), 1);
}
