//! Integration: the plan cache's pattern tier. A value-only miss on a
//! pattern the cache has analysed replays the interned AMD ordering and
//! symbolic LU numerically, and the plan it builds equals a fresh
//! `Simulation::plan` bit for bit — on the 48×48 RC mesh, the Table II
//! power grid, the R–CPE ladder and the diode + RC ladder, and for
//! adaptive and step-grid plans as for uniform ones.

use std::fmt::Write as _;

use opm::circuits::grid::PowerGridSpec;
use opm::circuits::na::assemble_na;
use opm::core::PatternStats;
use opm::prelude::*;
use opm::PlanCache;
use opm_rng::StdRng;

/// Every state coefficient of `r`, by bit pattern.
fn bits(r: &OpmResult) -> Vec<u64> {
    (0..r.order())
        .flat_map(|i| r.state_row(i))
        .map(f64::to_bits)
        .collect()
}

/// What a request runs on a plan, as state-coefficient bits: the
/// whole-horizon solve and a 4-window solve (a numeric refactor at the
/// window shift), or the windowed Newton solve for nonlinear plans.
fn solve_bits(plan: &SimPlan, sim: &Simulation, stimulus: &InputSet) -> Vec<u64> {
    if plan.has_nonlinear() {
        let r = plan
            .solve_newton_windowed(sim.inputs().unwrap(), 4, &NewtonOptions::new())
            .unwrap();
        return bits(&r);
    }
    let mut out = bits(&plan.solve(stimulus).unwrap());
    out.extend(bits(&plan.solve_windowed(stimulus, 4).unwrap()));
    out
}

/// The `g×g` RC mesh the serving benchmark drives: 100 Ω segments, 1 nF
/// per node, a DC source at the corner; `edit` sets one resistor.
fn mesh_netlist(g: usize, edit: Option<(usize, f64)>) -> String {
    let mut s = String::from("* RC mesh\nV1 n1_1 0 DC 1\n");
    let mut r = 0usize;
    for i in 1..=g {
        for j in 1..=g {
            let mut resistor = |s: &mut String, b: String| {
                let ohms = match edit {
                    Some((at, ohms)) if at == r => ohms,
                    _ => 100.0,
                };
                r += 1;
                let _ = writeln!(s, "R{r} n{i}_{j} {b} {ohms:e}");
            };
            if j < g {
                resistor(&mut s, format!("n{i}_{}", j + 1));
            }
            if i < g {
                resistor(&mut s, format!("n{}_{j}", i + 1));
            }
            let _ = writeln!(s, "C{i}_{j} n{i}_{j} 0 1n");
        }
    }
    s.push_str(".end\n");
    s
}

fn mesh_sim(edit: Option<(usize, f64)>) -> Simulation {
    Simulation::from_netlist(&mesh_netlist(48, edit), &["n3_3"])
        .unwrap()
        .horizon(2e-6)
}

fn grid_sim(r_segment: f64) -> Simulation {
    let spec = PowerGridSpec {
        layers: 2,
        rows: 4,
        cols: 4,
        num_loads: 3,
        r_segment,
        ..Default::default()
    };
    let na = assemble_na(&spec.build(), &[]).unwrap();
    Simulation::from_multiterm(na.system.to_multiterm()).horizon(8e-9)
}

fn cpe_sim(r_first: f64) -> Simulation {
    let mut s = String::from("* R-CPE ladder\nV1 in 0 DC 1\n");
    let mut prev = "in".to_string();
    for k in 1..=64 {
        let r = if k == 1 { r_first } else { 1e3 };
        let _ = writeln!(s, "R{k} {prev} n{k} {r:e}");
        let _ = writeln!(s, "P{k} n{k} 0 CPE 1e-6 0.5");
        prev = format!("n{k}");
    }
    s.push_str(".end\n");
    Simulation::from_netlist(&s, &["n8"]).unwrap().horizon(1e-3)
}

fn diode_sim(r_load: f64) -> Simulation {
    let mut s = String::from(
        "* rectifier into an RC ladder\nV1 in 0 SIN(0 1 1)\nR0 in a 0.1\nD1 a out 1e-14\nC0 out 0 0.2\n",
    );
    let mut prev = "out".to_string();
    for k in 1..=32 {
        let _ = writeln!(s, "R{k} {prev} l{k} 0.05");
        let _ = writeln!(s, "C{k} l{k} 0 0.01");
        prev = format!("l{k}");
    }
    let _ = writeln!(s, "RL {prev} 0 {r_load:e}");
    s.push_str(".end\n");
    Simulation::from_netlist(&s, &["l32"]).unwrap().horizon(2.0)
}

/// Builds `primer` then `variant` through one cache, checks the variant
/// was a plan miss but a pattern hit whose build booked 0 symbolic + 1
/// numeric factorizations, and that every solve on it equals a fresh
/// plan's bit for bit.
fn check_pattern_hit(name: &str, primer: &Simulation, variant: &Simulation, m: usize) {
    let opts = SolveOptions::new().resolution(m);
    let stimulus = InputSet::new(
        (0..primer.model().num_inputs())
            .map(|_| Waveform::step(0.0, 1.0))
            .collect(),
    );
    let cache = PlanCache::new(4);
    let (_, hit) = cache.get_or_plan_traced(primer, &opts).unwrap();
    assert!(!hit);
    let (plan, hit) = cache.get_or_plan_traced(variant, &opts).unwrap();
    assert!(!hit, "{name}: a value edit must miss the plan tier");
    let want = PatternStats {
        hits: 1,
        misses: 1,
        fallbacks: 0,
    };
    assert_eq!(cache.pattern_stats(), want, "{name}");
    let p = plan.factor_profile();
    assert_eq!(
        (p.num_symbolic, p.num_numeric),
        (0, 1),
        "{name}: build profile"
    );

    let fresh = variant.plan(&opts).unwrap();
    assert_eq!(
        solve_bits(&plan, variant, &stimulus),
        solve_bits(&fresh, variant, &stimulus),
        "{name}: a pattern-hit plan must equal a fresh plan bit for bit"
    );
    assert_eq!(p.factor_nnz, fresh.factor_profile().factor_nnz, "{name}");
}

#[test]
fn pattern_hit_on_the_mesh_equals_a_fresh_plan() {
    check_pattern_hit("mesh", &mesh_sim(None), &mesh_sim(Some((1000, 137.0))), 8);
}

#[test]
fn pattern_hit_on_the_table2_grid_equals_a_fresh_plan() {
    check_pattern_hit("grid", &grid_sim(0.1), &grid_sim(0.13), 64);
}

#[test]
fn pattern_hit_on_the_cpe_ladder_equals_a_fresh_plan() {
    check_pattern_hit("cpe", &cpe_sim(1e3), &cpe_sim(1.3e3), 64);
}

#[test]
fn pattern_hit_on_the_diode_ladder_equals_a_fresh_plan() {
    check_pattern_hit("diode", &diode_sim(10.0), &diode_sim(12.5), 64);
}

/// Value sets drawn as the serving benchmark's cold workload draws them
/// — one mesh resistor scaled by 0.5–1.5 — replay exactly every time:
/// no pattern fallback, and each plan equals a fresh one.
#[test]
fn mesh_cold_draws_never_fall_back() {
    let opts = SolveOptions::new().resolution(8);
    let stimulus = InputSet::new(vec![Waveform::step(0.0, 1.0)]);
    let cache = PlanCache::new(4);
    cache.get_or_plan(&mesh_sim(None), &opts).unwrap();
    let resistors = 2 * 48 * 47;
    let mut rng = StdRng::seed_from_u64(7);
    let draws = 12;
    for _ in 0..draws {
        let edit = (
            rng.random_range(0..resistors),
            100.0 * rng.random_range(0.5..1.5),
        );
        let sim = mesh_sim(Some(edit));
        let plan = cache.get_or_plan(&sim, &opts).unwrap();
        let fresh = sim.plan(&opts).unwrap();
        assert_eq!(
            bits(&plan.solve(&stimulus).unwrap()),
            bits(&fresh.solve(&stimulus).unwrap()),
            "resistor {} at {} Ω",
            edit.0,
            edit.1
        );
    }
    let stats = cache.pattern_stats();
    assert_eq!((stats.hits, stats.fallbacks), (draws, 0), "{stats:?}");
}

/// A value set a fresh factorization pivots differently is refused by
/// the exact replay: the build factors fresh under the interned
/// ordering, books 1 symbolic factorization like a fresh plan, and still
/// equals the fresh plan bit for bit.
#[test]
fn pivot_mismatch_falls_back_to_a_fresh_factorization() {
    use opm::sparse::{CooMatrix, CsrMatrix};
    use opm::system::DescriptorSystem;
    // ẋ = A·x + u with E = I: the plan factors 8·I − A at m = 4, T = 1.
    // With A₀₀ = 8 − 1e-4 the diagonal pivot of column 0 drops far
    // below the pivot threshold against A₁₀ = 3, so a fresh factor swaps
    // rows where the primer's analysis kept the diagonal.
    let sim = |a00: f64| {
        let mut a = CooMatrix::new(2, 2);
        a.push(0, 0, a00);
        a.push(0, 1, 2.0);
        a.push(1, 0, 3.0);
        a.push(1, 1, -4.0);
        let mut b = CooMatrix::new(2, 1);
        b.push(0, 0, 1.0);
        let sys =
            DescriptorSystem::new(CsrMatrix::identity(2), a.to_csr(), b.to_csr(), None).unwrap();
        Simulation::from_system(sys).horizon(1.0)
    };
    let opts = SolveOptions::new().resolution(4);
    let cache = PlanCache::new(4);
    cache.get_or_plan(&sim(-1.0), &opts).unwrap();
    let variant = sim(8.0 - 1e-4);
    let plan = cache.get_or_plan(&variant, &opts).unwrap();
    let want = PatternStats {
        hits: 0,
        misses: 1,
        fallbacks: 1,
    };
    assert_eq!(cache.pattern_stats(), want);
    let p = plan.factor_profile();
    assert_eq!((p.num_symbolic, p.num_numeric), (1, 0), "fallback profile");
    let fresh = variant.plan(&opts).unwrap();
    let stimulus = InputSet::new(vec![Waveform::step(0.0, 1.0)]);
    assert_eq!(
        solve_bits(&plan, &variant, &stimulus),
        solve_bits(&fresh, &variant, &stimulus)
    );
}

/// An RC ladder with a settable first resistor (a linear model for the
/// adaptive plan kind).
fn rc_ladder_sim(r_first: f64) -> Simulation {
    let mut s = String::from("* RC ladder\nV1 in 0 DC 1\n");
    let mut prev = "in".to_string();
    for k in 1..=16 {
        let r = if k == 1 { r_first } else { 1e3 };
        let _ = writeln!(s, "R{k} {prev} n{k} {r:e}");
        let _ = writeln!(s, "C{k} n{k} 0 1e-6");
        prev = format!("n{k}");
    }
    s.push_str(".end\n");
    Simulation::from_netlist(&s, &["n16"])
        .unwrap()
        .horizon(5e-3)
}

/// Adaptive and step-grid plans record their pencil family's analysis
/// through the pattern tier like uniform plans: the second of two
/// value-perturbed plans of each kind is a pattern hit whose build
/// books 0 symbolic factorizations, and every solve on either equals a
/// fresh plan's bit for bit.
#[test]
fn adaptive_and_step_grid_plans_hit_the_pattern_tier() {
    use opm::core::adaptive::{geometric_grid, AdaptiveOpmOptions};
    let adaptive = SolveOptions::new().adaptive(AdaptiveOpmOptions {
        tol: 1e-4,
        h0: 1e-5,
        h_min: 1e-7,
        h_max: 2.5e-4,
    });
    let step_grid = SolveOptions::new().step_grid(geometric_grid(1e-3, 16, 1.15));
    let stimulus = InputSet::new(vec![Waveform::step(0.0, 1.0)]);
    let cache = PlanCache::new(8);
    let kinds = [
        (
            "adaptive",
            &adaptive,
            rc_ladder_sim(1e3),
            rc_ladder_sim(1.3e3),
        ),
        ("step-grid", &step_grid, cpe_sim(1e3), cpe_sim(1.3e3)),
    ];
    for (round, (name, opts, primer, variant)) in kinds.iter().enumerate() {
        for (k, sim) in [primer, variant].into_iter().enumerate() {
            let plan = cache.plan(sim, opts).unwrap();
            let p = plan.factor_profile();
            assert_eq!(
                p.num_symbolic,
                usize::from(k == 0),
                "{name} #{k}: build profile"
            );
            let fresh = sim.plan(opts).unwrap();
            for _ in 0..2 {
                let (a, b) = (
                    plan.solve(&stimulus).unwrap(),
                    fresh.solve(&stimulus).unwrap(),
                );
                assert_eq!(
                    bits(&a),
                    bits(&b),
                    "{name} #{k}: solves must equal a fresh plan's"
                );
                assert_eq!(a.bounds, b.bounds, "{name} #{k}: the step sequence");
            }
        }
        let hits = round as u64 + 1;
        let want = PatternStats {
            hits,
            misses: hits,
            fallbacks: 0,
        };
        assert_eq!(cache.pattern_stats(), want, "{name}");
    }
}
