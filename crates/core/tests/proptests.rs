//! Property-based tests for the OPM solvers: the fast paths must agree
//! with the brute-force Kronecker oracle on randomized systems, and
//! physical invariants must hold for randomized circuits.
//!
//! Randomized cases are drawn from a fixed-seed [`StdRng`] so every CI
//! run exercises the identical sample set — failures reproduce exactly.

use opm_core::{OpmResult, Simulation, SolveOptions};
use opm_oracle::{accumulator_solve, kron_solve_fractional, kron_solve_linear};
use opm_rng::StdRng;
use opm_sparse::{CooMatrix, CsrMatrix};
use opm_system::{DescriptorSystem, FractionalSystem};

const CASES: usize = 24;

/// One-shot linear solve through a fresh plan.
fn solve_linear(sys: &DescriptorSystem, u: &[Vec<f64>], t_end: f64, x0: &[f64]) -> OpmResult {
    Simulation::from_system(sys.clone())
        .horizon(t_end)
        .initial_state(x0.to_vec())
        .plan(&SolveOptions::new().resolution(u[0].len()))
        .unwrap()
        .solve_coeffs(u)
        .unwrap()
}

/// One-shot fractional solve through a fresh plan.
fn solve_fractional(fsys: &FractionalSystem, u: &[Vec<f64>], t_end: f64) -> OpmResult {
    Simulation::from_fractional(fsys.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(u[0].len()))
        .unwrap()
        .solve_coeffs(u)
        .unwrap()
}

/// Random stable-ish small descriptor system with one input: diagonally
/// dominant negative diagonal, mild coupling.
fn small_system(rng: &mut StdRng, n: usize) -> DescriptorSystem {
    let mut a = CooMatrix::new(n, n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                a.push(i, j, 0.3 * rng.random_range(-1.0..1.0));
            }
        }
        a.push(i, i, -(rng.random_range(0.2..2.0) + 1.0));
    }
    let mut b = CooMatrix::new(n, 1);
    b.push(0, 0, 1.0);
    DescriptorSystem::new(CsrMatrix::identity(n), a.to_csr(), b.to_csr(), None).unwrap()
}

fn inputs(rng: &mut StdRng, m: usize) -> Vec<Vec<f64>> {
    vec![rng.vec_in(-2.0..2.0, m)]
}

/// The linear fast path equals the Kronecker oracle to roundoff.
#[test]
fn linear_matches_kron_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC03E_0001);
    for _ in 0..CASES {
        let sys = small_system(&mut rng, 3);
        let u = inputs(&mut rng, 10);
        let fast = solve_linear(&sys, &u, 1.0, &[0.0, 0.0, 0.0]);
        let oracle = kron_solve_linear(&sys, &u, 1.0).unwrap();
        for j in 0..10 {
            for i in 0..3 {
                assert!(
                    (fast.state_coeff(i, j) - oracle[j][i]).abs() < 1e-8,
                    "state {i}, column {j}"
                );
            }
        }
    }
}

/// The accumulator form (paper's literal algorithm) equals the
/// endpoint recurrence.
#[test]
fn accumulator_equals_recurrence() {
    let mut rng = StdRng::seed_from_u64(0xC03E_0002);
    for _ in 0..CASES {
        let sys = small_system(&mut rng, 4);
        let u = inputs(&mut rng, 16);
        let a = solve_linear(&sys, &u, 2.0, &[0.0; 4]);
        let b = accumulator_solve(&sys, &u, 2.0, &[0.0; 4]).unwrap();
        for j in 0..16 {
            for i in 0..4 {
                assert!((a.state_coeff(i, j) - b[j][i]).abs() < 1e-8);
            }
        }
    }
}

/// Fractional fast path equals the Kronecker oracle.
#[test]
fn fractional_matches_kron_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC03E_0003);
    for _ in 0..CASES {
        let sys = small_system(&mut rng, 2);
        let u = inputs(&mut rng, 12);
        let alpha = rng.random_range(0.2..1.8);
        let fsys = FractionalSystem::new(alpha, sys).unwrap();
        let fast = solve_fractional(&fsys, &u, 1.0);
        let oracle = kron_solve_fractional(&fsys, &u, 1.0).unwrap();
        for j in 0..12 {
            for i in 0..2 {
                assert!(
                    (fast.state_coeff(i, j) - oracle[j][i]).abs() < 1e-7,
                    "α={alpha}, state {i}, column {j}"
                );
            }
        }
    }
}

/// Linearity of the solution map: solve(u1 + u2) = solve(u1) + solve(u2).
#[test]
fn superposition() {
    let mut rng = StdRng::seed_from_u64(0xC03E_0004);
    for _ in 0..CASES {
        let sys = small_system(&mut rng, 3);
        let u1 = inputs(&mut rng, 8);
        let u2 = inputs(&mut rng, 8);
        let sum: Vec<Vec<f64>> = vec![u1[0].iter().zip(&u2[0]).map(|(a, b)| a + b).collect()];
        let r1 = solve_linear(&sys, &u1, 1.0, &[0.0; 3]);
        let r2 = solve_linear(&sys, &u2, 1.0, &[0.0; 3]);
        let rs = solve_linear(&sys, &sum, 1.0, &[0.0; 3]);
        for j in 0..8 {
            for i in 0..3 {
                let lin = r1.state_coeff(i, j) + r2.state_coeff(i, j);
                assert!((rs.state_coeff(i, j) - lin).abs() < 1e-9);
            }
        }
    }
}

/// Stability: zero input and zero IC keep the state at zero exactly.
#[test]
fn zero_in_zero_out() {
    let mut rng = StdRng::seed_from_u64(0xC03E_0005);
    for _ in 0..CASES {
        let sys = small_system(&mut rng, 3);
        let m = rng.random_range(1usize..20);
        let u = vec![vec![0.0; m]];
        let r = solve_linear(&sys, &u, 1.0, &[0.0; 3]);
        for j in 0..m {
            for i in 0..3 {
                assert_eq!(r.state_coeff(i, j), 0.0);
            }
        }
    }
}

/// DC gain: for stable A and constant input, the final state
/// approaches −A⁻¹·B·u.
#[test]
fn dc_gain_reached() {
    let mut rng = StdRng::seed_from_u64(0xC03E_0006);
    for _ in 0..CASES {
        let sys = small_system(&mut rng, 2);
        let level = rng.random_range(0.5..2.0);
        let m = 600;
        let u = vec![vec![level; m]];
        let r = solve_linear(&sys, &u, 40.0, &[0.0, 0.0]);
        let (_, a, b) = sys.to_dense();
        let rhs = b
            .mul_vec(&opm_linalg::DVector::from_slice(&[level]))
            .scale(-1.0);
        let xdc = a.solve(&rhs).unwrap();
        for i in 0..2 {
            assert!(
                (r.state_coeff(i, m - 1) - xdc[i]).abs() < 1e-3 * xdc[i].abs().max(1.0),
                "state {i}: {} vs {}",
                r.state_coeff(i, m - 1),
                xdc[i]
            );
        }
    }
}

/// Panel stimulus application is bit-identical to the scalar reference
/// across ragged lane counts on random sparse `B` patterns — same
/// contract as the `opm-sparse` block-kernel proptests.
#[test]
fn panel_apply_b_block_bit_identical_to_scalar() {
    use opm_core::engine::{apply_b_block, apply_b_block_scalar};
    let mut rng = StdRng::seed_from_u64(0x5AA_0012);
    for case in 0..CASES {
        let n = rng.random_range(2..20usize);
        let ch = rng.random_range(1..6usize);
        let mut b = CooMatrix::new(n, ch);
        for _ in 0..rng.random_range(1..4 * n) {
            b.push(
                rng.random_range(0..n),
                rng.random_range(0..ch),
                rng.random_range(-2.0..2.0),
            );
        }
        let b = b.to_csr();
        for lanes in [1usize, 3, 8, 14, 16, 27, 40] {
            let u = rng.vec_in(-2.0..2.0, ch * lanes);
            let base = rng.vec_in(-1.0..1.0, n * lanes);
            let scale = rng.random_range(-2.0..2.0);
            let mut scalar = base.clone();
            let mut panels = base;
            apply_b_block_scalar(&b, &u, lanes, scale, &mut scalar);
            apply_b_block(&b, &u, lanes, scale, &mut panels);
            assert_eq!(scalar, panels, "case {case}, n = {n}, lanes = {lanes}");
        }
    }
}
