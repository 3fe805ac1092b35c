//! Property-based tests for sparse formats and solvers.
//!
//! Randomized cases are drawn from a fixed-seed [`StdRng`] so every CI
//! run exercises the identical sample set — failures reproduce exactly.

use opm_rng::StdRng;
use opm_sparse::lu::{SparseLu, SymbolicLu};
use opm_sparse::ordering::{amd, rcm};
use opm_sparse::pencil::ShiftedPencil;
use opm_sparse::{CooMatrix, CsrMatrix, SparseError};

const CASES: usize = 32;

/// Random sparse square matrix with up to `extra` off-diagonal triplets,
/// made diagonally dominant so it is comfortably nonsingular.
fn dd_sparse(rng: &mut StdRng, n: usize, extra: usize) -> CsrMatrix {
    let mut c = CooMatrix::new(n, n);
    for _ in 0..rng.random_range(0..extra) {
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i != j {
            c.push(i, j, rng.random_range(-1.0..1.0));
        }
    }
    let partial = c.to_csr();
    let mut full = CooMatrix::new(n, n);
    for i in 0..n {
        let mut rowsum = 0.0;
        for (j, v) in partial.row(i) {
            full.push(i, j, v);
            rowsum += v.abs();
        }
        // Column entries also contribute to the column sums; bounding by
        // the max possible keeps things dominant without bookkeeping.
        full.push(i, i, rowsum + (extra as f64) + 1.0);
    }
    full.to_csr()
}

#[test]
fn coo_to_csr_matches_dense_accumulation() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0001);
    for _ in 0..CASES {
        let mut c = CooMatrix::new(6, 6);
        let mut dense = [[0.0f64; 6]; 6];
        for _ in 0..rng.random_range(0..40usize) {
            let (i, j) = (rng.random_range(0..6usize), rng.random_range(0..6usize));
            let v = rng.random_range(-3.0..3.0);
            c.push(i, j, v);
            dense[i][j] += v;
        }
        let csr = c.to_csr();
        for (i, row) in dense.iter().enumerate() {
            for (j, want) in row.iter().enumerate() {
                assert!((csr.get(i, j) - want).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn spmv_is_linear() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0002);
    for _ in 0..CASES {
        let a = dd_sparse(&mut rng, 8, 30);
        let x = rng.vec_in(-5.0..5.0, 8);
        let y = rng.vec_in(-5.0..5.0, 8);
        let k = rng.random_range(-3.0..3.0);
        let combo: Vec<f64> = x.iter().zip(&y).map(|(p, q)| p + k * q).collect();
        let lhs = a.mul_vec(&combo);
        let ax = a.mul_vec(&x);
        let ay = a.mul_vec(&y);
        for i in 0..8 {
            assert!((lhs[i] - (ax[i] + k * ay[i])).abs() < 1e-9);
        }
    }
}

#[test]
fn transpose_involution() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0003);
    for _ in 0..CASES {
        let a = dd_sparse(&mut rng, 7, 25);
        assert_eq!(a.transpose().transpose(), a);
    }
}

#[test]
fn lin_comb_matches_dense() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0004);
    for _ in 0..CASES {
        let a = dd_sparse(&mut rng, 6, 20);
        let b = dd_sparse(&mut rng, 6, 20);
        let al = rng.random_range(-2.0..2.0);
        let be = rng.random_range(-2.0..2.0);
        let c = a.lin_comb(al, be, &b);
        let cd = a.to_dense().scale(al).add(&b.to_dense().scale(be));
        assert!(c.to_dense().sub(&cd).norm_max() < 1e-12);
    }
}

#[test]
fn sparse_lu_solves() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0005);
    for _ in 0..CASES {
        let a = dd_sparse(&mut rng, 10, 50);
        let b = rng.vec_in(-5.0..5.0, 10);
        let lu = SparseLu::factor(&a.to_csc(), None).expect("dd is nonsingular");
        let x = lu.solve(&b);
        let r = a.mul_vec(&x);
        for i in 0..10 {
            assert!((r[i] - b[i]).abs() < 1e-8);
        }
    }
}

#[test]
fn sparse_lu_with_orderings_agree() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0006);
    for _ in 0..CASES {
        let a = dd_sparse(&mut rng, 9, 40);
        let b = rng.vec_in(-5.0..5.0, 9);
        let x0 = SparseLu::factor(&a.to_csc(), None).unwrap().solve(&b);
        let x1 = SparseLu::factor(&a.to_csc(), Some(&rcm(&a)))
            .unwrap()
            .solve(&b);
        let x2 = SparseLu::factor(&a.to_csc(), Some(&amd(&a)))
            .unwrap()
            .solve(&b);
        for i in 0..9 {
            assert!((x0[i] - x1[i]).abs() < 1e-8);
            assert!((x0[i] - x2[i]).abs() < 1e-8);
        }
    }
}

#[test]
fn lu_det_sign_consistent_with_dense() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0008);
    for _ in 0..CASES {
        let a = dd_sparse(&mut rng, 5, 15);
        let ds = SparseLu::factor(&a.to_csc(), None).unwrap().det();
        let dd = a.to_dense().factor_lu().unwrap().det();
        assert!((ds - dd).abs() < 1e-8 * dd.abs().max(1.0));
    }
}

/// Symbolic/numeric split: for random pencil families `σ·E − A` (random
/// patterns, random values, random shift sequences) a numeric
/// refactorization against one shared symbolic analysis must agree with
/// a fresh pivoted factorization of the same matrix to 1e-12.
#[test]
fn refactor_agrees_with_fresh_factor_over_random_shifts() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0011);
    for case in 0..CASES {
        let n = 8 + rng.random_range(0..24usize);
        let e = dd_sparse(&mut rng, n, 3 * n);
        // −A diagonally dominant keeps σE − A comfortably nonsingular
        // for every positive shift.
        let a = dd_sparse(&mut rng, n, 3 * n).scale(-1.0);
        let mut pencil = ShiftedPencil::new(&e, &a);
        let order = rcm(&pencil.pattern().to_csr());
        let sigma0 = 1.0 + 4.0 * rng.random();
        let (sym, _) = SymbolicLu::factor(pencil.shifted(sigma0), Some(&order)).unwrap();
        let b = rng.vec_in(-2.0..2.0, n);
        let mut vals = Vec::new();
        for shift in 0..6 {
            let sigma = 0.5 + 8.0 * rng.random();
            pencil.shift_values(sigma, &mut vals);
            let x_re = SparseLu::refactor(&sym, &vals).unwrap().solve(&b);
            let x_fresh = SparseLu::factor(pencil.shifted(sigma), Some(&order))
                .unwrap()
                .solve(&b);
            for i in 0..n {
                assert!(
                    (x_re[i] - x_fresh[i]).abs() < 1e-12,
                    "case {case}, shift {shift}, row {i}: {} vs {}",
                    x_re[i],
                    x_fresh[i]
                );
            }
        }
    }
}

/// A shift that cancels the analyzed pivot must be *refused* by the
/// numeric refactorization (pivot degradation), and the fresh pivoted
/// fallback must still solve the system.
#[test]
fn refactor_degradation_falls_back_to_fresh_factor() {
    // E = diag(1, 1), A = [[−2, 1], [1, −3]]: the pencil σE − A keeps
    // the diagonal pivot for moderate σ, but σ = −2 zeroes entry (0,0).
    let mut ec = CooMatrix::new(2, 2);
    ec.push(0, 0, 1.0);
    ec.push(1, 1, 1.0);
    let mut ac = CooMatrix::new(2, 2);
    ac.push(0, 0, -2.0);
    ac.push(0, 1, 1.0);
    ac.push(1, 0, 1.0);
    ac.push(1, 1, -3.0);
    let (e, a) = (ec.to_csr(), ac.to_csr());
    let mut pencil = ShiftedPencil::new(&e, &a);
    let (sym, _) = SymbolicLu::factor(pencil.shifted(1.0), None).unwrap();

    // Benign shift: refactor accepted, agrees with a fresh factor.
    let mut vals = Vec::new();
    pencil.shift_values(2.0, &mut vals);
    let x_re = SparseLu::refactor(&sym, &vals).unwrap().solve(&[1.0, 2.0]);
    let x_fr = SparseLu::factor(pencil.shifted(2.0), None)
        .unwrap()
        .solve(&[1.0, 2.0]);
    assert!((x_re[0] - x_fr[0]).abs() < 1e-12 && (x_re[1] - x_fr[1]).abs() < 1e-12);

    // Degenerate shift: the fixed (0,0) pivot collapses to ~0 while the
    // off-diagonal stays O(1) — refactor must refuse...
    let sigma_bad = -2.0 + 1e-15;
    pencil.shift_values(sigma_bad, &mut vals);
    let err = SparseLu::refactor(&sym, &vals).unwrap_err();
    assert!(matches!(err, SparseError::PivotDegraded(_)), "{err:?}");
    // ...and the fresh pivoted fallback must succeed (row swap).
    let lu = SparseLu::factor(pencil.shifted(sigma_bad), None).unwrap();
    let x = lu.solve(&[1.0, 2.0]);
    let m = pencil.shifted(sigma_bad).to_csr();
    let r: Vec<f64> = m
        .mul_vec(&x)
        .iter()
        .zip([1.0, 2.0])
        .map(|(y, b)| (y - b).abs())
        .collect();
    assert!(r.iter().all(|&v| v < 1e-9), "fallback residual {r:?}");
}

/// Panel block solves are bit-identical to the scalar reference across
/// ragged lane counts — `lanes % 8 != 0`, `lanes == 1`, lanes beyond the
/// widest register panel — on random sparse patterns. `assert_eq!` (not
/// a tolerance): lanes are independent, so panelling must not change a
/// single bit.
#[test]
fn panel_block_solve_bit_identical_to_scalar() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0010);
    for case in 0..CASES {
        let n = rng.random_range(3..28usize);
        let a = dd_sparse(&mut rng, n, 6 * n);
        let lu = SparseLu::factor(&a.to_csc(), Some(&rcm(&a))).unwrap();
        for lanes in [1usize, 3, 7, 8, 11, 16, 29, 37, 64, 100] {
            let b = rng.vec_in(-4.0..4.0, n * lanes);
            let mut scalar = vec![0.0; n * lanes];
            let mut panels = vec![0.0; n * lanes];
            lu.solve_block_into_scalar(&b, &mut scalar, lanes);
            lu.solve_block_into(&b, &mut panels, lanes);
            assert_eq!(scalar, panels, "case {case}, n = {n}, lanes = {lanes}");
        }
    }
}

/// Panel SpMM is bit-identical to the scalar reference across ragged
/// lane counts on random sparse patterns.
#[test]
fn panel_block_spmm_bit_identical_to_scalar() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0011);
    for case in 0..CASES {
        let n = rng.random_range(2..24usize);
        let a = dd_sparse(&mut rng, n, 8 * n);
        for lanes in [1usize, 2, 5, 8, 13, 16, 21, 32, 57] {
            let x = rng.vec_in(-3.0..3.0, n * lanes);
            let mut scalar = vec![0.0; n * lanes];
            let mut panels = vec![0.0; n * lanes];
            a.mul_block_into_scalar(&x, &mut scalar, lanes);
            a.mul_block_into(&x, &mut panels, lanes);
            assert_eq!(scalar, panels, "case {case}, n = {n}, lanes = {lanes}");
        }
    }
}
