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
        // Up to 400 stamps on 36 entries: enough repeats for the
        // summation order to show in the low bits.
        for _ in 0..rng.random_range(0..400usize) {
            let (i, j) = (rng.random_range(0..6usize), rng.random_range(0..6usize));
            let v = rng.random_range(-3.0..3.0);
            c.push(i, j, v);
            dense[i][j] += v;
        }
        // Duplicates are summed in push order, so the sums match the
        // push-order accumulation bit for bit.
        let csr = c.to_csr();
        for (i, row) in dense.iter().enumerate() {
            for (j, want) in row.iter().enumerate() {
                assert_eq!(csr.get(i, j).to_bits(), want.to_bits(), "({i}, {j})");
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
/// E = diag(1, 1), A = [[−2, 1], [1, −3]]: the pencil σE − A keeps the
/// diagonal pivot for moderate σ, but [`DEGRADED_SHIFT`] all but zeroes
/// entry (0,0).
fn degradable_pencil() -> (CsrMatrix, CsrMatrix) {
    let mut ec = CooMatrix::new(2, 2);
    ec.push(0, 0, 1.0);
    ec.push(1, 1, 1.0);
    let mut ac = CooMatrix::new(2, 2);
    ac.push(0, 0, -2.0);
    ac.push(0, 1, 1.0);
    ac.push(1, 0, 1.0);
    ac.push(1, 1, -3.0);
    (ec.to_csr(), ac.to_csr())
}

/// The shift at which [`degradable_pencil`]'s recorded pivot degrades.
const DEGRADED_SHIFT: f64 = -2.0 + 1e-15;

#[test]
fn refactor_degradation_falls_back_to_fresh_factor() {
    let (e, a) = degradable_pencil();
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
    let sigma_bad = DEGRADED_SHIFT;
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

/// [`dd_sparse`] with a fully dense trailing `corner × corner` block —
/// the shape whose factors fill in their elimination corner.
fn dd_with_dense_corner(rng: &mut StdRng, n: usize, corner: usize) -> CsrMatrix {
    let base = dd_sparse(rng, n, 2 * n);
    let mut c = CooMatrix::new(n, n);
    for i in 0..n {
        for (j, v) in base.row(i) {
            c.push(i, j, v);
        }
    }
    for i in n - corner..n {
        for j in n - corner..n {
            c.push(i, j, rng.random_range(-0.1..0.1));
        }
    }
    c.to_csr()
}

/// Asserts two factors are the same bit for bit: every field (`Debug`
/// prints each `f64` exactly, sign of zero included) and the single-
/// and multi-lane solves.
fn assert_same_factor(got: &SparseLu, want: &SparseLu, what: &str) {
    assert!(got == want, "{what}: factors differ");
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
    let n = want.dim();
    let lanes = 3;
    let b: Vec<f64> = (0..n * lanes).map(|i| (i as f64 * 0.61).sin()).collect();
    let bits = |lu: &SparseLu| -> Vec<u64> {
        let mut out = vec![0.0; n * lanes];
        lu.solve_block_into(&b, &mut out, lanes);
        out.extend(lu.solve(&b[..n]));
        out.iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(got), bits(want), "{what}: solves");
}

/// `refactor_into` does not depend on what its target last held: an
/// empty slot, the fresh fallback factor of the degraded 2×2 shift
/// (other pivots), a factor of another pattern and dimension (with and
/// without a dense corner), the same analysis at other values, and the
/// partial state a `PivotDegraded` or `Singular` call left behind all
/// end equal, field for field, to a fresh `refactor` of the same values.
#[test]
fn refactor_into_is_independent_of_the_prior_factor() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0012);
    let (e2, a2) = degradable_pencil();
    let mut small = ShiftedPencil::new(&e2, &a2);
    let (small_sym, _) = SymbolicLu::factor(small.shifted(1.0), None).unwrap();
    let fallback = SparseLu::factor(small.shifted(DEGRADED_SHIFT), None).unwrap();
    let mut degraded_vals = Vec::new();
    small.shift_values(DEGRADED_SHIFT, &mut degraded_vals);
    let mut after_degraded = fallback.clone();
    let err = after_degraded
        .refactor_into(&small_sym, &degraded_vals)
        .unwrap_err();
    assert!(matches!(err, SparseError::PivotDegraded(0)), "{err:?}");

    let mut previous: Option<SparseLu> = None;
    for case in 0..CASES {
        let n = 10 + rng.random_range(0..20usize);
        let e = dd_sparse(&mut rng, n, 2 * n);
        let a = if case % 2 == 0 {
            let corner = 8 + rng.random_range(0..3usize);
            dd_with_dense_corner(&mut rng, n, corner)
        } else {
            dd_sparse(&mut rng, n, 3 * n)
        }
        .scale(-1.0);
        let mut pencil = ShiftedPencil::new(&e, &a);
        let order = amd(&pencil.pattern().to_csr());
        let (sym, _) = SymbolicLu::factor(pencil.shifted(1.0), Some(&order)).unwrap();
        let mut vals = Vec::new();
        pencil.shift_values(0.5 + 4.0 * rng.random(), &mut vals);
        let want = SparseLu::refactor(&sym, &vals).unwrap();

        let mut other_vals = Vec::new();
        pencil.shift_values(5.0 + 4.0 * rng.random(), &mut other_vals);
        let same_pattern = SparseLu::refactor(&sym, &other_vals).unwrap();
        // A NaN in the last pivotal column stops the replay there, with
        // that column's values (NaN included) left in the accumulator.
        let mut nan_vals = other_vals.clone();
        nan_vals[pencil.pattern().colptr()[order.old_of(n - 1)]] = f64::NAN;
        let mut after_singular = same_pattern.clone();
        let err = after_singular.refactor_into(&sym, &nan_vals).unwrap_err();
        assert!(matches!(err, SparseError::Singular(_)), "{err:?}");

        let mut priors = vec![
            ("empty", SparseLu::default()),
            ("degraded-shift fallback", fallback.clone()),
            ("after PivotDegraded", after_degraded.clone()),
            ("same pattern, other values", same_pattern),
            ("after Singular", after_singular),
        ];
        if let Some(prev) = previous.take() {
            priors.push(("another pattern and dimension", prev));
        }
        for (what, prior) in priors {
            let mut lu = prior;
            lu.refactor_into(&sym, &vals).unwrap();
            assert_same_factor(&lu, &want, &format!("case {case}, prior {what}"));
        }
        previous = Some(want);
    }
}

/// A random sparse matrix that needs pivoting: [`dd_sparse`] with its
/// rows shifted up by one and its diagonal removed, so the dominant
/// entry of every row sits right of a structurally zero diagonal.
fn pivoting_sparse(rng: &mut StdRng, n: usize, extra: usize) -> CsrMatrix {
    let dd = dd_sparse(rng, n, extra);
    let mut c = CooMatrix::new(n, n);
    for i in 0..n {
        for (j, v) in dd.row((i + 1) % n) {
            if j != i {
                c.push(i, j, v);
            }
        }
    }
    c.to_csr()
}

/// The bits of `lu`'s four solve paths on the `n × lanes` block `b`,
/// lane-major and with every zero made positive: `solve` and
/// `solve_into` lane by lane, `solve_block_into` and its scalar
/// reference on the whole block.
fn solve_paths(lu: &SparseLu, b: &[f64], lanes: usize) -> [Vec<u64>; 4] {
    let n = lu.dim();
    let lane_major = |v: &[f64]| -> Vec<u64> {
        (0..lanes)
            .flat_map(|l| (0..n).map(move |i| (v[i * lanes + l] + 0.0).to_bits()))
            .collect()
    };
    let (mut solve, mut into) = (vec![0.0; n * lanes], vec![0.0; n * lanes]);
    for l in 0..lanes {
        let bl: Vec<f64> = (0..n).map(|i| b[i * lanes + l]).collect();
        for (i, x) in lu.solve(&bl).into_iter().enumerate() {
            solve[i * lanes + l] = x;
        }
        let mut out = vec![0.0; n];
        // Scratch contents on entry must not matter.
        lu.solve_into(&bl, &mut out, &mut vec![7.0; n]);
        for (i, x) in out.into_iter().enumerate() {
            into[i * lanes + l] = x;
        }
    }
    let (mut block, mut scalar) = (vec![0.0; n * lanes], vec![0.0; n * lanes]);
    lu.solve_block_into(b, &mut block, lanes);
    lu.solve_block_into_scalar(b, &mut scalar, lanes);
    [&solve, &into, &block, &scalar].map(|v| lane_major(v))
}

/// On random matrices that need pivoting, every way to a factor —
/// `SparseLu::factor`, `SymbolicLu::factor`, and `refactor` and
/// `refactor_exact` of the analysed values — solves alike on all four
/// solve paths (up to the sign of zero), and the solves are right. An
/// exact replay of other values, where it accepts, is the fresh
/// recorded factor of those values.
#[test]
fn every_factor_path_solves_alike_under_pivoting() {
    let mut rng = StdRng::seed_from_u64(0x5AA_0013);
    let mut accepted = 0;
    for case in 0..CASES {
        let n = 4 + rng.random_range(0..28usize);
        let a = pivoting_sparse(&mut rng, n, 3 * n);
        let csc = a.to_csc();
        let order = amd(&a);
        let (sym, recorded) = SymbolicLu::factor(&csc, Some(&order)).unwrap();
        let factors = [
            ("factor", SparseLu::factor(&csc, Some(&order)).unwrap()),
            ("SymbolicLu::factor", recorded),
            ("refactor", SparseLu::refactor(&sym, csc.values()).unwrap()),
            (
                "refactor_exact",
                SparseLu::refactor_exact(&sym, csc.values()).unwrap(),
            ),
        ];
        let lanes = 1 + rng.random_range(0..12usize);
        let b = rng.vec_in(-2.0..2.0, n * lanes);
        let want = solve_paths(&factors[0].1, &b, lanes);
        for (what, lu) in &factors {
            let got = solve_paths(lu, &b, lanes);
            for (path, bits) in got.iter().enumerate() {
                assert_eq!(bits, &want[0], "case {case}: {what}, solve path {path}");
            }
        }
        let x: Vec<f64> = want[0].iter().map(|&v| f64::from_bits(v)).collect();
        for l in 0..lanes {
            let xl = &x[l * n..(l + 1) * n];
            for (i, ax) in a.mul_vec(xl).into_iter().enumerate() {
                assert!(
                    (ax - b[i * lanes + l]).abs() < 1e-9,
                    "case {case}: residual"
                );
            }
        }

        let other: Vec<f64> = (csc.values().iter())
            .map(|&v| v * rng.random_range(0.5..1.5))
            .collect();
        if let Ok(lu) = SparseLu::refactor_exact(&sym, &other) {
            let mut fresh = csc.clone();
            fresh.values_mut().copy_from_slice(&other);
            let (_, fresh) = SymbolicLu::factor(&fresh, Some(&order)).unwrap();
            assert_same_factor(&lu, &fresh, &format!("case {case}: exact replay"));
            accepted += 1;
        }
    }
    assert!(accepted > 0, "no exact replay of perturbed values accepted");
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
