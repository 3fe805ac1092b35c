//! The explicit Kronecker (vec) formulation — paper Eqs. (15), (18), (27).
//!
//! `(Σ_k (D^{α_k})ᵀ ⊗ A_k)·vec(X) = (I_m ⊗ B)·vec(U)` assembled densely
//! and solved with dense LU. Exponential in neither n nor m but `O((nm)³)`
//! — strictly an *oracle*: every fast path in this crate is tested for
//! exact (roundoff-level) agreement against it on small systems.

use crate::engine::{reconstruct_outputs, OutputMap};
use crate::result::OpmResult;
use crate::OpmError;
use opm_basis::bpf::BpfBasis;
use opm_linalg::kron::{kron, unvec, vec_of};
use opm_linalg::{DMatrix, DVector};
use opm_system::{DescriptorSystem, FractionalSystem, MultiTermSystem};

const MAX_DENSE: usize = 4096;

fn u_matrix(u_coeffs: &[Vec<f64>], m: usize) -> DMatrix {
    DMatrix::from_fn(u_coeffs.len(), m, |i, j| u_coeffs[i][j])
}

fn finish(columns_mat: DMatrix, out: &impl OutputMap, t_end: f64) -> OpmResult {
    let m = columns_mat.ncols();
    let n = columns_mat.nrows();
    let h = t_end / m as f64;
    let columns: Vec<Vec<f64>> = (0..m)
        .map(|j| (0..n).map(|i| columns_mat.get(i, j)).collect())
        .collect();
    let outputs = reconstruct_outputs(out, &columns);
    OpmResult {
        bounds: (0..=m).map(|k| k as f64 * h).collect(),
        columns,
        outputs,
        num_solves: 1,
        num_factorizations: 1,
    }
}

/// The dense oracle's stimulus-independent half: the factored Kronecker
/// matrix `Σ_k (D^{α_k})ᵀ ⊗ A_k`, cached by the plan layer so a whole
/// scenario batch pays the `O((nm)³)` factorization once.
pub(crate) struct KronFactors {
    lu: opm_linalg::LuFactors,
    m: usize,
}

/// Assembles and factors the dense vec-form matrix.
///
/// # Errors
/// [`OpmError::BadArguments`] when `n·m` exceeds the dense guard (4096);
/// [`OpmError::SingularPencil`] when the big matrix is singular.
pub(crate) fn kron_prepare(
    mt: &MultiTermSystem,
    m: usize,
    t_end: f64,
) -> Result<KronFactors, OpmError> {
    let n = mt.order();
    if m == 0 {
        return Err(OpmError::BadArguments("input shape mismatch".into()));
    }
    if n * m > MAX_DENSE {
        return Err(OpmError::BadArguments(format!(
            "n·m = {} exceeds the dense oracle guard",
            n * m
        )));
    }
    let basis = BpfBasis::new(m, t_end);
    // Big matrix: Σ_k (D^{α_k})ᵀ ⊗ A_k.
    let mut big = DMatrix::zeros(n * m, n * m);
    for term in mt.terms() {
        let d_alpha = basis.frac_diff_matrix(term.alpha);
        big = big.add(&kron(&d_alpha.transpose(), &term.matrix.to_dense()));
    }
    let lu = big
        .factor_lu()
        .ok_or_else(|| OpmError::SingularPencil("vec-form matrix singular".into()))?;
    Ok(KronFactors { lu, m })
}

/// Applies a prefactored oracle to one stimulus.
///
/// # Errors
/// [`OpmError::BadArguments`] on shape mismatches.
pub(crate) fn kron_solve_prepared(
    mt: &MultiTermSystem,
    factors: &KronFactors,
    u_coeffs: &[Vec<f64>],
    t_end: f64,
) -> Result<OpmResult, OpmError> {
    let m = u_coeffs.first().map_or(0, Vec::len);
    let n = mt.order();
    if m != factors.m || u_coeffs.len() != mt.num_inputs() {
        return Err(OpmError::BadArguments("input shape mismatch".into()));
    }
    // RHS: vec(B·U).
    let bu = mt.b().to_dense().mul_mat(&u_matrix(u_coeffs, m));
    let rhs = vec_of(&bu);
    let x = factors.lu.solve(&DVector::from(rhs.as_slice().to_vec()));
    let xm = unvec(&x, n, m);
    Ok(finish(xm, mt, t_end))
}

/// The fractional equation as a two-term system (shared by the oracle
/// entry point and the plan layer).
pub(crate) fn fractional_as_multiterm(fsys: &FractionalSystem) -> MultiTermSystem {
    use opm_system::Term;
    let sys = fsys.system();
    MultiTermSystem::new(
        vec![
            Term {
                alpha: fsys.alpha(),
                matrix: sys.e().clone(),
            },
            Term {
                alpha: 0.0,
                matrix: sys.a().scale(-1.0),
            },
        ],
        sys.b().clone(),
        sys.c().cloned(),
    )
    .expect("valid by construction")
}

/// Oracle solve of a multi-term system via the dense vec formulation.
///
/// # Errors
/// [`OpmError::BadArguments`] when `n·m` exceeds the dense guard
/// (4096) or shapes mismatch; [`OpmError::SingularPencil`] when the big
/// matrix is singular.
pub fn kron_solve_multiterm(
    mt: &MultiTermSystem,
    u_coeffs: &[Vec<f64>],
    t_end: f64,
) -> Result<OpmResult, OpmError> {
    let m = u_coeffs.first().map_or(0, Vec::len);
    if m == 0 || u_coeffs.len() != mt.num_inputs() {
        return Err(OpmError::BadArguments("input shape mismatch".into()));
    }
    let factors = kron_prepare(mt, m, t_end)?;
    kron_solve_prepared(mt, &factors, u_coeffs, t_end)
}

/// Oracle solve of `E X D = A X + B U` (paper Eq. 15).
///
/// # Errors
/// As [`kron_solve_multiterm`].
pub fn kron_solve_linear(
    sys: &DescriptorSystem,
    u_coeffs: &[Vec<f64>],
    t_end: f64,
) -> Result<OpmResult, OpmError> {
    kron_solve_multiterm(&MultiTermSystem::from_descriptor(sys), u_coeffs, t_end)
}

/// Oracle solve of the fractional equation (paper Eq. 27).
///
/// # Errors
/// As [`kron_solve_multiterm`].
pub fn kron_solve_fractional(
    fsys: &FractionalSystem,
    u_coeffs: &[Vec<f64>],
    t_end: f64,
) -> Result<OpmResult, OpmError> {
    kron_solve_multiterm(&fractional_as_multiterm(fsys), u_coeffs, t_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{solve_fractional, solve_linear};
    use crate::Method;
    use opm_sparse::{CooMatrix, CsrMatrix};
    use opm_waveform::{InputSet, Waveform};

    fn scalar(a: f64) -> DescriptorSystem {
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, a);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        DescriptorSystem::new(CsrMatrix::identity(1), am.to_csr(), b.to_csr(), None).unwrap()
    }

    #[test]
    fn linear_fast_path_matches_oracle_exactly() {
        let sys = scalar(-1.3);
        let m = 24;
        let u = InputSet::new(vec![Waveform::pulse(0.0, 1.0, 0.1, 0.05, 0.3, 0.05, 0.0)])
            .bpf_matrix(m, 1.0);
        let oracle = kron_solve_linear(&sys, &u, 1.0).unwrap();
        let fast = solve_linear(&sys, &u, 1.0, &[0.0]).unwrap();
        for j in 0..m {
            assert!(
                (oracle.state_coeff(0, j) - fast.state_coeff(0, j)).abs() < 1e-10,
                "column {j}: {} vs {}",
                oracle.state_coeff(0, j),
                fast.state_coeff(0, j)
            );
        }
    }

    #[test]
    fn fractional_fast_path_matches_oracle_exactly() {
        use opm_system::FractionalSystem;
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let m = 16;
        let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, 1.0);
        let oracle = kron_solve_fractional(&fsys, &u, 1.0).unwrap();
        let fast = solve_fractional(&fsys, &u, 1.0).unwrap();
        for j in 0..m {
            assert!(
                (oracle.state_coeff(0, j) - fast.state_coeff(0, j)).abs() < 1e-9,
                "column {j}"
            );
        }
    }

    #[test]
    fn multiterm_fast_path_matches_oracle_exactly() {
        use opm_system::{MultiTermSystem, Term};
        let mt = MultiTermSystem::new(
            vec![
                Term {
                    alpha: 2.0,
                    matrix: CsrMatrix::identity(1),
                },
                Term {
                    alpha: 1.0,
                    matrix: CsrMatrix::identity(1).scale(0.3),
                },
                Term {
                    alpha: 0.0,
                    matrix: CsrMatrix::identity(1).scale(2.0),
                },
            ],
            CsrMatrix::identity(1),
            None,
        )
        .unwrap();
        let m = 20;
        let u = InputSet::new(vec![Waveform::step(0.0, 1.0)]).bpf_matrix(m, 4.0);
        let oracle = kron_solve_multiterm(&mt, &u, 4.0).unwrap();
        let fast = crate::testkit::solve_multiterm(&mt, &u, 4.0, Method::Auto).unwrap();
        for j in 0..m {
            assert!(
                (oracle.state_coeff(0, j) - fast.state_coeff(0, j)).abs() < 1e-8,
                "column {j}: {} vs {}",
                oracle.state_coeff(0, j),
                fast.state_coeff(0, j)
            );
        }
    }

    #[test]
    fn tline_oracle_vs_fast_path() {
        // The Table I system at reduced m: n·m = 7·8 = 56 is oracle-sized.
        let model = opm_circuits::tline::FractionalLineSpec::default().assemble();
        let t_end = 2.7e-9;
        let m = 8;
        let u = model.inputs.bpf_matrix(m, t_end);
        let oracle = kron_solve_fractional(&model.system, &u, t_end).unwrap();
        let fast = solve_fractional(&model.system, &u, t_end).unwrap();
        for j in 0..m {
            for i in 0..7 {
                let a = oracle.state_coeff(i, j);
                let b = fast.state_coeff(i, j);
                assert!(
                    (a - b).abs() < 1e-9 * a.abs().max(1.0),
                    "state {i}, column {j}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn guard_rejects_large_problems() {
        let sys = scalar(-1.0);
        let u = vec![vec![0.0; 5000]];
        assert!(matches!(
            kron_solve_linear(&sys, &u, 1.0),
            Err(OpmError::BadArguments(_))
        ));
    }
}
