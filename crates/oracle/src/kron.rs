//! The explicit Kronecker (vec) formulation — paper Eqs. (15), (18), (27).
//!
//! `(Σ_k (D^{α_k})ᵀ ⊗ A_k)·vec(X) = (I_m ⊗ B)·vec(U)` assembled densely
//! and solved with dense LU: `O((nm)³)`, so guarded at `n·m ≤ 4096`.

use crate::{check_stimulus, dense_order, OracleError};
use opm_basis::bpf::BpfBasis;
use opm_linalg::kron::{kron, unvec, vec_of};
use opm_linalg::DMatrix;
use opm_system::{DescriptorSystem, FractionalSystem, MultiTermSystem};

/// Oracle solve of a multi-term system via the dense vec formulation:
/// assembles `Σ_k (D^{α_k})ᵀ ⊗ A_k`, factors it with dense LU and
/// solves against `vec(B·U)`. Returns the state columns `x_0 … x_{m−1}`.
///
/// # Errors
/// [`OracleError::BadArguments`] when `n·m` exceeds the dense guard
/// (4096), shapes mismatch or the horizon is not positive;
/// [`OracleError::Singular`] when the big matrix is singular.
pub fn kron_solve_multiterm(
    mt: &MultiTermSystem,
    u_coeffs: &[Vec<f64>],
    t_end: f64,
) -> Result<Vec<Vec<f64>>, OracleError> {
    let m = check_stimulus(mt.num_inputs(), u_coeffs, t_end)?;
    let n = mt.order();
    let nm = dense_order(n, m)?;
    let basis = BpfBasis::new(m, t_end);
    let mut big = DMatrix::zeros(nm, nm);
    for term in mt.terms() {
        let d_alpha = basis.frac_diff_matrix(term.alpha);
        big = big.add(&kron(&d_alpha.transpose(), &term.matrix.to_dense()));
    }
    let lu = big
        .factor_lu()
        .ok_or_else(|| OracleError::Singular("vec-form matrix singular".into()))?;
    // RHS: vec(B·U).
    let u = DMatrix::from_fn(u_coeffs.len(), m, |i, j| u_coeffs[i][j]);
    let bu = mt.b().to_dense().mul_mat(&u);
    let x = unvec(&lu.solve(&vec_of(&bu)), n, m);
    Ok((0..m).map(|j| x.col(j).into_vec()).collect())
}

/// Oracle solve of `E X D = A X + B U` (paper Eq. 15).
///
/// # Errors
/// As [`kron_solve_multiterm`].
pub fn kron_solve_linear(
    sys: &DescriptorSystem,
    u_coeffs: &[Vec<f64>],
    t_end: f64,
) -> Result<Vec<Vec<f64>>, OracleError> {
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
) -> Result<Vec<Vec<f64>>, OracleError> {
    kron_solve_multiterm(&MultiTermSystem::from_fractional(fsys), u_coeffs, t_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_sparse::{CooMatrix, CsrMatrix};

    #[test]
    fn guard_rejects_large_problems() {
        let mut a = CooMatrix::new(1, 1);
        a.push(0, 0, -1.0);
        let sys = DescriptorSystem::new(
            CsrMatrix::identity(1),
            a.to_csr(),
            CsrMatrix::identity(1),
            None,
        )
        .unwrap();
        let u = vec![vec![0.0; 5000]];
        assert!(matches!(
            kron_solve_linear(&sys, &u, 1.0),
            Err(OracleError::BadArguments(_))
        ));
    }
}
