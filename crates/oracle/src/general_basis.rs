//! OPM in an arbitrary operational basis (Walsh, Haar, Legendre, …).
//!
//! The paper's §I argues OPM "can readily switch to using other basis
//! functions, each having its own merits". Discontinuous bases (Walsh,
//! Haar) have no differentiation matrix, so the general solver uses the
//! *integral form*: write `ẋ(t) = Y·φ(t)`; then
//! `x = Y·H·φ + x₀·c₁ᵀ·φ` (`c₁` = coefficients of the constant 1) and
//!
//! ```text
//! (I_m ⊗ E − Hᵀ ⊗ A)·vec(Y) = vec(A·x₀·c₁ᵀ + B·U)
//! ```
//!
//! `H` is dense for Walsh/Haar/Legendre, so the Kronecker system is
//! solved densely — adequate for the moderate `m` these bases need, and
//! exactly how the classical operational-matrix literature did it.

use crate::{check_x0, dense_order, OracleError};
use opm_basis::traits::Basis;
use opm_linalg::kron::{kron, unvec, vec_of};
use opm_linalg::{DMatrix, DVector};
use opm_system::DescriptorSystem;
use opm_waveform::InputSet;

/// Solution in a general basis: coefficient matrices for `x` and `ẋ`.
#[derive(Clone, Debug)]
pub struct GeneralBasisResult {
    /// State coefficients `X` (n × m): `x(t) ≈ X·φ(t)`.
    pub x_coeffs: DMatrix,
    /// Derivative coefficients `Y` (n × m).
    pub y_coeffs: DMatrix,
    /// Output coefficients (q × m).
    pub output_coeffs: DMatrix,
}

impl GeneralBasisResult {
    /// Reconstructs state `i` at time `t` with the basis that produced
    /// this result.
    pub fn reconstruct_state(&self, basis: &dyn Basis, i: usize, t: f64) -> f64 {
        let row: Vec<f64> = (0..self.x_coeffs.ncols())
            .map(|j| self.x_coeffs.get(i, j))
            .collect();
        basis.reconstruct(&row, t)
    }
}

/// A reusable general-basis session: the factored integral-form matrix
/// `(I_m ⊗ E − Hᵀ ⊗ A)` plus the basis-side constants, amortized over
/// many stimuli — the OPM plan's factor-once economy for the non-BPF
/// bases.
pub struct GeneralBasisPlan<'a> {
    sys: &'a DescriptorSystem,
    basis: &'a dyn Basis,
    lu: opm_linalg::LuFactors,
    h: DMatrix,
    b_d: DMatrix,
    /// `x₀·c₁ᵀ` and `A·x₀·c₁ᵀ`.
    x0_c1: DMatrix,
    a_x0_c1: DMatrix,
}

impl<'a> GeneralBasisPlan<'a> {
    /// Validates shapes and factors the integral-form matrix **once**.
    ///
    /// # Errors
    /// [`OracleError::BadArguments`] when `n·m` exceeds the dense guard or
    /// shapes mismatch; [`OracleError::Singular`] when the Kronecker
    /// matrix is singular.
    pub fn new(
        sys: &'a DescriptorSystem,
        basis: &'a dyn Basis,
        x0: &[f64],
    ) -> Result<Self, OracleError> {
        let (n, m) = (sys.order(), basis.dim());
        check_x0(n, x0)?;
        dense_order(n, m)?;
        let (e_d, a_d, b_d) = sys.to_dense();
        let h = basis.integration_matrix();
        let big = kron(&DMatrix::identity(m), &e_d).sub(&kron(&h.transpose(), &a_d));
        let lu = big
            .factor_lu()
            .ok_or_else(|| OracleError::Singular("integral-form matrix singular".into()))?;
        let (c1, ax0) = (basis.one_coeffs(), a_d.mul_vec(&DVector::from_slice(x0)));
        Ok(GeneralBasisPlan {
            sys,
            basis,
            lu,
            h,
            b_d,
            x0_c1: DMatrix::from_fn(n, m, |i, j| x0[i] * c1[j]),
            a_x0_c1: DMatrix::from_fn(n, m, |i, j| ax0[i] * c1[j]),
        })
    }

    /// Solves one stimulus against the cached factorization.
    ///
    /// # Errors
    /// [`OracleError::BadArguments`] on channel mismatches.
    pub fn solve(&self, inputs: &InputSet) -> Result<GeneralBasisResult, OracleError> {
        let (n, m, p) = (self.sys.order(), self.basis.dim(), self.sys.num_inputs());
        if inputs.len() != p {
            return Err(OracleError::BadArguments(format!(
                "{} input channels for {p} B columns",
                inputs.len()
            )));
        }
        let rows: Vec<Vec<f64>> = inputs
            .channels()
            .iter()
            .map(|w| self.basis.project(&|t| w.eval(t)))
            .collect();
        let u = DMatrix::from_fn(p, m, |ch, j| rows[ch][j]);
        // Y from A·x₀·c₁ᵀ + B·U, then X = Y·H + x₀·c₁ᵀ.
        let rhs = self.b_d.mul_mat(&u).add(&self.a_x0_c1);
        let y = unvec(&self.lu.solve(&vec_of(&rhs)), n, m);
        let x = y.mul_mat(&self.h).add(&self.x0_c1);
        let output_coeffs = match self.sys.c() {
            Some(c) => c.to_dense().mul_mat(&x),
            None => x.clone(),
        };
        Ok(GeneralBasisResult {
            x_coeffs: x,
            y_coeffs: y,
            output_coeffs,
        })
    }

    /// Solves many stimuli against the one cached factorization.
    ///
    /// # Errors
    /// As [`GeneralBasisPlan::solve`].
    pub fn solve_batch(&self, inputs: &[InputSet]) -> Result<Vec<GeneralBasisResult>, OracleError> {
        inputs.iter().map(|ws| self.solve(ws)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_basis::{BpfBasis, HaarBasis, LegendreBasis, WalshBasis};
    use opm_sparse::{CooMatrix, CsrMatrix};
    use opm_waveform::Waveform;

    fn scalar(a: f64) -> DescriptorSystem {
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, a);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        DescriptorSystem::new(CsrMatrix::identity(1), am.to_csr(), b.to_csr(), None).unwrap()
    }

    #[test]
    fn walsh_solution_spans_same_subspace_as_bpf() {
        // Walsh and BPF span identical piecewise-constant functions, so
        // the solved trajectories must agree after conversion.
        let sys = scalar(-2.0);
        let m = 16;
        let t_end = 1.5;
        let inputs = InputSet::new(vec![Waveform::sine(0.3, 1.0, 1.0, 0.0, 0.0)]);
        let wb = WalshBasis::new(m, t_end);
        let bb = BpfBasis::new(m, t_end);
        let via_walsh = GeneralBasisPlan::new(&sys, &wb, &[0.0])
            .and_then(|plan| plan.solve(&inputs))
            .unwrap();
        let via_bpf = GeneralBasisPlan::new(&sys, &bb, &[0.0])
            .and_then(|plan| plan.solve(&inputs))
            .unwrap();
        let walsh_row: Vec<f64> = (0..m).map(|j| via_walsh.x_coeffs.get(0, j)).collect();
        let as_bpf = wb.to_bpf_coeffs(&walsh_row);
        for j in 0..m {
            assert!(
                (as_bpf[j] - via_bpf.x_coeffs.get(0, j)).abs() < 1e-9,
                "column {j}"
            );
        }
    }

    #[test]
    fn haar_solution_matches_bpf_too() {
        let sys = scalar(-1.0);
        let m = 8;
        let inputs = InputSet::new(vec![Waveform::step(0.2, 1.0)]);
        let hb = HaarBasis::new(m, 1.0);
        let bb = BpfBasis::new(m, 1.0);
        let via_haar = GeneralBasisPlan::new(&sys, &hb, &[0.0])
            .and_then(|plan| plan.solve(&inputs))
            .unwrap();
        let via_bpf = GeneralBasisPlan::new(&sys, &bb, &[0.0])
            .and_then(|plan| plan.solve(&inputs))
            .unwrap();
        let haar_row: Vec<f64> = (0..m).map(|j| via_haar.x_coeffs.get(0, j)).collect();
        let as_bpf = hb.to_bpf_coeffs(&haar_row);
        for j in 0..m {
            assert!((as_bpf[j] - via_bpf.x_coeffs.get(0, j)).abs() < 1e-9);
        }
    }

    #[test]
    fn legendre_is_spectrally_accurate_on_smooth_response() {
        // ẋ = −x + 1 from 0: x = 1 − e^{−t}, C^∞ ⇒ Legendre crushes BPF
        // at equal m.
        let sys = scalar(-1.0);
        let m = 12;
        let t_end = 2.0;
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let lb = LegendreBasis::new(m, t_end);
        let bb = BpfBasis::new(m, t_end);
        let via_leg = GeneralBasisPlan::new(&sys, &lb, &[0.0])
            .and_then(|plan| plan.solve(&inputs))
            .unwrap();
        let via_bpf = GeneralBasisPlan::new(&sys, &bb, &[0.0])
            .and_then(|plan| plan.solve(&inputs))
            .unwrap();
        let exact = |t: f64| 1.0 - (-t).exp();
        let mut err_leg = 0.0f64;
        let mut err_bpf = 0.0f64;
        for i in 0..100 {
            let t = t_end * (i as f64 + 0.5) / 100.0;
            err_leg = err_leg.max((via_leg.reconstruct_state(&lb, 0, t) - exact(t)).abs());
            err_bpf = err_bpf.max((via_bpf.reconstruct_state(&bb, 0, t) - exact(t)).abs());
        }
        assert!(
            err_leg < 1e-6 && err_bpf > 1e-3,
            "legendre {err_leg} vs bpf {err_bpf}"
        );
    }

    #[test]
    fn output_selector_applied() {
        let mut am = CooMatrix::new(2, 2);
        am.push(0, 0, -1.0);
        am.push(1, 1, -2.0);
        let mut b = CooMatrix::new(2, 1);
        b.push(0, 0, 1.0);
        b.push(1, 0, 1.0);
        let mut c = CooMatrix::new(1, 2);
        c.push(0, 1, 1.0);
        let sys = DescriptorSystem::new(
            CsrMatrix::identity(2),
            am.to_csr(),
            b.to_csr(),
            Some(c.to_csr()),
        )
        .unwrap();
        let basis = BpfBasis::new(8, 1.0);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let r = GeneralBasisPlan::new(&sys, &basis, &[0.0, 0.0])
            .and_then(|plan| plan.solve(&inputs))
            .unwrap();
        assert_eq!(r.output_coeffs.nrows(), 1);
        // Output must equal state row 1.
        for j in 0..8 {
            assert!((r.output_coeffs.get(0, j) - r.x_coeffs.get(1, j)).abs() < 1e-14);
        }
    }

    #[test]
    fn plan_reuses_one_factorization_across_stimuli() {
        let sys = scalar(-1.0);
        let basis = LegendreBasis::new(10, 1.0);
        let plan = GeneralBasisPlan::new(&sys, &basis, &[0.0]).unwrap();
        let drives = [0.5, 1.0, 2.0];
        let runs = plan
            .solve_batch(
                &drives
                    .iter()
                    .map(|&a| InputSet::new(vec![Waveform::Dc(a)]))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        // Linearity through one shared factorization.
        for (r, &a) in runs.iter().zip(&drives) {
            let one_shot = GeneralBasisPlan::new(&sys, &basis, &[0.0])
                .and_then(|fresh| fresh.solve(&InputSet::new(vec![Waveform::Dc(a)])))
                .unwrap();
            for j in 0..10 {
                assert!((r.x_coeffs.get(0, j) - one_shot.x_coeffs.get(0, j)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn guard_and_validation() {
        let sys = scalar(-1.0);
        let basis = BpfBasis::new(8, 1.0);
        let wrong_inputs = InputSet::new(vec![Waveform::Dc(0.0), Waveform::Dc(0.0)]);
        assert!(GeneralBasisPlan::new(&sys, &basis, &[0.0])
            .and_then(|plan| plan.solve(&wrong_inputs))
            .is_err());
        let inputs = InputSet::new(vec![Waveform::Dc(0.0)]);
        assert!(GeneralBasisPlan::new(&sys, &basis, &[0.0, 0.0])
            .and_then(|plan| plan.solve(&inputs))
            .is_err());
        let big = BpfBasis::new(5000, 1.0);
        assert!(GeneralBasisPlan::new(&sys, &big, &[0.0])
            .and_then(|plan| plan.solve(&inputs))
            .is_err());
    }
}
