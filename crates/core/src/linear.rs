//! OPM for linear ODE/DAE systems (paper §III).
//!
//! The matrix equation `E X D = A X + B U` with the uniform-step BPF
//! operator `D` is solved column by column. Eliminating the running
//! accumulator between consecutive columns yields the *stable two-term
//! recurrence*
//!
//! ```text
//! (2/h·E − A)·x_j = (2/h·E + A)·x_{j−1} + B·(u_j + u_{j−1})
//! ```
//!
//! — one sparse LU factorization, one solve per column, `O(n^β m)` total:
//! the paper's claim that OPM matches trapezoidal-class methods is an
//! algebraic identity, which the test suite verifies against the paper's
//! literal accumulator form ([`crate::Method::Accumulator`]) and the
//! Kronecker oracle.
//!
//! Nonzero initial conditions use the state shift `z = x − x₀` (the
//! constant `A·x₀` joins the input), since the BPF derivative expansion
//! assumes `x(0⁻) = 0`.
//!
//! The strategy runs in the plan layer ([`crate::session`]): a
//! [`crate::SimPlan`] built by [`crate::Simulation::plan`] validates,
//! factors the pencil once and runs the (block) column sweep for every
//! scenario; this module holds the strategy's derivation and its tests.

#[cfg(test)]
mod tests {
    use crate::testkit::{solve_linear, solve_linear_accumulator};
    use crate::OpmError;
    use opm_sparse::{CooMatrix, CsrMatrix};
    use opm_system::DescriptorSystem;
    use opm_waveform::{InputSet, Waveform};

    fn scalar(a: f64) -> DescriptorSystem {
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, a);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        DescriptorSystem::new(CsrMatrix::identity(1), am.to_csr(), b.to_csr(), None).unwrap()
    }

    #[test]
    fn step_response_matches_analytic_midpoints() {
        // ẋ = −x + 1 ⇒ x(t) = 1 − e^{−t}; coefficients ≈ midpoint values.
        let sys = scalar(-1.0);
        let m = 512;
        let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, 2.0);
        let r = solve_linear(&sys, &u, 2.0, &[0.0]).unwrap();
        for (j, &t) in r.midpoints().iter().enumerate().step_by(37) {
            let want = 1.0 - (-t).exp();
            assert!(
                (r.state_coeff(0, j) - want).abs() < 2e-5,
                "t={t}: {} vs {want}",
                r.state_coeff(0, j)
            );
        }
    }

    #[test]
    fn accumulator_form_is_identical() {
        let sys = scalar(-2.5);
        let m = 64;
        let u = InputSet::new(vec![Waveform::sine(0.0, 1.0, 1.5, 0.0, 0.3)]).bpf_matrix(m, 3.0);
        let fast = solve_linear(&sys, &u, 3.0, &[0.4]).unwrap();
        let acc = solve_linear_accumulator(&sys, &u, 3.0, &[0.4]).unwrap();
        for j in 0..m {
            assert!(
                (fast.state_coeff(0, j) - acc.state_coeff(0, j)).abs() < 1e-10,
                "column {j}"
            );
        }
    }

    #[test]
    fn second_order_convergence_of_coefficients() {
        let sys = scalar(-1.0);
        let exact_avg = |a: f64, b: f64| {
            // average of 1 − e^{−t} over [a, b]
            1.0 - ((-a).exp() - (-b).exp()) / (b - a)
        };
        let err = |m: usize| {
            let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, 1.0);
            let r = solve_linear(&sys, &u, 1.0, &[0.0]).unwrap();
            let h = 1.0 / m as f64;
            (0..m)
                .map(|j| (r.state_coeff(0, j) - exact_avg(j as f64 * h, (j + 1) as f64 * h)).abs())
                .fold(0.0, f64::max)
        };
        let e1 = err(64);
        let e2 = err(128);
        let rate = (e1 / e2).log2();
        assert!((rate - 2.0).abs() < 0.2, "OPM order ≈ {rate}");
    }

    #[test]
    fn nonzero_initial_condition() {
        // ẋ = −x, x(0) = 3 ⇒ averages of 3e^{−t}.
        let sys = scalar(-1.0);
        let m = 256;
        let u = InputSet::new(vec![Waveform::Dc(0.0)]).bpf_matrix(m, 2.0);
        let r = solve_linear(&sys, &u, 2.0, &[3.0]).unwrap();
        for (j, &t) in r.midpoints().iter().enumerate().step_by(41) {
            let want = 3.0 * (-t).exp();
            assert!(
                (r.state_coeff(0, j) - want).abs() < 5e-5,
                "t={t}: {}",
                r.state_coeff(0, j)
            );
        }
    }

    #[test]
    fn dae_algebraic_constraint_satisfied() {
        // [1 0; 0 0]·ẋ = [−1 0; 1 −1]x + [1; 0]u: x₂ = x₁ always.
        let mut e = CooMatrix::new(2, 2);
        e.push(0, 0, 1.0);
        let mut a = CooMatrix::new(2, 2);
        a.push(0, 0, -1.0);
        a.push(1, 0, 1.0);
        a.push(1, 1, -1.0);
        let mut b = CooMatrix::new(2, 1);
        b.push(0, 0, 1.0);
        let sys = DescriptorSystem::new(e.to_csr(), a.to_csr(), b.to_csr(), None).unwrap();
        let m = 64;
        let u = InputSet::new(vec![Waveform::step(0.1, 1.0)]).bpf_matrix(m, 1.0);
        let r = solve_linear(&sys, &u, 1.0, &[0.0, 0.0]).unwrap();
        for j in 0..m {
            assert!(
                (r.state_coeff(0, j) - r.state_coeff(1, j)).abs() < 1e-12,
                "constraint violated at column {j}"
            );
        }
    }

    #[test]
    fn argument_validation() {
        let sys = scalar(-1.0);
        assert!(solve_linear(&sys, &[], 1.0, &[0.0]).is_err());
        assert!(solve_linear(&sys, &[vec![]], 1.0, &[0.0]).is_err());
        assert!(solve_linear(&sys, &[vec![1.0]], 1.0, &[0.0, 1.0]).is_err());
        assert!(solve_linear(&sys, &[vec![1.0]], -1.0, &[0.0]).is_err());
        let two_rows = vec![vec![1.0, 2.0], vec![1.0]];
        let sys2 = {
            let mut b = CooMatrix::new(1, 2);
            b.push(0, 0, 1.0);
            b.push(0, 1, 1.0);
            DescriptorSystem::new(
                CsrMatrix::identity(1),
                CsrMatrix::identity(1).scale(-1.0),
                b.to_csr(),
                None,
            )
            .unwrap()
        };
        assert!(solve_linear(&sys2, &two_rows, 1.0, &[0.0]).is_err());
    }

    #[test]
    fn singular_pencil_detected() {
        // E = 0, A singular ⇒ pencil σE − A singular.
        let e = CooMatrix::new(2, 2);
        let a = CooMatrix::new(2, 2);
        let mut b = CooMatrix::new(2, 1);
        b.push(0, 0, 1.0);
        let sys = DescriptorSystem::new(e.to_csr(), a.to_csr(), b.to_csr(), None).unwrap();
        let u = vec![vec![1.0, 1.0]];
        assert!(matches!(
            solve_linear(&sys, &u, 1.0, &[0.0, 0.0]),
            Err(OpmError::SingularPencil(_))
        ));
    }
}
