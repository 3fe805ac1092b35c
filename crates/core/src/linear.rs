//! OPM for linear ODE/DAE systems (paper §III).
//!
//! The matrix equation `E X D = A X + B U` with the uniform-step BPF
//! operator `D` is solved column by column. Eliminating the running
//! accumulator between consecutive columns yields the *endpoint
//! recurrence*: with `e₀ = x₀` the polyline endpoint entering column
//! `j` and `σ = 2/h`,
//!
//! ```text
//! (σE − A)·x_j = σE·e_j + B·u_j ,     e_{j+1} = 2·x_j − e_j
//! ```
//!
//! — one sparse LU factorization, one solve per column, `O(n^β m)` total:
//! the paper's claim that OPM matches trapezoidal-class methods is an
//! algebraic identity (`e_j` is the trapezoidal state at `t_j`). Every
//! linear sweep runs this one form: the uniform sweep, every window
//! (starting from the endpoint the previous window ended on), the
//! adaptive stepper (`σ_j = 2/h_j`, since a column needs only its own
//! step) and the Newton sweep. A nonzero initial condition is only the
//! first endpoint. The paper's literal accumulator form and the
//! Kronecker vec form (`opm_oracle::accumulator_solve` and
//! `opm_oracle::kron_solve_linear`) are the reference forms the tests
//! check it against.
//!
//! The strategy runs in the plan layer ([`crate::session`]): a
//! [`crate::SimPlan`] built by [`crate::Simulation::plan`] validates,
//! factors the pencil once and runs the (block) column sweep for every
//! scenario; this module holds the strategy's derivation and its tests.

#[cfg(test)]
mod tests {
    use crate::testkit::solve_linear;
    use crate::OpmError;
    use opm_basis::BpfBasis;
    use opm_oracle::{accumulator_solve, kron_solve_linear, GeneralBasisPlan};
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
        let acc = accumulator_solve(&sys, &u, 3.0, &[0.4]).unwrap();
        for j in 0..m {
            assert!(
                (fast.state_coeff(0, j) - acc[j][0]).abs() < 1e-10,
                "column {j}"
            );
        }
    }

    #[test]
    fn linear_fast_path_matches_oracle_exactly() {
        let sys = scalar(-1.3);
        let m = 24;
        let u = InputSet::new(vec![
            Waveform::pulse(0.0, 1.0, 0.1, 0.05, 0.3, 0.05, 0.0).unwrap()
        ])
        .bpf_matrix(m, 1.0);
        let oracle = kron_solve_linear(&sys, &u, 1.0).unwrap();
        let fast = solve_linear(&sys, &u, 1.0, &[0.0]).unwrap();
        for j in 0..m {
            assert!(
                (oracle[j][0] - fast.state_coeff(0, j)).abs() < 1e-10,
                "column {j}: {} vs {}",
                oracle[j][0],
                fast.state_coeff(0, j)
            );
        }
    }

    #[test]
    fn bpf_integral_form_matches_differential_fast_path() {
        let sys = scalar(-1.0);
        let m = 32;
        let basis = BpfBasis::new(m, 2.0);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let gen = GeneralBasisPlan::new(&sys, &basis, &[0.5])
            .and_then(|plan| plan.solve(&inputs))
            .unwrap();
        let u = inputs.bpf_matrix(m, 2.0);
        let fast = solve_linear(&sys, &u, 2.0, &[0.5]).unwrap();
        for j in 0..m {
            assert!(
                (gen.x_coeffs.get(0, j) - fast.state_coeff(0, j)).abs() < 1e-9,
                "column {j}: {} vs {}",
                gen.x_coeffs.get(0, j),
                fast.state_coeff(0, j)
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
