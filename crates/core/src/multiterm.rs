//! OPM for multi-term systems `Σ_k A_k·d^{α_k} x = B·u`.
//!
//! Covers the paper's "high-order differential systems" (§IV) — including
//! damped ones like the Table II second-order power-grid model
//! `C ẍ + G ẋ + Γ x = B u̇` — and incommensurate fractional mixtures.
//!
//! Two execution paths:
//!
//! - **Integer orders** (`α_k ∈ N`, fast path): right-multiplying the
//!   column equation by `(1 + Q)^K` (K = max order) turns every term's
//!   symbol into the *finite* polynomial
//!   `(2/h)^{α_k}·(1−q)^{α_k}·(1+q)^{K−α_k}` of degree `K`, so each
//!   column needs only the last `K` columns: `O(n^β m)` overall — the
//!   same cost class as the linear solver (for K = 1 it *is* the linear
//!   solver's trapezoidal recurrence).
//! - **Fractional orders** (general path): per-term series convolution,
//!   `O(n^β m + n m²)`, the paper's fractional complexity.
//!
//! Both paths run in the plan layer ([`crate::session`]): a
//! [`crate::Simulation::from_multiterm`] plan picks the integer fast path
//! automatically ([`crate::Method::Auto`]; force a path with
//! [`crate::Method::Recurrence`] / [`crate::Method::Convolution`]); this
//! module holds the strategy's derivation and its tests.

#[cfg(test)]
mod tests {
    use crate::testkit::{solve_fractional, solve_linear, solve_multiterm};
    use crate::Method;
    use opm_sparse::{CooMatrix, CsrMatrix};
    use opm_system::{DescriptorSystem, MultiTermSystem, SecondOrderSystem, Term};
    use opm_waveform::{InputSet, Waveform};

    fn eye_term(alpha: f64) -> Term {
        Term {
            alpha,
            matrix: CsrMatrix::identity(1),
        }
    }

    fn scaled_term(alpha: f64, k: f64) -> Term {
        Term {
            alpha,
            matrix: CsrMatrix::identity(1).scale(k),
        }
    }

    #[test]
    fn k1_fast_path_equals_linear_solver() {
        let mut a = CooMatrix::new(1, 1);
        a.push(0, 0, -1.7);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        let sys =
            DescriptorSystem::new(CsrMatrix::identity(1), a.to_csr(), b.to_csr(), None).unwrap();
        let m = 64;
        let u = InputSet::new(vec![Waveform::sine(0.2, 1.0, 1.0, 0.0, 0.0)]).bpf_matrix(m, 2.0);
        let via_mt = solve_multiterm(
            &MultiTermSystem::from_descriptor(&sys),
            &u,
            2.0,
            Method::Auto,
        )
        .unwrap();
        let via_lin = solve_linear(&sys, &u, 2.0, &[0.0]).unwrap();
        for j in 0..m {
            assert!(
                (via_mt.state_coeff(0, j) - via_lin.state_coeff(0, j)).abs() < 1e-10,
                "column {j}"
            );
        }
    }

    #[test]
    fn recurrence_and_convolution_paths_agree() {
        // Damped oscillator: ẍ + 0.4ẋ + 4x = u.
        let mt = MultiTermSystem::new(
            vec![eye_term(2.0), scaled_term(1.0, 0.4), scaled_term(0.0, 4.0)],
            CsrMatrix::identity(1),
            None,
        )
        .unwrap();
        let m = 96;
        let u = InputSet::new(vec![Waveform::step(0.0, 1.0)]).bpf_matrix(m, 6.0);
        let fast = solve_multiterm(&mt, &u, 6.0, Method::Recurrence).unwrap();
        let slow = solve_multiterm(&mt, &u, 6.0, Method::Convolution).unwrap();
        for j in 0..m {
            assert!(
                (fast.state_coeff(0, j) - slow.state_coeff(0, j)).abs() < 1e-8,
                "column {j}: {} vs {}",
                fast.state_coeff(0, j),
                slow.state_coeff(0, j)
            );
        }
    }

    #[test]
    fn damped_oscillator_matches_companion_reference() {
        let omega2 = 4.0;
        let zeta_term = 0.4;
        let s = SecondOrderSystem::new(
            CsrMatrix::identity(1),
            CsrMatrix::identity(1).scale(zeta_term),
            CsrMatrix::identity(1).scale(omega2),
            CsrMatrix::identity(1),
            None,
        )
        .unwrap();
        let m = 1024;
        let t_end = 8.0;
        let u_set = InputSet::new(vec![Waveform::step(0.0, 1.0)]);
        let u = u_set.bpf_matrix(m, t_end);
        let opm = solve_multiterm(&s.to_multiterm(), &u, t_end, Method::Auto).unwrap();
        let reference =
            opm_transient::expm_reference(&s.to_companion(), &u_set, t_end, m, &[0.0, 0.0])
                .unwrap();
        // Compare OPM midpoint coefficients against reference endpoint
        // averages (both second-order accurate representations).
        let mut worst = 0.0f64;
        for j in 1..m {
            let ref_mid = 0.5 * (reference.outputs[0][j - 1] + reference.outputs[0][j]);
            worst = worst.max((opm.state_coeff(0, j) - ref_mid).abs());
        }
        assert!(worst < 5e-4, "worst deviation {worst}");
    }

    #[test]
    fn single_fractional_term_matches_fractional_solver() {
        use opm_system::FractionalSystem;
        let lambda = -1.0;
        let mt = MultiTermSystem::new(
            vec![eye_term(0.5), scaled_term(0.0, -lambda)],
            CsrMatrix::identity(1),
            None,
        )
        .unwrap();
        let mut a = CooMatrix::new(1, 1);
        a.push(0, 0, lambda);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        let fsys = FractionalSystem::new(
            0.5,
            DescriptorSystem::new(CsrMatrix::identity(1), a.to_csr(), b.to_csr(), None).unwrap(),
        )
        .unwrap();
        let m = 128;
        let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, 2.0);
        let via_mt = solve_multiterm(&mt, &u, 2.0, Method::Auto).unwrap();
        let via_frac = solve_fractional(&fsys, &u, 2.0).unwrap();
        for j in 0..m {
            assert!(
                (via_mt.state_coeff(0, j) - via_frac.state_coeff(0, j)).abs() < 1e-10,
                "column {j}"
            );
        }
    }

    #[test]
    fn incommensurate_orders_run_and_stay_bounded() {
        // d^{1.5}x + d^{0.5}x + x = u — a genuine multi-term FDE.
        let mt = MultiTermSystem::new(
            vec![eye_term(1.5), eye_term(0.5), eye_term(0.0)],
            CsrMatrix::identity(1),
            None,
        )
        .unwrap();
        let m = 128;
        let u = InputSet::new(vec![Waveform::step(0.0, 1.0)]).bpf_matrix(m, 10.0);
        let r = solve_multiterm(&mt, &u, 10.0, Method::Auto).unwrap();
        for j in 0..m {
            let v = r.state_coeff(0, j);
            assert!(v.is_finite() && v.abs() < 3.0, "column {j}: {v}");
        }
        // Must settle toward the static gain 1.
        assert!((r.state_coeff(0, m - 1) - 1.0).abs() < 0.2);
    }

    #[test]
    fn recurrence_path_rejects_fractional() {
        let mt = MultiTermSystem::new(
            vec![eye_term(0.5), eye_term(0.0)],
            CsrMatrix::identity(1),
            None,
        )
        .unwrap();
        let u = vec![vec![1.0; 8]];
        assert!(solve_multiterm(&mt, &u, 1.0, Method::Recurrence).is_err());
    }
}
