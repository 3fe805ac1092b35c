//! OPM for fractional systems `E·d^α x/dt^α = A·x + B·u` (paper §IV).
//!
//! The fractional operational matrix `D^α` is the upper-triangular
//! Toeplitz matrix with first row `(2/h)^α·(ρ₀, ρ₁, …, ρ_{m−1})`, the
//! nilpotent-series coefficients of `((1−q)/(1+q))^α` (paper Eq. 22).
//! Column `j` of `E X D^α = A X + B U` reads
//!
//! ```text
//! (ρ₀·E − A)·x_j = B·u_j − E·Σ_{k=1}^{j} ρ_k·x_{j−k}
//! ```
//!
//! — one sparse LU, but an `O(m)` history convolution per column:
//! `O(n^β m + n m²)` total, the paper's §IV complexity. Initial
//! conditions are zero (Caputo sense), as the paper assumes.
//!
//! The strategy runs in the plan layer ([`crate::session`]): build a
//! [`crate::Simulation::from_fractional`] plan and reuse its
//! factorization for every scenario. The plan sweeps the equation as its
//! two-term conversion `[(α, E), (0, −A)]` through the multi-term
//! convolution ([`crate::multiterm`]), whose pencil `ρ₀·E + 1·(−A)` is
//! `ρ₀·E − A` bit for bit; this module holds the strategy's derivation
//! and its tests.

#[cfg(test)]
mod tests {
    use crate::metrics::max_abs_diff;
    use crate::testkit::{solve_fractional, solve_linear};
    use opm_fracnum::mittag_leffler::ml_kernel;
    use opm_sparse::{CooMatrix, CsrMatrix};
    use opm_system::{DescriptorSystem, FractionalSystem};
    use opm_waveform::{InputSet, Waveform};

    fn scalar_fractional(alpha: f64, lambda: f64) -> FractionalSystem {
        let mut a = CooMatrix::new(1, 1);
        a.push(0, 0, lambda);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        FractionalSystem::new(
            alpha,
            DescriptorSystem::new(CsrMatrix::identity(1), a.to_csr(), b.to_csr(), None).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn alpha_one_reduces_to_linear_solver() {
        let fsys = scalar_fractional(1.0, -2.0);
        let m = 64;
        let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, 2.0);
        let frac = solve_fractional(&fsys, &u, 2.0).unwrap();
        let lin = solve_linear(fsys.system(), &u, 2.0, &[0.0]).unwrap();
        for j in 0..m {
            assert!(
                (frac.state_coeff(0, j) - lin.state_coeff(0, j)).abs() < 1e-11,
                "column {j}"
            );
        }
    }

    #[test]
    fn half_order_step_response_matches_mittag_leffler() {
        // d^½x = −x + 1 ⇒ x(t) = t^½·E_{½,3/2}(−t^½).
        let fsys = scalar_fractional(0.5, -1.0);
        let m = 512;
        let t_end = 2.0;
        let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, t_end);
        let r = solve_fractional(&fsys, &u, t_end).unwrap();
        for (j, &t) in r.midpoints().iter().enumerate().skip(8).step_by(61) {
            let want = ml_kernel(0.5, 1.5, -1.0, t);
            let got = r.state_coeff(0, j);
            assert!(
                (got - want).abs() < 6e-3 * want.abs().max(0.1),
                "t={t}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn agrees_with_grunwald_letnikov_baseline() {
        let fsys = scalar_fractional(0.7, -1.5);
        let m = 256;
        let t_end = 1.5;
        let u_set = InputSet::new(vec![Waveform::sine(0.5, 0.5, 1.0, 0.0, 0.0)]);
        let u = u_set.bpf_matrix(m, t_end);
        let opm = solve_fractional(&fsys, &u, t_end).unwrap();
        let gl = opm_transient::gl_fractional(&fsys, &u_set, t_end, m, false).unwrap();
        // GL samples endpoints, OPM gives interval averages: compare OPM
        // midpoint reconstruction against GL linear interpolation.
        let mut worst = 0.0f64;
        for (j, &t) in opm.midpoints().iter().enumerate().skip(4) {
            // GL endpoint k covers t_k = (k+1)·h.
            let h = t_end / m as f64;
            let k = (t / h).floor() as usize;
            let gl_mid = if k == 0 {
                0.5 * gl.outputs[0][0]
            } else {
                0.5 * (gl.outputs[0][k - 1] + gl.outputs[0][k.min(m - 1)])
            };
            worst = worst.max((opm.state_coeff(0, j) - gl_mid).abs());
        }
        assert!(worst < 2e-2, "OPM vs GL deviation {worst}");
    }

    #[test]
    fn dae_fractional_line_is_solvable_and_stable() {
        // The Table I system: bounded response to a bounded pulse.
        let model = opm_circuits::tline::FractionalLineSpec::default().assemble();
        let t_end = 2.7e-9;
        let m = 64;
        let u = model.inputs.bpf_matrix(m, t_end);
        let r = solve_fractional(&model.system, &u, t_end).unwrap();
        assert_eq!(r.num_intervals(), m);
        for o in 0..2 {
            for &v in r.output_row(o) {
                assert!(v.is_finite() && v.abs() < 1.0, "port current {v}");
            }
        }
        // Port 1 must actually react to the pulse.
        let peak = r
            .output_row(0)
            .iter()
            .fold(0.0f64, |mx, &v| mx.max(v.abs()));
        assert!(peak > 1e-4, "no response: peak {peak}");
    }

    #[test]
    fn convergence_under_refinement() {
        let fsys = scalar_fractional(0.5, -1.0);
        let t_end = 1.0;
        // Exact *cell averages* of the ML kernel (compare like with like:
        // BPF coefficients are averages, and average ≠ midpoint at this
        // coarse cell width).
        let exact: Vec<f64> = (0..16)
            .map(|j| {
                let (a, b) = (j as f64 / 16.0, (j as f64 + 1.0) / 16.0);
                let samples = 64;
                (0..samples)
                    .map(|s| {
                        let t = a + (b - a) * (s as f64 + 0.5) / samples as f64;
                        ml_kernel(0.5, 1.5, -1.0, t)
                    })
                    .sum::<f64>()
                    / samples as f64
            })
            .collect();
        let err = |m: usize| {
            let u = InputSet::new(vec![Waveform::Dc(1.0)]).bpf_matrix(m, t_end);
            let r = solve_fractional(&fsys, &u, t_end).unwrap();
            let stride = m / 16;
            let coarse: Vec<f64> = (0..16)
                .map(|j| {
                    // Average the fine coefficients inside each coarse cell.
                    let lo = j * stride;
                    (lo..lo + stride).map(|k| r.state_coeff(0, k)).sum::<f64>() / stride as f64
                })
                .collect();
            // Skip the first coarse cell: the √t derivative singularity at
            // t = 0 caps pointwise convergence there for any method that
            // does not build the singularity into its basis.
            max_abs_diff(&coarse[1..], &exact[1..])
        };
        let e1 = err(64);
        let e2 = err(256);
        assert!(
            e2 < 0.6 * e1,
            "no convergence: {e1} → {e2} (fractional kernels limit the rate)"
        );
    }
}
