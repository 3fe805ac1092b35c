//! Second-order (nodal-analysis) systems.
//!
//! The Table II workflow — `C v̈ + G v̇ + Γ v = B·J̇` with the input being
//! the *derivative* of the physical current excitation — involves enough
//! plumbing (derivative averages, multi-term conversion) that the plan
//! layer handles it: a [`crate::Simulation::from_second_order`] plan takes
//! the circuit's original current waveforms, differentiates them exactly
//! via interval endpoint differences, and sweeps the multi-term
//! conversion. Zero initial conditions (`x(0) = ẋ(0) = 0`); ensure the
//! stimulus ramps from zero (see
//! `opm_circuits::grid::PowerGridSpec::pad_ramp`) so they are consistent.

#[cfg(test)]
mod tests {
    use crate::testkit::solve_multiterm;
    use crate::{OpmError, OpmResult, Simulation, SolveOptions};
    use opm_circuits::grid::PowerGridSpec;
    use opm_circuits::na::assemble_na;
    use opm_sparse::CsrMatrix;
    use opm_system::SecondOrderSystem;
    use opm_waveform::{InputSet, Waveform};

    fn solve_second_order(
        sys: &SecondOrderSystem,
        inputs: &InputSet,
        t_end: f64,
        m: usize,
    ) -> Result<OpmResult, OpmError> {
        Simulation::from_second_order(sys.clone())
            .horizon(t_end)
            .plan(&SolveOptions::new().resolution(m))?
            .solve(inputs)
    }

    #[test]
    fn matches_manual_multiterm_plumbing() {
        let spec = PowerGridSpec {
            layers: 2,
            rows: 3,
            cols: 3,
            num_loads: 2,
            ..Default::default()
        };
        let na = assemble_na(&spec.build(), &[]).unwrap();
        let t_end = 5e-9;
        let m = 64;
        let direct = solve_second_order(&na.system, &na.inputs, t_end, m).unwrap();
        let bounds: Vec<f64> = (0..=m).map(|k| k as f64 * t_end / m as f64).collect();
        let u_dot = na.inputs.derivative_averages_on_grid(&bounds);
        let manual = solve_multiterm(&na.system.to_multiterm(), &u_dot, t_end).unwrap();
        for j in 0..m {
            for i in 0..na.system.order() {
                assert_eq!(direct.state_coeff(i, j), manual.state_coeff(i, j));
            }
        }
    }

    #[test]
    fn damped_oscillator_step_response() {
        // ẍ + 2ζω ẋ + ω² x = ω²·u̇-free check: drive with a ramp u = t so
        // u̇ = 1 and the oscillator sees a constant force.
        let omega = 3.0;
        let zeta = 0.5;
        let sys = SecondOrderSystem::new(
            CsrMatrix::identity(1),
            CsrMatrix::identity(1).scale(2.0 * zeta * omega),
            CsrMatrix::identity(1).scale(omega * omega),
            CsrMatrix::identity(1),
            None,
        )
        .unwrap();
        let inputs = InputSet::new(vec![Waveform::Ramp { slope: 1.0 }]);
        let m = 2048;
        let t_end = 10.0;
        let r = solve_second_order(&sys, &inputs, t_end, m).unwrap();
        // Steady state: x → 1/ω².
        let want = 1.0 / (omega * omega);
        let got = r.state_coeff(0, m - 1);
        assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        // Underdamped: the response overshoots its final value.
        let peak = (0..m).map(|j| r.state_coeff(0, j)).fold(0.0f64, f64::max);
        assert!(peak > 1.05 * want, "expected overshoot, peak {peak}");
    }

    #[test]
    fn validation() {
        let sys = SecondOrderSystem::new(
            CsrMatrix::identity(1),
            CsrMatrix::identity(1),
            CsrMatrix::identity(1),
            CsrMatrix::identity(1),
            None,
        )
        .unwrap();
        let inputs = InputSet::new(vec![Waveform::Dc(0.0)]);
        assert!(solve_second_order(&sys, &inputs, 1.0, 0).is_err());
        assert!(solve_second_order(&sys, &inputs, -1.0, 8).is_err());
        let two = InputSet::new(vec![Waveform::Dc(0.0), Waveform::Dc(0.0)]);
        assert!(solve_second_order(&sys, &two, 1.0, 8).is_err());
    }
}
