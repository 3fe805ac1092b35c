//! Gear's method: backward differentiation formulas of orders 1–6.
//!
//! BDF-k approximates `ẋ(t_n) ≈ (1/h)·Σ_{j=0}^{k} ρ_j·x_{n−j}`; the
//! implicit solve is `(ρ₀/h·E − A)·x_n = −(1/h)·E·Σ_{j≥1} ρ_j x_{n−j} +
//! B·u_n`. The first `order − 1` history points are generated by
//! trapezoidal integration at 64× finer substeps, so the startup error
//! stays far below the BDF-k main phase and the design order is actually
//! observed. The paper's "Gear" rows use order 2 (the SPICE default);
//! orders up to 6 are provided for the ablation study.

use crate::result::TransientResult;
use crate::util::{add_b_u, factor_shifted, validate};
use crate::TransientError;
use opm_system::DescriptorSystem;
use opm_waveform::InputSet;

/// BDF coefficient rows `ρ` for orders 1..=6 (leading entry first).
const BDF_RHO: [&[f64]; 6] = [
    &[1.0, -1.0],
    &[1.5, -2.0, 0.5],
    &[11.0 / 6.0, -3.0, 1.5, -1.0 / 3.0],
    &[25.0 / 12.0, -4.0, 3.0, -4.0 / 3.0, 0.25],
    &[137.0 / 60.0, -5.0, 5.0, -10.0 / 3.0, 1.25, -0.2],
    &[147.0 / 60.0, -6.0, 7.5, -20.0 / 3.0, 3.75, -1.2, 1.0 / 6.0],
];

/// Integrates with BDF of the given `order` (1–6), ramping up from BDF-1
/// during startup.
///
/// # Errors
/// [`TransientError::BadArguments`] for orders outside 1–6 (orders above
/// 6 are zero-unstable) and the usual argument checks.
pub fn bdf(
    sys: &DescriptorSystem,
    inputs: &InputSet,
    t_end: f64,
    m: usize,
    order: usize,
    x0: &[f64],
    store_states: bool,
) -> Result<TransientResult, TransientError> {
    if !(1..=6).contains(&order) {
        return Err(TransientError::BadArguments(format!(
            "BDF order {order} (valid: 1–6)"
        )));
    }
    validate(sys, inputs.len(), t_end, m, x0)?;
    let n = sys.order();
    let h = t_end / m as f64;
    let lu = factor_shifted(sys, BDF_RHO[order - 1][0] / h)?;

    // History ring: history[0] = x_{n−1}, history[1] = x_{n−2}, …
    let mut history: Vec<Vec<f64>> = vec![x0.to_vec()];
    let mut times = Vec::with_capacity(m);
    let mut outputs: Vec<Vec<f64>> = vec![Vec::with_capacity(m); sys.num_outputs()];
    let mut states = if store_states {
        Some(Vec::with_capacity(m))
    } else {
        None
    };
    let mut num_solves = 0usize;

    // Startup: seed `order − 1` history points with fine trapezoidal
    // substeps so the main phase runs at full order from step `order`.
    let startup_steps = (order - 1).min(m);
    if startup_steps > 0 {
        const STARTUP_REFINE: usize = 64;
        let t_startup = startup_steps as f64 * h;
        let fine = crate::trap::trapezoidal(
            sys,
            inputs,
            t_startup,
            startup_steps * STARTUP_REFINE,
            x0,
            true,
        )?;
        num_solves += fine.num_solves;
        let fine_states = fine.states.expect("requested");
        for step in 1..=startup_steps {
            let x = fine_states[step * STARTUP_REFINE - 1].clone();
            times.push(step as f64 * h);
            for (o, val) in sys.output(&x).into_iter().enumerate() {
                outputs[o].push(val);
            }
            if let Some(s) = states.as_mut() {
                s.push(x.clone());
            }
            history.insert(0, x);
        }
    }

    let rho = BDF_RHO[order - 1];
    let mut rhs = vec![0.0; n];
    let mut ex = vec![0.0; n];
    let mut x = vec![0.0; n];
    let mut y = vec![0.0; n];
    for step in startup_steps + 1..=m {
        let t = step as f64 * h;
        rhs.iter_mut().for_each(|v| *v = 0.0);
        // −(1/h)·E·Σ_{j≥1} ρ_j·x_{n−j}
        for j in 1..=order {
            let xj = &history[j - 1];
            sys.e().mul_vec_into(xj, &mut ex);
            for (r, e_val) in rhs.iter_mut().zip(&ex) {
                *r -= rho[j] / h * e_val;
            }
        }
        let u = inputs.eval(t);
        add_b_u(sys.b(), 1.0, &u, &mut rhs);
        lu.solve_into(&rhs, &mut x, &mut y);
        num_solves += 1;

        history.insert(0, x.clone());
        if history.len() > order {
            history.pop();
        }
        times.push(t);
        for (o, val) in sys.output(&x).into_iter().enumerate() {
            outputs[o].push(val);
        }
        if let Some(s) = states.as_mut() {
            s.push(x.clone());
        }
    }
    Ok(TransientResult {
        times,
        outputs,
        states,
        num_solves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_sparse::CooMatrix;
    use opm_waveform::Waveform;

    fn scalar_decay(a: f64) -> DescriptorSystem {
        let mut e = CooMatrix::new(1, 1);
        e.push(0, 0, 1.0);
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, -a);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        DescriptorSystem::new(e.to_csr(), am.to_csr(), b.to_csr(), None).unwrap()
    }

    #[test]
    fn bdf1_equals_backward_euler() {
        let sys = scalar_decay(1.5);
        let u = InputSet::new(vec![Waveform::sine(0.0, 1.0, 0.7, 0.0, 0.0)]);
        let b1 = bdf(&sys, &u, 2.0, 64, 1, &[0.5], false).unwrap();
        let be = crate::be::backward_euler(&sys, &u, 2.0, 64, &[0.5], false).unwrap();
        for (a, b) in b1.outputs[0].iter().zip(&be.outputs[0]) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn observed_convergence_orders() {
        let sys = scalar_decay(1.0);
        let u = InputSet::new(vec![Waveform::Dc(0.0)]);
        let exact = (-1.0f64).exp();
        // BDF-2 converges at its design order.
        let err2 = |m: usize| {
            let r = bdf(&sys, &u, 1.0, m, 2, &[1.0], false).unwrap();
            (r.outputs[0][m - 1] - exact).abs()
        };
        let rate = (err2(80) / err2(160)).log2();
        assert!((rate - 2.0).abs() < 0.3, "BDF-2 order ≈ {rate}");
        // With the fine-substep startup, BDF-3 shows its design order.
        let err3 = |m: usize| {
            let r = bdf(&sys, &u, 1.0, m, 3, &[1.0], false).unwrap();
            (r.outputs[0][m - 1] - exact).abs()
        };
        let rate3 = (err3(40) / err3(80)).log2();
        assert!((rate3 - 3.0).abs() < 0.4, "BDF-3 order ≈ {rate3}");
        // Higher orders keep shrinking the error at fixed resolution.
        let err_at = |order: usize| {
            let r = bdf(&sys, &u, 1.0, 160, order, &[1.0], false).unwrap();
            (r.outputs[0][159] - exact).abs()
        };
        assert!(err_at(4) < err_at(2));
    }

    #[test]
    fn gear2_close_to_trapezoidal_accuracy() {
        let sys = scalar_decay(2.0);
        let u = InputSet::new(vec![Waveform::Dc(1.0)]);
        let exact = 0.5 * (1.0 - (-2.0f64 * 1.0).exp());
        let g = bdf(&sys, &u, 1.0, 100, 2, &[0.0], false).unwrap();
        let err_g = (g.outputs[0][99] - exact).abs();
        let t = crate::trap::trapezoidal(&sys, &u, 1.0, 100, &[0.0], false).unwrap();
        let err_t = (t.outputs[0][99] - exact).abs();
        assert!(
            err_g < 10.0 * err_t.max(1e-12),
            "gear {err_g} vs trap {err_t}"
        );
    }

    #[test]
    fn invalid_orders_rejected() {
        let sys = scalar_decay(1.0);
        let u = InputSet::new(vec![Waveform::Dc(0.0)]);
        assert!(bdf(&sys, &u, 1.0, 10, 0, &[0.0], false).is_err());
        assert!(bdf(&sys, &u, 1.0, 10, 7, &[0.0], false).is_err());
    }

    #[test]
    fn stiff_stability_order_2() {
        let sys = scalar_decay(1e8);
        let u = InputSet::new(vec![Waveform::Dc(0.0)]);
        let r = bdf(&sys, &u, 1.0, 20, 2, &[1.0], false).unwrap();
        assert!(r.outputs[0].iter().all(|v| v.abs() <= 1.0));
    }
}
