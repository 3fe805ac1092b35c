//! Backward Euler — the first-order A-stable baseline.
//!
//! `(E/h − A)·x_{k+1} = (E/h)·x_k + B·u(t_{k+1})`; one sparse LU shared by
//! all steps. Table II runs it at h = 10, 5 and 1 ps to show how many
//! steps it needs to catch up with the second-order methods.

use crate::result::TransientResult;
use crate::util::{add_b_u, factor_shifted, validate};
use crate::TransientError;
use opm_system::DescriptorSystem;
use opm_waveform::InputSet;

/// Integrates `E ẋ = A x + B u` with backward Euler over `[0, t_end]`
/// using `m` uniform steps from initial state `x0`.
///
/// # Errors
/// [`TransientError`] on bad arguments or a singular iteration matrix.
pub fn backward_euler(
    sys: &DescriptorSystem,
    inputs: &InputSet,
    t_end: f64,
    m: usize,
    x0: &[f64],
    store_states: bool,
) -> Result<TransientResult, TransientError> {
    validate(sys, inputs.len(), t_end, m, x0)?;
    let n = sys.order();
    let h = t_end / m as f64;
    let lu = factor_shifted(sys, 1.0 / h)?;

    let mut x = x0.to_vec();
    let mut rhs = vec![0.0; n];
    let mut scratch = vec![0.0; n];
    let mut y = vec![0.0; n];
    let mut times = Vec::with_capacity(m);
    let mut outputs: Vec<Vec<f64>> = vec![Vec::with_capacity(m); sys.num_outputs()];
    let mut states = if store_states {
        Some(Vec::with_capacity(m))
    } else {
        None
    };

    for k in 1..=m {
        let t = k as f64 * h;
        // rhs = (E/h)·x_k + B·u(t).
        sys.e().mul_vec_into(&x, &mut rhs);
        rhs.iter_mut().for_each(|v| *v /= h);
        let u = inputs.eval(t);
        add_b_u(sys.b(), 1.0, &u, &mut rhs);
        lu.solve_into(&rhs, &mut scratch, &mut y);
        std::mem::swap(&mut x, &mut scratch);

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
        num_solves: m,
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
    fn decays_toward_exact_solution() {
        // ẋ = −2x, x(0) = 1 ⇒ x(1) = e^{−2}.
        let sys = scalar_decay(2.0);
        let u = InputSet::new(vec![Waveform::Dc(0.0)]);
        let r = backward_euler(&sys, &u, 1.0, 2000, &[1.0], false).unwrap();
        let got = r.outputs[0][r.len() - 1];
        assert!((got - (-2.0f64).exp()).abs() < 1e-3, "{got}");
    }

    #[test]
    fn first_order_convergence() {
        let sys = scalar_decay(1.0);
        let u = InputSet::new(vec![Waveform::Dc(0.0)]);
        let exact = (-1.0f64).exp();
        let err = |m: usize| {
            let r = backward_euler(&sys, &u, 1.0, m, &[1.0], false).unwrap();
            (r.outputs[0][m - 1] - exact).abs()
        };
        let e1 = err(100);
        let e2 = err(200);
        let rate = (e1 / e2).log2();
        assert!((rate - 1.0).abs() < 0.1, "order ≈ {rate}");
    }

    #[test]
    fn step_input_reaches_dc_gain() {
        // ẋ = −x + u, u = 3 ⇒ x(∞) = 3.
        let sys = scalar_decay(1.0);
        let u = InputSet::new(vec![Waveform::Dc(3.0)]);
        let r = backward_euler(&sys, &u, 20.0, 400, &[0.0], false).unwrap();
        assert!((r.outputs[0][399] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn stiff_stability() {
        // Very stiff decay with huge steps stays bounded (A-stability).
        let sys = scalar_decay(1e9);
        let u = InputSet::new(vec![Waveform::Dc(0.0)]);
        let r = backward_euler(&sys, &u, 1.0, 10, &[1.0], false).unwrap();
        assert!(r.outputs[0].iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn argument_validation() {
        let sys = scalar_decay(1.0);
        let u = InputSet::new(vec![Waveform::Dc(0.0)]);
        assert!(backward_euler(&sys, &u, 1.0, 0, &[1.0], false).is_err());
        assert!(backward_euler(&sys, &u, -1.0, 5, &[1.0], false).is_err());
        assert!(backward_euler(&sys, &u, 1.0, 5, &[1.0, 2.0], false).is_err());
        let u2 = InputSet::new(vec![Waveform::Dc(0.0), Waveform::Dc(0.0)]);
        assert!(backward_euler(&sys, &u2, 1.0, 5, &[1.0], false).is_err());
    }

    #[test]
    fn states_stored_on_request() {
        let sys = scalar_decay(1.0);
        let u = InputSet::new(vec![Waveform::Dc(0.0)]);
        let r = backward_euler(&sys, &u, 1.0, 5, &[1.0], true).unwrap();
        assert_eq!(r.states.as_ref().unwrap().len(), 5);
    }
}
