//! Trapezoidal rule — the second-order A-stable workhorse (and, as the
//! OPM paper's equivalence shows, the algebraic twin of BPF-OPM).
//!
//! `(E/h − A/2)·x_{k+1} = (E/h + A/2)·x_k + B·(u_k + u_{k+1})/2`.

use crate::result::TransientResult;
use crate::util::{add_b_u, factor_shifted, validate};
use crate::TransientError;
use opm_system::DescriptorSystem;
use opm_waveform::InputSet;

/// Integrates `E ẋ = A x + B u` with the trapezoidal rule.
///
/// # Errors
/// [`TransientError`] on bad arguments or a singular iteration matrix.
pub fn trapezoidal(
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
    // (E/h − A/2): scale the shifted-pencil helper by writing
    // σE − A with σ = 2/h, then divide both sides by 2 — equivalently
    // factor (2/h·E − A) and double the RHS.
    let lu = factor_shifted(sys, 2.0 / h)?;

    let mut x = x0.to_vec();
    let mut u_prev = inputs.eval(0.0);
    let mut rhs = vec![0.0; n];
    let mut ax = vec![0.0; n];
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
        // RHS (doubled form): (2/h·E + A)·x_k + B·(u_k + u_{k+1}).
        sys.e().mul_vec_into(&x, &mut rhs);
        rhs.iter_mut().for_each(|v| *v *= 2.0 / h);
        sys.a().mul_vec_into(&x, &mut ax);
        for (r, a) in rhs.iter_mut().zip(&ax) {
            *r += a;
        }
        let u = inputs.eval(t);
        add_b_u(sys.b(), 1.0, &u_prev, &mut rhs);
        add_b_u(sys.b(), 1.0, &u, &mut rhs);
        u_prev = u;
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
    fn second_order_convergence() {
        let sys = scalar_decay(1.0);
        let u = InputSet::new(vec![Waveform::Dc(0.0)]);
        let exact = (-1.0f64).exp();
        let err = |m: usize| {
            let r = trapezoidal(&sys, &u, 1.0, m, &[1.0], false).unwrap();
            (r.outputs[0][m - 1] - exact).abs()
        };
        let e1 = err(50);
        let e2 = err(100);
        let rate = (e1 / e2).log2();
        assert!((rate - 2.0).abs() < 0.1, "order ≈ {rate}");
    }

    #[test]
    fn beats_backward_euler_at_same_step() {
        let sys = scalar_decay(2.0);
        let u = InputSet::new(vec![Waveform::sine(0.0, 1.0, 1.0, 0.0, 0.0)]);
        let fine = trapezoidal(&sys, &u, 2.0, 8192, &[0.0], false).unwrap();
        let t_run = trapezoidal(&sys, &u, 2.0, 64, &[0.0], false).unwrap();
        let be_run = crate::be::backward_euler(&sys, &u, 2.0, 64, &[0.0], false).unwrap();
        let sub = |r: &TransientResult| -> f64 {
            let stride = 8192 / 64;
            r.outputs[0]
                .iter()
                .enumerate()
                .map(|(k, v)| (v - fine.outputs[0][(k + 1) * stride - 1]).abs())
                .fold(0.0, f64::max)
        };
        assert!(
            sub(&t_run) < 0.1 * sub(&be_run),
            "trap {} vs BE {}",
            sub(&t_run),
            sub(&be_run)
        );
    }

    #[test]
    fn dae_voltage_divider_tracks_input_instantly() {
        // Algebraic system: 0 = −x + u (E = 0) ⇒ x ≡ u at every step.
        let mut e = CooMatrix::new(1, 1);
        let _ = &mut e; // E stays empty (singular).
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, -1.0);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        let sys = DescriptorSystem::new(e.to_csr(), am.to_csr(), b.to_csr(), None).unwrap();
        let u = InputSet::new(vec![Waveform::Ramp { slope: 2.0 }]);
        let r = trapezoidal(&sys, &u, 1.0, 10, &[0.0], false).unwrap();
        for (k, &t) in r.times.iter().enumerate() {
            // The algebraic recurrence x_j = u_j + u_{j−1} − x_{j−1}
            // telescopes to x_j = u_j when x₀ = u(0) (consistent IC).
            assert!(
                (r.outputs[0][k] - 2.0 * t).abs() < 1e-9,
                "t={t}: {}",
                r.outputs[0][k]
            );
        }
    }

    #[test]
    fn conserves_undamped_oscillator_energy() {
        // ẋ = [[0, 1], [−1, 0]]x: trapezoidal is symplectic-ish on this
        // (exactly energy-preserving since |stability function| = 1).
        let mut e = CooMatrix::new(2, 2);
        e.push(0, 0, 1.0);
        e.push(1, 1, 1.0);
        let mut am = CooMatrix::new(2, 2);
        am.push(0, 1, 1.0);
        am.push(1, 0, -1.0);
        let b = CooMatrix::new(2, 1);
        let sys = DescriptorSystem::new(e.to_csr(), am.to_csr(), b.to_csr(), None).unwrap();
        let u = InputSet::new(vec![Waveform::Dc(0.0)]);
        let r = trapezoidal(&sys, &u, 50.0, 2000, &[1.0, 0.0], true).unwrap();
        let states = r.states.unwrap();
        let energy: Vec<f64> = states.iter().map(|s| s[0] * s[0] + s[1] * s[1]).collect();
        for &e_k in &energy {
            assert!((e_k - 1.0).abs() < 1e-10, "energy drifted to {e_k}");
        }
    }
}
