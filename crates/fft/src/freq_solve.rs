//! The paper's FFT baseline: frequency-domain simulation of
//! `E·d^α x/dt^α = A·x + B·u`.
//!
//! 1. Sample the input at `N` points over `[0, T)`.
//! 2. Transform: `U(jω_k)` (Bluestein, so `N = 100` works).
//! 3. Solve `(E·(jω_k)^α − A)·X_k = B·U_k` per frequency with complex
//!    dense LU; conjugate symmetry halves the work for real inputs.
//! 4. Inverse transform; the real parts are the time samples.
//!
//! The method computes the *periodic* response (the input is implicitly
//! T-periodic) — the source of the accuracy gap vs OPM that Table I
//! reports, shrinking as `N` grows (FFT-2 beats FFT-1).

use crate::bluestein::Bluestein;
use opm_linalg::{Complex64, ZMatrix, ZVector};
use opm_system::FractionalSystem;
use opm_waveform::InputSet;

/// Result of a frequency-domain simulation.
#[derive(Clone, Debug)]
pub struct FreqResult {
    /// Sample times `t_k = k·T/N`.
    pub times: Vec<f64>,
    /// State samples: `states[i][k]` = state `i` at `t_k`.
    pub states: Vec<Vec<f64>>,
    /// Output samples: `outputs[o][k]`.
    pub outputs: Vec<Vec<f64>>,
    /// Max imaginary residue after the inverse transform (sanity metric —
    /// should be at roundoff level for real inputs).
    pub max_imag: f64,
}

/// Frequency-domain simulator for fractional descriptor systems.
#[derive(Clone, Debug)]
pub struct FftSimulator {
    /// Number of frequency sampling points (the paper's FFT-1 = 8,
    /// FFT-2 = 100).
    pub n_samples: usize,
}

impl FreqResult {
    /// Linearly interpolates output channel `o` at time `t` (periodic
    /// extension beyond the last sample — the method's own assumption).
    pub fn interpolate_output(&self, o: usize, t: f64) -> f64 {
        let n = self.times.len();
        let dt = if n > 1 {
            self.times[1] - self.times[0]
        } else {
            return self.outputs[o][0];
        };
        let pos = t / dt;
        let k = pos.floor() as usize;
        let frac = pos - k as f64;
        let a = self.outputs[o][k % n];
        let b = self.outputs[o][(k + 1) % n];
        a + frac * (b - a)
    }
}

impl FftSimulator {
    /// Creates a simulator with the given number of sampling points.
    pub fn new(n_samples: usize) -> Self {
        assert!(n_samples >= 2, "need at least two sampling points");
        FftSimulator { n_samples }
    }

    /// Simulates the system over `[0, t_end)`.
    ///
    /// # Panics
    /// Panics when `(jω)^α E − A` is singular at some sampled frequency
    /// (including DC: `A` must be nonsingular) or when input channel count
    /// mismatches `B`.
    pub fn simulate(&self, sys: &FractionalSystem, inputs: &InputSet, t_end: f64) -> FreqResult {
        let n = sys.order();
        let p = sys.num_inputs();
        assert_eq!(inputs.len(), p, "input channel count mismatch");
        let big_n = self.n_samples;
        let dt = t_end / big_n as f64;

        // One transform serves every input channel and state row.
        let dft = Bluestein::new(big_n);

        // Sample and transform each input channel.
        let mut u_hat: Vec<Vec<Complex64>> = Vec::with_capacity(p);
        for ch in inputs.channels() {
            let samples: Vec<Complex64> = (0..big_n)
                .map(|k| Complex64::from_real(ch.eval(k as f64 * dt)))
                .collect();
            u_hat.push(dft.forward(&samples));
        }

        let (e_d, a_d, b_d) = sys.system().to_dense();
        let e_z = ZMatrix::from_real(&e_d);
        let a_z = ZMatrix::from_real(&a_d);

        // Solve per frequency; exploit conjugate symmetry
        // X(−ω) = conj(X(ω)) for real inputs.
        let mut x_hat: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; big_n]; n];
        let half = big_n / 2;
        for k in 0..=half {
            let omega = 2.0 * std::f64::consts::PI * k as f64 / t_end;
            // (jω)^α on the principal branch.
            let jw_alpha = if k == 0 {
                Complex64::ZERO
            } else {
                Complex64::new(0.0, omega).powf(sys.alpha())
            };
            let m = e_z.lin_comb(jw_alpha, &a_z, Complex64::new(-1.0, 0.0));
            let lu = m
                .factor_lu()
                .unwrap_or_else(|| panic!("singular pencil at frequency bin {k}"));
            // RHS: B·U_k.
            let mut rhs = ZVector::zeros(n);
            for i in 0..n {
                let mut s = Complex64::ZERO;
                for j in 0..p {
                    let bij = b_d.get(i, j);
                    if bij != 0.0 {
                        s += u_hat[j][k].scale(bij);
                    }
                }
                rhs[i] = s;
            }
            let xk = lu.solve(&rhs);
            for i in 0..n {
                x_hat[i][k] = xk[i];
                // Mirror bin (skip DC and Nyquist self-mirrors).
                if k != 0 && (big_n % 2 != 0 || k != half) {
                    x_hat[i][big_n - k] = xk[i].conj();
                }
            }
        }

        // Inverse transform per state.
        let mut states = Vec::with_capacity(n);
        let mut max_imag = 0.0f64;
        for row in &x_hat {
            let time = dft.inverse(row);
            max_imag = max_imag.max(time.iter().fold(0.0f64, |m, z| m.max(z.im.abs())));
            states.push(time.iter().map(|z| z.re).collect::<Vec<f64>>());
        }

        // Outputs.
        let outputs = match sys.system().c() {
            Some(c) => {
                let q = c.nrows();
                let mut out = vec![vec![0.0; big_n]; q];
                for k in 0..big_n {
                    let xk: Vec<f64> = (0..n).map(|i| states[i][k]).collect();
                    let yk = c.mul_vec(&xk);
                    for (o, row) in out.iter_mut().enumerate() {
                        row[k] = yk[o];
                    }
                }
                out
            }
            None => states.clone(),
        };

        FreqResult {
            times: (0..big_n).map(|k| k as f64 * dt).collect(),
            states,
            outputs,
            max_imag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_sparse::CooMatrix;
    use opm_system::DescriptorSystem;
    use opm_waveform::Waveform;

    /// Scalar system ẋ = −a·x + u (α = 1 so classic phasor analysis
    /// provides the oracle).
    fn scalar_system(a: f64) -> FractionalSystem {
        let mut e = CooMatrix::new(1, 1);
        e.push(0, 0, 1.0);
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, -a);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        FractionalSystem::new(
            1.0,
            DescriptorSystem::new(e.to_csr(), am.to_csr(), b.to_csr(), None).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn sinusoid_at_bin_frequency_matches_phasor_solution() {
        // u = sin(2π·2·t/T): exactly bin 2. Steady state:
        // x = Im[e^{2πi·2t/T}/(a + jω)].
        let a = 3.0;
        let t_end = 1.0;
        let omega = 2.0 * std::f64::consts::PI * 2.0;
        let sys = scalar_system(a);
        let u = InputSet::new(vec![Waveform::sine(0.0, 1.0, 2.0, 0.0, 0.0)]);
        let sim = FftSimulator::new(64);
        let r = sim.simulate(&sys, &u, t_end);
        assert!(r.max_imag < 1e-9);
        let h = Complex64::new(a, omega).inv();
        for (k, &t) in r.times.iter().enumerate() {
            let phasor = (Complex64::new(0.0, omega * t).exp() * h).im;
            assert!(
                (r.states[0][k] - phasor).abs() < 1e-8,
                "t={t}: {} vs {phasor}",
                r.states[0][k]
            );
        }
    }

    #[test]
    fn dc_input_gives_static_gain() {
        let sys = scalar_system(4.0);
        let u = InputSet::new(vec![Waveform::Dc(2.0)]);
        let r = FftSimulator::new(16).simulate(&sys, &u, 5.0);
        // Periodic steady state of a constant input: x = u/a everywhere.
        for &x in &r.states[0] {
            assert!((x - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn more_samples_capture_pulse_better() {
        // A fast pulse needs more bins: the coarse run must differ more
        // from a fine reference than the medium run does.
        let sys = scalar_system(5.0);
        let u = InputSet::new(vec![
            Waveform::pulse(0.0, 1.0, 0.1, 0.05, 0.2, 0.05, 0.0).unwrap()
        ]);
        let t_end = 2.0;
        let fine = FftSimulator::new(512).simulate(&sys, &u, t_end);
        let coarse = FftSimulator::new(8).simulate(&sys, &u, t_end);
        let medium = FftSimulator::new(64).simulate(&sys, &u, t_end);
        // Compare at the coarse grid points (subsampling the finer runs).
        let err = |r: &FreqResult| -> f64 {
            let stride = 512 / r.states[0].len();
            r.states[0]
                .iter()
                .enumerate()
                .map(|(k, &x)| (x - fine.states[0][k * stride]).abs())
                .fold(0.0, f64::max)
        };
        let e_coarse = err(&coarse);
        let e_medium = err(&medium);
        assert!(
            e_medium < e_coarse,
            "medium {e_medium} should beat coarse {e_coarse}"
        );
    }

    #[test]
    fn arbitrary_sample_count_works() {
        // The paper's FFT-2 uses exactly 100 points.
        let sys = scalar_system(2.0);
        let u = InputSet::new(vec![Waveform::sine(0.0, 1.0, 1.0, 0.0, 0.0)]);
        let r = FftSimulator::new(100).simulate(&sys, &u, 1.0);
        assert_eq!(r.times.len(), 100);
        assert!(r.max_imag < 1e-8);
    }
}
