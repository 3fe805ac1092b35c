//! Arbitrary-length FFT via Bluestein's chirp-z algorithm.
//!
//! The paper's FFT-2 baseline uses **100** frequency sampling points — not
//! a power of two — so a practical reproduction needs an O(N log N)
//! transform for arbitrary N. Bluestein rewrites the DFT as a convolution
//! with a chirp:
//!
//! ```text
//! X_k = w^{k²/2} · Σ_n (x_n·w^{n²/2}) · w^{−(k−n)²/2},  w = e^{−2πi/N}
//! ```
//!
//! and evaluates the convolution with zero-padded radix-2 FFTs.

use crate::fft::{fft_with, ifft_with};
use opm_linalg::fft::FftPlan;
use opm_linalg::Complex64;

/// A DFT of one arbitrary length, set up once and reused for every
/// series of that length: the radix-2 [`FftPlan`] and, when the length
/// is not a power of two, the chirp and the spectrum of its conjugate
/// (the convolution kernel).
#[derive(Clone, Debug)]
pub struct Bluestein {
    n: usize,
    plan: FftPlan,
    /// `c_j = e^{−iπ j²/N}`; empty for a power-of-two length, which
    /// the plan transforms directly.
    chirp: Vec<Complex64>,
    /// The spectrum of `conj(c)`, wrapped to the plan's length.
    kernel: Vec<Complex64>,
}

impl Bluestein {
    /// The transform of length `n`.
    pub fn new(n: usize) -> Self {
        if n == 0 || n.is_power_of_two() {
            return Bluestein {
                n,
                plan: FftPlan::new(n.max(1)),
                chirp: Vec::new(),
                kernel: Vec::new(),
            };
        }
        // Use j² mod 2N to avoid precision loss on the angle for large j.
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let j2 = (j * j) % (2 * n);
                Complex64::from_polar(1.0, -std::f64::consts::PI * j2 as f64 / n as f64)
            })
            .collect();
        let m = (2 * n - 1).next_power_of_two();
        // b = conj(chirp) with wrap-around symmetry b[m−j] = b[j].
        let mut kernel = vec![Complex64::ZERO; m];
        kernel[0] = chirp[0].conj();
        for j in 1..n {
            let v = chirp[j].conj();
            kernel[j] = v;
            kernel[m - j] = v;
        }
        // One twiddle table serves every length-`m` transform.
        let plan = FftPlan::new(m);
        fft_with(&plan, &mut kernel);
        Bluestein {
            n,
            plan,
            chirp,
            kernel,
        }
    }

    /// Forward DFT (`X_k = Σ_n x_n·e^{−2πikn/N}`).
    ///
    /// # Panics
    /// Panics when `input` is not of the transform's length.
    pub fn forward(&self, input: &[Complex64]) -> Vec<Complex64> {
        let n = self.n;
        assert_eq!(input.len(), n, "input length must match the transform");
        if n == 0 {
            return Vec::new();
        }
        if self.chirp.is_empty() {
            let mut data = input.to_vec();
            fft_with(&self.plan, &mut data);
            return data;
        }
        // a = x·chirp, zero-padded, convolved with the kernel.
        let mut a = vec![Complex64::ZERO; self.kernel.len()];
        for j in 0..n {
            a[j] = input[j] * self.chirp[j];
        }
        fft_with(&self.plan, &mut a);
        for (x, y) in a.iter_mut().zip(&self.kernel) {
            *x *= *y;
        }
        let conv = ifft_with(&self.plan, &a);
        (0..n).map(|k| conv[k] * self.chirp[k]).collect()
    }

    /// Inverse DFT (`x_n = (1/N) Σ_k X_k·e^{+2πikn/N}`), via the
    /// conjugation identity.
    ///
    /// # Panics
    /// As [`Bluestein::forward`].
    pub fn inverse(&self, input: &[Complex64]) -> Vec<Complex64> {
        let conj: Vec<Complex64> = input.iter().map(|z| z.conj()).collect();
        self.forward(&conj)
            .into_iter()
            .map(|z| z.conj().scale(1.0 / self.n as f64))
            .collect()
    }
}

/// Forward DFT of arbitrary length (`O(N log N)`), set up for one call.
pub fn bluestein_fft(input: &[Complex64]) -> Vec<Complex64> {
    Bluestein::new(input.len()).forward(input)
}

/// Inverse DFT of arbitrary length, set up for one call.
pub fn bluestein_ifft(input: &[Complex64]) -> Vec<Complex64> {
    Bluestein::new(input.len()).inverse(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_dft_on_awkward_lengths() {
        use opm_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        for &n in &[3usize, 5, 7, 12, 100, 127] {
            let x: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
                .collect();
            let err = max_err(&bluestein_fft(&x), &dft(&x));
            assert!(err < 1e-9 * n as f64, "n={n}: {err}");
        }
    }

    #[test]
    fn power_of_two_shortcut_agrees() {
        let x: Vec<Complex64> = (0..16)
            .map(|i| Complex64::new((i as f64).cos(), 0.2 * i as f64))
            .collect();
        assert!(max_err(&bluestein_fft(&x), &dft(&x)) < 1e-10);
    }

    #[test]
    fn roundtrip_length_100() {
        // The paper's FFT-2 length.
        let x: Vec<Complex64> = (0..100)
            .map(|i| Complex64::new((0.17 * i as f64).sin(), (0.05 * i as f64).cos()))
            .collect();
        let back = bluestein_ifft(&bluestein_fft(&x));
        assert!(max_err(&back, &x) < 1e-10);
    }

    #[test]
    fn reused_transform_equals_one_shot_bit_for_bit() {
        use opm_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xB1E5);
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for n in [7usize, 8, 100] {
            let dft = Bluestein::new(n);
            for _ in 0..3 {
                let x: Vec<Complex64> = (0..n)
                    .map(|_| {
                        Complex64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))
                    })
                    .collect();
                assert_eq!(bits(&dft.forward(&x)), bits(&bluestein_fft(&x)), "n = {n}");
                assert_eq!(bits(&dft.inverse(&x)), bits(&bluestein_ifft(&x)), "n = {n}");
            }
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(bluestein_fft(&[]).is_empty());
        let one = bluestein_fft(&[Complex64::new(2.5, -1.0)]);
        assert!((one[0] - Complex64::new(2.5, -1.0)).abs() < 1e-15);
    }
}
