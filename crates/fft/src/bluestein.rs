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

use crate::fft::{fft_in_place, fft_with, ifft_with};
use opm_linalg::fft::FftPlan;
use opm_linalg::Complex64;

/// Forward DFT of arbitrary length (`O(N log N)`).
pub fn bluestein_fft(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if n.is_power_of_two() {
        let mut data = input.to_vec();
        fft_in_place(&mut data);
        return data;
    }
    // Chirp: c_j = e^{−iπ j²/N}. Use j² mod 2N to avoid precision loss on
    // the angle for large j.
    let chirp: Vec<Complex64> = (0..n)
        .map(|j| {
            let j2 = (j * j) % (2 * n);
            Complex64::from_polar(1.0, -std::f64::consts::PI * j2 as f64 / n as f64)
        })
        .collect();

    let m = (2 * n - 1).next_power_of_two();
    // a = x·chirp, zero-padded.
    let mut a = vec![Complex64::ZERO; m];
    for j in 0..n {
        a[j] = input[j] * chirp[j];
    }
    // b = conj(chirp) with wrap-around symmetry b[m−j] = b[j].
    let mut b = vec![Complex64::ZERO; m];
    b[0] = chirp[0].conj();
    for j in 1..n {
        let v = chirp[j].conj();
        b[j] = v;
        b[m - j] = v;
    }
    // One twiddle table serves all three length-`m` transforms.
    let plan = FftPlan::new(m);
    fft_with(&plan, &mut a);
    fft_with(&plan, &mut b);
    for (x, y) in a.iter_mut().zip(&b) {
        *x *= *y;
    }
    let conv = ifft_with(&plan, &a);
    (0..n).map(|k| conv[k] * chirp[k]).collect()
}

/// Inverse DFT of arbitrary length.
pub fn bluestein_ifft(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let conj: Vec<Complex64> = input.iter().map(|z| z.conj()).collect();
    bluestein_fft(&conj)
        .into_iter()
        .map(|z| z.conj().scale(1.0 / n as f64))
        .collect()
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
    fn empty_and_single() {
        assert!(bluestein_fft(&[]).is_empty());
        let one = bluestein_fft(&[Complex64::new(2.5, -1.0)]);
        assert!((one[0] - Complex64::new(2.5, -1.0)).abs() < 1e-15);
    }
}
