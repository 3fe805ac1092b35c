//! Radix-2 FFT on `Complex64` slices: the workspace's one radix-2
//! transform ([`opm_linalg::fft::FftPlan`]) run on a width-1 panel.

use opm_linalg::fft::FftPlan;
use opm_linalg::Complex64;

/// In-place forward FFT (`X_k = Σ_n x_n·e^{−2πikn/N}`).
///
/// # Panics
/// Panics when the length is not a power of two (use
/// [`bluestein`](crate::bluestein) for arbitrary lengths).
pub fn fft_in_place(data: &mut [Complex64]) {
    fft_with(&FftPlan::new(data.len()), data);
}

/// Forward FFT returning a new vector.
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let mut data = input.to_vec();
    fft_in_place(&mut data);
    data
}

/// Inverse FFT (`x_n = (1/N) Σ_k X_k·e^{+2πikn/N}`), via the conjugation
/// identity.
pub fn ifft(input: &[Complex64]) -> Vec<Complex64> {
    ifft_with(&FftPlan::new(input.len()), input)
}

/// [`fft_in_place`] with a plan built for `data.len()`, so callers that
/// transform several series of one length build its twiddles once.
pub(crate) fn fft_with(plan: &FftPlan, data: &mut [Complex64]) {
    let (mut re, mut im): (Vec<[f64; 1]>, Vec<[f64; 1]>) =
        data.iter().map(|z| ([z.re], [z.im])).unzip();
    plan.forward(&mut re, &mut im);
    for (z, (r, i)) in data.iter_mut().zip(re.iter().zip(&im)) {
        *z = Complex64::new(r[0], i[0]);
    }
}

/// [`ifft`] with a plan built for `input.len()`.
pub(crate) fn ifft_with(plan: &FftPlan, input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let mut data: Vec<Complex64> = input.iter().map(|z| z.conj()).collect();
    fft_with(plan, &mut data);
    data.iter_mut()
        .for_each(|z| *z = z.conj().scale(1.0 / n as f64));
    data
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
    fn matches_dft_on_random_data() {
        use opm_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        for &n in &[1usize, 2, 8, 64, 256] {
            let x: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
                .collect();
            let err = max_err(&fft(&x), &dft(&x));
            assert!(err < 1e-9 * (n as f64), "n={n}: err {err}");
        }
    }

    #[test]
    fn matches_dft_to_1e12_relative_up_to_4096() {
        use opm_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xFF7);
        let mut n = 2;
        while n <= 4096 {
            let x: Vec<Complex64> = (0..n)
                .map(|_| Complex64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
                .collect();
            let want = dft(&x);
            let scale = want.iter().map(|z| z.abs()).fold(0.0, f64::max);
            let err = max_err(&fft(&x), &want);
            assert!(
                err <= 1e-12 * scale,
                "n={n}: err {err:e} vs scale {scale:e}"
            );
            n *= 2;
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let back = ifft(&fft(&x));
        assert!(max_err(&back, &x) < 1e-12);
    }

    #[test]
    fn parseval_identity() {
        let x: Vec<Complex64> = (0..128)
            .map(|i| Complex64::new((0.3 * i as f64).cos(), 0.0))
            .collect();
        let big_x = fft(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = big_x.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn pure_tone_hits_single_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|i| {
                Complex64::from_polar(1.0, 2.0 * std::f64::consts::PI * (k0 * i) as f64 / n as f64)
            })
            .collect();
        let big_x = fft(&x);
        for (k, z) in big_x.iter().enumerate() {
            let want = if k == k0 { n as f64 } else { 0.0 };
            assert!((z.abs() - want).abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_panics() {
        let mut v = vec![Complex64::ZERO; 6];
        fft_in_place(&mut v);
    }
}
