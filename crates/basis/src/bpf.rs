//! Uniform block-pulse functions — the paper's primary basis.
//!
//! With `m` intervals of width `h = T/m` on `[0, T)`:
//!
//! - projection coefficients are interval averages (Eq. 2),
//! - the integration matrix is `H = (h/2)(I + Q)(I − Q)^{-1}` (Eqs. 4–5),
//! - the differentiation matrix is `D = (2/h)(I − Q)(I + Q)^{-1}` (Eq. 7),
//!   the matrix Tustin/bilinear transform,
//! - fractional powers `D^α` are degree-`(m−1)` polynomials in the
//!   nilpotent shift `Q` (Eq. 22), generated by
//!   [`series::tustin_frac_coeffs`](crate::series::tustin_frac_coeffs).
//!
//! Solvers never materialize these matrices: they consume
//! [`BpfBasis::frac_diff_coeffs`], the first row of the upper-triangular
//! Toeplitz operator. The dense forms exist for tests and small oracles.

use crate::quadrature::integrate_adaptive;
use crate::series::tustin_frac_coeffs;
use crate::traits::Basis;
use opm_linalg::DMatrix;

/// The uniform block-pulse basis `φ_i = 1 on [ih, (i+1)h)`.
///
/// ```
/// use opm_basis::bpf::BpfBasis;
/// use opm_basis::Basis;
/// let b = BpfBasis::new(4, 2.0);
/// assert_eq!(b.h(), 0.5);
/// assert_eq!(b.eval(1, 0.75), 1.0);
/// assert_eq!(b.eval(1, 1.25), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct BpfBasis {
    m: usize,
    t_end: f64,
    h: f64,
}

impl BpfBasis {
    /// Creates a basis of `m` pulses on `[0, t_end)`.
    ///
    /// # Panics
    /// Panics when `m == 0` or `t_end <= 0`.
    pub fn new(m: usize, t_end: f64) -> Self {
        assert!(m > 0, "need at least one interval");
        assert!(t_end > 0.0, "time span must be positive");
        BpfBasis {
            m,
            t_end,
            h: t_end / m as f64,
        }
    }

    /// Interval width `h = T/m`.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Left edge of interval `i`.
    pub fn interval_start(&self, i: usize) -> f64 {
        i as f64 * self.h
    }

    /// Midpoints of all intervals — the natural plotting abscissae for BPF
    /// coefficient sequences (`f_i ≈ f(ih + h/2)` to second order).
    pub fn midpoints(&self) -> Vec<f64> {
        (0..self.m).map(|i| (i as f64 + 0.5) * self.h).collect()
    }

    /// Projects a function given its *exact interval averages*:
    /// `avg(a, b) = (1/(b−a))∫_a^b f`. This is the lossless projection path
    /// used by `opm-waveform`, which knows its antiderivatives.
    pub fn project_averages(&self, avg: &dyn Fn(f64, f64) -> f64) -> Vec<f64> {
        (0..self.m)
            .map(|i| {
                let a = self.interval_start(i);
                avg(a, a + self.h)
            })
            .collect()
    }

    /// First row of the upper-triangular Toeplitz operator `D^α`
    /// (`α` may be negative: `D^{−α} = H^α`, fractional integration).
    ///
    /// Entry `k` multiplies the `k`-th superdiagonal; the scale `(2/h)^α`
    /// is included.
    pub fn frac_diff_coeffs(&self, alpha: f64) -> Vec<f64> {
        let scale = (2.0 / self.h).powf(alpha);
        tustin_frac_coeffs(alpha, self.m)
            .into_iter()
            .map(|c| scale * c)
            .collect()
    }

    /// [`BpfBasis::frac_diff_coeffs`] extended to `len ≥ m` entries —
    /// the weight vector of a *windowed* fractional solve, where the
    /// memory term of window `w` reaches back across all previous
    /// windows' polyline samples: entry `k` is the weight applied to
    /// the column `k` intervals in the past, at this basis's interval
    /// width, whether that column lives in the current window
    /// (`k ≤` local index) or in a carried history tail behind it.
    ///
    /// ```
    /// use opm_basis::bpf::BpfBasis;
    /// let b = BpfBasis::new(4, 1.0);
    /// let long = b.frac_diff_coeffs_n(0.5, 12);
    /// assert_eq!(&long[..4], b.frac_diff_coeffs(0.5).as_slice());
    /// ```
    pub fn frac_diff_coeffs_n(&self, alpha: f64, len: usize) -> Vec<f64> {
        let scale = (2.0 / self.h).powf(alpha);
        tustin_frac_coeffs(alpha, len.max(self.m))
            .into_iter()
            .map(|c| scale * c)
            .collect()
    }

    /// Dense `D^α` (Eq. 22/24). Prefer [`frac_diff_coeffs`]
    /// (`O(m)` storage) in solvers.
    ///
    /// [`frac_diff_coeffs`]: Self::frac_diff_coeffs
    pub fn frac_diff_matrix(&self, alpha: f64) -> DMatrix {
        let c = self.frac_diff_coeffs(alpha);
        DMatrix::from_fn(self.m, self.m, |i, j| if j >= i { c[j - i] } else { 0.0 })
    }

    /// The order-1 differentiation matrix `D` (Eq. 7).
    pub fn differentiation_matrix(&self) -> DMatrix {
        self.frac_diff_matrix(1.0)
    }
}

/// Recovers the endpoint value `v(T)` from BPF interval averages via the
/// polyline recurrence `v_k = 2·c_{k−1} − v_{k−1}` — exact under the
/// trapezoidal-polyline interpretation of BPF-OPM (each average is the
/// mean of its interval's endpoint values). This is the state handoff of
/// windowed solving: the end-of-window state becomes the next window's
/// initial condition.
///
/// ```
/// use opm_basis::bpf::endpoint_from_averages;
/// // Averages of the polyline 0 → 2 → 2 → 4 are 1, 2, 3.
/// assert_eq!(endpoint_from_averages(&[1.0, 2.0, 3.0], 0.0), 4.0);
/// ```
pub fn endpoint_from_averages(averages: &[f64], v0: f64) -> f64 {
    averages.iter().fold(v0, |v, &c| 2.0 * c - v)
}

impl Basis for BpfBasis {
    fn dim(&self) -> usize {
        self.m
    }

    fn t_end(&self) -> f64 {
        self.t_end
    }

    fn eval(&self, i: usize, t: f64) -> f64 {
        assert!(i < self.m, "basis index out of range");
        let a = self.interval_start(i);
        if t >= a && t < a + self.h {
            1.0
        } else {
            0.0
        }
    }

    fn project(&self, f: &dyn Fn(f64) -> f64) -> Vec<f64> {
        (0..self.m)
            .map(|i| {
                let a = self.interval_start(i);
                let b = a + self.h;
                // Tolerance scales with the interval width so nanosecond
                // grids get the same *relative* accuracy as unit grids.
                integrate_adaptive(f, a, b, 1e-13 * self.h) / self.h
            })
            .collect()
    }

    fn integration_matrix(&self) -> DMatrix {
        // H = h/2 on the diagonal, h above (Eq. 4).
        DMatrix::from_fn(self.m, self.m, |i, j| {
            if j == i {
                self.h / 2.0
            } else if j > i {
                self.h
            } else {
                0.0
            }
        })
    }

    fn differentiation_matrix_opt(&self) -> Option<DMatrix> {
        Some(self.differentiation_matrix())
    }

    fn one_coeffs(&self) -> Vec<f64> {
        vec![1.0; self.m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_linalg::DVector;

    #[test]
    fn paper_eq_4_integration_matrix() {
        let b = BpfBasis::new(4, 4.0); // h = 1
        let h = b.integration_matrix();
        let want = DMatrix::from_rows(&[
            &[0.5, 1.0, 1.0, 1.0],
            &[0.0, 0.5, 1.0, 1.0],
            &[0.0, 0.0, 0.5, 1.0],
            &[0.0, 0.0, 0.0, 0.5],
        ]);
        assert!(h.sub(&want).norm_max() < 1e-15);
    }

    #[test]
    fn paper_eq_7_differentiation_matrix() {
        let b = BpfBasis::new(4, 2.0); // h = 0.5, 2/h = 4
        let d = b.differentiation_matrix();
        let want = DMatrix::from_rows(&[
            &[4.0, -8.0, 8.0, -8.0],
            &[0.0, 4.0, -8.0, 8.0],
            &[0.0, 0.0, 4.0, -8.0],
            &[0.0, 0.0, 0.0, 4.0],
        ]);
        assert!(d.sub(&want).norm_max() < 1e-12);
    }

    #[test]
    fn d_is_inverse_of_h() {
        for m in [1, 2, 5, 16] {
            let b = BpfBasis::new(m, 1.3);
            let prod = b.differentiation_matrix().mul_mat(&b.integration_matrix());
            assert!(prod.sub(&DMatrix::identity(m)).norm_max() < 1e-10, "m={m}");
        }
    }

    #[test]
    fn paper_eq_24_d_three_halves() {
        let b = BpfBasis::new(4, 4.0 * 0.5); // h = 0.5 ⇒ (2/h)^{3/2} = 8
        let d32 = b.frac_diff_matrix(1.5);
        let scale = 8.0;
        let want = DMatrix::from_rows(&[
            &[1.0, -3.0, 4.5, -5.5],
            &[0.0, 1.0, -3.0, 4.5],
            &[0.0, 0.0, 1.0, -3.0],
            &[0.0, 0.0, 0.0, 1.0],
        ])
        .scale(scale);
        assert!(d32.sub(&want).norm_max() < 1e-11);
    }

    #[test]
    fn fractional_semigroup_on_matrices() {
        let b = BpfBasis::new(8, 1.0);
        let d_half = b.frac_diff_matrix(0.5);
        let d1 = b.differentiation_matrix();
        let err = d_half.mul_upper_triangular(&d_half).sub(&d1).norm_max();
        assert!(err < 1e-9 * d1.norm_max(), "err={err}");
    }

    #[test]
    fn projection_is_interval_average() {
        let b = BpfBasis::new(5, 1.0);
        // f(t) = t: average over [ih, ih+h) is ih + h/2.
        let c = b.project(&|t| t);
        for (i, &ci) in c.iter().enumerate() {
            let want = (i as f64 + 0.5) * 0.2;
            assert!((ci - want).abs() < 1e-12);
        }
        // project_averages path agrees.
        let c2 = b.project_averages(&|a, bb| 0.5 * (a + bb));
        for (x, y) in c.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn integration_matrix_integrates_projected_polynomials() {
        // coeffs of ∫f = Hᵀ·coeffs(f) up to O(h²) projection error.
        let m = 64;
        let b = BpfBasis::new(m, 1.0);
        let cf = DVector::from(b.project(&|t| 3.0 * t * t));
        let ci = b.integration_matrix().transpose().mul_vec(&cf);
        let want = DVector::from(b.project(&|t| t * t * t));
        let err = ci.sub(&want).norm_inf();
        assert!(err < 1e-3, "err={err}");
    }

    #[test]
    fn reconstruct_piecewise_constant() {
        let b = BpfBasis::new(3, 3.0);
        let c = [1.0, -2.0, 5.0];
        assert_eq!(b.reconstruct(&c, 0.5), 1.0);
        assert_eq!(b.reconstruct(&c, 1.5), -2.0);
        assert_eq!(b.reconstruct(&c, 2.999), 5.0);
        assert_eq!(b.reconstruct(&c, 3.5), 0.0); // outside span
    }

    #[test]
    fn negative_alpha_is_fractional_integration() {
        // D^{-1} must equal H exactly.
        let b = BpfBasis::new(6, 2.0);
        let dinv = b.frac_diff_matrix(-1.0);
        let h = b.integration_matrix();
        assert!(dinv.sub(&h).norm_max() < 1e-12);
    }

    #[test]
    fn midpoints_cover_span() {
        let b = BpfBasis::new(4, 1.0);
        assert_eq!(b.midpoints(), vec![0.125, 0.375, 0.625, 0.875]);
    }

    #[test]
    #[should_panic(expected = "at least one interval")]
    fn zero_intervals_rejected() {
        BpfBasis::new(0, 1.0);
    }

    #[test]
    fn endpoint_recovery_from_averages() {
        // A linear ramp v(t) = 2t on [0, 1): averages are midpoint values
        // and the polyline endpoint is exact.
        let m = 8;
        let avgs: Vec<f64> = (0..m).map(|i| 2.0 * (i as f64 + 0.5) / m as f64).collect();
        assert!((endpoint_from_averages(&avgs, 0.0) - 2.0).abs() < 1e-14);
        // Splitting the fold at any point and carrying the intermediate
        // endpoint gives the same answer — the windowed handoff identity.
        for split in 0..=m {
            let mid = endpoint_from_averages(&avgs[..split], 0.0);
            assert!((endpoint_from_averages(&avgs[split..], mid) - 2.0).abs() < 1e-14);
        }
    }
}
