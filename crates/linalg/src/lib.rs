//! Dense real and complex linear-algebra substrate for the OPM workspace.
//!
//! The OPM reproduction deliberately avoids external linear-algebra crates:
//! the numerical kernels the paper relies on (dense LU for small systems,
//! complex solves for the FFT baseline, matrix exponentials for reference
//! solutions, Kronecker-product formulations and triangular matrix
//! functions for fractional operational matrices) are all implemented here.
//!
//! # Modules
//!
//! - [`complex`] — a self-contained `Complex64` with the arithmetic and
//!   transcendental functions the FFT baseline needs.
//! - [`dense`] — row-major [`DMatrix`] / [`DVector`] with the usual
//!   BLAS-1/2/3 style operations.
//! - [`lu`] — dense LU with partial pivoting ([`LuFactors`]).
//! - [`zmatrix`] — complex dense matrices and complex LU ([`ZMatrix`]).
//! - [`expm`] — matrix exponential via Padé-13 scaling and squaring.
//! - [`fft`] — the radix-2 FFT over lane panels ([`FftPlan`]), the one
//!   power-of-two transform of the workspace.
//! - [`kron`] — Kronecker products and the `vec` operator used by the
//!   paper's Eq. (15)/(27).
//! - [`triangular`] — functions of upper-triangular matrices via the
//!   Parlett recurrence (used for the adaptive fractional operator `D̃^α`).
//! - [`panel`] — the fixed-width lane-panel layout ([`LANE_PANEL_WIDTH`])
//!   and dense panel triangular kernels shared by every vectorized
//!   lane-elementwise kernel in the workspace.
//!
//! # Example
//!
//! ```
//! use opm_linalg::{DMatrix, DVector};
//!
//! let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
//! let b = DVector::from_slice(&[3.0, 5.0]);
//! let x = a.factor_lu().expect("nonsingular").solve(&b);
//! assert!((a.mul_vec(&x).sub(&b)).norm2() < 1e-12);
//! ```

// No unsafe anywhere in this crate; the only unsafe in the workspace
// is the audited AVX panel dispatch in opm-{core,sparse,fracnum}.
#![forbid(unsafe_code)]

pub mod complex;
pub mod dense;
pub mod expm;
pub mod fft;
pub mod kron;
pub mod lu;
pub mod panel;
pub mod triangular;
pub mod zmatrix;

pub use complex::Complex64;
pub use dense::{DMatrix, DVector};
pub use fft::FftPlan;
pub use lu::LuFactors;
pub use panel::{avx_available, LANE_PANEL_WIDTH};
pub use zmatrix::{ZLuFactors, ZMatrix, ZVector};

/// Relative machine tolerance used across the workspace for "equals up to
/// roundoff" comparisons in tests and convergence checks.
pub const EPS: f64 = f64::EPSILON;

/// Returns `true` when `a` and `b` agree within `tol` absolutely or
/// relatively (whichever is looser), the standard mixed criterion.
///
/// ```
/// assert!(opm_linalg::approx_eq(1.0, 1.0 + 1e-13, 1e-12));
/// assert!(!opm_linalg::approx_eq(1.0, 1.1, 1e-12));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}
