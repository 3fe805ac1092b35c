//! Classical transient-analysis baselines.
//!
//! The paper benchmarks OPM against "advanced transient analysis methods
//! such as trapezoidal or Gear's method" (Table II: backward Euler at
//! three step sizes, Gear, trapezoidal). This crate implements them on
//! sparse descriptor systems, plus:
//!
//! - [`gl`] — a Grünwald–Letnikov fractional stepper, the classical
//!   time-domain FDE method OPM's fractional solver is measured against.
//! - [`mod@reference`] — high-accuracy references: exact matrix-exponential
//!   stepping for regular ODEs and Richardson-refined trapezoidal for
//!   DAEs.
//! - [`newton`] — a dense Newton–backward-Euler stepper for nonlinear
//!   circuits (`E ẋ = A x + f(x) + B u`), the oracle the OPM Newton
//!   path is validated against.
//!
//! All integrators factor their iteration matrix once (the systems are
//! LTI and steps are fixed), so per-step cost is one sparse solve — the
//! same cost model the paper assumes.

// No unsafe anywhere in this crate; the only unsafe in the workspace
// is the audited AVX panel dispatch in opm-{core,sparse,fracnum}.
#![forbid(unsafe_code)]

mod util;

pub mod bdf;
pub mod be;
pub mod gl;
pub mod newton;
pub mod reference;
pub mod result;
pub mod trap;

pub use bdf::bdf;
pub use be::backward_euler;
pub use gl::gl_fractional;
pub use newton::{newton_backward_euler, newton_be_richardson};
pub use reference::{expm_reference, fine_reference};
pub use result::TransientResult;
pub use trap::trapezoidal;

/// Errors from transient integration.
#[derive(Clone, Debug, PartialEq)]
pub enum TransientError {
    /// The iteration matrix `σE − A` is singular (irregular pencil or
    /// unlucky step size).
    SingularIteration(String),
    /// Invalid parameters (zero steps, bad order, mismatched lengths).
    BadArguments(String),
    /// A Newton iteration failed to converge within its budget
    /// ([`newton`] reference steppers only).
    Nonconvergence(String),
}

impl std::fmt::Display for TransientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransientError::SingularIteration(s) => write!(f, "singular iteration matrix: {s}"),
            TransientError::BadArguments(s) => write!(f, "bad arguments: {s}"),
            TransientError::Nonconvergence(s) => write!(f, "Newton did not converge: {s}"),
        }
    }
}

impl std::error::Error for TransientError {}
