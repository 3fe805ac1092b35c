//! **OPM** — operational-matrix time-domain simulation (the paper's
//! contribution).
//!
//! The state trajectory is expanded in block-pulse functions,
//! `x(t) = X·φ(t)`; differentiation becomes right-multiplication by the
//! upper-triangular operational matrix `D` (or `D^α` for fractional
//! systems), turning `E ẋ = A x + B u` into the matrix equation
//! `E X D = A X + B U` solved *column by column* with one sparse LU:
//!
//! - [`session`] — the front door, a two-phase session API:
//!   [`Simulation`] (owns a model, or assembles one straight from a
//!   netlist) → [`Simulation::plan`] → [`SimPlan`] (validated shape +
//!   factored pencil), whose `solve` / `solve_batch` /
//!   `solve_windowed_batch_opts` amortize
//!   **one factorization over many scenarios** via the engine's
//!   multi-RHS block sweep. Whole-horizon and windowed solves share one
//!   window loop; the whole horizon is its one-window case.
//! - [`engine`] — the shared solver engine: [`engine::SolveOptions`]
//!   plus the validation, pencil-factorization, cached-factorization
//!   (block) column-sweep and output-reconstruction primitives every
//!   strategy below builds on.
//!
//! The strategy modules document (and test) the algorithms a plan runs:
//!
//! - [`linear`] — linear ODE/DAE systems (paper §III). The stable
//!   two-term recurrence this library derives from the OPM column
//!   equations (algebraically identical to the trapezoidal rule) plus the
//!   paper's literal accumulator formulation for cross-validation.
//! - [`fractional`] — fractional systems `E d^α x = A x + B u` (paper
//!   §IV) via the nilpotent-series expansion of `D^α`.
//! - [`multiterm`] — `Σ_k A_k d^{α_k} x = B u`; integer-order systems take
//!   an `O(n^β m)` finite-recurrence fast path (multiply the column
//!   equation by `(1+Q)^K`), fractional mixtures fall back to the
//!   `O(n^β m + n m²)` convolution — exactly the paper's complexity.
//! - [`adaptive`] — adaptive time steps (paper §III-B): on-the-fly LTE
//!   control for linear systems, distinct-step grids with incremental
//!   Parlett `D̃^α` for fractional systems.
//! - [`general_basis`] — the integral-form solver
//!   ([`general_basis::GeneralBasisPlan`]) that works with *any*
//!   [`opm_basis::Basis`] (Walsh, Haar, Legendre), backing the paper's
//!   basis-generality claim.
//! - [`kron_solve`] — the explicit `(Dᵀ⊗E − I⊗A)·vec X` formulation
//!   (paper Eqs. 15/18/27), kept as a brute-force oracle.
//! - [`result`], [`metrics`] — coefficient containers, reconstruction,
//!   and the paper's Eq. (30) dB error metric.
//!
//! # Quickstart
//!
//! ```
//! use opm_core::{Simulation, SolveOptions};
//! use opm_sparse::{CooMatrix, CsrMatrix};
//! use opm_system::DescriptorSystem;
//! use opm_waveform::{InputSet, Waveform};
//!
//! // ẋ = −x + u, step input, zero IC.
//! let mut a = CooMatrix::new(1, 1);
//! a.push(0, 0, -1.0);
//! let mut b = CooMatrix::new(1, 1);
//! b.push(0, 0, 1.0);
//! let sys = DescriptorSystem::new(CsrMatrix::identity(1), a.to_csr(), b.to_csr(), None).unwrap();
//! let m = 256;
//! let plan = Simulation::from_system(sys)
//!     .horizon(1.0)
//!     .plan(&SolveOptions::new().resolution(m))
//!     .unwrap();
//! let r = plan.solve(&InputSet::new(vec![Waveform::Dc(1.0)])).unwrap();
//! // Midpoint of the last interval ≈ 1 − e^{−t}.
//! let t = r.midpoints()[m - 1];
//! let want = 1.0 - (-t as f64).exp();
//! assert!((r.state_coeff(0, m - 1) - want).abs() < 1e-4);
//! ```

pub mod adaptive;
pub mod cache;
pub mod cancel;
pub mod engine;
pub mod fractional;
pub mod gate;
pub mod general_basis;
pub mod json;
pub mod kron_solve;
pub mod latch;
pub mod linear;
pub mod metrics;
pub mod multiterm;
mod newton;
pub mod result;
pub mod second_order;
pub mod session;
pub mod sync;

pub use cache::{CacheStats, PatternStats, PlanCache};
pub use cancel::CancelToken;
pub use engine::{Method, SolveOptions};
pub use json::Json;
pub use metrics::FactorProfile;
pub use result::OpmResult;
pub use session::{NewtonOptions, SimModel, SimPlan, Simulation, WindowBlock, WindowedOptions};

/// Errors from OPM solvers.
///
/// Marked `#[non_exhaustive]`: downstream `match`es need a wildcard arm,
/// so future variants (like [`OpmError::Nonconvergence`], added for the
/// Newton path) are not breaking changes.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum OpmError {
    /// The OPM pencil `d₀·E − A` (or its multi-term analogue) is singular.
    SingularPencil(String),
    /// Invalid arguments (sizes, step counts, tolerances).
    BadArguments(String),
    /// Adaptive fractional solving requires pairwise-distinct steps.
    ConfluentSteps(String),
    /// Circuit assembly failed before any solving started (netlist
    /// parsing, MNA stamping, output selection).
    Circuit(opm_circuits::CircuitError),
    /// A cooperative solve was cancelled (explicitly, or by an elapsed
    /// [`crate::cancel::CancelToken`] deadline) before completing.
    Cancelled(String),
    /// Newton iteration failed to converge within its per-column budget
    /// (see [`session::NewtonOptions`]). Carries the iteration count,
    /// the final residual norm, and where in the sweep it happened. A
    /// *request*-level problem (refine the resolution or the windows),
    /// not a server fault.
    Nonconvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Final `‖F(x)‖_∞` of the failing column equation.
        residual: f64,
        /// Which column/window failed (human-readable).
        context: String,
    },
}

impl std::fmt::Display for OpmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpmError::SingularPencil(s) => write!(f, "singular OPM pencil: {s}"),
            OpmError::BadArguments(s) => write!(f, "bad arguments: {s}"),
            OpmError::ConfluentSteps(s) => write!(f, "confluent adaptive steps: {s}"),
            OpmError::Circuit(e) => write!(f, "circuit assembly: {e}"),
            OpmError::Cancelled(s) => write!(f, "cancelled: {s}"),
            OpmError::Nonconvergence {
                iterations,
                residual,
                context,
            } => write!(
                f,
                "Newton failed to converge after {iterations} iterations \
                 (residual {residual:.3e}) at {context}"
            ),
        }
    }
}

impl std::error::Error for OpmError {}

/// Netlist → simulate pipelines compose with `?`: every circuit-side
/// failure converts into [`OpmError::Circuit`].
impl From<opm_circuits::CircuitError> for OpmError {
    fn from(e: opm_circuits::CircuitError) -> Self {
        OpmError::Circuit(e)
    }
}

/// One-scenario plan helpers shared by the strategy modules' unit tests:
/// each builds a [`Simulation`] plan at the coefficient matrix's
/// resolution and solves it once.
#[cfg(test)]
mod testkit {
    use crate::{Method, OpmError, OpmResult, Simulation, SolveOptions};
    use opm_system::{DescriptorSystem, FractionalSystem, MultiTermSystem};

    fn coeff_options(u: &[Vec<f64>], method: Method) -> SolveOptions {
        SolveOptions::new()
            .resolution(u.first().map_or(0, Vec::len))
            .method(method)
    }

    fn linear(
        sys: &DescriptorSystem,
        u: &[Vec<f64>],
        t_end: f64,
        x0: &[f64],
        method: Method,
    ) -> Result<OpmResult, OpmError> {
        Simulation::from_system(sys.clone())
            .horizon(t_end)
            .initial_state(x0.to_vec())
            .plan(&coeff_options(u, method))?
            .solve_coeffs(u)
    }

    /// The linear two-term recurrence.
    pub fn solve_linear(
        sys: &DescriptorSystem,
        u: &[Vec<f64>],
        t_end: f64,
        x0: &[f64],
    ) -> Result<OpmResult, OpmError> {
        linear(sys, u, t_end, x0, Method::Auto)
    }

    /// The paper's literal alternating-accumulator algorithm.
    pub fn solve_linear_accumulator(
        sys: &DescriptorSystem,
        u: &[Vec<f64>],
        t_end: f64,
        x0: &[f64],
    ) -> Result<OpmResult, OpmError> {
        linear(sys, u, t_end, x0, Method::Accumulator)
    }

    /// The fractional series convolution.
    pub fn solve_fractional(
        fsys: &FractionalSystem,
        u: &[Vec<f64>],
        t_end: f64,
    ) -> Result<OpmResult, OpmError> {
        Simulation::from_fractional(fsys.clone())
            .horizon(t_end)
            .plan(&coeff_options(u, Method::Auto))?
            .solve_coeffs(u)
    }

    /// A multi-term sweep on the path `method` selects.
    pub fn solve_multiterm(
        mt: &MultiTermSystem,
        u: &[Vec<f64>],
        t_end: f64,
        method: Method,
    ) -> Result<OpmResult, OpmError> {
        Simulation::from_multiterm(mt.clone())
            .horizon(t_end)
            .plan(&coeff_options(u, method))?
            .solve_coeffs(u)
    }
}
