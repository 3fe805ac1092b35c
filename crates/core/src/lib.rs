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
//!   multi-RHS block sweep. The model picks the sweep; the options set
//!   only the grid (resolution, adaptivity or an explicit step grid).
//!   Every solve runs one window loop (the whole horizon is its
//!   one-window case), whose linear arm solves each column by a block
//!   solve or, on netlists with diodes or MOSFETs, by Newton iteration.
//! - [`engine`] — the shared solver engine: [`engine::SolveOptions`]
//!   plus the validation, pencil-factorization and cached-factorization
//!   (block) column-sweep primitives every strategy below builds on.
//!
//! The strategy modules document (and test) the algorithms a plan runs:
//!
//! - [`linear`] — linear ODE/DAE systems (paper §III). The endpoint
//!   recurrence this library derives from the OPM column equations
//!   (algebraically identical to the trapezoidal rule), which every
//!   linear sweep runs — uniform, windowed, adaptive and Newton.
//! - [`fractional`] — fractional systems `E d^α x = A x + B u` (paper
//!   §IV) via the nilpotent-series expansion of `D^α`.
//! - [`multiterm`] — `Σ_k A_k d^{α_k} x = B u`; integer-order systems take
//!   an `O(n^β m)` finite-recurrence fast path (multiply the column
//!   equation by `(1+Q)^K`), fractional mixtures fall back to the
//!   `O(n^β m + n m²)` convolution — exactly the paper's complexity.
//! - [`adaptive`] — adaptive time steps (paper §III-B): on-the-fly LTE
//!   control for linear systems, distinct-step grids with incremental
//!   Parlett `D̃^α` for fractional systems.
//! - [`result`], [`metrics`] — the solution container ([`OpmResult`]:
//!   bounds, coefficient columns, outputs), the plan's cost record
//!   ([`FactorProfile`]) and the paper's Eq. (30) dB error metric.
//!
//! The paper's reference forms — the dense Kronecker solves (Eqs.
//! 15/18/27), the literal alternating accumulator (§III) and the
//! integral form over any basis (§I) — are not in this crate: no plan
//! runs them. They live in `opm-oracle`, which the tests here take as a
//! dev-dependency.
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
pub mod json;
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
pub use engine::SolveOptions;
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
    use crate::{OpmError, OpmResult, Simulation, SolveOptions};
    use opm_system::{DescriptorSystem, FractionalSystem, MultiTermSystem};

    fn coeff_options(u: &[Vec<f64>]) -> SolveOptions {
        SolveOptions::new().resolution(u.first().map_or(0, Vec::len))
    }

    /// The linear endpoint recurrence.
    pub fn solve_linear(
        sys: &DescriptorSystem,
        u: &[Vec<f64>],
        t_end: f64,
        x0: &[f64],
    ) -> Result<OpmResult, OpmError> {
        Simulation::from_system(sys.clone())
            .horizon(t_end)
            .initial_state(x0.to_vec())
            .plan(&coeff_options(u))?
            .solve_coeffs(u)
    }

    /// The fractional series convolution.
    pub fn solve_fractional(
        fsys: &FractionalSystem,
        u: &[Vec<f64>],
        t_end: f64,
    ) -> Result<OpmResult, OpmError> {
        Simulation::from_fractional(fsys.clone())
            .horizon(t_end)
            .plan(&coeff_options(u))?
            .solve_coeffs(u)
    }

    /// A multi-term sweep on the path its orders select.
    pub fn solve_multiterm(
        mt: &MultiTermSystem,
        u: &[Vec<f64>],
        t_end: f64,
    ) -> Result<OpmResult, OpmError> {
        Simulation::from_multiterm(mt.clone())
            .horizon(t_end)
            .plan(&coeff_options(u))?
            .solve_coeffs(u)
    }
}
