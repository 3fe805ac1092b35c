//! **opm** — operational-matrix simulation of linear, high-order and
//! fractional differential circuits.
//!
//! This is the facade crate of the OPM workspace, a from-scratch Rust
//! reproduction of *"An Operational Matrix-Based Algorithm for Simulating
//! Linear and Fractional Differential Circuits"* (Wang, Liu, Pang, Wong —
//! DATE 2012). It re-exports every subsystem:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `opm-core` | the OPM solver engine: the [`Simulation`] → [`SimPlan`] session API (the one front door) and the strategies (linear, fractional, multi-term, adaptive) |
//! | [`basis`] | `opm-basis` | block-pulse / Walsh / Haar / Legendre operational matrices |
//! | [`circuits`] | `opm-circuits` | netlists, SPICE-ish parser, MNA/NA, power-grid & fractional-line generators |
//! | [`system`] | `opm-system` | descriptor / fractional / multi-term / second-order models |
//! | [`waveform`] | `opm-waveform` | stimuli with exact interval averages |
//! | [`transient`] | `opm-transient` | backward Euler, trapezoidal, Gear/BDF, GL, Newton–BE, references |
//! | [`fft`] | `opm-fft` | radix-2 + Bluestein FFT and the frequency-domain FDE baseline |
//! | [`fracnum`] | `opm-fracnum` | Γ, Mittag-Leffler, Grünwald–Letnikov, history convolution |
//! | [`sparse`] | `opm-sparse` | CSR/CSC, sparse LU (Gilbert–Peierls, symbolic/numeric refactorization split), weighted pencils, orderings |
//! | [`par`] | `opm-par` | hermetic std-only scoped thread pool (`OPM_THREADS`) behind the parallel batch runtime |
//! | [`linalg`] | `opm-linalg` | dense real/complex kernels, expm, Kronecker, Parlett |
//!
//! The paper's reference forms — the dense Kronecker vec form, the
//! literal accumulator and the integral form over any basis — are the
//! `opm-oracle` crate, which this facade does not re-export: only the
//! tests and examples that check against them depend on it.
//!
//! # Quickstart — one factorization, many scenarios
//!
//! The session API goes netlist → [`Simulation`] → [`SimPlan`] →
//! results. The plan owns the validated problem shape, the AMD ordering
//! and the factored pencil, so every scenario after the first costs only
//! the column sweep:
//!
//! ```
//! use opm::prelude::*;
//!
//! // 1 kΩ / 1 µF low-pass; probe the output node by name.
//! let sim = Simulation::from_netlist(
//!     "* RC low-pass\n\
//!      V1 in 0 DC 5\n\
//!      R1 in out 1k\n\
//!      C1 out 0 1u\n\
//!      .end",
//!     &["out"],
//! )
//! .unwrap()
//! .horizon(5e-3);
//!
//! let plan: SimPlan = sim.plan(&SolveOptions::new().resolution(512)).unwrap();
//!
//! // The netlist's own sources are remembered…
//! let step = plan.solve(sim.inputs().unwrap()).unwrap();
//! assert!((step.output_row(0)[511] - 5.0).abs() < 0.05);
//!
//! // …and a whole drive-level study reuses the same factorization,
//! // swept through the pencil in a single multi-RHS pass.
//! let levels: Vec<InputSet> = [1.0, 2.0, 3.0, 4.0]
//!     .iter()
//!     .map(|&v| InputSet::new(vec![Waveform::Dc(v)]))
//!     .collect();
//! let runs = plan.solve_batch(&levels).unwrap();
//! assert_eq!(plan.factor_profile().num_factorizations(), 1);
//! assert!(runs[3].output_row(0)[511] > runs[0].output_row(0)[511]);
//! ```
//!
//! The same session front door covers fractional
//! ([`Simulation::from_fractional`], or a netlist with CPE elements),
//! multi-term, second-order nodal and adaptive solves; a single solve is
//! a plan used once.
//!
//! # Errors
//!
//! Circuit-side failures ([`circuits::CircuitError`]) convert into both
//! the solver error ([`core::OpmError::Circuit`]) and the facade-wide
//! [`enum@Error`], so netlist → simulate pipelines compose with `?`
//! end to end.

// No unsafe anywhere in this crate; the only unsafe in the workspace
// is the audited AVX panel dispatch in opm-{core,sparse,fracnum}.
#![forbid(unsafe_code)]

pub use opm_basis as basis;
pub use opm_circuits as circuits;
pub use opm_core as core;
pub use opm_fft as fft;
pub use opm_fracnum as fracnum;
pub use opm_linalg as linalg;
pub use opm_par as par;
pub use opm_serve as serve;
pub use opm_sparse as sparse;
pub use opm_system as system;
pub use opm_transient as transient;
pub use opm_waveform as waveform;

pub use opm_core::{
    CacheStats, FactorProfile, Json, NewtonOptions, OpmResult, PlanCache, SimModel, SimPlan,
    Simulation, SolveOptions, WindowBlock, WindowedOptions,
};

/// The stabilized v1 session surface in one import.
///
/// Everything a netlist → plan → solve pipeline needs — the
/// [`Simulation`] front door, the reusable [`SimPlan`], the option
/// builders for plain, windowed and Newton solves, the stimulus types
/// and the error enum:
///
/// ```
/// use opm::prelude::*;
///
/// let plan = Simulation::from_netlist(
///     "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1u\n.end",
///     &["out"],
/// )
/// .unwrap()
/// .horizon(5e-3)
/// .plan(&SolveOptions::new().resolution(64))
/// .unwrap();
/// let r = plan.solve(&InputSet::new(vec![Waveform::Dc(1.0)])).unwrap();
/// assert!((r.output_row(0)[63] - 1.0).abs() < 0.05);
/// ```
pub mod prelude {
    pub use opm_core::{
        NewtonOptions, OpmError, OpmResult, SimPlan, Simulation, SolveOptions, WindowedOptions,
    };
    pub use opm_waveform::{InputSet, Waveform};
}

/// The facade-wide error: everything a netlist → plan → solve pipeline
/// can raise, so application code composes each stage with `?`.
#[derive(Clone, Debug, PartialEq)]
pub enum Error {
    /// Circuit description / assembly failure (parse, stamping, output
    /// selection).
    Circuit(opm_circuits::CircuitError),
    /// Solver failure (bad arguments, singular pencil, confluent steps).
    Solver(opm_core::OpmError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Circuit(e) => write!(f, "{e}"),
            Error::Solver(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Circuit(e) => Some(e),
            Error::Solver(e) => Some(e),
        }
    }
}

impl From<opm_circuits::CircuitError> for Error {
    fn from(e: opm_circuits::CircuitError) -> Self {
        Error::Circuit(e)
    }
}

impl From<opm_core::OpmError> for Error {
    fn from(e: opm_core::OpmError) -> Self {
        // Keep circuit failures in their own arm even when they arrive
        // pre-wrapped by the solver layer.
        match e {
            opm_core::OpmError::Circuit(c) => Error::Circuit(c),
            other => Error::Solver(other),
        }
    }
}
