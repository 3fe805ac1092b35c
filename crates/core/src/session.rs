//! The two-phase session API: **one factorization, many scenarios**.
//!
//! The paper's core economy is that the OPM pencil is factored *once* and
//! amortized over every BPF column. This module extends that economy
//! across solves: a [`Simulation`] owns a model (hand-built or assembled
//! straight from a netlist), [`Simulation::plan`] validates it against a
//! [`SolveOptions`] and performs every stimulus-independent step — shape
//! checks, AMD ordering, pencil factorization, fractional series /
//! finite-recurrence polynomials — and the resulting [`SimPlan`] replays
//! only the cheap part for each scenario:
//!
//! - [`SimPlan::solve`] — one stimulus through the cached factorization;
//! - [`SimPlan::solve_batch`] — K stimuli swept through the factorization
//!   in a **single pass**: the engine's [`BlockColumnSweep`] interleaves
//!   the scenarios so every sparse traversal (pencil solve, `E`/`A`
//!   products, `B` application) is amortized K-fold;
//! - [`SimPlan::sweep`] — parameter studies: build a stimulus per
//!   parameter, then batch-solve.
//!
//! ```
//! use opm_core::{SolveOptions, Simulation};
//! use opm_waveform::{InputSet, Waveform};
//!
//! let sim = Simulation::from_netlist(
//!     "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1u\n.end",
//!     &["out"],
//! )
//! .unwrap()
//! .horizon(5e-3);
//! let plan = sim.plan(&SolveOptions::new().resolution(256)).unwrap();
//!
//! // Sweep the drive level with ONE factorization.
//! let levels = [1.0, 2.0, 5.0];
//! let runs = plan
//!     .sweep(&levels, |&v| InputSet::new(vec![Waveform::Dc(v)]))
//!     .unwrap();
//! assert_eq!(plan.num_factorizations(), 1);
//! assert!(runs[2].output_row(0)[255] > runs[0].output_row(0)[255]);
//! ```
//!
//! [`Problem::solve`](crate::Problem::solve) is a thin one-shot wrapper
//! over this layer.

use crate::adaptive::{self, AdaptiveOpmOptions, StepGridFactors, StepLattice};
use crate::cancel::CancelToken;
use crate::engine::{
    apply_b_block, validate_coeff_inputs, validate_horizon, validate_x0, BlockColumnSweep,
    BlockOutcome, Method, OutputMap, PencilAnalysis, PencilFamily, SolveOptions, SweepOutcome,
};
use crate::gate::GateCache;
use crate::kron_solve::{fractional_as_multiterm, kron_prepare, kron_solve_prepared, KronFactors};
use crate::metrics::FactorProfile;
use crate::newton::{NewtonSweep, NewtonWindow};
use crate::result::OpmResult;
use crate::sync::StdSync;
use crate::OpmError;
use opm_basis::adaptive::AdaptiveBpf;
use opm_basis::bpf::{endpoint_state, BpfBasis};
use opm_basis::haar::HaarBasis;
use opm_basis::series::tustin_frac_coeffs;
use opm_basis::traits::Basis;
use opm_circuits::mna::{
    assemble_fractional_mna, assemble_mna, assemble_nonlinear_mna, Output, Unknown,
};
use opm_circuits::netlist::{Circuit, Element};
use opm_circuits::nonlinear::DeviceModel;
use opm_circuits::parser::parse_netlist;
use opm_fracnum::binomial::binomial_series;
use opm_fracnum::history::{history_convolution_into, HistoryTail};
use opm_sparse::SparseLu;
use opm_system::{DescriptorSystem, FractionalSystem, MultiTermSystem, SecondOrderSystem};
use opm_waveform::InputSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Simulation: the owning session front door
// ---------------------------------------------------------------------------

/// The model class a [`Simulation`] owns (and a [`SimPlan`] `Arc`-shares
/// with it).
#[derive(Clone, Debug)]
pub enum SimModel {
    /// Linear descriptor system `E ẋ = A x + B u`.
    Linear(DescriptorSystem),
    /// Fractional system `E d^α x = A x + B u`.
    Fractional(FractionalSystem),
    /// Multi-term system `Σ_k A_k d^{α_k} x = B u`.
    MultiTerm(MultiTermSystem),
    /// Second-order nodal system `M₂ ẍ + M₁ ẋ + M₀ x = B u̇`.
    SecondOrder(SecondOrderSystem),
}

impl SimModel {
    /// State dimension of the model.
    pub fn order(&self) -> usize {
        match self {
            SimModel::Linear(s) => s.order(),
            SimModel::Fractional(f) => f.order(),
            SimModel::MultiTerm(mt) => mt.order(),
            SimModel::SecondOrder(so) => so.order(),
        }
    }

    /// Number of input channels (columns of `B`).
    pub fn num_inputs(&self) -> usize {
        match self {
            SimModel::Linear(s) => s.num_inputs(),
            SimModel::Fractional(f) => f.num_inputs(),
            SimModel::MultiTerm(mt) => mt.num_inputs(),
            SimModel::SecondOrder(so) => so.num_inputs(),
        }
    }

    /// The strategy family this model solves through (used in
    /// diagnostics).
    pub fn strategy_name(&self) -> &'static str {
        match self {
            SimModel::Linear(_) => "linear",
            SimModel::Fractional(_) => "fractional",
            SimModel::MultiTerm(_) => "multi-term",
            SimModel::SecondOrder(_) => "second-order",
        }
    }
}

/// An owning simulation session: model + horizon + initial state.
///
/// Construct from an assembled system ([`Simulation::from_system`] and
/// siblings) or straight from a circuit description
/// ([`Simulation::from_netlist`] / [`Simulation::from_circuit`] — no
/// hand-run MNA required), then call [`Simulation::plan`] to factor once
/// and solve many scenarios.
#[derive(Clone, Debug)]
pub struct Simulation {
    /// Shared with every plan built from this session: a [`SimPlan`]
    /// `Arc`-clones the model, so plans are self-contained (`'static`),
    /// outlive the session, and can be interned in a
    /// [`crate::cache::PlanCache`].
    model: Arc<SimModel>,
    t_end: f64,
    x0: Option<Vec<f64>>,
    inputs: Option<InputSet>,
    unknowns: Vec<Unknown>,
    /// Nonlinear companion devices riding on a linear model (populated
    /// by [`Simulation::from_circuit`] when the netlist carries diodes
    /// or MOSFETs); plans built from this session solve through
    /// [`SimPlan::solve_newton`].
    devices: Vec<DeviceModel>,
}

impl Simulation {
    fn new(model: SimModel) -> Self {
        Simulation {
            model: Arc::new(model),
            t_end: 0.0,
            x0: None,
            inputs: None,
            unknowns: Vec::new(),
            devices: Vec::new(),
        }
    }

    /// A session over a linear descriptor system.
    pub fn from_system(sys: DescriptorSystem) -> Self {
        Simulation::new(SimModel::Linear(sys))
    }

    /// A session over a fractional system.
    pub fn from_fractional(fsys: FractionalSystem) -> Self {
        Simulation::new(SimModel::Fractional(fsys))
    }

    /// A session over a multi-term system.
    pub fn from_multiterm(mt: MultiTermSystem) -> Self {
        Simulation::new(SimModel::MultiTerm(mt))
    }

    /// A session over a second-order nodal system.
    pub fn from_second_order(so: SecondOrderSystem) -> Self {
        Simulation::new(SimModel::SecondOrder(so))
    }

    /// A session straight from SPICE-flavoured netlist text: parses,
    /// picks the formulation (fractional MNA when the circuit contains
    /// CPEs, integer MNA otherwise), assembles, and remembers the
    /// netlist's own sources as the default stimulus
    /// ([`Simulation::inputs`]).
    ///
    /// `probes` lists node *names* to observe as output channels.
    ///
    /// # Errors
    /// [`OpmError::Circuit`] for parse/assembly failures,
    /// [`OpmError::BadArguments`] for unknown probe names.
    pub fn from_netlist(text: &str, probes: &[&str]) -> Result<Self, OpmError> {
        let parsed = parse_netlist(text)?;
        let outputs = probes
            .iter()
            .map(|p| {
                let node = parsed.node(p).ok_or_else(|| {
                    OpmError::BadArguments(format!("unknown probe node `{p}` in netlist"))
                })?;
                if node == 0 {
                    return Err(OpmError::BadArguments(
                        "probing ground is a tautology: its voltage is 0".into(),
                    ));
                }
                Ok(Output::NodeVoltage(node))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_circuit(&parsed.circuit, &outputs)
    }

    /// A session from a programmatically built [`Circuit`] (same
    /// formulation auto-detection as [`Simulation::from_netlist`], but
    /// with explicit [`Output`] selectors).
    ///
    /// # Errors
    /// [`OpmError::Circuit`] for assembly failures.
    pub fn from_circuit(ckt: &Circuit, outputs: &[Output]) -> Result<Self, OpmError> {
        if ckt.has_nonlinear() {
            // Diodes/MOSFETs: linear part + re-stampable device list.
            // (Mixing CPEs with nonlinear devices is rejected by the
            // assembler.)
            let nl = assemble_nonlinear_mna(ckt, outputs)?;
            let mut s = Simulation::new(SimModel::Linear(nl.model.system));
            s.inputs = Some(nl.model.inputs);
            s.unknowns = nl.model.unknowns;
            s.devices = nl.devices;
            return Ok(s);
        }
        let cpe_alpha = ckt.elements().iter().find_map(|e| match e {
            Element::Cpe { alpha, .. } => Some(*alpha),
            _ => None,
        });
        let sim = match cpe_alpha {
            Some(alpha) => {
                let model = assemble_fractional_mna(ckt, alpha, outputs)?;
                let mut s = Simulation::new(SimModel::Fractional(model.system));
                s.inputs = Some(model.inputs);
                s.unknowns = model.unknowns;
                s
            }
            None => {
                let model = assemble_mna(ckt, outputs)?;
                let mut s = Simulation::new(SimModel::Linear(model.system));
                s.inputs = Some(model.inputs);
                s.unknowns = model.unknowns;
                s
            }
        };
        Ok(sim)
    }

    /// Sets the simulation horizon `[0, t_end)`.
    #[must_use]
    pub fn horizon(mut self, t_end: f64) -> Self {
        self.t_end = t_end;
        self
    }

    /// Sets a nonzero initial state (linear models only; fractional and
    /// multi-term OPM assume zero Caputo initial conditions).
    #[must_use]
    pub fn initial_state(mut self, x0: Vec<f64>) -> Self {
        self.x0 = Some(x0);
        self
    }

    /// The owned model.
    pub fn model(&self) -> &SimModel {
        &self.model
    }

    /// The shared handle to the model — what plans built from this
    /// session hold.
    pub fn model_arc(&self) -> Arc<SimModel> {
        Arc::clone(&self.model)
    }

    /// The simulation horizon.
    pub fn t_end(&self) -> f64 {
        self.t_end
    }

    /// The initial state, when one was set.
    pub fn x0(&self) -> Option<&[f64]> {
        self.x0.as_deref()
    }

    /// State dimension of the model.
    pub fn order(&self) -> usize {
        self.model.order()
    }

    /// The netlist's own sources, when this session was assembled from a
    /// circuit — ready to pass to [`SimPlan::solve`].
    pub fn inputs(&self) -> Option<&InputSet> {
        self.inputs.as_ref()
    }

    /// Meaning of each state entry (netlist-assembled sessions only).
    pub fn unknowns(&self) -> &[Unknown] {
        &self.unknowns
    }

    /// The nonlinear companion devices (empty unless the session was
    /// assembled from a circuit with diodes/MOSFETs).
    pub fn devices(&self) -> &[DeviceModel] {
        &self.devices
    }

    /// Whether plans built from this session need the Newton path
    /// ([`SimPlan::solve_newton`]).
    pub fn has_nonlinear(&self) -> bool {
        !self.devices.is_empty()
    }

    /// Validates the session against `opts` and performs every
    /// stimulus-independent step once: shape checks, pencil assembly, AMD
    /// ordering, sparse LU factorization, fractional series, recurrence
    /// polynomials. The returned [`SimPlan`] replays scenarios against
    /// the cached factorization.
    ///
    /// The plan `Arc`-shares the session's model: it is self-contained
    /// (`'static`), `Send + Sync`, free to outlive this session, and
    /// cacheable behind an `Arc` (see [`crate::cache::PlanCache`]).
    /// Before this release a plan *borrowed* the session
    /// (`SimPlan<'_>`); code that spelled the lifetime should simply
    /// drop it.
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] for option/model mismatches (the
    /// message names both the offending option and the chosen strategy),
    /// [`OpmError::SingularPencil`] when the pencil cannot be factored.
    pub fn plan(&self, opts: &SolveOptions) -> Result<SimPlan, OpmError> {
        let m = plan_resolution(&self.model, opts)?;
        SimPlan::prepare(
            Arc::clone(&self.model),
            opts,
            m,
            self.t_end,
            self.x0.as_deref(),
            self.devices.clone(),
        )
    }
}

/// Resolves the column count a plan is built for.
pub(crate) fn plan_resolution(model: &SimModel, opts: &SolveOptions) -> Result<usize, OpmError> {
    if opts.adaptive.is_some() {
        return Ok(0); // the step controller determines the column count
    }
    if let Some(steps) = &opts.step_grid {
        return Ok(steps.len());
    }
    opts.resolution.ok_or_else(|| {
        OpmError::BadArguments(format!(
            "the `{}` plan needs SolveOptions::resolution: the column count is \
             fixed when the pencil is factored",
            model.strategy_name()
        ))
    })
}

/// Rejects option combinations that no strategy honors — silently
/// ignoring them would hand back a result the caller did not ask for.
/// Every rejection names **both** the offending option and the strategy
/// it clashed with.
pub(crate) fn validate_options(
    model: &SimModel,
    t_end: f64,
    opts: &SolveOptions,
) -> Result<(), OpmError> {
    let strategy = model.strategy_name();
    let bad = |msg: String| Err(OpmError::BadArguments(msg));
    let conflict = |opt: &str, hint: &str| {
        Err(OpmError::BadArguments(format!(
            "option `{opt}` does not apply to the `{strategy}` strategy: {hint}"
        )))
    };
    let grid_like = opts.adaptive.is_some() || opts.step_grid.is_some();
    let grid_opt = if opts.adaptive.is_some() {
        "adaptive"
    } else {
        "step_grid"
    };
    if opts.adaptive.is_some() && opts.step_grid.is_some() {
        return bad(format!(
            "options `adaptive` and `step_grid` conflict on the `{strategy}` strategy: \
             choose on-the-fly error control (adaptive) or explicit steps (step_grid), not both"
        ));
    }
    if grid_like && opts.method != Method::Auto {
        return bad(format!(
            "option `method` ({:?}) does not combine with `{grid_opt}` on the `{strategy}` \
             strategy: adaptive/step-grid solves choose their own path",
            opts.method
        ));
    }
    if grid_like && opts.resolution.is_some() {
        return bad(format!(
            "option `resolution` does not combine with `{grid_opt}` on the `{strategy}` \
             strategy: the step controller or the grid determines the column count"
        ));
    }
    if let Some(steps) = &opts.step_grid {
        let total: f64 = steps.iter().sum();
        let spans_horizon = total > 0.0 && (total - t_end).abs() <= 1e-9 * t_end.abs();
        if !spans_horizon {
            return bad(format!(
                "option `step_grid` sums to {total:e} but the `{strategy}` strategy's \
                 declared horizon is {t_end:e}"
            ));
        }
    }
    match model {
        SimModel::Linear(_) => {
            if opts.step_grid.is_some() {
                return conflict(
                    "step_grid",
                    "linear problems adapt on the fly via SolveOptions::adaptive",
                );
            }
        }
        SimModel::Fractional(_) => {
            if opts.adaptive.is_some() {
                return conflict(
                    "adaptive",
                    "fractional problems take an explicit SolveOptions::step_grid",
                );
            }
            if opts.method == Method::Accumulator {
                return bad(format!(
                    "method `Accumulator` does not apply to the `{strategy}` strategy: \
                     the accumulator form exists only for linear problems"
                ));
            }
        }
        SimModel::MultiTerm(_) => {
            if grid_like {
                return conflict(
                    grid_opt,
                    "adaptive/step-grid solving is not available for multi-term problems",
                );
            }
            if opts.method == Method::Accumulator {
                return bad(format!(
                    "method `Accumulator` does not apply to the `{strategy}` strategy: \
                     the accumulator form exists only for linear problems"
                ));
            }
        }
        SimModel::SecondOrder(_) => {
            if grid_like {
                return conflict(
                    grid_opt,
                    "adaptive/step-grid solving is not available for second-order problems",
                );
            }
            if opts.method != Method::Auto {
                return bad(format!(
                    "method `{:?}` does not apply to the `{strategy}` strategy: \
                     second-order problems always run the multi-term conversion",
                    opts.method
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// SimPlan: validated shape + cached factorization
// ---------------------------------------------------------------------------

/// Multi-term execution path selector.
enum MtSelect {
    Auto,
    Recurrence,
    Convolution,
}

struct MtPlan {
    lu: SparseLu,
    /// Analysis of the pencil's union pattern — replayed numerically per
    /// window width by windowed multi-term solving.
    analysis: PencilAnalysis,
    path: MtPath,
}

enum MtPath {
    /// Integer orders: finite `(1+q)^K` recurrence, depth `K`.
    Recurrence { polys: Vec<Vec<f64>>, bw: Vec<f64> },
    /// Fractional mixtures: per-term nilpotent-series convolution.
    Convolution { series: Vec<Vec<f64>> },
}

struct StepGridPlan {
    grid: AdaptiveBpf,
    factors: StepGridFactors,
}

enum PlanKind {
    /// Linear recurrence / accumulator against `(2/h)E − A`.
    Linear {
        sigma: f64,
        lu: SparseLu,
        accumulator: bool,
        /// The `σ·E − A` family behind `lu`: its pattern, ordering and
        /// symbolic analysis are shared with every *window* pencil the
        /// plan factors later, so a windowed solve costs one numeric
        /// refactorization, never a second analysis.
        family: PencilFamily,
    },
    /// Fractional series convolution against `ρ₀E − A`.
    Fractional {
        rho: Vec<f64>,
        lu: SparseLu,
        /// The `σ·E − A` family behind `lu` (`σ = ρ₀`): windowed solving
        /// refactors the window pencil `ρ₀(h_w)·E − A` numerically
        /// against the same recorded analysis.
        family: PencilFamily,
    },
    /// Multi-term sweep over the model's own terms.
    MultiTerm(MtPlan),
    /// Multi-term sweep over a conversion the plan owns (linear
    /// convolution method, second-order nodal form).
    OwnedMultiTerm {
        mt: MultiTermSystem,
        plan: MtPlan,
        /// Second-order: differentiate the stimulus exactly before the
        /// sweep (`u̇` interval averages).
        differentiate: bool,
    },
    /// Dense Kronecker oracle with the big LU cached.
    Kron {
        factors: KronFactors,
        /// Owned conversion when the model is not already multi-term.
        mt: Option<MultiTermSystem>,
    },
    /// On-the-fly adaptive linear stepping; the power-of-two lattice
    /// persists across every scenario solved through this plan (one
    /// symbolic analysis, numeric refactorization per new lattice
    /// exponent).
    AdaptiveLinear {
        aopts: AdaptiveOpmOptions,
        lattice: StepLattice,
    },
    /// Fractional distinct-step grid with all per-column factorizations
    /// and the `D̃^α` columns precomputed.
    StepGrid(StepGridPlan),
}

/// A reusable solving session: the validated problem shape, orderings
/// and factorizations of one [`Simulation::plan`] (or one
/// [`crate::Problem`]), amortized over every
/// [`solve`](SimPlan::solve) / [`solve_batch`](SimPlan::solve_batch) /
/// [`sweep`](SimPlan::sweep) call.
///
/// A plan **owns** its model state (`Arc`-shared with the
/// [`Simulation`] that built it): it is `'static` and `Send + Sync`, so
/// it can move across threads, outlive the session, and be interned
/// behind an `Arc` in a [`crate::cache::PlanCache`] where one
/// factorization serves any number of concurrent callers.
///
/// # Thread safety
///
/// A plan is immutable once [`Simulation::plan`] returns: the recorded
/// analyses and factors are read-only, per-`W` window kernels and
/// adaptive lattice factors are built at most once through a
/// single-flight cache, every scratch buffer belongs to its call, and
/// the counters are relaxed atomics. Solves on one plan — batch,
/// windowed, streaming and Newton alike — never wait on each other, and
/// a panic inside one solve leaves nothing behind for the next. A
/// [`SimPlan::factor_profile`] snapshot taken during concurrent solves
/// may be mid-update (one counter bumped, the next not yet); once they
/// finish it is exact.
pub struct SimPlan {
    model: Arc<SimModel>,
    t_end: f64,
    m: usize,
    x0: Vec<f64>,
    kind: PlanKind,
    /// Nonlinear companion devices (empty for purely linear plans).
    /// Plans carrying devices solve through [`SimPlan::solve_newton`];
    /// the linear entry points reject them so a caller can never
    /// silently drop the nonlinearities.
    devices: Arc<Vec<DeviceModel>>,
    /// Window kernels keyed by window count `W`, built on first use (one
    /// factorization serves all `W` windows and every scenario); the
    /// [`WINDOW_KERNELS_RETAINED`] most recently used are kept.
    kernels: GateCache<usize, Arc<WindowKernel>, OpmError, StdSync>,
    /// Windows swept so far, across every windowed/streaming/Newton call.
    windows_solved: AtomicUsize,
}

/// Window kernels a plan retains: one per distinct window count `W`
/// recently solved, least recently used evicted first (an evicted `W`
/// is refactored on its next use).
const WINDOW_KERNELS_RETAINED: usize = 8;

/// The per-window solving kernel: everything that depends on the window
/// width `T/W` and resolution `m`, factored **once** and reused by all
/// `W` windows and all batched scenarios.
enum WindowKernel {
    /// Linear strategy: the window pencil `σ_w·E − A` with
    /// `σ_w = 2·m·W/T`, numerically refactored against the plan's own
    /// symbolic analysis.
    Linear { lu: SparseLu, sigma: f64 },
    /// Integer multi-term recurrence (second-order nodal plans and plain
    /// integer multi-term plans): the window pencil plus the
    /// `h_w`-scaled recurrence polynomials. The carried state is the
    /// trailing `depth` solved columns (and the matching stimulus
    /// columns), which makes the restarted recurrence column-for-column
    /// identical to the unbroken sweep.
    Recurrence {
        lu: SparseLu,
        polys: Vec<Vec<f64>>,
        bw: Vec<f64>,
        depth: usize,
    },
    /// Fractional strategy: the window pencil `ρ₀(h_w)·E − A`
    /// (numerically refactored against the plan's pencil family) plus
    /// the full-horizon weight vector `ρ` at the window step — entries
    /// past the window resolution are the weights of the carried
    /// Caputo/GL history tail.
    Fractional { lu: SparseLu, rho: Vec<f64> },
    /// Multi-term nilpotent-series convolution (fractional mixtures):
    /// per-term full-horizon weight vectors at the window step, history
    /// carried exactly like the fractional kernel, term by term.
    MtConvolution { lu: SparseLu, series: Vec<Vec<f64>> },
}

/// Windowed-solve configuration beyond the window count — today the
/// short-memory truncation knob of fractional/multi-term windowed
/// solves.
///
/// ```
/// use opm_core::WindowedOptions;
/// let opts = WindowedOptions::new(32).history_len(256);
/// assert_eq!(opts.windows(), 32);
/// ```
///
/// # The short-memory truncation bound
///
/// A fractional window carries the Caputo/GL memory of all previous
/// windows as a weighted sum over their solved columns. With
/// [`history_len`](WindowedOptions::history_len)` = L`, only the `L`
/// most recent columns are retained (the Grünwald–Letnikov
/// *short-memory principle*); since the series weights decay like
/// `|ρ_k| = O(k^{−1−α})`, the dropped forcing is bounded by
/// `‖E‖·sup‖x‖·Σ_{k>L}|ρ_k| = O(L^{−α})` — halving the error of a
/// half-order (`α = ½`) element takes 4× the tail, and the error
/// vanishes (the solve becomes bit-identical to full history) once `L`
/// covers the whole horizon. Unset (the default) means full history:
/// exact, with `O(total columns)` retained state.
#[derive(Clone, Debug)]
pub struct WindowedOptions {
    windows: usize,
    history_len: Option<usize>,
    cancel: Option<CancelToken>,
}

impl WindowedOptions {
    /// Options for a `windows`-window solve with full (exact) history.
    pub fn new(windows: usize) -> Self {
        WindowedOptions {
            windows,
            history_len: None,
            cancel: None,
        }
    }

    /// Retains at most `columns` history columns across window
    /// boundaries (the short-memory truncation; see the type-level
    /// docs for the error bound). Ignored by plan kinds whose carried
    /// state is already finite and exact — linear plans (polyline
    /// endpoint) and integer recurrences (trailing `K` columns).
    #[must_use]
    pub fn history_len(mut self, columns: usize) -> Self {
        self.history_len = Some(columns);
        self
    }

    /// The window count `W`.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// The short-memory cap, if set.
    pub fn history_cap(&self) -> Option<usize> {
        self.history_len
    }

    /// Attaches a cooperative [`CancelToken`]: the window loop polls it
    /// **between windows** and aborts with [`OpmError::Cancelled`] —
    /// partial work is discarded, the plan and its cached kernels stay
    /// fully usable. This is how a server enforces per-request compute
    /// deadlines without preempting solver threads.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancel token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Polls the attached token (no token ⇒ never cancelled).
    ///
    /// # Errors
    /// [`OpmError::Cancelled`] once the token is cancelled or past its
    /// deadline.
    pub fn check_cancelled(&self) -> Result<(), OpmError> {
        match &self.cancel {
            Some(t) => t.check(),
            None => Ok(()),
        }
    }
}

/// Newton-iteration configuration for [`SimPlan::solve_newton`] /
/// [`SimPlan::solve_newton_windowed`].
///
/// ```
/// use opm_core::session::NewtonOptions;
/// let opts = NewtonOptions::new().max_iters(30).tolerances(1e-10, 1e-10);
/// assert_eq!(opts.iteration_budget(), 30);
/// ```
#[derive(Clone, Debug)]
pub struct NewtonOptions {
    max_iters: usize,
    abs_tol: f64,
    rel_tol: f64,
    max_step: f64,
    refine: Option<f64>,
    cancel: Option<CancelToken>,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions::new()
    }
}

impl NewtonOptions {
    /// Defaults: 50 iterations, `abs_tol = 1e-9`, `rel_tol = 1e-9`, no
    /// step limit, no refinement, no cancel token.
    pub fn new() -> Self {
        NewtonOptions {
            max_iters: 50,
            abs_tol: 1e-9,
            rel_tol: 1e-9,
            max_step: f64::INFINITY,
            refine: None,
            cancel: None,
        }
    }

    /// Iteration budget per column before
    /// [`OpmError::Nonconvergence`].
    #[must_use]
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters.max(1);
        self
    }

    /// Residual tolerances: a column converges when
    /// `‖F(x)‖_∞ ≤ abs_tol + rel_tol·‖rhs‖_∞` with the *exact* device
    /// currents in `F`.
    #[must_use]
    pub fn tolerances(mut self, abs_tol: f64, rel_tol: f64) -> Self {
        self.abs_tol = abs_tol;
        self.rel_tol = rel_tol;
        self
    }

    /// Damping / step-limit knob: clamps each unknown's per-iteration
    /// move to `±volts` (junction limiting already tames the diode
    /// exponential; this bounds everything else). Default: unlimited.
    #[must_use]
    pub fn max_step(mut self, volts: f64) -> Self {
        self.max_step = volts;
        self
    }

    /// Opt-in per-window refinement: when a window's Newton iteration
    /// history spikes (≥ 3 iterations on some column) *and* the Haar
    /// detail fraction of its solved columns exceeds `threshold`
    /// (finest-scale energy over total detail energy, requires a
    /// power-of-two resolution), the window is re-solved at double
    /// resolution — a numeric-only refactorization, the pattern is
    /// unchanged — and coarsened back onto the plan's grid. Default:
    /// off, keeping factorization counts deterministic.
    #[must_use]
    pub fn refine_threshold(mut self, threshold: f64) -> Self {
        self.refine = Some(threshold);
        self
    }

    /// Attaches a cooperative [`CancelToken`], polled every Newton
    /// iteration.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Read-side accessors (what the Newton driver consumes).
impl NewtonOptions {
    /// The per-column iteration budget.
    pub fn iteration_budget(&self) -> usize {
        self.max_iters
    }

    /// The absolute residual tolerance.
    pub fn abs_tol(&self) -> f64 {
        self.abs_tol
    }

    /// The relative residual tolerance.
    pub fn rel_tol(&self) -> f64 {
        self.rel_tol
    }

    /// The per-iteration step clamp (infinite when unset).
    pub fn step_limit(&self) -> f64 {
        self.max_step
    }

    /// The refinement detail threshold, if refinement is enabled.
    pub fn refinement(&self) -> Option<f64> {
        self.refine
    }

    /// The attached cancel token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Polls the attached token (no token ⇒ never cancelled).
    ///
    /// # Errors
    /// [`OpmError::Cancelled`] once the token is cancelled or past its
    /// deadline.
    pub fn check_cancelled(&self) -> Result<(), OpmError> {
        match &self.cancel {
            Some(t) => t.check(),
            None => Ok(()),
        }
    }
}

/// One window's worth of a streaming solve
/// ([`SimPlan::solve_streaming`]).
#[derive(Clone, Debug)]
pub struct WindowBlock {
    /// Window index `w ∈ 0..W`.
    pub window: usize,
    /// This window's solution, with **global-time** interval bounds
    /// (`bounds[0] = w·T/W`).
    pub result: OpmResult,
    /// End-of-window state `x(T·(w+1)/W)` under the BPF polyline
    /// interpretation — what the next window restarts from.
    pub end_state: Vec<f64>,
}

impl std::fmt::Debug for SimPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPlan")
            .field("strategy", &self.model.strategy_name())
            .field("resolution", &self.m)
            .field("horizon", &self.t_end)
            .field("num_factorizations", &self.num_factorizations())
            .finish_non_exhaustive()
    }
}

/// Profile of a plan whose preparation performed exactly one full
/// factorization — every uniform-grid kind.
const ONE_SYMBOLIC: FactorProfile = FactorProfile {
    num_symbolic: 1,
    num_numeric: 0,
    cache_hits: 0,
    cache_misses: 0,
    num_windows: 0,
    num_supernodes: 0,
    supernode_cols: 0,
    dense_tail_cols: 0,
    factor_cols: 0,
    factor_nnz: 0,
    newton_iters: 0,
    newton_refactors: 0,
    newton_fresh_fallbacks: 0,
};

/// Lanes per worker for a `lanes`-wide batch on `threads` workers,
/// rounded up to the panel width so chunk boundaries coincide with
/// panel boundaries: every worker then runs full
/// [`opm_linalg::panel::LANE_PANEL_WIDTH`]-wide panels except for the
/// final chunk's remainder, instead of every worker paying a ragged
/// remainder chain. Chunking never changes results — lanes are
/// arithmetically independent.
fn worker_lane_chunk(lanes: usize, threads: usize) -> usize {
    lanes
        .div_ceil(threads.max(1))
        .next_multiple_of(opm_linalg::panel::LANE_PANEL_WIDTH)
}

/// Pair-averages a `2m`-column fine window back onto the plan's
/// `m`-column grid, keeping the fine endpoint. BPF coefficients are
/// interval means, so the mean over a merged interval is the mean of its
/// halves — the coarsened columns are exactly the projection of the fine
/// solve onto the coarse basis.
fn coarsen_pairs(fine: NewtonWindow, m: usize) -> NewtonWindow {
    let mut columns = Vec::with_capacity(m);
    for j in 0..m {
        let a = &fine.columns[2 * j];
        let b = &fine.columns[2 * j + 1];
        columns.push(a.iter().zip(b).map(|(x, y)| 0.5 * (x + y)).collect());
    }
    NewtonWindow {
        columns,
        end: fine.end,
        worst_iters: fine.worst_iters,
    }
}

/// Fraction of a window's non-DC Haar energy concentrated in the finest
/// detail level, maximized over states — the sharp-transient signal the
/// Newton refinement hook reads. Requires `m = 2^k` (callers gate on
/// `m.is_power_of_two()`).
fn haar_detail_fraction(columns: &[Vec<f64>], m: usize, width: f64) -> f64 {
    let n = columns.first().map_or(0, Vec::len);
    let basis = HaarBasis::new(m, width);
    let mut worst = 0.0f64;
    let mut series = vec![0.0; m];
    for i in 0..n {
        for (j, col) in columns.iter().enumerate() {
            series[j] = col[i];
        }
        let haar = basis.from_bpf_coeffs(&series);
        let total: f64 = haar[1..].iter().map(|c| c * c).sum();
        if total <= 0.0 {
            continue;
        }
        let detail: f64 = haar[m / 2..].iter().map(|c| c * c).sum();
        worst = worst.max(detail / total);
    }
    worst
}

/// Output projection dispatch without cloning the selector.
enum OutRef<'o> {
    Sys(&'o DescriptorSystem),
    Mt(&'o MultiTermSystem),
}

impl OutputMap for OutRef<'_> {
    fn num_outputs(&self) -> usize {
        match self {
            OutRef::Sys(s) => s.num_outputs(),
            OutRef::Mt(mt) => mt.num_outputs(),
        }
    }
    fn output(&self, x: &[f64]) -> Vec<f64> {
        match self {
            OutRef::Sys(s) => s.output(x),
            OutRef::Mt(mt) => mt.output(x),
        }
    }
}

impl SimPlan {
    // -- construction -------------------------------------------------------

    pub(crate) fn prepare(
        model: Arc<SimModel>,
        opts: &SolveOptions,
        m: usize,
        t_end: f64,
        x0: Option<&[f64]>,
        devices: Vec<DeviceModel>,
    ) -> Result<Self, OpmError> {
        validate_options(&model, t_end, opts)?;
        let devices = Arc::new(devices);
        let require_linear_kind = |kind: &str| -> Result<(), OpmError> {
            if devices.is_empty() {
                Ok(())
            } else {
                Err(OpmError::BadArguments(format!(
                    "nonlinear devices solve through the linear-recurrence Newton path; \
                     the `{kind}` plan kind cannot restamp the pencil per iteration"
                )))
            }
        };
        let n = model.order();
        let x0 = match x0 {
            Some(v) => {
                validate_x0(n, v)?;
                v.to_vec()
            }
            None => vec![0.0; n],
        };
        let nonzero_x0 = x0.iter().any(|&v| v != 0.0);
        if nonzero_x0 && !matches!(model.as_ref(), SimModel::Linear(_)) {
            return Err(OpmError::BadArguments(format!(
                "nonzero initial conditions are only supported for linear problems \
                 (the `{}` strategy assumes zero Caputo initial conditions)",
                model.strategy_name()
            )));
        }

        let plan = |m: usize, kind: PlanKind| SimPlan {
            model: Arc::clone(&model),
            t_end,
            m,
            x0: x0.clone(),
            kind,
            devices: Arc::clone(&devices),
            kernels: GateCache::new(WINDOW_KERNELS_RETAINED, || {
                OpmError::BadArguments(
                    "window-kernel build panicked; the panicking request reports it".into(),
                )
            }),
            windows_solved: AtomicUsize::new(0),
        };
        if let Some(aopts) = opts.adaptive {
            require_linear_kind("adaptive")?;
            let SimModel::Linear(sys) = model.as_ref() else {
                unreachable!("validate_options admits `adaptive` only on linear models");
            };
            let lattice = StepLattice::new(sys, t_end, &aopts)?;
            return Ok(plan(0, PlanKind::AdaptiveLinear { aopts, lattice }));
        }
        if let Some(steps) = &opts.step_grid {
            require_linear_kind("step-grid")?;
            let SimModel::Fractional(fsys) = model.as_ref() else {
                unreachable!("validate_options admits `step_grid` only on fractional models");
            };
            let grid = AdaptiveBpf::new(steps.clone());
            let factors = adaptive::prepare_step_grid(fsys, &grid)?;
            let m = grid.dim();
            return Ok(plan(m, PlanKind::StepGrid(StepGridPlan { grid, factors })));
        }

        if m == 0 {
            return Err(OpmError::BadArguments("zero intervals".into()));
        }
        validate_horizon(t_end)?;
        let require_zero_x0 = |method: &str| -> Result<(), OpmError> {
            if nonzero_x0 {
                Err(OpmError::BadArguments(format!(
                    "nonzero initial conditions require the Recurrence or Accumulator \
                     method on the `linear` strategy ({method} assumes x(0) = 0)"
                )))
            } else {
                Ok(())
            }
        };

        let kind = match model.as_ref() {
            SimModel::Linear(sys) => match opts.method {
                Method::Auto | Method::Recurrence | Method::Accumulator => {
                    linear_plan_kind(sys, m, t_end, opts.method == Method::Accumulator)?
                }
                Method::Convolution => {
                    require_zero_x0("Convolution")?;
                    let mt = MultiTermSystem::from_descriptor(sys);
                    let plan = mt_plan(&mt, m, t_end, &MtSelect::Auto)?;
                    PlanKind::OwnedMultiTerm {
                        mt,
                        plan,
                        differentiate: false,
                    }
                }
                Method::Kronecker => {
                    require_zero_x0("Kronecker")?;
                    let mt = MultiTermSystem::from_descriptor(sys);
                    let factors = kron_prepare(&mt, m, t_end)?;
                    PlanKind::Kron {
                        factors,
                        mt: Some(mt),
                    }
                }
            },
            SimModel::Fractional(fsys) => match opts.method {
                Method::Kronecker => {
                    let mt = fractional_as_multiterm(fsys);
                    let factors = kron_prepare(&mt, m, t_end)?;
                    PlanKind::Kron {
                        factors,
                        mt: Some(mt),
                    }
                }
                _ => fractional_plan_kind(fsys, m, t_end)?,
            },
            SimModel::MultiTerm(mt) => match opts.method {
                Method::Auto => PlanKind::MultiTerm(mt_plan(mt, m, t_end, &MtSelect::Auto)?),
                Method::Recurrence => {
                    PlanKind::MultiTerm(mt_plan(mt, m, t_end, &MtSelect::Recurrence)?)
                }
                Method::Convolution => {
                    PlanKind::MultiTerm(mt_plan(mt, m, t_end, &MtSelect::Convolution)?)
                }
                Method::Kronecker => PlanKind::Kron {
                    factors: kron_prepare(mt, m, t_end)?,
                    mt: None,
                },
                Method::Accumulator => {
                    unreachable!("validate_options rejects Accumulator on multi-term models")
                }
            },
            SimModel::SecondOrder(so) => {
                let mt = so.to_multiterm();
                let plan = mt_plan(&mt, m, t_end, &MtSelect::Auto)?;
                PlanKind::OwnedMultiTerm {
                    mt,
                    plan,
                    differentiate: true,
                }
            }
        };
        if !matches!(kind, PlanKind::Linear { .. }) {
            require_linear_kind(model.strategy_name())?;
        }
        Ok(plan(m, kind))
    }

    // -- observability ------------------------------------------------------

    /// Sparse (or dense-oracle) factorizations performed on behalf of
    /// this plan so far — the reuse observable: a 100-scenario batch on a
    /// uniform plan reports **1**. Equals
    /// [`num_symbolic`](SimPlan::num_symbolic) `+`
    /// [`num_numeric`](SimPlan::num_numeric).
    pub fn num_factorizations(&self) -> usize {
        self.factor_profile().num_factorizations()
    }

    /// Full symbolic analyses (pattern DFS, pivot search) performed on
    /// behalf of this plan — the expensive kind. Step-grid and adaptive
    /// plans report **1** here no matter how many pencils they factor:
    /// every pencil after the first shares the analysis and shows up in
    /// [`num_numeric`](SimPlan::num_numeric) instead.
    pub fn num_symbolic(&self) -> usize {
        self.factor_profile().num_symbolic
    }

    /// Numeric-only refactorizations (fixed pivots and fill, no reach
    /// discovery) performed on behalf of this plan — the cheap kind the
    /// symbolic/numeric split buys.
    pub fn num_numeric(&self) -> usize {
        self.factor_profile().num_numeric
    }

    /// The full factorization-cost profile, including the step-lattice
    /// cache hit/miss readout for adaptive plans (both counters are 0
    /// for plan kinds that do not run the lattice cache) and the window
    /// counters of windowed/streaming solves: a windowed linear solve
    /// over any number of windows reports **1 symbolic + 1 numeric**
    /// factorization — the plan's own analysis plus one numeric
    /// refactorization at the window width.
    pub fn factor_profile(&self) -> FactorProfile {
        let p = match &self.kind {
            PlanKind::Linear { family, .. } | PlanKind::Fractional { family, .. } => {
                family.profile()
            }
            PlanKind::MultiTerm(plan) | PlanKind::OwnedMultiTerm { plan, .. } => {
                plan.analysis.profile()
            }
            PlanKind::Kron { .. } => ONE_SYMBOLIC,
            PlanKind::AdaptiveLinear { lattice, .. } => lattice.profile(),
            PlanKind::StepGrid(sg) => sg.factors.profile(),
        };
        FactorProfile {
            num_windows: self.windows_solved.load(Ordering::Relaxed),
            ..p
        }
    }

    /// Column count the plan was built for (0 for on-the-fly adaptive
    /// plans, whose step controller decides).
    pub fn resolution(&self) -> usize {
        self.m
    }

    /// The simulation horizon.
    pub fn horizon(&self) -> f64 {
        self.t_end
    }

    /// State dimension of the underlying model.
    pub fn order(&self) -> usize {
        self.model.order()
    }

    /// The strategy the plan was validated for (same names as
    /// [`SimModel::strategy_name`]).
    pub fn strategy_name(&self) -> &'static str {
        self.model.strategy_name()
    }

    /// The nonlinear device models the plan carries (empty for linear
    /// netlists).
    pub fn devices(&self) -> &[DeviceModel] {
        &self.devices
    }

    /// Whether the plan carries nonlinear devices. Such plans solve only
    /// through [`SimPlan::solve_newton`] /
    /// [`SimPlan::solve_newton_windowed`]; every linear entry point
    /// rejects them.
    pub fn has_nonlinear(&self) -> bool {
        !self.devices.is_empty()
    }

    /// Linear entry points refuse plans carrying nonlinear devices —
    /// solving the linear recurrence would silently drop the device
    /// currents.
    fn reject_nonlinear(&self, entry: &str) -> Result<(), OpmError> {
        if self.devices.is_empty() {
            Ok(())
        } else {
            Err(OpmError::BadArguments(format!(
                "this plan carries {} nonlinear device(s) and `{entry}` would drop them; \
                 use SimPlan::solve_newton / SimPlan::solve_newton_windowed",
                self.devices.len()
            )))
        }
    }

    // -- solving ------------------------------------------------------------

    /// Solves one stimulus against the cached factorization.
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] on channel mismatches.
    pub fn solve(&self, inputs: &InputSet) -> Result<OpmResult, OpmError> {
        let mut out = self.solve_batch(std::slice::from_ref(inputs))?;
        Ok(out.pop().expect("one lane in, one result out"))
    }

    /// Solves `K` stimuli through **one** factorization, the scenarios
    /// split across the [`opm_par::default_threads`] worker threads
    /// (`OPM_THREADS` to override) and, within each worker, advanced
    /// column-by-column together through the engine's interleaved block
    /// sweep — so the sparse solves and matrix products are amortized
    /// across the batch *and* the cores. Results are in input order and
    /// bit-identical to `K` independent [`SimPlan::solve`] calls, for
    /// every thread count.
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] on channel mismatches.
    pub fn solve_batch(&self, inputs: &[InputSet]) -> Result<Vec<OpmResult>, OpmError> {
        self.solve_batch_with_threads(inputs, opm_par::default_threads())
    }

    /// [`SimPlan::solve_batch`] with an explicit worker count — for
    /// servers that manage their own concurrency budget, and for pinning
    /// down the thread-count-invariance guarantee in tests. `threads`
    /// only sets how lanes are distributed; the per-lane arithmetic is
    /// identical for every value, so so is every result bit.
    ///
    /// # Errors
    /// As [`SimPlan::solve_batch`].
    pub fn solve_batch_with_threads(
        &self,
        inputs: &[InputSet],
        threads: usize,
    ) -> Result<Vec<OpmResult>, OpmError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        self.reject_nonlinear("solve")?;
        self.check_channels(inputs)?;
        match &self.kind {
            PlanKind::AdaptiveLinear { aopts, lattice } => {
                let SimModel::Linear(sys) = self.model.as_ref() else {
                    unreachable!("adaptive plans are linear by construction");
                };
                // Serial by design: the lattice fills on the fly, and
                // every scenario should see (and extend) it in order.
                inputs
                    .iter()
                    .map(|ws| {
                        adaptive::linear_adaptive_with(
                            sys, ws, self.t_end, &self.x0, *aopts, lattice,
                        )
                    })
                    .collect()
            }
            PlanKind::StepGrid(sg) => {
                let SimModel::Fractional(fsys) = self.model.as_ref() else {
                    unreachable!("step-grid plans are fractional by construction");
                };
                // Scenarios are independent sweeps over the shared
                // prefactored columns — run them on the workers.
                opm_par::par_map(threads, inputs, |ws| {
                    adaptive::sweep_step_grid(fsys, &sg.grid, &sg.factors, ws)
                })
                .into_iter()
                .collect()
            }
            _ => {
                validate_horizon(self.t_end)?;
                let us: Vec<Vec<Vec<f64>>> = inputs
                    .iter()
                    .map(|ws| self.project(ws))
                    .collect::<Result<_, _>>()?;
                let refs: Vec<&[Vec<f64>]> = us.iter().map(Vec::as_slice).collect();
                self.run_block(&refs, threads)
            }
        }
    }

    /// Parameter study: builds one stimulus per parameter with
    /// `stimulus`, then [`SimPlan::solve_batch`]es them all through the
    /// cached factorization. Results are in parameter order.
    ///
    /// # Errors
    /// As [`SimPlan::solve_batch`].
    pub fn sweep<P>(
        &self,
        params: &[P],
        mut stimulus: impl FnMut(&P) -> InputSet,
    ) -> Result<Vec<OpmResult>, OpmError> {
        let sets: Vec<InputSet> = params.iter().map(&mut stimulus).collect();
        self.solve_batch(&sets)
    }

    /// Solves a precomputed BPF coefficient stimulus (`u[ch][j]`).
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] when the coefficient shape disagrees
    /// with the planned resolution, or the plan kind needs waveforms
    /// (second-order, adaptive, step-grid).
    pub fn solve_coeffs(&self, u: &[Vec<f64>]) -> Result<OpmResult, OpmError> {
        let mut out = self.solve_coeffs_batch(&[u])?;
        Ok(out.pop().expect("one lane in, one result out"))
    }

    /// Batch form of [`SimPlan::solve_coeffs`]: `K` coefficient matrices
    /// through one factorization in a single interleaved pass.
    ///
    /// # Errors
    /// As [`SimPlan::solve_coeffs`].
    pub fn solve_coeffs_batch(&self, us: &[&[Vec<f64>]]) -> Result<Vec<OpmResult>, OpmError> {
        if us.is_empty() {
            return Ok(Vec::new());
        }
        self.reject_nonlinear("solve_coeffs")?;
        match &self.kind {
            PlanKind::AdaptiveLinear { .. } => Err(OpmError::BadArguments(
                "adaptive stepping needs waveform inputs (exact interval averages)".into(),
            )),
            PlanKind::StepGrid(_) => Err(OpmError::BadArguments(
                "step-grid solving needs waveform inputs".into(),
            )),
            PlanKind::OwnedMultiTerm {
                differentiate: true,
                ..
            } => Err(OpmError::BadArguments(
                "second-order problems need waveform inputs (the engine \
                 differentiates them exactly)"
                    .into(),
            )),
            _ => {
                let p = self.model.num_inputs();
                for &u in us {
                    let mu = validate_coeff_inputs(p, u)?;
                    if mu != self.m {
                        return Err(OpmError::BadArguments(format!(
                            "coefficient stimulus has {mu} columns but the `{}` plan \
                             was built for resolution {}",
                            self.model.strategy_name(),
                            self.m
                        )));
                    }
                }
                self.run_block(us, opm_par::default_threads())
            }
        }
    }

    // -- windowed / streaming solving ----------------------------------------

    /// Long-horizon windowed solve: splits `[0, T)` into `windows` equal
    /// windows of width `T/W`, expands **each window** in block-pulse
    /// functions at the plan's resolution `m` (so the whole horizon gets
    /// `W·m` columns), and carries the end-of-window state into the next
    /// window as its initial condition. Because the window pencil
    /// depends only on the window width and resolution, **one**
    /// factorization — a numeric-only refactorization against the plan's
    /// own symbolic analysis — serves all `W` windows (and every batched
    /// scenario): [`SimPlan::factor_profile`] reports 1 symbolic + 1
    /// numeric no matter how large `W` grows.
    ///
    /// On a horizon that splits evenly, the result matches a single
    /// whole-horizon plan at resolution `W·m` to roundoff (the BPF
    /// recurrence is the trapezoidal rule in disguise, and the polyline
    /// endpoint handoff is its exact restart).
    ///
    /// Supported for linear/descriptor (Recurrence/Accumulator),
    /// second-order, fractional and multi-term plans. Linear and
    /// integer-recurrence plans carry *exact* finite state (polyline
    /// endpoint / trailing recurrence columns); fractional and
    /// fractional-mixture multi-term plans carry the Caputo/GL memory
    /// of all previous windows as an extra per-lane forcing built from
    /// the history convolution over their solved columns — exact with
    /// full history, truncatable via
    /// [`WindowedOptions::history_len`] (see
    /// [`SimPlan::solve_windowed_opts`]). Adaptive, step-grid and
    /// Kronecker plans are whole-horizon by construction and are
    /// rejected with an error naming the plan kind.
    ///
    /// ```
    /// use opm_core::{Simulation, SolveOptions};
    ///
    /// let sim = Simulation::from_netlist(
    ///     "V1 in 0 DC 5\nR1 in out 1k\nC1 out 0 1u\n.end",
    ///     &["out"],
    /// )
    /// .unwrap()
    /// .horizon(8e-3);
    /// let plan = sim.plan(&SolveOptions::new().resolution(64)).unwrap();
    ///
    /// // 8 windows × 64 columns — 512 columns through ONE factorization.
    /// let r = plan.solve_windowed(sim.inputs().unwrap(), 8).unwrap();
    /// assert_eq!(r.num_intervals(), 512);
    /// assert!((r.output_row(0)[511] - 5.0).abs() < 0.05);
    /// let p = plan.factor_profile();
    /// assert_eq!((p.num_symbolic, p.num_numeric, p.num_windows), (1, 1, 8));
    /// ```
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] on channel mismatches, zero windows,
    /// or an unsupported strategy/method (the message names both).
    pub fn solve_windowed(&self, inputs: &InputSet, windows: usize) -> Result<OpmResult, OpmError> {
        self.solve_windowed_opts(inputs, &WindowedOptions::new(windows))
    }

    /// [`SimPlan::solve_windowed`] with explicit [`WindowedOptions`] —
    /// in particular the fractional short-memory truncation
    /// [`WindowedOptions::history_len`].
    ///
    /// Note on memory: with *full* history (the default), a fractional
    /// windowed solve retains a working copy of every past column
    /// alongside the accumulating result — the exactness costs up to 2×
    /// the whole-horizon solve's peak. Cap the tail with
    /// [`WindowedOptions::history_len`] (or stream via
    /// [`SimPlan::solve_streaming_opts`], where the tail is the *only*
    /// retained copy) for bounded memory.
    ///
    /// ```
    /// use opm_core::{Simulation, SolveOptions, WindowedOptions};
    ///
    /// // RC + constant-phase element: a fractional MNA model.
    /// let sim = Simulation::from_netlist(
    ///     "V1 in 0 DC 1\nR1 in top 100\nP1 top 0 CPE 1u 0.5\n.end",
    ///     &["top"],
    /// )
    /// .unwrap()
    /// .horizon(1e-6);
    /// let plan = sim.plan(&SolveOptions::new().resolution(64)).unwrap();
    ///
    /// // 8 windows × 64 columns, keeping a 256-column memory tail.
    /// let opts = WindowedOptions::new(8).history_len(256);
    /// let r = plan.solve_windowed_opts(sim.inputs().unwrap(), &opts).unwrap();
    /// assert_eq!(r.num_intervals(), 512);
    /// let p = plan.factor_profile();
    /// assert_eq!((p.num_symbolic, p.num_numeric), (1, 1));
    /// ```
    ///
    /// # Errors
    /// As [`SimPlan::solve_windowed`].
    pub fn solve_windowed_opts(
        &self,
        inputs: &InputSet,
        opts: &WindowedOptions,
    ) -> Result<OpmResult, OpmError> {
        let mut out = self.solve_windowed_batch_opts(
            std::slice::from_ref(inputs),
            opts,
            opm_par::default_threads(),
        )?;
        Ok(out.pop().expect("one lane in, one result out"))
    }

    /// Batch form of [`SimPlan::solve_windowed`]: `K` scenarios swept
    /// through the same single window factorization, window by window,
    /// with the scenario lanes split across the worker threads exactly
    /// like [`SimPlan::solve_batch`] (results are in input order and
    /// bit-identical to a per-scenario [`SimPlan::solve_windowed`]
    /// loop, for every thread count).
    ///
    /// # Errors
    /// As [`SimPlan::solve_windowed`].
    pub fn solve_windowed_batch(
        &self,
        inputs: &[InputSet],
        windows: usize,
    ) -> Result<Vec<OpmResult>, OpmError> {
        self.solve_windowed_batch_with_threads(inputs, windows, opm_par::default_threads())
    }

    /// [`SimPlan::solve_windowed_batch`] with an explicit worker count.
    ///
    /// # Errors
    /// As [`SimPlan::solve_windowed`].
    pub fn solve_windowed_batch_with_threads(
        &self,
        inputs: &[InputSet],
        windows: usize,
        threads: usize,
    ) -> Result<Vec<OpmResult>, OpmError> {
        self.solve_windowed_batch_opts(inputs, &WindowedOptions::new(windows), threads)
    }

    /// [`SimPlan::solve_windowed_batch_with_threads`] with explicit
    /// [`WindowedOptions`].
    ///
    /// # Errors
    /// As [`SimPlan::solve_windowed`].
    pub fn solve_windowed_batch_opts(
        &self,
        inputs: &[InputSet],
        opts: &WindowedOptions,
        threads: usize,
    ) -> Result<Vec<OpmResult>, OpmError> {
        let windows = opts.windows();
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        self.reject_nonlinear("solve_windowed")?;
        self.check_channels(inputs)?;
        let kernel = self.window_kernel(windows)?;
        let lanes_per_worker = worker_lane_chunk(inputs.len(), threads);
        let results = if lanes_per_worker < inputs.len() {
            let chunks: Vec<&[InputSet]> = inputs.chunks(lanes_per_worker).collect();
            let per_chunk = opm_par::par_map(threads, &chunks, |chunk| {
                self.windowed_chunk(&kernel, chunk, opts)
            });
            let mut out = Vec::with_capacity(inputs.len());
            for res in per_chunk {
                out.extend(res?);
            }
            out
        } else {
            self.windowed_chunk(&kernel, inputs, opts)?
        };
        self.windows_solved.fetch_add(windows, Ordering::Relaxed);
        Ok(results)
    }

    /// Streaming windowed solve: like [`SimPlan::solve_windowed`], but
    /// each window's block is handed to `sink` as soon as it is solved
    /// and then **dropped** — peak coefficient storage is `O(n·m)`, one
    /// window, independent of how many windows the horizon spans (plus,
    /// on fractional/multi-term plans, the retained Caputo history tail:
    /// all past columns with full history, at most
    /// [`WindowedOptions::history_len`] columns when truncated). The
    /// [`WindowBlock`]s carry global-time bounds, so concatenating their
    /// results reproduces [`SimPlan::solve_windowed`] exactly.
    ///
    /// Returns the final state `x(T)` (the last window's
    /// [`WindowBlock::end_state`]).
    ///
    /// # Errors
    /// As [`SimPlan::solve_windowed`].
    pub fn solve_streaming(
        &self,
        inputs: &InputSet,
        windows: usize,
        sink: impl FnMut(WindowBlock),
    ) -> Result<Vec<f64>, OpmError> {
        self.solve_streaming_opts(inputs, &WindowedOptions::new(windows), sink)
    }

    /// [`SimPlan::solve_streaming`] with explicit [`WindowedOptions`] —
    /// with [`WindowedOptions::history_len`] set, a fractional streaming
    /// solve runs at truly bounded memory: one window of columns plus
    /// the capped history tail.
    ///
    /// # Errors
    /// As [`SimPlan::solve_windowed`].
    pub fn solve_streaming_opts(
        &self,
        inputs: &InputSet,
        opts: &WindowedOptions,
        mut sink: impl FnMut(WindowBlock),
    ) -> Result<Vec<f64>, OpmError> {
        let windows = opts.windows();
        self.reject_nonlinear("solve_streaming")?;
        self.check_channels(std::slice::from_ref(inputs))?;
        let kernel = self.window_kernel(windows)?;
        let out = self.output_map();
        let mut final_state = self.x0.clone();
        self.windowed_drive(&kernel, &[inputs], opts, |w, outcome, end| {
            let bounds = self.window_bounds(windows, w, 0);
            let mut lanes = outcome.into_lane_outcomes();
            let one = lanes.pop().expect("one lane in, one result out");
            sink(WindowBlock {
                window: w,
                result: one.grid_result(&out, bounds),
                end_state: end.to_vec(),
            });
            final_state.clear();
            final_state.extend_from_slice(end);
        })?;
        self.windows_solved.fetch_add(windows, Ordering::Relaxed);
        Ok(final_state)
    }

    /// Newton solve of a (possibly nonlinear) plan over the whole
    /// horizon as one window: [`SimPlan::solve_newton_windowed`] with
    /// `windows = 1`.
    ///
    /// On a **linear** netlist (no devices) this is *bit-identical* to
    /// [`SimPlan::solve`] — the full-value Newton iterate of the
    /// endpoint recurrence reproduces the linear recurrence exactly, so
    /// the call delegates to the linear sweep and merely books one
    /// Newton iteration per column into the
    /// [`FactorProfile`].
    ///
    /// # Errors
    /// As [`SimPlan::solve_newton_windowed`].
    pub fn solve_newton(
        &self,
        inputs: &InputSet,
        opts: &NewtonOptions,
    ) -> Result<OpmResult, OpmError> {
        self.solve_newton_windowed(inputs, 1, opts)
    }

    /// Windowed Newton solve: the horizon split into `windows` windows
    /// of `m` columns each, every column solved by SPICE-style
    /// full-value Newton iteration over the endpoint recurrence
    /// `(σE − A)·x_j − f(x_j) = σE·e_j + B·u_j`, `e_{j+1} = 2x_j − e_j`.
    ///
    /// Cost shape: **one** symbolic analysis for the whole solve (the
    /// plan's recorded [`opm_sparse::SymbolicLu`]); every Newton
    /// iteration re-stamps the pencil values and replays the analysis as
    /// a numeric-only [`opm_sparse::SparseLu::refactor`]. Only a pivot
    /// degradation falls back to a fresh pivoted factorization — both
    /// paths are counted in the plan's
    /// [`factor_profile`](SimPlan::factor_profile) (`newton_iters`,
    /// `newton_refactors`, `newton_fresh_fallbacks`).
    ///
    /// With [`NewtonOptions::refine_threshold`] set, a window whose
    /// iteration history indicates a sharp transient (some column needed
    /// ≥ 3 iterations **and** the finest-level Haar detail energy of the
    /// solved window exceeds the threshold) is re-swept at twice the
    /// column resolution — still numeric-only refactors, at the doubled
    /// shift `2σ` — and pair-averaged back onto the plan's grid, keeping
    /// the fine endpoint.
    ///
    /// ```
    /// use opm_core::{NewtonOptions, Simulation, SolveOptions};
    ///
    /// // Half-wave rectifier: source, series resistor, diode to ground.
    /// let sim = Simulation::from_netlist(
    ///     "V1 in 0 SIN 0 1 50\nR1 in out 1k\nD1 out 0 1e-14\n.end",
    ///     &["out"],
    /// )
    /// .unwrap()
    /// .horizon(0.04);
    /// let plan = sim.plan(&SolveOptions::new().resolution(64)).unwrap();
    /// let r = plan
    ///     .solve_newton_windowed(sim.inputs().unwrap(), 4, &NewtonOptions::new())
    ///     .unwrap();
    /// assert_eq!(r.num_intervals(), 256);
    /// // One symbolic analysis total; every iteration numeric-only.
    /// let p = plan.factor_profile();
    /// assert_eq!(p.num_symbolic, 1);
    /// assert_eq!(p.newton_fresh_fallbacks, 0);
    /// assert_eq!(p.newton_refactors, p.newton_iters);
    /// ```
    ///
    /// # Errors
    /// [`OpmError::Nonconvergence`] when a column exhausts the iteration
    /// budget; [`OpmError::Cancelled`] on a tripped
    /// [`NewtonOptions::cancel_token`]; [`OpmError::BadArguments`] when
    /// a nonlinear plan is not linear-recurrence-backed, on channel
    /// mismatches, or for `windows == 0`.
    pub fn solve_newton_windowed(
        &self,
        inputs: &InputSet,
        windows: usize,
        opts: &NewtonOptions,
    ) -> Result<OpmResult, OpmError> {
        if windows == 0 {
            return Err(OpmError::BadArguments(
                "windowed solving needs at least one window".into(),
            ));
        }
        self.check_channels(std::slice::from_ref(inputs))?;
        if self.devices.is_empty() {
            // Linear netlist: one full-value iterate of the endpoint
            // recurrence *is* the linear recurrence, so Newton converges
            // in exactly one iteration per column — delegate to the
            // linear sweep (bit-identical, zero added factorizations)
            // and book the per-column iterations.
            let result = if windows == 1 {
                opts.check_cancelled()?;
                self.solve(inputs)?
            } else {
                let mut wopts = WindowedOptions::new(windows);
                if let Some(tok) = opts.cancel() {
                    wopts = wopts.cancel_token(tok.clone());
                }
                self.solve_windowed_opts(inputs, &wopts)?
            };
            if let PlanKind::Linear { family, .. } = &self.kind {
                family.note_newton_iters(result.num_intervals());
            }
            return Ok(result);
        }
        let PlanKind::Linear { family, .. } = &self.kind else {
            return Err(OpmError::BadArguments(format!(
                "nonlinear Newton solving needs a linear-recurrence plan, not `{}`",
                self.strategy_name()
            )));
        };
        let SimModel::Linear(sys) = self.model.as_ref() else {
            unreachable!("nonlinear device plans are linear-model-backed by construction");
        };
        validate_horizon(self.t_end)?;
        let m = self.m;
        // Window width T/W at resolution m ⇒ σ_w = 2·m·W/T.
        let sigma = 2.0 * (m * windows) as f64 / self.t_end;
        let width = self.t_end / windows as f64;
        let mut sweep = NewtonSweep::new(sys, &self.devices, family)?;
        let mut e = self.x0.clone();
        let mut columns = Vec::with_capacity(m * windows);
        for w in 0..windows {
            let u = inputs.bpf_matrix_window(m, w as f64 * width, width);
            let mut win = sweep.window(family, sigma, m, &u, &e, opts, w)?;
            if let Some(threshold) = opts.refinement() {
                if win.worst_iters >= 3 && m >= 2 && m.is_power_of_two() {
                    let frac = haar_detail_fraction(&win.columns, m, width);
                    if frac > threshold {
                        // Sharp transient: re-sweep the window at twice
                        // the resolution (numeric-only refactors at the
                        // doubled shift) and pair-average back onto the
                        // plan's grid, keeping the fine endpoint.
                        let u2 = inputs.bpf_matrix_window(2 * m, w as f64 * width, width);
                        let fine = sweep.window(family, 2.0 * sigma, 2 * m, &u2, &e, opts, w)?;
                        win = coarsen_pairs(fine, m);
                    }
                }
            }
            e = win.end;
            columns.extend(win.columns);
        }
        family.note_newton_iters(sweep.newton_iters);
        // One factorization per Newton iteration (stamped values change
        // every iterate), all numeric-only against the one analysis.
        let num_factorizations = sweep.newton_iters;
        let num_solves = sweep.num_solves;
        let result = SweepOutcome {
            columns,
            num_solves,
            num_factorizations,
        }
        .uniform_result(&self.output_map(), self.t_end);
        self.windows_solved.fetch_add(windows, Ordering::Relaxed);
        Ok(result)
    }

    /// Resolves the window kernel for `windows` windows — the one
    /// factorization all windows and scenarios share — building it on
    /// the first request through the plan's single-flight kernel cache.
    fn window_kernel(&self, windows: usize) -> Result<Arc<WindowKernel>, OpmError> {
        if windows == 0 {
            return Err(OpmError::BadArguments(
                "windowed solving needs at least one window".into(),
            ));
        }
        validate_horizon(self.t_end)?;
        let (kernel, _) = self
            .kernels
            .get_or_build(windows, || self.build_window_kernel(windows).map(Arc::new))?;
        Ok(kernel)
    }

    /// Factors the window kernel for `windows` windows: the window
    /// pencil refactored numerically against the plan's recorded
    /// analysis, plus the kernel's window-step symbol data.
    fn build_window_kernel(&self, windows: usize) -> Result<WindowKernel, OpmError> {
        let unsupported = |strategy: &str, why: &str| {
            Err(OpmError::BadArguments(format!(
                "windowed solving is not available for the `{strategy}` strategy: {why}"
            )))
        };
        match &self.kind {
            PlanKind::Linear { family, .. } => {
                // Window width T/W at resolution m ⇒ σ_w = 2·m·W/T; the
                // family replays its recorded analysis numerically.
                let sigma = 2.0 * (self.m * windows) as f64 / self.t_end;
                let lu = family.factor(sigma)?;
                Ok(WindowKernel::Linear { lu, sigma })
            }
            PlanKind::Fractional { family, .. } => {
                let SimModel::Fractional(fsys) = self.model.as_ref() else {
                    unreachable!("fractional plans are built on fractional models");
                };
                // Window step h_w = T/(W·m): the window pencil is
                // ρ₀(h_w)·E − A — same pattern family as the plan's own
                // pencil, so it refactors numerically. The weight vector
                // spans the WHOLE horizon (W·m entries): entries past
                // the window resolution are exactly the history-tail
                // weights of the carried Caputo/GL memory.
                let wbasis = BpfBasis::new(self.m, self.t_end / windows as f64);
                let rho = wbasis.frac_diff_coeffs_n(fsys.alpha(), self.m * windows);
                let lu = family.factor(rho[0])?;
                Ok(WindowKernel::Fractional { lu, rho })
            }
            PlanKind::MultiTerm(plan) | PlanKind::OwnedMultiTerm { plan, .. } => {
                let mt = self.mt_ref();
                // The window pencil re-weights the same terms, so it has
                // the plan pencil's union pattern: refactor it against
                // the recorded analysis.
                let refactor = |pencil: opm_sparse::CsrMatrix| {
                    let csc = pencil.to_csc();
                    Ok::<_, OpmError>(plan.analysis.refactor(&csc, csc.values())?.0)
                };
                let h = self.t_end / (self.m * windows) as f64;
                Ok(match &plan.path {
                    MtPath::Recurrence { .. } => {
                        let (polys, bw) = mt_recurrence_data(mt, h);
                        let lu =
                            refactor(crate::engine::weighted_pencil(mt.terms(), |k| polys[k][0])?)?;
                        WindowKernel::Recurrence {
                            lu,
                            polys,
                            bw,
                            depth: mt.max_order() as usize,
                        }
                    }
                    MtPath::Convolution { .. } => {
                        // Per-term ρ^{(k)} over the whole W·m-column
                        // horizon at the window step (α = 0 ⇒ e₀) — the
                        // same generator the plan and the fractional
                        // kernel use, so the formulas cannot drift.
                        let wbasis = BpfBasis::new(self.m, self.t_end / windows as f64);
                        let series: Vec<Vec<f64>> = mt
                            .terms()
                            .iter()
                            .map(|term| wbasis.frac_diff_coeffs_n(term.alpha, self.m * windows))
                            .collect();
                        let lu = refactor(crate::engine::weighted_pencil(mt.terms(), |k| {
                            series[k][0]
                        })?)?;
                        WindowKernel::MtConvolution { lu, series }
                    }
                })
            }
            PlanKind::Kron { .. } => unsupported(
                &format!("{} (Kronecker plan)", self.model.strategy_name()),
                "the Kronecker oracle materializes the whole horizon as one dense system",
            ),
            PlanKind::AdaptiveLinear { .. } => unsupported(
                "linear (adaptive plan)",
                "`adaptive` plans let the step controller pace the horizon; \
                 windowed solving applies to fixed-resolution plans",
            ),
            PlanKind::StepGrid(_) => unsupported(
                "fractional (step-grid plan)",
                "step-grid plans resolve the whole horizon on their explicit grid",
            ),
        }
    }

    /// The multi-term system a multi-term-backed plan sweeps — the
    /// model's own for [`PlanKind::MultiTerm`], the owned conversion for
    /// [`PlanKind::OwnedMultiTerm`].
    fn mt_ref(&self) -> &MultiTermSystem {
        match (&self.kind, self.model.as_ref()) {
            (PlanKind::OwnedMultiTerm { mt, .. }, _) => mt,
            (_, SimModel::MultiTerm(mt)) => mt,
            _ => unreachable!("mt_ref on a non-multi-term plan kind"),
        }
    }

    /// Global-time interval bounds of window `w` (of `windows`),
    /// extended `seed` columns to the left for carried history.
    fn window_bounds(&self, windows: usize, w: usize, seed: usize) -> Vec<f64> {
        let mtot = (self.m * windows) as f64;
        let start = w * self.m - seed;
        let end = (w + 1) * self.m;
        (start..=end)
            .map(|g| g as f64 * self.t_end / mtot)
            .collect()
    }

    /// One worker's share of a windowed batch: runs the full window loop
    /// over a contiguous chunk of scenario lanes and assembles whole-
    /// horizon results. Lanes never mix arithmetically, so chunked
    /// parallel runs are bit-identical to the serial run.
    fn windowed_chunk(
        &self,
        kernel: &WindowKernel,
        chunk: &[InputSet],
        opts: &WindowedOptions,
    ) -> Result<Vec<OpmResult>, OpmError> {
        let refs: Vec<&InputSet> = chunk.iter().collect();
        let mut columns = Vec::with_capacity(opts.windows() * self.m);
        let mut solves = 0;
        self.windowed_drive(kernel, &refs, opts, |_, outcome, _| {
            solves += outcome.num_solves;
            columns.extend(outcome.columns);
        })?;
        let out = self.output_map();
        Ok(BlockOutcome {
            columns,
            lanes: chunk.len(),
            num_solves: solves,
            num_factorizations: 1,
        }
        .into_lane_outcomes()
        .into_iter()
        .map(|o| o.uniform_result(&out, self.t_end))
        .collect())
    }

    /// The window loop: sweeps `ws` through the configured windows
    /// against the shared kernel, handing each window's solved block
    /// (columns in global state coordinates, lane-interleaved) plus the
    /// end-of-window state block to `on_window`, then carrying that
    /// state — polyline endpoint, recurrence tail or Caputo history
    /// tail, per kernel — forward.
    ///
    /// Polls the [`WindowedOptions`] cancel token at every window
    /// boundary — the cooperative cancellation point that bounds how
    /// long past a deadline a windowed solve can run to one window.
    fn windowed_drive(
        &self,
        kernel: &WindowKernel,
        ws: &[&InputSet],
        opts: &WindowedOptions,
        mut on_window: impl FnMut(usize, BlockOutcome, &[f64]),
    ) -> Result<(), OpmError> {
        let windows = opts.windows();
        let n = self.model.order();
        let k = ws.len();
        let m = self.m;
        let p = self.model.num_inputs();
        match kernel {
            WindowKernel::Linear { lu, sigma } => {
                let SimModel::Linear(sys) = self.model.as_ref() else {
                    unreachable!("linear window kernels are built on linear models");
                };
                let PlanKind::Linear { accumulator, .. } = &self.kind else {
                    unreachable!("linear window kernels are built on linear plans");
                };
                // The plan's x0 interleaved across the lanes; thereafter
                // each lane carries its own end-of-window state.
                let mut x0 = vec![0.0; n * k];
                for (i, &v) in self.x0.iter().enumerate() {
                    x0[i * k..(i + 1) * k].iter_mut().for_each(|x| *x = v);
                }
                let mut c_force = vec![0.0; n * k];
                let width = self.t_end / windows as f64;
                for w in 0..windows {
                    opts.check_cancelled()?;
                    // Offset projection: the window grid is shifted, the
                    // waveforms are sampled at global time.
                    let us: Vec<Vec<Vec<f64>>> = ws
                        .iter()
                        .map(|set| set.bpf_matrix_window(m, w as f64 * width, width))
                        .collect();
                    let refs: Vec<&[Vec<f64>]> = us.iter().map(Vec::as_slice).collect();
                    let lc = LaneCoeffs::interleave(&refs, p, m);
                    // Window-local shift z = x − x(T_w): constant forcing
                    // c = A·x(T_w), per lane.
                    sys.a().mul_block_into(&x0, &mut c_force, k);
                    let mut outcome =
                        sweep_linear_block(sys, lu, *sigma, &c_force, *accumulator, &lc);
                    // z → x: add the window's start state back.
                    for col in &mut outcome.columns {
                        for (c, &v) in col.iter_mut().zip(&x0) {
                            *c += v;
                        }
                    }
                    let end = endpoint_state(&outcome.columns, &x0);
                    on_window(w, outcome, &end);
                    x0 = end;
                }
            }
            WindowKernel::Recurrence {
                lu,
                polys,
                bw,
                depth,
            } => {
                let mt = self.mt_ref();
                let differentiate = matches!(
                    self.kind,
                    PlanKind::OwnedMultiTerm {
                        differentiate: true,
                        ..
                    }
                );
                // Carried state: the trailing `depth` solved columns (the
                // recurrence's full memory) — the restarted sweep is
                // column-for-column the unbroken one.
                let mut tail: Vec<Vec<f64>> = Vec::new();
                let mut endv = vec![0.0; n * k];
                for w in 0..windows {
                    opts.check_cancelled()?;
                    let s = tail.len();
                    let bounds = self.window_bounds(windows, w, s);
                    // The stimulus columns matching the carried history
                    // are re-projected from global time alongside the
                    // window's own (`u̇` averages for second-order
                    // input, plain interval averages otherwise).
                    let us: Vec<Vec<Vec<f64>>> = ws
                        .iter()
                        .map(|set| {
                            if differentiate {
                                set.derivative_averages_on_grid(&bounds)
                            } else {
                                set.averages_on_grid(&bounds)
                            }
                        })
                        .collect();
                    let refs: Vec<&[Vec<f64>]> = us.iter().map(Vec::as_slice).collect();
                    let lc = LaneCoeffs::interleave(&refs, p, s + m);
                    let outcome = sweep_mt_recurrence_window(mt, lu, polys, bw, &lc, tail.clone());
                    let keep_old = depth.saturating_sub(outcome.columns.len());
                    let mut new_tail: Vec<Vec<f64>> = Vec::with_capacity(*depth);
                    new_tail.extend(
                        tail[tail.len() - keep_old.min(tail.len())..]
                            .iter()
                            .cloned(),
                    );
                    new_tail.extend(
                        outcome.columns[outcome.columns.len().saturating_sub(*depth)..]
                            .iter()
                            .cloned(),
                    );
                    tail = new_tail;
                    let end = endpoint_state(&outcome.columns, &endv);
                    on_window(w, outcome, &end);
                    endv = end;
                }
            }
            WindowKernel::Fractional { lu, rho } => {
                let SimModel::Fractional(fsys) = self.model.as_ref() else {
                    unreachable!("fractional window kernels are built on fractional models");
                };
                let sys = fsys.system();
                // Carried state: the Caputo/GL memory of every previous
                // window — the retained solved columns, truncatable by
                // the short-memory cap. With full history the restarted
                // convolution is column-for-column the unbroken one.
                let mut tail = HistoryTail::new(opts.history_cap());
                let mut endv = vec![0.0; n * k];
                let width = self.t_end / windows as f64;
                for w in 0..windows {
                    opts.check_cancelled()?;
                    let us: Vec<Vec<Vec<f64>>> = ws
                        .iter()
                        .map(|set| set.bpf_matrix_window(m, w as f64 * width, width))
                        .collect();
                    let refs: Vec<&[Vec<f64>]> = us.iter().map(Vec::as_slice).collect();
                    let lc = LaneCoeffs::interleave(&refs, p, m);
                    let outcome = sweep_fractional_block(sys, lu, rho, &lc, tail.columns());
                    tail.extend(outcome.columns.iter().cloned());
                    let end = endpoint_state(&outcome.columns, &endv);
                    on_window(w, outcome, &end);
                    endv = end;
                }
            }
            WindowKernel::MtConvolution { lu, series } => {
                let mt = self.mt_ref();
                // Second-order conversions are integer-order and always
                // take the Recurrence kernel, so every plan reaching
                // this arm consumes plain (undifferentiated) averages.
                debug_assert!(
                    !matches!(
                        self.kind,
                        PlanKind::OwnedMultiTerm {
                            differentiate: true,
                            ..
                        }
                    ),
                    "second-order plans window through the recurrence kernel"
                );
                let mut tail = HistoryTail::new(opts.history_cap());
                let mut endv = vec![0.0; n * k];
                let width = self.t_end / windows as f64;
                for w in 0..windows {
                    opts.check_cancelled()?;
                    let us: Vec<Vec<Vec<f64>>> = ws
                        .iter()
                        .map(|set| set.bpf_matrix_window(m, w as f64 * width, width))
                        .collect();
                    let refs: Vec<&[Vec<f64>]> = us.iter().map(Vec::as_slice).collect();
                    let lc = LaneCoeffs::interleave(&refs, p, m);
                    let outcome = sweep_mt_convolution_block(mt, lu, series, &lc, tail.columns());
                    tail.extend(outcome.columns.iter().cloned());
                    let end = endpoint_state(&outcome.columns, &endv);
                    on_window(w, outcome, &end);
                    endv = end;
                }
            }
        }
        Ok(())
    }

    /// Validates every scenario's channel count against the model.
    fn check_channels(&self, inputs: &[InputSet]) -> Result<(), OpmError> {
        let p = self.model.num_inputs();
        for ws in inputs {
            if ws.len() != p {
                return Err(OpmError::BadArguments(format!(
                    "{} input channels for {} B columns",
                    ws.len(),
                    p
                )));
            }
        }
        Ok(())
    }

    // -- internals ----------------------------------------------------------

    /// Projects waveforms onto the plan's uniform grid (derivative
    /// averages for second-order plans).
    fn project(&self, ws: &InputSet) -> Result<Vec<Vec<f64>>, OpmError> {
        if matches!(
            self.kind,
            PlanKind::OwnedMultiTerm {
                differentiate: true,
                ..
            }
        ) {
            let bounds: Vec<f64> = (0..=self.m)
                .map(|k| k as f64 * self.t_end / self.m as f64)
                .collect();
            Ok(ws.derivative_averages_on_grid(&bounds))
        } else {
            Ok(ws.bpf_matrix(self.m, self.t_end))
        }
    }

    /// Runs the interleaved block sweep for the uniform plan kinds,
    /// splitting the scenario lanes across up to `threads` workers.
    ///
    /// Each worker sweeps a contiguous chunk of lanes through its own
    /// [`BlockColumnSweep`]; lanes never mix arithmetically (every
    /// kernel is elementwise across the lane dimension), so the chunked
    /// parallel run is bit-identical to the one-big-sweep serial run.
    fn run_block(&self, us: &[&[Vec<f64>]], threads: usize) -> Result<Vec<OpmResult>, OpmError> {
        // The dense oracle consumes the raw coefficient matrices; only
        // the sweeping kinds need the lane interleave.
        if let PlanKind::Kron { factors, mt } = &self.kind {
            let mt = match (mt, self.model.as_ref()) {
                (Some(owned), _) => owned,
                (None, SimModel::MultiTerm(m)) => m,
                _ => unreachable!("kron plans carry or reference a multi-term form"),
            };
            return opm_par::par_map(threads, us, |u| {
                kron_solve_prepared(mt, factors, u, self.t_end)
            })
            .into_iter()
            .collect();
        }
        let lanes_per_worker = worker_lane_chunk(us.len(), threads);
        if lanes_per_worker < us.len() {
            let chunks: Vec<&[&[Vec<f64>]]> = us.chunks(lanes_per_worker).collect();
            let per_chunk = opm_par::par_map(threads, &chunks, |chunk| self.run_chunk(chunk));
            let mut out = Vec::with_capacity(us.len());
            for res in per_chunk {
                out.extend(res?);
            }
            return Ok(out);
        }
        self.run_chunk(us)
    }

    /// One worker's share of [`SimPlan::run_block`]: interleaves its
    /// lanes and sweeps them through the cached factorization.
    fn run_chunk(&self, us: &[&[Vec<f64>]]) -> Result<Vec<OpmResult>, OpmError> {
        let lc = LaneCoeffs::interleave(us, self.model.num_inputs(), self.m);
        let outcome = match &self.kind {
            PlanKind::Linear {
                sigma,
                lu,
                accumulator,
                ..
            } => {
                let SimModel::Linear(sys) = self.model.as_ref() else {
                    unreachable!("linear plan on a linear model");
                };
                // Whole-horizon solves are the one-window special case:
                // the constant forcing block is the plan's own x0
                // replicated across the lanes (all zero for zero ICs).
                let (n, k) = (sys.order(), lc.lanes);
                let mut c_force = vec![0.0; n * k];
                if self.x0.iter().any(|&v| v != 0.0) {
                    let mut x0b = vec![0.0; n * k];
                    for (i, &v) in self.x0.iter().enumerate() {
                        x0b[i * k..(i + 1) * k].iter_mut().for_each(|x| *x = v);
                    }
                    sys.a().mul_block_into(&x0b, &mut c_force, k);
                }
                sweep_linear_block(sys, lu, *sigma, &c_force, *accumulator, &lc)
            }
            PlanKind::Fractional { rho, lu, .. } => {
                let SimModel::Fractional(fsys) = self.model.as_ref() else {
                    unreachable!("fractional plan on a fractional model");
                };
                sweep_fractional_block(fsys.system(), lu, rho, &lc, &[])
            }
            PlanKind::MultiTerm(plan) => {
                let SimModel::MultiTerm(mt) = self.model.as_ref() else {
                    unreachable!("multi-term plan on a multi-term model");
                };
                sweep_multiterm_block(mt, plan, &lc)
            }
            PlanKind::OwnedMultiTerm { mt, plan, .. } => sweep_multiterm_block(mt, plan, &lc),
            PlanKind::Kron { .. } | PlanKind::AdaptiveLinear { .. } | PlanKind::StepGrid(_) => {
                unreachable!("kron and grid-like kinds are dispatched before the interleave")
            }
        };
        Ok(self.finish_block(outcome))
    }

    fn output_map(&self) -> OutRef<'_> {
        match (&self.kind, self.model.as_ref()) {
            (PlanKind::OwnedMultiTerm { mt, .. }, _) => OutRef::Mt(mt),
            (PlanKind::Kron { mt: Some(mt), .. }, _) => OutRef::Mt(mt),
            (_, SimModel::Linear(sys)) => OutRef::Sys(sys),
            (_, SimModel::Fractional(f)) => OutRef::Sys(f.system()),
            (_, SimModel::MultiTerm(mt)) => OutRef::Mt(mt),
            (_, SimModel::SecondOrder(_)) => {
                unreachable!("second-order plans own their multi-term conversion")
            }
        }
    }

    fn finish_block(&self, outcome: BlockOutcome) -> Vec<OpmResult> {
        let out = self.output_map();
        let shift = matches!(self.kind, PlanKind::Linear { .. }) // z = x − x₀ sweeps only
            && self.x0.iter().any(|&v| v != 0.0);
        outcome
            .into_lane_outcomes()
            .into_iter()
            .map(|o| {
                let o = if shift { o.shifted_by(&self.x0) } else { o };
                o.uniform_result(&out, self.t_end)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Lane interleaving
// ---------------------------------------------------------------------------

/// `K` coefficient matrices interleaved for the block sweep:
/// `cols[j][ch*lanes + l]` is channel `ch`, column `j` of lane `l`.
struct LaneCoeffs {
    lanes: usize,
    m: usize,
    cols: Vec<Vec<f64>>,
}

impl LaneCoeffs {
    fn interleave(us: &[&[Vec<f64>]], p: usize, m: usize) -> Self {
        let lanes = us.len();
        let mut cols = vec![vec![0.0; p * lanes]; m];
        for (l, u) in us.iter().enumerate() {
            for (ch, row) in u.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    cols[j][ch * lanes + l] = v;
                }
            }
        }
        LaneCoeffs { lanes, m, cols }
    }
}

fn axpy(y: &mut [f64], x: &[f64], a: f64) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

// ---------------------------------------------------------------------------
// Per-kind block sweeps (the strategies, K lanes wide)
// ---------------------------------------------------------------------------

/// Linear two-term recurrence or the paper's literal alternating
/// accumulator, K lanes wide (paper §III; see [`crate::linear`] for the
/// derivation), against a **per-lane** constant forcing block
/// `c_force = A·x₀` (all zeros for zero initial conditions). Serves
/// both whole-horizon solves (x₀ replicated across the lanes) and
/// windowed solves (each lane restarts from its own carried
/// end-of-window state) — one body, so the two paths cannot diverge.
fn sweep_linear_block(
    sys: &DescriptorSystem,
    lu: &SparseLu,
    sigma: f64,
    c_force: &[f64],
    accumulator: bool,
    lc: &LaneCoeffs,
) -> BlockOutcome {
    let n = sys.order();
    let k = lc.lanes;
    if accumulator {
        let mut g = vec![0.0; n * k];
        return BlockColumnSweep::new(n, lc.m, k).run(lu, |j, history, rhs, work| {
            // g_j = −(g_{j−1} + z_{j−1}), folded in lazily.
            if j > 0 {
                for (gi, zi) in g.iter_mut().zip(&history[j - 1]) {
                    *gi = -(*gi + zi);
                }
            }
            apply_b_block(sys.b(), &lc.cols[j], k, 1.0, rhs);
            axpy(rhs, c_force, 1.0);
            if j > 0 {
                sys.e().mul_block_into(&g, work, k);
                axpy(rhs, work, -2.0 * sigma);
            }
        });
    }
    BlockColumnSweep::new(n, lc.m, k).run(lu, |j, history, rhs, work| {
        if j == 0 {
            // Column 0: (σE − A)·z₀ = B·u₀ + c.
            apply_b_block(sys.b(), &lc.cols[0], k, 1.0, rhs);
            axpy(rhs, c_force, 1.0);
        } else {
            // (σE − A)·z_j = (σE + A)·z_{j−1} + B(u_j + u_{j−1}) + 2c.
            let z_prev = &history[j - 1];
            sys.e().mul_block_into(z_prev, work, k);
            axpy(rhs, work, sigma);
            sys.a().mul_block_into(z_prev, work, k);
            axpy(rhs, work, 1.0);
            apply_b_block(sys.b(), &lc.cols[j], k, 1.0, rhs);
            apply_b_block(sys.b(), &lc.cols[j - 1], k, 1.0, rhs);
            axpy(rhs, c_force, 2.0);
        }
    })
}

/// Fractional nilpotent-series convolution, K lanes wide (paper §IV),
/// with an optional carried history tail: the memory term of column `j`
/// splits into the window-local part `Σ_{t=1}^{j} ρ_t·x_{j−t}` plus the
/// carried part `Σ_{d} ρ_{j+d}·tail[end−d]` over previous windows'
/// retained columns (empty `tail` ⇒ the whole-horizon solve, so the two
/// paths share one body and cannot diverge).
fn sweep_fractional_block(
    sys: &DescriptorSystem,
    lu: &SparseLu,
    rho: &[f64],
    lc: &LaneCoeffs,
    tail: &[Vec<f64>],
) -> BlockOutcome {
    let n = sys.order();
    let k = lc.lanes;
    let mut conv = vec![0.0; n * k];
    BlockColumnSweep::new(n, lc.m, k).run(lu, |j, history, rhs, work| {
        // conv = Σ_{t=1}^{j} ρ_t·x_{j−t} + carried history
        conv.iter_mut().for_each(|v| *v = 0.0);
        for t in 1..=j {
            let r = rho[t];
            if r != 0.0 {
                axpy(&mut conv, &history[j - t], r);
            }
        }
        history_convolution_into(rho, j, tail, &mut conv);
        sys.e().mul_block_into(&conv, work, k);
        apply_b_block(sys.b(), &lc.cols[j], k, 1.0, rhs);
        axpy(rhs, work, -1.0);
    })
}

/// One window of a windowed second-order solve, K lanes wide: the
/// integer multi-term recurrence seeded with the trailing `seed`
/// columns of the previous window (`lc` holds the matching stimulus
/// columns first), so the restart is column-for-column the unbroken
/// sweep.
fn sweep_mt_recurrence_window(
    mt: &MultiTermSystem,
    lu: &SparseLu,
    polys: &[Vec<f64>],
    bw: &[f64],
    lc: &LaneCoeffs,
    seed: Vec<Vec<f64>>,
) -> BlockOutcome {
    let n = mt.order();
    let k = lc.lanes;
    let m_solve = lc.m - seed.len();
    let mut acc = vec![0.0; n * k];
    let mut sweep = BlockColumnSweep::new(n, m_solve, k);
    sweep.seed_history(seed);
    sweep.run(lu, |j, history, rhs, work| {
        for (i, &w) in bw.iter().enumerate() {
            if i <= j {
                apply_b_block(mt.b(), &lc.cols[j - i], k, w, rhs);
            }
        }
        for (term, p) in mt.terms().iter().zip(polys) {
            acc.iter_mut().for_each(|v| *v = 0.0);
            let mut any = false;
            for (i, &pi) in p.iter().enumerate().skip(1) {
                if pi != 0.0 && i <= j {
                    any = true;
                    axpy(&mut acc, &history[j - i], pi);
                }
            }
            if any {
                term.matrix.mul_block_into(&acc, work, k);
                axpy(rhs, work, -1.0);
            }
        }
    })
}

/// Multi-term sweep (finite recurrence or per-term convolution), K lanes
/// wide.
fn sweep_multiterm_block(mt: &MultiTermSystem, plan: &MtPlan, lc: &LaneCoeffs) -> BlockOutcome {
    let n = mt.order();
    let k = lc.lanes;
    let mut acc = vec![0.0; n * k];
    match &plan.path {
        MtPath::Recurrence { polys, bw } => {
            BlockColumnSweep::new(n, lc.m, k).run(&plan.lu, |j, history, rhs, work| {
                for (i, &w) in bw.iter().enumerate() {
                    if i <= j {
                        apply_b_block(mt.b(), &lc.cols[j - i], k, w, rhs);
                    }
                }
                for (term, p) in mt.terms().iter().zip(polys) {
                    acc.iter_mut().for_each(|v| *v = 0.0);
                    let mut any = false;
                    for (i, &pi) in p.iter().enumerate().skip(1) {
                        if pi != 0.0 && i <= j {
                            any = true;
                            axpy(&mut acc, &history[j - i], pi);
                        }
                    }
                    if any {
                        term.matrix.mul_block_into(&acc, work, k);
                        axpy(rhs, work, -1.0);
                    }
                }
            })
        }
        MtPath::Convolution { series } => sweep_mt_convolution_block(mt, &plan.lu, series, lc, &[]),
    }
}

/// Multi-term nilpotent-series convolution, K lanes wide, with an
/// optional carried history tail per term (the windowed restart; empty
/// `tail` ⇒ the whole-horizon solve).
fn sweep_mt_convolution_block(
    mt: &MultiTermSystem,
    lu: &SparseLu,
    series: &[Vec<f64>],
    lc: &LaneCoeffs,
    tail: &[Vec<f64>],
) -> BlockOutcome {
    let n = mt.order();
    let k = lc.lanes;
    let mut acc = vec![0.0; n * k];
    BlockColumnSweep::new(n, lc.m, k).run(lu, |j, history, rhs, work| {
        apply_b_block(mt.b(), &lc.cols[j], k, 1.0, rhs);
        for (term, rho) in mt.terms().iter().zip(series) {
            if term.alpha == 0.0 {
                continue; // ρ = e₀: no history contribution
            }
            acc.iter_mut().for_each(|v| *v = 0.0);
            for t in 1..=j {
                let r = rho[t];
                if r != 0.0 {
                    axpy(&mut acc, &history[j - t], r);
                }
            }
            history_convolution_into(rho, j, tail, &mut acc);
            term.matrix.mul_block_into(&acc, work, k);
            axpy(rhs, work, -1.0);
        }
    })
}

// ---------------------------------------------------------------------------
// Multi-term plan-time precomputation
// ---------------------------------------------------------------------------

fn mt_all_integer(mt: &MultiTermSystem) -> bool {
    mt.terms()
        .iter()
        .all(|t| t.alpha.fract() == 0.0 && t.alpha <= 16.0)
}

/// The fractional plan kind: pencil family + factored `ρ₀·E − A` + the
/// nilpotent-series weights at the plan's own resolution.
fn fractional_plan_kind(
    fsys: &FractionalSystem,
    m: usize,
    t_end: f64,
) -> Result<PlanKind, OpmError> {
    let sys = fsys.system();
    let basis = BpfBasis::new(m, t_end);
    let rho = basis.frac_diff_coeffs(fsys.alpha());
    let (family, lu) = PencilFamily::new(sys.e(), sys.a(), rho[0])?;
    Ok(PlanKind::Fractional { rho, lu, family })
}

/// The linear plan kind: pencil family + factored `σ·E − A`.
fn linear_plan_kind(
    sys: &DescriptorSystem,
    m: usize,
    t_end: f64,
    accumulator: bool,
) -> Result<PlanKind, OpmError> {
    let sigma = 2.0 * m as f64 / t_end;
    let (family, lu) = PencilFamily::new(sys.e(), sys.a(), sigma)?;
    Ok(PlanKind::Linear {
        sigma,
        lu,
        accumulator,
        family,
    })
}

/// Per-term finite recurrence polynomials `p^{(k)}` of degree `K` and
/// the RHS binomial weights `(1+q)^K` for step width `h` — the symbol
/// data of the integer-order recurrence path, which depends on the grid
/// only through `h` (so windowed solving re-derives it per window
/// width).
fn mt_recurrence_data(mt: &MultiTermSystem, h: f64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let kmax = mt.max_order() as usize;
    let mut polys: Vec<Vec<f64>> = Vec::with_capacity(mt.terms().len());
    for term in mt.terms() {
        let ak = term.alpha as usize;
        let scale = (2.0 / h).powi(ak as i32);
        // (1−q)^{ak}: alternating binomials; (1+q)^{K−ak}: binomials.
        let minus: Vec<f64> = binomial_series(ak as f64, ak + 1)
            .into_iter()
            .enumerate()
            .map(|(i, c)| if i % 2 == 0 { c } else { -c })
            .collect();
        let plus = binomial_series((kmax - ak) as f64, kmax - ak + 1);
        let mut p = vec![0.0; kmax + 1];
        for (i, &a) in minus.iter().enumerate() {
            for (j2, &b) in plus.iter().enumerate() {
                p[i + j2] += scale * a * b;
            }
        }
        polys.push(p);
    }
    let bw = binomial_series(kmax as f64, kmax + 1);
    (polys, bw)
}

/// Precomputes the multi-term pencil + per-term symbol data and factors
/// once (recording the symbolic analysis for window refactorization).
fn mt_plan(
    mt: &MultiTermSystem,
    m: usize,
    t_end: f64,
    select: &MtSelect,
) -> Result<MtPlan, OpmError> {
    let h = t_end / m as f64;
    let recurrence = match select {
        MtSelect::Auto => mt_all_integer(mt),
        MtSelect::Recurrence => {
            for t in mt.terms() {
                if t.alpha.fract() != 0.0 {
                    return Err(OpmError::BadArguments(format!(
                        "non-integer order {} in recurrence path",
                        t.alpha
                    )));
                }
            }
            true
        }
        MtSelect::Convolution => false,
    };
    if recurrence {
        let (polys, bw) = mt_recurrence_data(mt, h);
        let pencil = crate::engine::weighted_pencil(mt.terms(), |k| polys[k][0])?;
        let (analysis, lu) = PencilAnalysis::of_pencil(&pencil)?;
        Ok(MtPlan {
            lu,
            analysis,
            path: MtPath::Recurrence { polys, bw },
        })
    } else {
        // ρ^{(k)} series for every term (α = 0 ⇒ [1, 0, 0, …]).
        let series: Vec<Vec<f64>> = mt
            .terms()
            .iter()
            .map(|term| {
                let scale = (2.0 / h).powf(term.alpha);
                tustin_frac_coeffs(term.alpha, m)
                    .into_iter()
                    .map(|c| scale * c)
                    .collect()
            })
            .collect();
        let pencil = crate::engine::weighted_pencil(mt.terms(), |k| series[k][0])?;
        let (analysis, lu) = PencilAnalysis::of_pencil(&pencil)?;
        Ok(MtPlan {
            lu,
            analysis,
            path: MtPath::Convolution { series },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Problem, SolveOptions};
    use opm_sparse::{CooMatrix, CsrMatrix};
    use opm_waveform::Waveform;

    fn scalar(a: f64) -> DescriptorSystem {
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, a);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        DescriptorSystem::new(CsrMatrix::identity(1), am.to_csr(), b.to_csr(), None).unwrap()
    }

    #[test]
    fn plan_solve_matches_problem_solve() {
        let sys = scalar(-1.0);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let opts = SolveOptions::new().resolution(64);
        let via_problem = Problem::linear(&sys)
            .waveforms(&inputs)
            .horizon(2.0)
            .solve(&opts)
            .unwrap();
        let sim = Simulation::from_system(sys).horizon(2.0);
        let plan = sim.plan(&opts).unwrap();
        let via_plan = plan.solve(&inputs).unwrap();
        for j in 0..64 {
            assert_eq!(
                via_problem.state_coeff(0, j),
                via_plan.state_coeff(0, j),
                "column {j}"
            );
        }
        assert_eq!(plan.num_factorizations(), 1);
    }

    #[test]
    fn batch_equals_loop_bitwise() {
        let sys = scalar(-2.0);
        let sim = Simulation::from_system(sys).horizon(1.5);
        let plan = sim.plan(&SolveOptions::new().resolution(48)).unwrap();
        let sets: Vec<InputSet> = (0..7)
            .map(|i| {
                InputSet::new(vec![Waveform::sine(
                    0.1 * i as f64,
                    1.0,
                    1.0 + i as f64,
                    0.0,
                    0.2,
                )])
            })
            .collect();
        let batch = plan.solve_batch(&sets).unwrap();
        for (s, b) in sets.iter().zip(&batch) {
            let single = plan.solve(s).unwrap();
            for j in 0..48 {
                assert_eq!(single.state_coeff(0, j), b.state_coeff(0, j));
            }
        }
        assert_eq!(plan.num_factorizations(), 1);
    }

    #[test]
    fn windowed_solve_honors_cancel_token() {
        let sys = scalar(-1.0);
        let sim = Simulation::from_system(sys).horizon(1.0);
        let plan = sim.plan(&SolveOptions::new().resolution(16)).unwrap();
        let u = InputSet::new(vec![Waveform::Dc(1.0)]);

        // A pre-cancelled token stops the loop at the first boundary.
        let token = CancelToken::new();
        token.cancel();
        let opts = WindowedOptions::new(8).cancel_token(token);
        let err = plan.solve_windowed_opts(&u, &opts).unwrap_err();
        assert!(matches!(err, OpmError::Cancelled(_)), "{err}");
        let mut blocks = 0;
        let err = plan
            .solve_streaming_opts(&u, &opts, |_| blocks += 1)
            .unwrap_err();
        assert!(matches!(err, OpmError::Cancelled(_)), "{err}");
        assert_eq!(blocks, 0, "no window may be emitted after cancellation");

        // The plan (and its cached window kernel) survives: the same
        // solve without a token completes and matches an untouched run.
        let ok = plan.solve_windowed(&u, 8).unwrap();
        let fresh = sim
            .plan(&SolveOptions::new().resolution(16))
            .unwrap()
            .solve_windowed(&u, 8)
            .unwrap();
        for j in 0..ok.num_intervals() {
            assert_eq!(
                ok.state_coeff(0, j).to_bits(),
                fresh.state_coeff(0, j).to_bits()
            );
        }
    }

    #[test]
    fn sweep_orders_results_by_parameter() {
        let sys = scalar(-1.0);
        let sim = Simulation::from_system(sys).horizon(1.0);
        let plan = sim.plan(&SolveOptions::new().resolution(32)).unwrap();
        let amplitudes = [1.0, 2.0, 3.0];
        let runs = plan
            .sweep(&amplitudes, |&a| InputSet::new(vec![Waveform::Dc(a)]))
            .unwrap();
        // Linearity: doubling the drive doubles the response.
        for j in 0..32 {
            assert!((runs[1].state_coeff(0, j) - 2.0 * runs[0].state_coeff(0, j)).abs() < 1e-12);
            assert!((runs[2].state_coeff(0, j) - 3.0 * runs[0].state_coeff(0, j)).abs() < 1e-12);
        }
    }

    #[test]
    fn netlist_entry_assembles_and_solves() {
        let sim = Simulation::from_netlist(
            "* RC low-pass\nV1 in 0 DC 5\nR1 in out 1k\nC1 out 0 1u\n.end",
            &["out"],
        )
        .unwrap()
        .horizon(5e-3);
        assert!(sim.inputs().is_some());
        let plan = sim.plan(&SolveOptions::new().resolution(200)).unwrap();
        let r = plan.solve(sim.inputs().unwrap()).unwrap();
        // Charged to ~5 V after 5 time constants.
        assert!((r.output_row(0)[199] - 5.0).abs() < 0.1);
    }

    #[test]
    fn netlist_entry_detects_cpe_and_goes_fractional() {
        let sim = Simulation::from_netlist(
            "V1 in 0 DC 1\nR1 in top 100\nP1 top 0 CPE 1u 0.5\n.end",
            &["top"],
        )
        .unwrap()
        .horizon(1e-6);
        assert!(matches!(sim.model(), SimModel::Fractional(_)));
        let plan = sim.plan(&SolveOptions::new().resolution(64)).unwrap();
        let r = plan.solve(sim.inputs().unwrap()).unwrap();
        assert!(r.output_row(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn netlist_entry_rejects_unknown_probe() {
        let err =
            Simulation::from_netlist("V1 in 0 DC 1\nR1 in 0 1k\n.end", &["nope"]).unwrap_err();
        assert!(matches!(err, OpmError::BadArguments(_)));
    }

    #[test]
    fn rejections_name_option_and_strategy() {
        let sys = scalar(-1.0);
        let sim = Simulation::from_system(sys).horizon(1.0);
        let err = sim
            .plan(&SolveOptions::new().step_grid(vec![0.6, 0.4]))
            .unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("step_grid") && msg.contains("linear"),
            "diagnostic must name option and strategy: {msg}"
        );
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let simf = Simulation::from_fractional(fsys).horizon(1.0);
        let err = simf
            .plan(&SolveOptions::new().adaptive(AdaptiveOpmOptions::default()))
            .unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("adaptive") && msg.contains("fractional"),
            "diagnostic must name option and strategy: {msg}"
        );
        let err = simf
            .plan(
                &SolveOptions::new()
                    .resolution(8)
                    .method(Method::Accumulator),
            )
            .unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("Accumulator") && msg.contains("fractional"),
            "diagnostic must name method and strategy: {msg}"
        );
    }

    #[test]
    fn circuit_errors_compose_with_question_mark() {
        fn pipeline() -> Result<OpmResult, OpmError> {
            let parsed = parse_netlist("V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\n.end")?;
            let model = assemble_mna(&parsed.circuit, &[])?;
            let sim = Simulation::from_system(model.system).horizon(1e-5);
            let plan = sim.plan(&SolveOptions::new().resolution(16))?;
            plan.solve(&model.inputs)
        }
        assert!(pipeline().is_ok());
        // And a failing parse surfaces as OpmError::Circuit.
        fn broken() -> Result<(), OpmError> {
            parse_netlist("Q1 what even is this")?;
            Ok(())
        }
        assert!(matches!(broken(), Err(OpmError::Circuit(_))));
    }

    #[test]
    fn second_order_plan_differentiates_waveforms() {
        use opm_circuits::grid::PowerGridSpec;
        use opm_circuits::na::assemble_na;
        let spec = PowerGridSpec {
            layers: 2,
            rows: 3,
            cols: 3,
            num_loads: 2,
            ..Default::default()
        };
        let na = assemble_na(&spec.build(), &[]).unwrap();
        let (m, t_end) = (32, 5e-9);
        // The one-shot front door runs this very plan.
        let direct = Problem::second_order(&na.system)
            .waveforms(&na.inputs)
            .horizon(t_end)
            .solve(&SolveOptions::new().resolution(m))
            .unwrap();
        let sim = Simulation::from_second_order(na.system).horizon(t_end);
        let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
        let via_plan = plan.solve(&na.inputs).unwrap();
        for j in 0..m {
            for i in 0..via_plan.order() {
                assert_eq!(direct.state_coeff(i, j), via_plan.state_coeff(i, j));
            }
        }
        // Coefficients are rejected: the plan must differentiate.
        assert!(plan.solve_coeffs(&vec![vec![0.0; m]; 2]).is_err());
    }

    #[test]
    fn adaptive_plan_shares_the_step_lattice_cache() {
        let sys = scalar(-5.0);
        let sim = Simulation::from_system(sys).horizon(2.0);
        let plan = sim
            .plan(&SolveOptions::new().adaptive(AdaptiveOpmOptions {
                tol: 1e-6,
                h0: 1.0 / 64.0,
                ..Default::default()
            }))
            .unwrap();
        let a = plan.solve(&InputSet::new(vec![Waveform::Dc(1.0)])).unwrap();
        let first = plan.num_factorizations();
        assert!(first >= 1);
        let b = plan.solve(&InputSet::new(vec![Waveform::Dc(2.0)])).unwrap();
        // Same step lattice ⇒ the second scenario reuses every factor.
        assert_eq!(plan.num_factorizations(), first);
        assert!(a.num_solves > 0 && b.num_solves > 0);
    }

    #[test]
    fn batch_is_invariant_under_thread_count() {
        let sys = scalar(-1.5);
        let sim = Simulation::from_system(sys).horizon(2.0);
        let plan = sim.plan(&SolveOptions::new().resolution(64)).unwrap();
        let sets: Vec<InputSet> = (0..11)
            .map(|i| {
                // Lane 4 all-zero: exercises the zero-skip path, whose
                // grouping differs between chunkings.
                if i == 4 {
                    InputSet::new(vec![Waveform::Dc(0.0)])
                } else {
                    InputSet::new(vec![Waveform::sine(0.2, 1.0 + i as f64, 2.0, 0.0, 0.1)])
                }
            })
            .collect();
        let serial = plan.solve_batch_with_threads(&sets, 1).unwrap();
        for threads in [2, 3, 4, 16] {
            let par = plan.solve_batch_with_threads(&sets, threads).unwrap();
            for (s, p) in serial.iter().zip(&par) {
                for j in 0..64 {
                    assert_eq!(
                        s.state_coeff(0, j),
                        p.state_coeff(0, j),
                        "threads={threads}, column {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn symbolic_numeric_split_is_observable() {
        // Uniform plan: one symbolic analysis, nothing numeric.
        let sim = Simulation::from_system(scalar(-1.0)).horizon(1.0);
        let plan = sim.plan(&SolveOptions::new().resolution(16)).unwrap();
        assert_eq!((plan.num_symbolic(), plan.num_numeric()), (1, 0));
        assert_eq!(plan.num_factorizations(), 1);

        // Step grid: 12 pencils = 1 analysis + 11 refactorizations.
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let steps = crate::adaptive::geometric_grid(1.0, 12, 1.2);
        let simf = Simulation::from_fractional(fsys).horizon(1.0);
        let planf = simf.plan(&SolveOptions::new().step_grid(steps)).unwrap();
        assert_eq!((planf.num_symbolic(), planf.num_numeric()), (1, 11));
        assert_eq!(planf.num_factorizations(), 12);

        // Adaptive lattice: the cache readout counts hits across
        // scenarios, and only the first miss is symbolic.
        let sima = Simulation::from_system(scalar(-4.0)).horizon(2.0);
        let plana = sima
            .plan(&SolveOptions::new().adaptive(AdaptiveOpmOptions {
                tol: 1e-6,
                h0: 1.0 / 64.0,
                ..Default::default()
            }))
            .unwrap();
        plana
            .solve(&InputSet::new(vec![Waveform::Dc(1.0)]))
            .unwrap();
        let p1 = plana.factor_profile();
        assert_eq!(p1.num_symbolic, 1, "first lattice exponent analyzes");
        assert_eq!(p1.num_numeric, p1.cache_misses - 1, "the rest refactor");
        plana
            .solve(&InputSet::new(vec![Waveform::Dc(2.0)]))
            .unwrap();
        let p2 = plana.factor_profile();
        assert_eq!(
            p2.num_factorizations(),
            p1.num_factorizations(),
            "second scenario re-factors nothing"
        );
        assert!(p2.cache_hits > p1.cache_hits);
    }

    #[test]
    fn step_grid_plan_factors_once_per_column_total() {
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let steps = crate::adaptive::geometric_grid(1.0, 12, 1.2);
        let sim = Simulation::from_fractional(fsys).horizon(1.0);
        let plan = sim.plan(&SolveOptions::new().step_grid(steps)).unwrap();
        assert_eq!(plan.num_factorizations(), 12);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let r1 = plan.solve(&inputs).unwrap();
        let r2 = plan
            .solve(&InputSet::new(vec![Waveform::step(0.1, 2.0)]))
            .unwrap();
        // Solving more scenarios does not factor again.
        assert_eq!(plan.num_factorizations(), 12);
        assert_eq!(r1.num_intervals(), 12);
        assert_eq!(r2.num_intervals(), 12);
    }

    #[test]
    fn windowed_carries_nonzero_initial_state() {
        // ẋ = −x, x(0) = 3: pure decay, windowed restart must carry x0.
        let sys = scalar(-1.0);
        let sim = Simulation::from_system(sys)
            .horizon(2.0)
            .initial_state(vec![3.0]);
        let inputs = InputSet::new(vec![Waveform::Dc(0.0)]);
        let plan = sim.plan(&SolveOptions::new().resolution(16)).unwrap();
        let windowed = plan.solve_windowed(&inputs, 8).unwrap();
        let whole = sim
            .plan(&SolveOptions::new().resolution(128))
            .unwrap()
            .solve(&inputs)
            .unwrap();
        for j in 0..128 {
            assert!((windowed.state_coeff(0, j) - whole.state_coeff(0, j)).abs() <= 1e-9);
        }
        let t = windowed.midpoints()[127];
        assert!((windowed.state_coeff(0, 127) - 3.0 * (-t).exp()).abs() < 1e-3);
    }

    #[test]
    fn windowed_accumulator_matches_recurrence() {
        let sys = scalar(-2.0);
        let sim = Simulation::from_system(sys).horizon(1.5);
        let inputs = InputSet::new(vec![Waveform::step(0.4, 1.0)]);
        let rec = sim
            .plan(&SolveOptions::new().resolution(24))
            .unwrap()
            .solve_windowed(&inputs, 6)
            .unwrap();
        let acc = sim
            .plan(
                &SolveOptions::new()
                    .resolution(24)
                    .method(Method::Accumulator),
            )
            .unwrap()
            .solve_windowed(&inputs, 6)
            .unwrap();
        for j in 0..rec.num_intervals() {
            assert!((rec.state_coeff(0, j) - acc.state_coeff(0, j)).abs() < 1e-10);
        }
    }

    #[test]
    fn windowed_rejections_name_strategy_and_reason() {
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        // Adaptive plans pace themselves.
        let sima = Simulation::from_system(scalar(-1.0)).horizon(1.0);
        let plana = sima
            .plan(&SolveOptions::new().adaptive(AdaptiveOpmOptions::default()))
            .unwrap();
        let msg = format!("{}", plana.solve_windowed(&inputs, 2).unwrap_err());
        assert!(msg.contains("adaptive"), "{msg}");
        // The dense Kronecker oracle is whole-horizon by construction.
        let simk = Simulation::from_system(scalar(-1.0)).horizon(1.0);
        let plank = simk
            .plan(&SolveOptions::new().resolution(8).method(Method::Kronecker))
            .unwrap();
        let msg = format!("{}", plank.solve_windowed(&inputs, 2).unwrap_err());
        assert!(msg.contains("Kronecker"), "{msg}");
        // Step-grid plans resolve the horizon on their explicit grid.
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let simg = Simulation::from_fractional(fsys).horizon(1.0);
        let plang = simg
            .plan(&SolveOptions::new().step_grid(crate::adaptive::geometric_grid(1.0, 8, 1.2)))
            .unwrap();
        let msg = format!("{}", plang.solve_windowed(&inputs, 2).unwrap_err());
        assert!(msg.contains("step-grid"), "{msg}");
        // Zero windows is a plain argument error.
        let plan = sima.plan(&SolveOptions::new().resolution(8)).unwrap();
        assert!(plan.solve_windowed(&inputs, 0).is_err());
    }

    #[test]
    fn fractional_windowed_matches_whole_horizon() {
        // d^½x = −x + u over 8 windows × 16 columns vs one 128-column
        // whole-horizon plan: with full history the restarted
        // convolution is the unbroken one, column for column.
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let sim = Simulation::from_fractional(fsys).horizon(2.0);
        let inputs = InputSet::new(vec![Waveform::step(0.3, 1.0)]);
        let (m, windows) = (16, 8);
        let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
        let windowed = plan.solve_windowed(&inputs, windows).unwrap();
        let whole = sim
            .plan(&SolveOptions::new().resolution(m * windows))
            .unwrap()
            .solve(&inputs)
            .unwrap();
        for j in 0..m * windows {
            assert!(
                (windowed.state_coeff(0, j) - whole.state_coeff(0, j)).abs() <= 1e-12,
                "column {j}"
            );
        }
        // 1 symbolic (the plan's own pencil) + 1 numeric (the window
        // pencil, refactored through the plan's pencil family).
        let p = plan.factor_profile();
        assert_eq!((p.num_symbolic, p.num_numeric), (1, 1));
        assert_eq!(p.num_windows, windows);
    }

    #[test]
    fn fractional_short_memory_truncation_is_ordered() {
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let sim = Simulation::from_fractional(fsys).horizon(4.0);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let (m, windows) = (16, 8);
        let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
        let full = plan.solve_windowed(&inputs, windows).unwrap();
        let err_at = |cap: usize| {
            let opts = WindowedOptions::new(windows).history_len(cap);
            let r = plan.solve_windowed_opts(&inputs, &opts).unwrap();
            (0..m * windows)
                .map(|j| (r.state_coeff(0, j) - full.state_coeff(0, j)).abs())
                .fold(0.0f64, f64::max)
        };
        let coarse = err_at(m);
        let fine = err_at(4 * m);
        assert!(coarse > 0.0, "truncation must actually bite");
        assert!(
            fine < coarse,
            "longer memory must be more accurate: {fine:.3e} !< {coarse:.3e}"
        );
        // A tail covering the horizon IS the full solve, bit for bit.
        let opts = WindowedOptions::new(windows).history_len(m * windows);
        let covered = plan.solve_windowed_opts(&inputs, &opts).unwrap();
        assert_eq!(covered.columns, full.columns);
    }

    #[test]
    fn multiterm_windowed_matches_whole_horizon() {
        // A fractional mixture: A₀x + A_½ d^½x + A₁ dx = Bu takes the
        // convolution path; the windowed restart must reproduce it.
        use opm_system::Term;
        let mk = |v: f64| {
            let mut c = CooMatrix::new(1, 1);
            c.push(0, 0, v);
            c.to_csr()
        };
        let terms = vec![
            Term {
                alpha: 0.0,
                matrix: mk(1.0),
            },
            Term {
                alpha: 0.5,
                matrix: mk(0.5),
            },
            Term {
                alpha: 1.0,
                matrix: mk(1.0),
            },
        ];
        let mt = MultiTermSystem::new(terms, mk(1.0), None).unwrap();
        let sim = Simulation::from_multiterm(mt).horizon(1.5);
        let inputs = InputSet::new(vec![Waveform::sine(0.2, 1.0, 2.0, 0.0, 0.1)]);
        let (m, windows) = (16, 4);
        let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
        let windowed = plan.solve_windowed(&inputs, windows).unwrap();
        let whole = sim
            .plan(&SolveOptions::new().resolution(m * windows))
            .unwrap()
            .solve(&inputs)
            .unwrap();
        for j in 0..m * windows {
            assert!(
                (windowed.state_coeff(0, j) - whole.state_coeff(0, j)).abs() <= 1e-10,
                "column {j}: {} vs {}",
                windowed.state_coeff(0, j),
                whole.state_coeff(0, j)
            );
        }
        let p = plan.factor_profile();
        assert_eq!((p.num_symbolic, p.num_numeric), (1, 1));
    }

    #[test]
    fn integer_multiterm_windowed_takes_the_recurrence_path() {
        // x + 2ẋ = u as a plain multi-term model: integer orders run the
        // seeded finite recurrence across windows.
        let mt = MultiTermSystem::from_descriptor(&scalar(-0.5));
        let sim = Simulation::from_multiterm(mt).horizon(2.0);
        let inputs = InputSet::new(vec![Waveform::step(0.5, 1.0)]);
        let (m, windows) = (16, 4);
        let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
        let windowed = plan.solve_windowed(&inputs, windows).unwrap();
        let whole = sim
            .plan(&SolveOptions::new().resolution(m * windows))
            .unwrap()
            .solve(&inputs)
            .unwrap();
        for j in 0..m * windows {
            assert!(
                (windowed.state_coeff(0, j) - whole.state_coeff(0, j)).abs() <= 1e-10,
                "column {j}"
            );
        }
    }

    #[test]
    fn window_kernel_retention_is_bounded() {
        let sim = Simulation::from_fractional(FractionalSystem::new(0.5, scalar(-1.0)).unwrap())
            .horizon(2.0);
        let plan = sim.plan(&SolveOptions::new().resolution(4)).unwrap();
        let inputs = InputSet::new(vec![Waveform::step(0.3, 1.0)]);
        let first = plan.solve_windowed(&inputs, 1).unwrap();
        for windows in 1..=20 {
            plan.solve_windowed(&inputs, windows).unwrap();
            assert!(plan.kernels.len() <= WINDOW_KERNELS_RETAINED);
        }
        // The least recently used kernels — W = 1 among them — are gone.
        let retained: Vec<usize> = plan.kernels.values().into_iter().map(|(w, _)| w).collect();
        assert_eq!(retained.len(), WINDOW_KERNELS_RETAINED);
        assert!(!retained.contains(&1), "{retained:?}");
        // An evicted W refactors and solves bit-identically.
        let again = plan.solve_windowed(&inputs, 1).unwrap();
        let bits = |r: &OpmResult| -> Vec<u64> {
            r.columns.iter().flatten().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&again), bits(&first));
        // One numeric refactorization per kernel build: W = 1..=20, plus
        // the rebuild of W = 1.
        assert_eq!((plan.num_symbolic(), plan.num_numeric()), (1, 21));
    }

    #[test]
    fn streaming_keeps_only_one_window_resident() {
        let sys = scalar(-1.0);
        let sim = Simulation::from_system(sys).horizon(16.0);
        let plan = sim.plan(&SolveOptions::new().resolution(8)).unwrap();
        let inputs = InputSet::new(vec![Waveform::Dc(2.0)]);
        let mut seen = 0usize;
        let end = plan
            .solve_streaming(&inputs, 32, |block| {
                assert_eq!(block.result.num_intervals(), 8);
                assert_eq!(block.end_state.len(), 1);
                seen += 1;
            })
            .unwrap();
        assert_eq!(seen, 32);
        // 16 time constants out, the state sits at the DC gain.
        assert!((end[0] - 2.0).abs() < 1e-2);
        assert_eq!(plan.factor_profile().num_windows, 32);
    }

    #[test]
    fn kron_plan_caches_the_dense_factorization() {
        let sys = scalar(-1.3);
        let sim = Simulation::from_system(sys).horizon(1.0);
        let plan = sim
            .plan(&SolveOptions::new().resolution(16).method(Method::Kronecker))
            .unwrap();
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let oracle = plan.solve(&inputs).unwrap();
        let fast = sim
            .plan(&SolveOptions::new().resolution(16))
            .unwrap()
            .solve(&inputs)
            .unwrap();
        for j in 0..16 {
            assert!((oracle.state_coeff(0, j) - fast.state_coeff(0, j)).abs() < 1e-10);
        }
        assert_eq!(plan.num_factorizations(), 1);
    }
}
