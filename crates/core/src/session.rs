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
//! - [`SimPlan::solve_batch`] — K stimuli (a parameter study maps each
//!   parameter to its stimulus) swept through the factorization in a
//!   **single pass**: the engine's `BlockColumnSweep` interleaves the
//!   scenarios so every sparse traversal (pencil solve, `E`/`A`
//!   products, `B` application) is amortized K-fold;
//! - [`SimPlan::solve_windowed`] / [`SimPlan::solve_windowed_batch_opts`]
//!   / [`SimPlan::solve_streaming`] — long horizons as `W` windows
//!   through one window factorization;
//! - [`SimPlan::solve_newton_windowed`] — one windowed lane with Newton
//!   options;
//! - [`SimPlan::solve_coeffs`] — a precomputed BPF coefficient stimulus.
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
//! let levels: Vec<InputSet> = [1.0, 2.0, 5.0]
//!     .iter()
//!     .map(|&v| InputSet::new(vec![Waveform::Dc(v)]))
//!     .collect();
//! let runs = plan.solve_batch(&levels).unwrap();
//! assert_eq!(plan.factor_profile().num_factorizations(), 1);
//! assert!(runs[2].output_row(0)[255] > runs[0].output_row(0)[255]);
//! ```
//!
//! A windowed solve at `W = 1` is the whole horizon on every plan kind,
//! bit for bit [`SimPlan::solve`]. Every uniform-grid solve — whole-horizon,
//! windowed, streaming and Newton — runs one window loop: the whole
//! horizon is its one-window case, swept against the plan's window
//! kernel. Its linear arm solves each column by a block solve, or — on
//! a plan carrying nonlinear devices (diodes, MOSFETs), which every
//! entry point serves — by Newton iteration over the same
//! recurrence (the `newton` module), one lane per sweep. Adaptive and
//! step-grid plans run their own whole-horizon solve at `W = 1` and
//! reject `W > 1`.
//!
//! A uniform plan sweeps one of three column recurrences, picked from
//! the model alone: the linear endpoint recurrence (linear models), the
//! integer multi-term finite recurrence (integer-order multi-term and
//! second-order models), or the nilpotent-series convolution (fractional
//! models and fractional mixtures). The linear recurrence has one form
//! in every linear sweep — uniform, windowed, adaptive and Newton: the
//! endpoint recurrence of [`crate::linear`], where a window starts from
//! the endpoint the previous one ended on and a nonzero `x₀` is the
//! first endpoint. No option selects another path; the
//! paper's reference forms are oracles for the tests, in `opm-oracle`
//! (the Kronecker vec form and the literal accumulator). A
//! fractional model sweeps as its two-term conversion
//! `[(α, E), (0, −A)]`, exactly like a fractional-mixture multi-term
//! model. Every pencil a plan factors — a window count, an adaptive
//! lattice step, a step-grid column, a Newton iterate — is one weight
//! vector of the plan's [`PencilFamily`], and every plan kind built
//! through a [`crate::PlanCache`] records that family's analysis
//! through the cache's pattern tier.

use crate::adaptive::{self, AdaptiveOpmOptions, StepGridFactors, StepLattice};
use crate::cache::PatternCache;
use crate::cancel::CancelToken;
use crate::engine::{
    apply_b_block, deinterleave, validate_coeff_inputs, validate_horizon, validate_x0,
    BlockColumnSweep, Endpoint, PencilFamily, SolveOptions, SWEEP_BLOCK,
};
use crate::gate::GateCache;
use crate::metrics::FactorProfile;
use crate::newton::NewtonSweep;
use crate::result::{uniform_bounds, OpmResult};
use crate::sync::StdSync;
use crate::OpmError;
use opm_basis::adaptive::AdaptiveBpf;
use opm_basis::bpf::BpfBasis;
use opm_basis::traits::Basis;
use opm_circuits::mna::{
    assemble_fractional_mna, assemble_mna, assemble_nonlinear_mna, Output, Unknown,
};
use opm_circuits::netlist::{Circuit, Element};
use opm_circuits::nonlinear::DeviceModel;
use opm_circuits::parser::parse_netlist;
use opm_fracnum::binomial::binomial_series;
use opm_fracnum::history::{history_convolution_into, HistorySquares};
use opm_sparse::{CsrMatrix, SparseLu};
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

    /// The output selector `C` every result of the model projects
    /// through (`None`: the outputs are the state).
    pub(crate) fn c(&self) -> Option<&CsrMatrix> {
        match self {
            SimModel::Linear(s) => s.c(),
            SimModel::Fractional(f) => f.system().c(),
            SimModel::MultiTerm(mt) => mt.c(),
            SimModel::SecondOrder(so) => so.c(),
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
    /// or MOSFETs); plans built from this session solve each column by
    /// Newton iteration.
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

    /// Whether plans built from this session carry nonlinear devices,
    /// whose columns every solve entry point solves by Newton iteration.
    pub fn has_nonlinear(&self) -> bool {
        !self.devices.is_empty()
    }

    /// Validates the session against `opts` and performs every
    /// stimulus-independent step once: shape checks, pencil assembly, AMD
    /// ordering, sparse LU factorization, fractional series, recurrence
    /// polynomials. The model picks the sweep; `opts` sets only the grid.
    /// The returned [`SimPlan`] replays scenarios against the cached
    /// factorization.
    ///
    /// The plan `Arc`-shares the session's model: it is self-contained
    /// (`'static`), `Send + Sync`, free to outlive this session, and
    /// cacheable behind an `Arc` (see [`crate::cache::PlanCache`]).
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] for option/model mismatches (the
    /// message names both the offending option and the chosen strategy),
    /// [`OpmError::SingularPencil`] when the pencil cannot be factored.
    pub fn plan(&self, opts: &SolveOptions) -> Result<SimPlan, OpmError> {
        self.plan_in(opts, None)
    }

    /// [`Simulation::plan`], recording the plan's pencil analysis —
    /// uniform, adaptive and step-grid plans alike — through a plan
    /// cache's pattern tier when `patterns` is given
    /// ([`crate::PlanCache::plan`]); the plan is bit-identical either
    /// way.
    pub(crate) fn plan_in(
        &self,
        opts: &SolveOptions,
        patterns: Option<&PatternCache>,
    ) -> Result<SimPlan, OpmError> {
        let (model, t_end) = (&self.model, self.t_end);
        let grid_like = opts.adaptive.is_some() || opts.step_grid.is_some();
        let m = match opts.resolution {
            Some(m) => m,
            // The step controller or the grid determines the column count.
            None if grid_like => 0,
            None => {
                return Err(OpmError::BadArguments(format!(
                    "the `{}` plan needs SolveOptions::resolution: the column count is \
                     fixed when the pencil is factored",
                    model.strategy_name()
                )))
            }
        };
        validate_options(model, t_end, opts)?;
        let require_linear_kind = |kind: &str| -> Result<(), OpmError> {
            if self.devices.is_empty() {
                Ok(())
            } else {
                Err(OpmError::BadArguments(format!(
                    "nonlinear devices solve through the linear-recurrence Newton path; \
                     the `{kind}` plan kind cannot restamp the pencil per iteration"
                )))
            }
        };
        let n = model.order();
        let x0 = match &self.x0 {
            Some(v) => {
                validate_x0(n, v)?;
                v.clone()
            }
            None => vec![0.0; n],
        };
        if x0.iter().any(|&v| v != 0.0) && !matches!(model.as_ref(), SimModel::Linear(_)) {
            return Err(OpmError::BadArguments(format!(
                "nonzero initial conditions are only supported for linear problems \
                 (the `{}` strategy assumes zero Caputo initial conditions)",
                model.strategy_name()
            )));
        }

        let plan = |m: usize, kind: PlanKind| SimPlan {
            model: Arc::clone(model),
            t_end,
            m,
            x0: x0.clone(),
            kind,
            devices: Arc::new(self.devices.clone()),
            windows_solved: AtomicUsize::new(0),
        };
        if let Some(aopts) = opts.adaptive {
            require_linear_kind("adaptive")?;
            let SimModel::Linear(sys) = model.as_ref() else {
                unreachable!("validate_options admits `adaptive` only on linear models");
            };
            let lattice = Box::new(StepLattice::new(sys, t_end, &aopts, patterns)?);
            return Ok(plan(0, PlanKind::AdaptiveLinear { aopts, lattice }));
        }
        if let Some(steps) = &opts.step_grid {
            require_linear_kind("step-grid")?;
            let SimModel::Fractional(fsys) = model.as_ref() else {
                unreachable!("validate_options admits `step_grid` only on fractional models");
            };
            let grid = AdaptiveBpf::new(steps.clone());
            let factors = adaptive::prepare_step_grid(fsys, &grid, patterns)?;
            let m = grid.dim();
            return Ok(plan(m, PlanKind::StepGrid(StepGridPlan { grid, factors })));
        }

        if m == 0 {
            return Err(OpmError::BadArguments("zero intervals".into()));
        }
        validate_horizon(t_end)?;
        if !matches!(model.as_ref(), SimModel::Linear(_)) {
            require_linear_kind(model.strategy_name())?;
        }
        let nonlinear = !self.devices.is_empty();
        let uniform = |sweep: Sweep, mt: Option<MultiTermSystem>| {
            let plan = UniformPlan::prepare(model, sweep, mt, (m, t_end), patterns, nonlinear);
            plan.map(PlanKind::Uniform)
        };

        let kind = match model.as_ref() {
            SimModel::Linear(_) => uniform(Sweep::Linear, None)?,
            // `E·d^α x = A x + B u` is the two-term system
            // `[(α, E), (0, −A)]`: one convolution sweep serves both.
            SimModel::Fractional(fsys) => uniform(
                Sweep::Convolution,
                Some(MultiTermSystem::from_fractional(fsys)),
            )?,
            SimModel::MultiTerm(mt) => uniform(mt_sweep(mt), None)?,
            // The nodal conversion has integer orders 0, 1, 2: always the
            // finite recurrence, fed exact `u̇` averages.
            SimModel::SecondOrder(so) => uniform(
                Sweep::Recurrence {
                    differentiate: true,
                },
                Some(so.to_multiterm()),
            )?,
        };
        Ok(plan(m, kind))
    }
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
    if grid_like && opts.resolution.is_some() {
        return bad(format!(
            "option `resolution` does not combine with `{grid_opt}` on the `{strategy}` \
             strategy: the step controller or the grid determines the column count"
        ));
    }
    if let Some(steps) = &opts.step_grid {
        if let Some(i) = steps.iter().position(|h| !(h.is_finite() && *h > 0.0)) {
            return bad(format!(
                "option `step_grid` step {i} is {:e} on the `{strategy}` strategy: \
                 every step must be positive and finite",
                steps[i]
            ));
        }
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
        }
        SimModel::MultiTerm(_) => {
            if grid_like {
                return conflict(
                    grid_opt,
                    "adaptive/step-grid solving is not available for multi-term problems",
                );
            }
        }
        SimModel::SecondOrder(_) => {
            if grid_like {
                return conflict(
                    grid_opt,
                    "adaptive/step-grid solving is not available for second-order problems",
                );
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// SimPlan: validated shape + cached factorization
// ---------------------------------------------------------------------------

struct StepGridPlan {
    grid: AdaptiveBpf,
    factors: StepGridFactors,
}

enum PlanKind {
    /// A uniform-grid sweep (linear, fractional, multi-term, and the
    /// multi-term conversions a plan owns).
    Uniform(UniformPlan),
    /// On-the-fly adaptive linear stepping; the power-of-two lattice
    /// persists across every scenario solved through this plan (one
    /// symbolic analysis, numeric refactorization per new lattice
    /// exponent).
    AdaptiveLinear {
        aopts: AdaptiveOpmOptions,
        lattice: Box<StepLattice>,
    },
    /// Fractional distinct-step grid with all per-column factorizations
    /// and the `D̃^α` columns precomputed.
    StepGrid(StepGridPlan),
}

/// The column recurrence a uniform plan sweeps. Its symbol data depend
/// on the grid only through the step, so [`window_symbols`] derives
/// them for any window count — the whole horizon is one window.
#[derive(Clone, Copy)]
enum Sweep {
    /// Linear endpoint recurrence against `σ·E − A`.
    Linear,
    /// Integer multi-term finite `(1+q)^K` recurrence; `differentiate`
    /// feeds it exact `u̇` averages (second-order nodal plans).
    Recurrence { differentiate: bool },
    /// Multi-term per-term nilpotent-series convolution (fractional
    /// systems as their two-term conversion, fractional mixtures).
    Convolution,
}

/// A uniform plan: its pencil family and its window kernels.
struct UniformPlan {
    sweep: Sweep,
    /// `σ·E − A` over `(E, A)` for linear sweeps, else `Σ_k w_k·A_k`
    /// over the swept multi-term system's terms.
    pencil: Box<PencilFamily>,
    /// The multi-term conversion the plan sweeps when the model is not
    /// itself multi-term (fractional models, second-order nodal form).
    mt: Option<MultiTermSystem>,
    /// Window kernels by window count `W`, built on first use; the
    /// [`WINDOW_KERNELS_RETAINED`] most recently used are kept.
    kernels: GateCache<usize, Arc<WindowKernel>, OpmError, StdSync>,
}

/// A reusable solving session: the validated problem shape, orderings
/// and factorizations of one [`Simulation::plan`], amortized over every
/// [`solve`](SimPlan::solve) / [`solve_batch`](SimPlan::solve_batch) /
/// [`solve_windowed`](SimPlan::solve_windowed) call. The sweep it runs
/// is the model's: the linear recurrence for linear models, the finite
/// recurrence for integer-order multi-term and second-order models, the
/// convolution for fractional models and mixtures. A uniform plan's
/// factorizations are its window kernels, each built on first use.
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
/// windowed, streaming and Newton alike — never wait on each other once
/// their window kernel is built, and
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
    /// Nonlinear companion devices (empty for purely linear plans),
    /// whose columns the window loop solves by Newton iteration.
    devices: Arc<Vec<DeviceModel>>,
    /// Windows swept so far, across every windowed/streaming/Newton call
    /// (`W` per lane on a nonlinear plan, whose lanes sweep apart).
    windows_solved: AtomicUsize,
}

/// Window kernels a plan retains: one per distinct window count `W`
/// recently solved, least recently used evicted first (an evicted `W`
/// is refactored on its next use).
const WINDOW_KERNELS_RETAINED: usize = 8;

/// The per-window solving kernel: everything that depends on the window
/// width `T/W` and resolution `m`, factored **once** and reused by all
/// `W` windows and all batched scenarios. `W = 1` is the whole horizon.
struct WindowKernel {
    lu: SparseLu,
    symbols: WindowSymbols,
}

/// A window kernel's symbol data (see [`window_symbols`]).
enum WindowSymbols {
    /// The linear endpoint recurrence at `σ_w = 2·m·W/T`. The carried
    /// state is the polyline endpoint, where the next window's
    /// recurrence starts.
    Linear { sigma: f64 },
    /// Integer multi-term recurrence: the `h_w`-scaled polynomials. The
    /// carried state is the trailing `depth` solved columns (and the
    /// matching stimulus columns), which makes the restarted recurrence
    /// column-for-column identical to the unbroken sweep.
    Recurrence {
        polys: Vec<Vec<f64>>,
        bw: Vec<f64>,
        depth: usize,
    },
    /// Multi-term nilpotent-series convolution: per-term full-horizon
    /// weight vectors `ρ^{(k)}` at the window step, over all `W·m`
    /// global columns, and each fractional term's dyadic squares over
    /// [`SWEEP_BLOCK`]-column blocks of those columns (`None` for
    /// `α = 0` terms, which have no memory; see [`column_memory`]).
    Convolution {
        series: Vec<Vec<f64>>,
        squares: Vec<Option<HistorySquares>>,
    },
}

/// Windowed-solve configuration beyond the window count: a cooperative
/// [`CancelToken`].
///
/// ```
/// use opm_core::WindowedOptions;
/// let opts = WindowedOptions::new(32);
/// assert_eq!(opts.windows(), 32);
/// ```
///
/// # Fractional memory
///
/// A fractional or fractional-mixture solve computes the Caputo/GL
/// memory of its `N = W·m` columns one way, over **global** columns:
/// column `c` sums its own 64-column block's solved columns directly
/// and takes everything older from the dyadic FFT squares
/// ([`opm_fracnum::history::HistorySquares`]) of the completed blocks,
/// each square added as soon as its block is solved — `O(N log² N)`
/// per series. Windows are only output, streaming and cancel
/// boundaries: at a fixed step the memory is the same computation for
/// every `W`, so windowed and whole-horizon solves agree to the
/// roundoff of their window grids, and a whole-horizon solve costs what
/// a windowed one does.
///
/// Memory: a windowed solve keeps each solved column once, in the
/// store that becomes the result; a streaming solve of a fractional
/// plan keeps the same store (the squares read all of it). The pending
/// memory of the blocks not yet solved adds up to one store's worth
/// per fractional term: with one fractional term (every fractional
/// model) store plus pending never exceed the final store, but they
/// come close to it from about the middle block on (the square at
/// block boundary `B/2`, for a power-of-two block count `B`, fills the
/// pending memory of every later block).
#[derive(Clone, Debug)]
pub struct WindowedOptions {
    windows: usize,
    cancel: Option<CancelToken>,
}

impl WindowedOptions {
    /// Options for a `windows`-window solve.
    pub fn new(windows: usize) -> Self {
        WindowedOptions {
            windows,
            cancel: None,
        }
    }

    /// The window count `W`.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Attaches a cooperative [`CancelToken`]: the column sweep polls
    /// it at the start of every window and every 64 columns within one
    /// (every column of a step-grid plan), and aborts with
    /// [`OpmError::Cancelled`] — partial work is discarded, the plan and
    /// its cached kernels stay fully usable. This is how a server
    /// enforces per-request compute deadlines without preempting solver
    /// threads, on whole-horizon (`W = 1`) solves too.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
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

/// Newton-iteration configuration for
/// [`SimPlan::solve_newton_windowed`]. The iteration itself is fixed:
/// each column iterates at most 50 times and converges when
/// `‖F(x)‖_∞ ≤ 1e-9 + 1e-9·‖rhs‖_∞`, with the *exact* device currents
/// in `F`.
///
/// ```
/// use opm_core::{CancelToken, NewtonOptions};
/// let opts = NewtonOptions::new().cancel_token(CancelToken::new());
/// ```
#[derive(Clone, Debug, Default)]
pub struct NewtonOptions {
    pub(crate) cancel: Option<CancelToken>,
}

impl NewtonOptions {
    /// Defaults: no cancel token.
    pub fn new() -> Self {
        NewtonOptions::default()
    }

    /// Attaches a cooperative [`CancelToken`], polled every Newton
    /// iteration.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
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
            .field(
                "num_factorizations",
                &self.factor_profile().num_factorizations(),
            )
            .finish_non_exhaustive()
    }
}

/// Lanes per worker for a `lanes`-wide batch on `threads` workers.
///
/// The even share is rounded up to the panel width so chunk boundaries
/// coincide with panel boundaries: every worker then runs full
/// [`opm_linalg::panel::LANE_PANEL_WIDTH`]-wide panels except for the
/// final chunk's remainder, instead of every worker paying a ragged
/// remainder chain. The rounding is skipped when it would leave fewer
/// chunks than `min(threads, lanes)` — a small batch (8 lanes on 2
/// workers) splits evenly rather than leaving a worker idle. Chunking
/// never changes results — lanes are arithmetically independent.
fn worker_lane_chunk(lanes: usize, threads: usize) -> usize {
    let threads = threads.max(1);
    let even = lanes.div_ceil(threads);
    let panelled = even.next_multiple_of(opm_linalg::panel::LANE_PANEL_WIDTH);
    if lanes.div_ceil(panelled) < threads.min(lanes) {
        even
    } else {
        panelled
    }
}

impl SimPlan {
    // -- observability ------------------------------------------------------

    /// The full factorization-cost profile — the reuse observable: a
    /// 100-scenario batch on a uniform plan reports **1** factorization.
    /// It includes the step-lattice cache hit/miss readout for adaptive
    /// plans (both counters are 0 for plan kinds that do not run the
    /// lattice cache) and the window counters of windowed/streaming
    /// solves: a windowed linear solve over any number `W > 1` of
    /// windows reports **1 symbolic + 1 numeric** factorization — the
    /// plan's own analysis plus one numeric refactorization at the
    /// window width. `W = 1` is the whole-horizon solve and reuses the
    /// plan's own factorization. Step-grid and adaptive plans report
    /// **1** symbolic analysis no matter how many pencils they factor:
    /// every pencil after the first is a numeric-only refactorization.
    /// A plan built through a [`crate::PlanCache`] whose pattern tier
    /// replayed its analysis reports 0 symbolic + 1 more numeric.
    /// `kernel_bytes` reads the values and pivots of the factors the
    /// plan holds when asked (built window kernels, step-grid columns or
    /// lattice factors), without the pattern they share.
    pub fn factor_profile(&self) -> FactorProfile {
        let p = match &self.kind {
            PlanKind::Uniform(u) => FactorProfile {
                kernel_bytes: (u.kernels.values().iter())
                    .map(|(_, kernel)| kernel.lu.owned_bytes())
                    .sum(),
                ..u.pencil.profile()
            },
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

    /// Whether the plan carries nonlinear devices. Every entry point
    /// serves such a plan: the window loop's linear arm solves each
    /// column by Newton iteration instead of a block solve.
    pub fn has_nonlinear(&self) -> bool {
        !self.devices.is_empty()
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
    /// every thread count. For a parameter study, map each parameter to
    /// its stimulus and batch them.
    ///
    /// This is [`SimPlan::solve_windowed_batch_opts`] at `W = 1`, except
    /// that it books no window into the [`FactorProfile`].
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] on channel mismatches.
    pub fn solve_batch(&self, inputs: &[InputSet]) -> Result<Vec<OpmResult>, OpmError> {
        self.batch(inputs, &WindowedOptions::new(1), opm_par::default_threads())
    }

    /// Solves a precomputed BPF coefficient stimulus (`u[ch][j]`).
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] when the coefficient shape disagrees
    /// with the planned resolution, or the plan kind needs waveforms
    /// (second-order, adaptive, step-grid).
    pub fn solve_coeffs(&self, u: &[Vec<f64>]) -> Result<OpmResult, OpmError> {
        match &self.kind {
            PlanKind::Uniform(UniformPlan {
                sweep:
                    Sweep::Recurrence {
                        differentiate: true,
                    },
                ..
            }) => Err("second-order problems need waveform inputs (the engine \
                 differentiates them exactly)"),
            PlanKind::Uniform(_) => Ok(()),
            PlanKind::AdaptiveLinear { .. } => {
                Err("adaptive stepping needs waveform inputs (exact interval averages)")
            }
            PlanKind::StepGrid(_) => Err("step-grid solving needs waveform inputs"),
        }
        .map_err(|why| OpmError::BadArguments(why.into()))?;
        let p = self.model.num_inputs();
        let mu = validate_coeff_inputs(p, u)?;
        if mu != self.m {
            return Err(OpmError::BadArguments(format!(
                "coefficient stimulus has {mu} columns but the `{}` plan \
                 was built for resolution {}",
                self.model.strategy_name(),
                self.m
            )));
        }
        let mut out = self.drive_batch(
            &*self.window_kernel(1)?,
            &[u],
            &WindowedOptions::new(1),
            opm_par::default_threads(),
            |_, _, _, lc| {
                lc.resize(self.m);
                for (ch, row) in u.iter().enumerate() {
                    row.iter()
                        .enumerate()
                        .for_each(|(j, &v)| lc.set(j, ch, 0, v));
                }
                Ok(())
            },
        )?;
        Ok(out.pop().expect("one lane in, one result out"))
    }

    // -- windowed / streaming solving ----------------------------------------

    /// Long-horizon windowed solve: splits `[0, T)` into `windows` equal
    /// windows of width `T/W`, expands **each window** in block-pulse
    /// functions at the plan's resolution `m` (so the whole horizon gets
    /// `W·m` columns), and carries the end-of-window state into the next
    /// window as its initial condition. Because the window pencil
    /// depends only on the window width and resolution, **one**
    /// factorization — an exact numeric replay of the plan's own symbolic
    /// analysis, or a fresh factorization where the window pencil pivots
    /// differently — serves all `W` windows (and every batched
    /// scenario): [`SimPlan::factor_profile`] reports 1 symbolic + 1
    /// numeric no matter how large `W` grows. `W = 1` is exactly
    /// [`SimPlan::solve`], bit for bit, on every plan kind.
    ///
    /// On a horizon that splits evenly, the result matches a single
    /// whole-horizon plan at resolution `W·m` to roundoff (the BPF
    /// recurrence is the trapezoidal rule in disguise, and the polyline
    /// endpoint handoff is its exact restart).
    ///
    /// `W > 1` is supported on every uniform plan: linear/descriptor,
    /// second-order, fractional and multi-term. Linear and
    /// integer-recurrence plans carry *exact* finite state (polyline
    /// endpoint / trailing recurrence columns); fractional and
    /// fractional-mixture multi-term plans run one Caputo/GL memory
    /// over the global columns of all windows, so their windows are only
    /// output boundaries (see [`WindowedOptions`]). Adaptive and
    /// step-grid plans are whole-horizon by construction and reject
    /// `W > 1` with an error naming the plan kind.
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
    /// or a whole-horizon plan kind (the message names it).
    pub fn solve_windowed(&self, inputs: &InputSet, windows: usize) -> Result<OpmResult, OpmError> {
        let mut out = self.solve_windowed_batch_opts(
            std::slice::from_ref(inputs),
            &WindowedOptions::new(windows),
            opm_par::default_threads(),
        )?;
        Ok(out.pop().expect("one lane in, one result out"))
    }

    /// The batch form of [`SimPlan::solve_windowed`], with explicit
    /// [`WindowedOptions`] — in particular a cancel token — and worker
    /// count.
    /// `K` scenarios sweep through the same single window factorization,
    /// window by window, with the scenario lanes split across `threads`
    /// workers exactly like [`SimPlan::solve_batch`]: results are in
    /// input order and bit-identical to a per-scenario
    /// [`SimPlan::solve_windowed`] loop, for every thread count
    /// (`threads` only sets how lanes are distributed).
    ///
    /// Note on memory: every solved column is stored once — the memory
    /// a fractional solve reads is the column store that becomes the
    /// result, so a windowed solve holds the same columns as the
    /// whole-horizon solve.
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
    /// // 8 windows × 64 columns under one memory over all 512.
    /// let opts = WindowedOptions::new(8);
    /// let r = plan
    ///     .solve_windowed_batch_opts(std::slice::from_ref(sim.inputs().unwrap()), &opts, 1)
    ///     .unwrap();
    /// assert_eq!(r[0].num_intervals(), 512);
    /// let p = plan.factor_profile();
    /// assert_eq!((p.num_symbolic, p.num_numeric), (1, 1));
    /// ```
    ///
    /// # Errors
    /// As [`SimPlan::solve_windowed`].
    pub fn solve_windowed_batch_opts(
        &self,
        inputs: &[InputSet],
        opts: &WindowedOptions,
        threads: usize,
    ) -> Result<Vec<OpmResult>, OpmError> {
        let results = self.batch(inputs, opts, threads)?;
        // A nonlinear plan sweeps each lane on its own.
        let sweeps = match self.has_nonlinear() {
            true => results.len(),
            false => results.len().min(1),
        };
        let booked = opts.windows() * sweeps;
        self.windows_solved.fetch_add(booked, Ordering::Relaxed);
        Ok(results)
    }

    /// Streaming windowed solve: like [`SimPlan::solve_windowed`], but
    /// each window's block is handed to `sink` as soon as it is solved
    /// and then **dropped** — peak coefficient storage is `O(n·m)`, one
    /// window, independent of how many windows the horizon spans, on
    /// linear and integer-recurrence plans. A fractional or
    /// fractional-mixture plan also keeps every past column, which its
    /// one Caputo/GL memory over global columns reads (see
    /// [`WindowedOptions`]). The
    /// [`WindowBlock`]s carry global-time bounds, so concatenating their
    /// results reproduces [`SimPlan::solve_windowed`] exactly.
    /// Uniform-grid plans only: adaptive and step-grid plans have no
    /// window blocks to hand out.
    ///
    /// Returns the final state `x(T)` (the last window's
    /// [`WindowBlock::end_state`]).
    ///
    /// # Errors
    /// As [`SimPlan::solve_windowed`].
    pub fn solve_streaming(
        &self,
        inputs: &InputSet,
        opts: &WindowedOptions,
        mut sink: impl FnMut(WindowBlock),
    ) -> Result<Vec<f64>, OpmError> {
        let windows = opts.windows();
        self.check_channels(std::slice::from_ref(inputs))?;
        let kernel = self.window_kernel(windows)?;
        let lane = std::slice::from_ref(inputs);
        let mut final_state = self.x0.clone();
        let coeffs = |w, seed, lc: &mut _| self.window_coeffs(lane, opts, w, seed, lc);
        self.windowed_drive(&kernel, 1, opts, true, coeffs, |w, columns, end| {
            // One lane: the interleaved columns are plain columns.
            let bounds = (w * self.m..=(w + 1) * self.m)
                .map(|g| self.global_bound(windows, g))
                .collect();
            sink(WindowBlock {
                window: w,
                result: OpmResult::new(bounds, columns.to_vec(), self.model.c()),
                end_state: end.to_vec(),
            });
            final_state.clear();
            final_state.extend_from_slice(end);
        })?;
        self.windows_solved.fetch_add(windows, Ordering::Relaxed);
        Ok(final_state)
    }

    /// The one-lane [`SimPlan::solve_windowed_batch_opts`] with the
    /// [`NewtonOptions`] cancel token. On a plan carrying nonlinear
    /// devices, every column is solved by SPICE-style full-value Newton
    /// iteration over the endpoint recurrence
    /// `(σE − A)·x_j − f(x_j) = σE·e_j + B·u_j`, `e_{j+1} = 2x_j − e_j`,
    /// as in every entry point. `windows = 1` is the whole horizon.
    ///
    /// Cost shape: **one** symbolic analysis for the whole solve (the
    /// plan's recorded [`opm_sparse::SymbolicLu`]); every Newton
    /// iteration re-stamps the pencil values and replays the analysis as
    /// a numeric-only [`opm_sparse::SparseLu::refactor`], and the window
    /// kernel factors nothing. Only a pivot degradation falls back to a
    /// fresh pivoted factorization — both paths are counted in the plan's
    /// [`factor_profile`](SimPlan::factor_profile) (`newton_iters`,
    /// `newton_refactors`, `newton_fresh_fallbacks`).
    ///
    /// On a **linear** netlist (no devices) the full-value Newton iterate
    /// is the linear recurrence, so this is [`SimPlan::solve_windowed`]
    /// bit for bit; it books one Newton iteration per column on
    /// linear-recurrence plans into the [`FactorProfile`].
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
    /// [`NewtonOptions::cancel_token`]; otherwise as
    /// [`SimPlan::solve_windowed`].
    pub fn solve_newton_windowed(
        &self,
        inputs: &InputSet,
        windows: usize,
        opts: &NewtonOptions,
    ) -> Result<OpmResult, OpmError> {
        let mut wopts = WindowedOptions::new(windows);
        wopts.cancel.clone_from(&opts.cancel);
        // One lane runs on the calling thread whatever the worker count.
        let lane = std::slice::from_ref(inputs);
        let result = self.solve_windowed_batch_opts(lane, &wopts, 1)?.pop();
        let result = result.expect("one lane in, one result out");
        if let (false, Some(family)) = (self.has_nonlinear(), self.linear_family()) {
            // One full-value iterate per column: the linear recurrence.
            family.note_newton_iters(result.num_intervals());
        }
        Ok(result)
    }

    /// The one waveform-batch dispatch behind [`SimPlan::solve_batch`]
    /// and [`SimPlan::solve_windowed_batch_opts`]. Uniform plans run the
    /// window loop for any `W` (the whole horizon is `W = 1`, swept
    /// against the factorization the plan was built with); adaptive and
    /// step-grid plans run their whole-horizon solve at `W = 1` and
    /// reject any other window count.
    fn batch(
        &self,
        inputs: &[InputSet],
        opts: &WindowedOptions,
        threads: usize,
    ) -> Result<Vec<OpmResult>, OpmError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        self.check_channels(inputs)?;
        let windows = opts.windows();
        let whole = windows == 1;
        // Adaptive plans have no column sweep to poll the token in.
        opts.check_cancelled()?;
        match &self.kind {
            PlanKind::AdaptiveLinear { aopts, lattice } if whole => {
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
            PlanKind::StepGrid(sg) if whole => {
                let SimModel::Fractional(fsys) = self.model.as_ref() else {
                    unreachable!("step-grid plans are fractional by construction");
                };
                // Scenarios are independent sweeps over the shared
                // prefactored columns — run them on the workers.
                opm_par::par_map(threads, inputs, |ws| {
                    adaptive::sweep_step_grid(fsys, &sg.grid, &sg.factors, ws, opts.cancel.as_ref())
                })
                .into_iter()
                .collect()
            }
            // The window loop, or the named rejection of `W ≠ 1` on the
            // whole-horizon kinds.
            _ => {
                let kernel = self.window_kernel(windows)?;
                self.drive_batch(&kernel, inputs, opts, threads, |c, w, seed, lc| {
                    self.window_coeffs(c, opts, w, seed, lc)
                })
            }
        }
    }

    /// Resolves the window kernel for `windows` windows — the one
    /// factorization all windows and scenarios share — building it
    /// (`W = 1` included) on first request through the plan's
    /// single-flight kernel cache: window-step symbols plus the window
    /// pencil's fresh factor ([`PencilFamily::factor_exact`]); a
    /// nonlinear plan's kernel factors nothing, as Newton refactors at
    /// every iterate.
    fn window_kernel(&self, windows: usize) -> Result<Arc<WindowKernel>, OpmError> {
        if windows == 0 {
            return Err(OpmError::BadArguments(
                "windowed solving needs at least one window".into(),
            ));
        }
        let (strategy, why) = match &self.kind {
            PlanKind::Uniform(u) => {
                let (kernel, _) = u.kernels.get_or_build(windows, || {
                    let (symbols, weights) =
                        window_symbols(u.sweep, self.mt(), self.m, self.t_end, windows)?;
                    let lu = match self.has_nonlinear() {
                        true => SparseLu::default(),
                        false => u.pencil.factor_exact(&weights)?,
                    };
                    Ok(Arc::new(WindowKernel { lu, symbols }))
                })?;
                return Ok(kernel);
            }
            PlanKind::AdaptiveLinear { .. } => (
                "linear (adaptive plan)",
                "`adaptive` plans let the step controller pace the horizon; \
                 windowed solving applies to fixed-resolution plans",
            ),
            PlanKind::StepGrid(_) => (
                "fractional (step-grid plan)",
                "step-grid plans resolve the whole horizon on their explicit grid",
            ),
        };
        Err(OpmError::BadArguments(format!(
            "windowed solving is not available for the `{strategy}` strategy: {why}"
        )))
    }

    /// The multi-term system the plan sweeps: its owned conversion,
    /// else the model's own multi-term form (`None` for linear,
    /// adaptive and step-grid plans).
    fn mt(&self) -> Option<&MultiTermSystem> {
        let owned = match &self.kind {
            PlanKind::Uniform(u) => u.mt.as_ref(),
            _ => None,
        };
        swept_mt(owned, &self.model)
    }

    /// The `σ·E − A` family of a linear-recurrence plan — the pencil
    /// Newton iteration restamps.
    fn linear_family(&self) -> Option<&PencilFamily> {
        match &self.kind {
            PlanKind::Uniform(UniformPlan {
                sweep: Sweep::Linear,
                pencil,
                ..
            }) => Some(pencil.as_ref()),
            _ => None,
        }
    }

    /// Global-time bound `g` of the `W·m`-column grid of `windows`
    /// windows.
    fn global_bound(&self, windows: usize, g: usize) -> f64 {
        g as f64 * self.t_end / (self.m * windows) as f64
    }

    /// Projects the lanes' waveforms onto window `w` (of
    /// `opts.windows()`) into `lc`, reaching `seed` columns back for the
    /// stimulus a recurrence re-reads with its carried columns. The
    /// window grid is shifted, the waveforms are sampled at global time:
    /// `u̇` averages for second-order input, plain interval averages
    /// otherwise. This is the one projection of every uniform waveform
    /// solve — the whole horizon is `W = 1`.
    ///
    /// # Errors
    /// [`OpmError::Cancelled`] when the options' token trips; it is
    /// polled before each lane is projected.
    fn window_coeffs(
        &self,
        sets: &[InputSet],
        opts: &WindowedOptions,
        w: usize,
        seed: usize,
        lc: &mut LaneCoeffs,
    ) -> Result<(), OpmError> {
        let (windows, m) = (opts.windows(), seed + self.m);
        let width = self.t_end / windows as f64;
        let bound = |j: usize| self.global_bound(windows, w * self.m - seed + j);
        let recurrence = match &self.kind {
            PlanKind::Uniform(UniformPlan {
                sweep: Sweep::Recurrence { differentiate },
                ..
            }) => Some(*differentiate),
            _ => None,
        };
        lc.resize(m);
        for (l, set) in sets.iter().enumerate() {
            opts.check_cancelled()?;
            for (ch, wave) in set.channels().iter().enumerate() {
                for j in 0..m {
                    let v = match recurrence {
                        Some(true) => {
                            let (a, b) = (bound(j), bound(j + 1));
                            (wave.eval(b) - wave.eval(a)) / (b - a)
                        }
                        Some(false) => wave.average(bound(j), bound(j + 1)),
                        None => wave.bpf_coeff_window(self.m, w as f64 * width, width, j),
                    };
                    lc.set(j, ch, l, v);
                }
            }
        }
        Ok(())
    }

    /// Runs `lanes` through the window loop against `kernel`, split
    /// across up to `threads` workers in contiguous chunks, and assembles
    /// one whole-horizon result per lane straight from the loop's column
    /// store. `coeffs(chunk, w, seed, lc)` projects a chunk's interleaved
    /// stimulus for window `w` (see [`SimPlan::windowed_drive`]). Lanes
    /// never mix arithmetically (every kernel is elementwise across the
    /// lane dimension), so chunked parallel runs are bit-identical to the
    /// serial run. A nonlinear plan's Newton lanes run one per chunk.
    fn drive_batch<L: Sync>(
        &self,
        kernel: &WindowKernel,
        lanes: &[L],
        opts: &WindowedOptions,
        threads: usize,
        coeffs: impl Fn(&[L], usize, usize, &mut LaneCoeffs) -> Result<(), OpmError> + Sync,
    ) -> Result<Vec<OpmResult>, OpmError> {
        let run = |chunk: &[L]| -> Result<Vec<OpmResult>, OpmError> {
            let chunk_coeffs = |w, seed, lc: &mut _| coeffs(chunk, w, seed, lc);
            let store =
                self.windowed_drive(kernel, chunk.len(), opts, false, chunk_coeffs, |_, _, _| {})?;
            Ok(deinterleave(store, chunk.len())
                .into_iter()
                .map(|columns| {
                    let bounds = uniform_bounds(columns.len(), self.t_end);
                    OpmResult::new(bounds, columns, self.model.c())
                })
                .collect())
        };
        let per_worker = match self.has_nonlinear() {
            true => 1,
            false => worker_lane_chunk(lanes.len(), threads),
        };
        if per_worker >= lanes.len() {
            return run(lanes);
        }
        let chunks: Vec<&[L]> = lanes.chunks(per_worker).collect();
        let mut results = Vec::with_capacity(lanes.len());
        for res in opm_par::par_map(threads, &chunks, |chunk| run(chunk)) {
            results.extend(res?);
        }
        Ok(results)
    }

    /// The window loop: sweeps `lanes` scenarios through the configured
    /// windows against the shared kernel, keeping every solved column
    /// (global state coordinates, lane-interleaved) once, in one store.
    /// `coeffs(w, seed, lc)` projects window `w`'s interleaved stimulus
    /// into the one buffer `lc` every window reuses, preceded by the
    /// `seed` columns a recurrence re-reads. Each window reads the state
    /// it carries from the store — none for the polyline endpoint, the
    /// trailing `depth` columns for an integer recurrence, and for a
    /// convolution kernel the whole store, whose sweep continues over
    /// global columns with the pending memory of [`column_memory`]
    /// carried from window to window. `on_window` then sees the window's
    /// columns and end-of-window state block; with `trim`, the store
    /// afterwards keeps only what the kernel still reads (bounded
    /// streaming memory). Returns the store.
    ///
    /// The column sweep polls the [`WindowedOptions`] cancel token at
    /// the start of every window and every [`SWEEP_BLOCK`] columns
    /// within one (every Newton iteration on a nonlinear plan). A store
    /// the allocator refuses is [`OpmError::BadArguments`].
    fn windowed_drive(
        &self,
        kernel: &WindowKernel,
        lanes: usize,
        opts: &WindowedOptions,
        trim: bool,
        coeffs: impl Fn(usize, usize, &mut LaneCoeffs) -> Result<(), OpmError>,
        mut on_window: impl FnMut(usize, &[Vec<f64>], &[f64]),
    ) -> Result<Vec<Vec<f64>>, OpmError> {
        let windows = opts.windows();
        // The columns a window reads back from the store (none, the
        // recurrence depth, or all of them: the Caputo/GL memory), and
        // the stimulus columns it re-reads ahead of its own.
        let (carried, reread) = match &kernel.symbols {
            WindowSymbols::Linear { .. } => (0, 0),
            WindowSymbols::Recurrence { depth, .. } => (*depth, *depth),
            WindowSymbols::Convolution { .. } => (usize::MAX, 0),
        };
        // The end state block: the plan's x0 (nonzero on linear plans
        // only) interleaved across the lanes, then each lane's own.
        let lanes_of = |&v: &f64| std::iter::repeat(v).take(lanes);
        let end: Vec<f64> = self.x0.iter().flat_map(lanes_of).collect();
        let mut state = WindowState {
            endpoint: Endpoint::new(&end),
            end: Endpoint::new(&end),
            pending: Vec::new(),
            newton: match (self.model.as_ref(), self.linear_family()) {
                (SimModel::Linear(sys), Some(family)) if self.has_nonlinear() => {
                    Some(NewtonSweep::new(sys, &self.devices, family)?)
                }
                _ => None,
            },
        };
        // Sized by the request alone, so reserved fallibly.
        let too_large = || unallocatable(windows, self.m);
        let columns = if trim {
            self.m
        } else {
            windows.checked_mul(self.m).ok_or_else(too_large)?
        };
        let mut store: Vec<Vec<f64>> = Vec::new();
        store.try_reserve_exact(columns).map_err(|_| too_large())?;
        let mut lc = LaneCoeffs {
            lanes,
            width: self.model.num_inputs() * lanes,
            m: 0,
            cols: Vec::new(),
        };
        (reread + self.m)
            .checked_mul(lc.width)
            .and_then(|len| lc.cols.try_reserve_exact(len).ok())
            .ok_or_else(too_large)?;
        for w in 0..windows {
            coeffs(w, reread.min(store.len()), &mut lc)?;
            store = self.sweep_window(kernel, &lc, store, &mut state, w, opts)?;
            let fresh = &store[store.len() - self.m..];
            for x in fresh {
                state.end.advance(x);
            }
            on_window(w, fresh, &state.end.e);
            if trim {
                store.drain(..store.len().saturating_sub(carried));
            }
        }
        if let (Some(newton), Some(family)) = (&state.newton, self.linear_family()) {
            family.note_newton_iters(newton.newton_iters);
        }
        Ok(store)
    }

    /// Solves window `w` for the lanes of `lc` against the shared kernel
    /// and returns `store` with the window's columns appended. A
    /// multi-term sweep continues the store, reading what it carries
    /// from it (the trailing recurrence columns; a convolution's whole
    /// history, its memory continuing from `state.pending`), so the
    /// restarted sweep is column-for-column the unbroken one; a linear
    /// window's endpoint recurrence starts from the end state block
    /// `state.end`, each column a block solve or (nonlinear plans) Newton.
    fn sweep_window(
        &self,
        kernel: &WindowKernel,
        lc: &LaneCoeffs,
        mut store: Vec<Vec<f64>>,
        state: &mut WindowState<'_>,
        w: usize,
        opts: &WindowedOptions,
    ) -> Result<Vec<Vec<f64>>, OpmError> {
        let (lu, cancel) = (&kernel.lu, opts.cancel.as_ref());
        let mt = || {
            self.mt()
                .expect("multi-term kernels sweep a multi-term system")
        };
        match &kernel.symbols {
            WindowSymbols::Linear { sigma } => {
                let SimModel::Linear(sys) = self.model.as_ref() else {
                    unreachable!("linear window kernels are built on linear models");
                };
                // The endpoint recurrence from the window's start block,
                // continuing the store over global column indices.
                let (k, first) = (lc.lanes, store.len());
                let endpoint = &mut state.endpoint;
                endpoint.e.copy_from_slice(&state.end.e);
                if let Some(newton) = &mut state.newton {
                    // One lane; each column warm-starts from the last.
                    newton.x.copy_from_slice(&state.end.e);
                    for j in 0..lc.m {
                        newton.column(*sigma, endpoint, lc.col(j), cancel, (j, w))?;
                        store.push(newton.x.clone());
                    }
                    return Ok(store);
                }
                let sweep = BlockColumnSweep::new(sys.order(), lc.m, k, store);
                sweep.run(lu, cancel, |j, history, rhs, _| {
                    if j > first {
                        endpoint.advance(&history[j - 1]);
                    }
                    endpoint.rhs(sys, *sigma, lc.col(j - first), rhs);
                    Ok(())
                })
            }
            WindowSymbols::Recurrence { polys, bw, .. } => {
                sweep_mt_recurrence_block(mt(), lu, polys, bw, lc, store, cancel)
            }
            WindowSymbols::Convolution { series, squares } => {
                // Multi-term nilpotent-series convolution (paper §IV; a
                // fractional system sweeps as its two-term conversion)
                // over global history and global column indices, so each
                // fractional term's memory is [`column_memory`] over
                // global columns whatever the window split.
                let (mt, k, first) = (mt(), lc.lanes, store.len());
                let pending = &mut state.pending;
                pending.resize(series.len(), Vec::new());
                let mut acc = vec![0.0; mt.order() * k];
                let sweep = BlockColumnSweep::new(mt.order(), lc.m, k, store);
                sweep.run(lu, cancel, |j, history, rhs, work| {
                    apply_b_block(mt.b(), lc.col(j - first), k, 1.0, rhs);
                    let terms = mt.terms().iter().zip(series).zip(squares);
                    for (((term, rho), squares), pending) in terms.zip(pending.iter_mut()) {
                        let Some(squares) = squares else {
                            continue; // α = 0: ρ = e₀, no history contribution
                        };
                        column_memory(rho, squares, pending, history, k, &mut acc, cancel)?;
                        term.matrix.mul_block_into(&acc, work, k);
                        axpy(rhs, work, -1.0);
                    }
                    Ok(())
                })
            }
        }
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
}

// ---------------------------------------------------------------------------
// Lane interleaving
// ---------------------------------------------------------------------------

/// `lanes` coefficient matrices interleaved in one flat buffer that
/// every window reuses: column `j` is the `width = p·lanes` entries from
/// `j·width`, channel `ch` of lane `l` at `ch*lanes + l` within it.
struct LaneCoeffs {
    lanes: usize,
    width: usize,
    m: usize,
    cols: Vec<f64>,
}

impl LaneCoeffs {
    /// Sizes the buffer for `m` columns, keeping its storage.
    fn resize(&mut self, m: usize) {
        self.m = m;
        self.cols.resize(m * self.width, 0.0);
    }

    fn set(&mut self, j: usize, ch: usize, l: usize, v: f64) {
        self.cols[j * self.width + ch * self.lanes + l] = v;
    }

    /// Column `j`, all channels of all lanes.
    fn col(&self, j: usize) -> &[f64] {
        &self.cols[j * self.width..(j + 1) * self.width]
    }
}

/// What the window loop carries from window to window besides its store.
struct WindowState<'a> {
    /// The end state block: `x0` across the lanes, then each window's
    /// polyline endpoint.
    end: Endpoint,
    /// The linear arm's recurrence, restarted from `end` every window.
    endpoint: Endpoint,
    /// A convolution's pending memory, per term.
    pending: Vec<Vec<Vec<f64>>>,
    /// The Newton column solver of a plan carrying nonlinear devices.
    newton: Option<NewtonSweep<'a>>,
}

fn axpy(y: &mut [f64], x: &[f64], a: f64) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

// ---------------------------------------------------------------------------
// Per-kind block sweeps (the strategies, K lanes wide)
// ---------------------------------------------------------------------------

/// Integer multi-term finite recurrence, K lanes wide, continuing
/// `store`: its trailing `depth` columns are the previous window's
/// (`lc` holds the matching stimulus columns first), so the restart is
/// column-for-column the unbroken sweep (an empty store starts the
/// horizon).
fn sweep_mt_recurrence_block(
    mt: &MultiTermSystem,
    lu: &SparseLu,
    polys: &[Vec<f64>],
    bw: &[f64],
    lc: &LaneCoeffs,
    store: Vec<Vec<f64>>,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Vec<f64>>, OpmError> {
    let (n, k) = (mt.order(), lc.lanes);
    let seed = store.len().min(mt.max_order() as usize);
    // Global column `j` is stimulus column `j − first`.
    let first = store.len() - seed;
    let mut acc = vec![0.0; n * k];
    let sweep = BlockColumnSweep::new(n, lc.m - seed, k, store);
    sweep.run(lu, cancel, |j, history, rhs, work| {
        let local = j - first;
        for (i, &w) in bw.iter().enumerate() {
            if i <= local {
                apply_b_block(mt.b(), lc.col(local - i), k, w, rhs);
            }
        }
        for (term, p) in mt.terms().iter().zip(polys) {
            acc.iter_mut().for_each(|v| *v = 0.0);
            let mut any = false;
            for (i, &pi) in p.iter().enumerate().skip(1) {
                if pi != 0.0 && i <= local {
                    any = true;
                    axpy(&mut acc, &history[j - i], pi);
                }
            }
            if any {
                term.matrix.mul_block_into(&acc, work, k);
                axpy(rhs, work, -1.0);
            }
        }
        Ok(())
    })
}

/// Writes the memory of global column `j = history.len()` into `acc`:
/// `Σ_{d=1}^{j} ρ_d·x_{j−d}` over the solved columns `history`. The
/// terms from earlier [`SWEEP_BLOCK`]-column blocks come from
/// `pending`, whose first column is column 0 of `j`'s block; when `j`
/// starts a block, the finished block's memory is dropped from
/// `pending` and the square of the new block boundary is added to it
/// ([`HistorySquares::add_boundary`]). The terms from `j`'s own block
/// are then summed directly. Call it for every column in order.
///
/// # Errors
/// [`OpmError::Cancelled`] when `cancel` trips while a square is added:
/// the square polls it before each of its FFT element panels.
fn column_memory(
    rho: &[f64],
    squares: &HistorySquares,
    pending: &mut Vec<Vec<f64>>,
    history: &[Vec<f64>],
    lanes: usize,
    acc: &mut [f64],
    cancel: Option<&CancelToken>,
) -> Result<(), OpmError> {
    let j = history.len();
    let (block, at) = (j / SWEEP_BLOCK, j % SWEEP_BLOCK);
    if block > 0 && at == 0 {
        pending.drain(..pending.len().min(SWEEP_BLOCK));
        let mut polled = Ok(());
        squares.add_boundary(rho, block, history, pending, lanes, || {
            polled = cancel.map_or(Ok(()), CancelToken::check);
            polled.is_err()
        });
        polled?;
    }
    match pending.get(at) {
        Some(older) => acc.copy_from_slice(older),
        None => acc.fill(0.0),
    }
    history_convolution_into(rho, 0, &history[j - at..], acc);
    Ok(())
}

/// Each fractional term's memory squares over `columns` global columns
/// in [`SWEEP_BLOCK`]-column blocks (`None` for `α = 0` terms, which
/// have no memory).
fn series_squares(
    mt: &MultiTermSystem,
    series: &[Vec<f64>],
    columns: usize,
) -> Vec<Option<HistorySquares>> {
    mt.terms()
        .iter()
        .zip(series)
        .map(|(t, rho)| (t.alpha != 0.0).then(|| HistorySquares::new(rho, SWEEP_BLOCK, columns)))
        .collect()
}

// ---------------------------------------------------------------------------
// Plan-time precomputation: one derivation of every window's symbol data
// ---------------------------------------------------------------------------

/// The multi-term sweep the orders pick: the finite recurrence when
/// every order is an integer up to 16, the convolution otherwise.
fn mt_sweep(mt: &MultiTermSystem) -> Sweep {
    let integer = |t: &opm_system::Term| t.alpha.fract() == 0.0 && t.alpha <= 16.0;
    if mt.terms().iter().all(integer) {
        Sweep::Recurrence {
            differentiate: false,
        }
    } else {
        Sweep::Convolution
    }
}

/// The owned conversion when there is one, else the model's own
/// multi-term form.
fn swept_mt<'a>(
    owned: Option<&'a MultiTermSystem>,
    model: &'a SimModel,
) -> Option<&'a MultiTermSystem> {
    owned.or(match model {
        SimModel::MultiTerm(mt) => Some(mt),
        _ => None,
    })
}

/// Per-term finite recurrence polynomials `p^{(k)}` of degree `K` and
/// the RHS binomial weights `(1+q)^K` for step width `h` — the symbol
/// data of the integer-order recurrence path, which depends on the grid
/// only through `h`.
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

/// The error for a request whose `windows × m` columns no allocator can
/// hold: a bad request, not an abort of the process.
fn unallocatable(windows: usize, m: usize) -> OpmError {
    OpmError::BadArguments(format!(
        "{windows} window(s) of {m} columns cannot be allocated"
    ))
}

/// `m·windows`, the length of a memory kernel's coefficient series, once
/// the allocator has shown it can hold one (see [`unallocatable`]).
fn series_len(m: usize, windows: usize) -> Result<usize, OpmError> {
    m.checked_mul(windows)
        .filter(|&n| Vec::<f64>::new().try_reserve_exact(n).is_ok())
        .ok_or_else(|| unallocatable(windows, m))
}

/// The symbol data of `sweep`'s kernel for `windows` windows of `m`
/// columns over `[0, t_end)`, and the weights of the pencil that kernel
/// factors — `(σ, −1)` on `(E, A)` for linear sweeps, the leading
/// symbol coefficient per multi-term term otherwise. The one derivation
/// for every window count, the whole horizon (`W = 1`) included. The
/// window step is `h_w = T/(W·m)`; the convolution weight vectors and
/// memory squares span all `W·m` global columns.
fn window_symbols(
    sweep: Sweep,
    mt: Option<&MultiTermSystem>,
    m: usize,
    t_end: f64,
    windows: usize,
) -> Result<(WindowSymbols, Vec<f64>), OpmError> {
    let mt = || mt.expect("multi-term sweeps carry their system");
    Ok(match sweep {
        Sweep::Linear => {
            let sigma = 2.0 * (m as f64 * windows as f64) / t_end;
            let symbols = WindowSymbols::Linear { sigma };
            (symbols, vec![sigma, -1.0])
        }
        Sweep::Recurrence { .. } => {
            let mt = mt();
            let (polys, bw) = mt_recurrence_data(mt, t_end / (m as f64 * windows as f64));
            let weights = polys.iter().map(|p| p[0]).collect();
            let depth = mt.max_order() as usize;
            (WindowSymbols::Recurrence { polys, bw, depth }, weights)
        }
        Sweep::Convolution => {
            // Per-term ρ^{(k)} (α = 0 ⇒ e₀).
            let wbasis = BpfBasis::new(m, t_end / windows as f64);
            let len = series_len(m, windows)?;
            let series: Vec<Vec<f64>> = mt()
                .terms()
                .iter()
                .map(|term| wbasis.frac_diff_coeffs_n(term.alpha, len))
                .collect();
            let weights = series.iter().map(|rho| rho[0]).collect();
            let squares = series_squares(mt(), &series, len);
            (WindowSymbols::Convolution { series, squares }, weights)
        }
    })
}

impl UniformPlan {
    /// Records the family's analysis on the whole-horizon pencil, its
    /// factor a linear plan's `W = 1` kernel. A pattern `patterns` has
    /// analysed is shared, unreplayed unless the plan is `nonlinear`
    /// (every Newton iterate replays the recorded pivots).
    fn prepare(
        model: &SimModel,
        sweep: Sweep,
        mt: Option<MultiTermSystem>,
        (m, t_end): (usize, f64),
        patterns: Option<&PatternCache>,
        nonlinear: bool,
    ) -> Result<Self, OpmError> {
        let swept = swept_mt(mt.as_ref(), model);
        let (symbols, weights) = window_symbols(sweep, swept, m, t_end, 1)?;
        let terms: Vec<&CsrMatrix> = match (swept, model) {
            (Some(mt), _) => mt.terms().iter().map(|t| &t.matrix).collect(),
            (None, SimModel::Linear(sys)) => vec![sys.e(), sys.a()],
            _ => unreachable!("only linear sweeps factor the model's own (E, A)"),
        };
        let (pencil, lu) = PencilFamily::recorded_in(&terms, &weights, patterns, nonlinear)?;
        let kernels = GateCache::new(WINDOW_KERNELS_RETAINED, || {
            OpmError::BadArguments(
                "window-kernel build panicked; the panicking request reports it".into(),
            )
        });
        if let (Some(lu), false) = (lu, nonlinear) {
            kernels.get_or_build(1, || Ok(Arc::new(WindowKernel { lu, symbols })))?;
        }
        Ok(UniformPlan {
            sweep,
            pencil: Box::new(pencil),
            mt,
            kernels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SolveOptions;
    use opm_fracnum::history::history_block_into;
    use opm_sparse::CooMatrix;
    use opm_waveform::Waveform;

    fn scalar(a: f64) -> DescriptorSystem {
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, a);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        DescriptorSystem::new(CsrMatrix::identity(1), am.to_csr(), b.to_csr(), None).unwrap()
    }

    #[test]
    fn fresh_plan_per_solve_matches_reused_plan() {
        let sys = scalar(-1.0);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let opts = SolveOptions::new().resolution(64);
        let sim = Simulation::from_system(sys).horizon(2.0);
        let one_shot = sim.plan(&opts).unwrap().solve(&inputs).unwrap();
        let plan = sim.plan(&opts).unwrap();
        plan.solve(&InputSet::new(vec![Waveform::Dc(3.0)])).unwrap();
        let via_plan = plan.solve(&inputs).unwrap();
        for j in 0..64 {
            assert_eq!(
                one_shot.state_coeff(0, j),
                via_plan.state_coeff(0, j),
                "column {j}"
            );
        }
        assert_eq!(plan.factor_profile().num_factorizations(), 1);
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
        assert_eq!(plan.factor_profile().num_factorizations(), 1);
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
        let err = plan
            .solve_windowed_batch_opts(std::slice::from_ref(&u), &opts, 1)
            .unwrap_err();
        assert!(matches!(err, OpmError::Cancelled(_)), "{err}");
        let mut blocks = 0;
        let err = plan
            .solve_streaming(&u, &opts, |_| blocks += 1)
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
    fn stimulus_projection_polls_the_cancel_token() {
        // The projection runs before the window's first column poll, so
        // it polls the token itself, once per lane.
        let sim = Simulation::from_system(scalar(-1.0)).horizon(1.0);
        let plan = sim.plan(&SolveOptions::new().resolution(8)).unwrap();
        let lanes = vec![InputSet::new(vec![Waveform::Dc(1.0)]); 3];
        let token = CancelToken::new();
        let opts = WindowedOptions::new(2).cancel_token(token.clone());
        let mut lc = LaneCoeffs {
            lanes: 3,
            width: 3,
            m: 0,
            cols: Vec::new(),
        };
        assert!(plan.window_coeffs(&lanes, &opts, 1, 0, &mut lc).is_ok());
        token.cancel();
        let err = plan
            .window_coeffs(&lanes, &opts, 1, 0, &mut lc)
            .unwrap_err();
        assert!(matches!(err, OpmError::Cancelled(_)), "{err}");
    }

    #[test]
    fn streaming_fractional_solve_cancels_mid_solve() {
        // m = 128, W = 4: eight 64-column blocks, whose squares past the
        // first level run by FFT.
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let sim = Simulation::from_fractional(fsys).horizon(2.0);
        let (m, windows) = (128, 4);
        let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
        let u = InputSet::new(vec![Waveform::step(0.3, 1.0)]);

        // The sink cancels once window 1 is out: the loop stops at the
        // next boundary and emits nothing more.
        let token = CancelToken::new();
        let opts = WindowedOptions::new(windows).cancel_token(token.clone());
        let mut seen = Vec::new();
        let err = plan
            .solve_streaming(&u, &opts, |block| {
                seen.push(block.window);
                if block.window == 1 {
                    token.cancel();
                }
            })
            .unwrap_err();
        assert!(matches!(err, OpmError::Cancelled(_)), "{err}");
        assert_eq!(seen, [0, 1], "no window may be emitted after cancellation");

        // The cached kernel and its squares stay usable: the next solves
        // equal a fresh plan's, bit for bit.
        let fresh = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
        let bits = |r: &OpmResult| -> Vec<u64> {
            r.columns.iter().flatten().map(|v| v.to_bits()).collect()
        };
        let want = bits(&fresh.solve_windowed(&u, windows).unwrap());
        assert_eq!(bits(&plan.solve_windowed(&u, windows).unwrap()), want);
        let mut streamed = Vec::new();
        plan.solve_streaming(&u, &WindowedOptions::new(windows), |block| {
            streamed.extend(bits(&block.result));
        })
        .unwrap();
        assert_eq!(streamed, want);
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
        // A step grid that sums to the horizon but holds a step that is
        // not positive and finite is refused by index, not planned.
        for (steps, index) in [
            (vec![0.5, -0.1, 0.6], "step 1"),
            (vec![0.5, 0.0, 0.5], "step 1"),
            (vec![f64::NAN, 1.0], "step 0"),
            (vec![1.0, f64::INFINITY], "step 1"),
        ] {
            let err = simf
                .plan(&SolveOptions::new().step_grid(steps))
                .unwrap_err();
            let msg = format!("{err}");
            assert!(
                matches!(err, OpmError::BadArguments(_))
                    && msg.contains("step_grid")
                    && msg.contains(index)
                    && msg.contains("fractional"),
                "diagnostic must name option, step and strategy: {msg}"
            );
        }
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
        let sim = Simulation::from_second_order(na.system).horizon(t_end);
        let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
        let via_plan = plan.solve(&na.inputs).unwrap();
        // The plan feeds its recurrence exact `u̇` interval averages.
        let bounds: Vec<f64> = (0..=m).map(|k| k as f64 * t_end / m as f64).collect();
        let u_dot = na.inputs.derivative_averages_on_grid(&bounds);
        let SimModel::SecondOrder(so) = sim.model() else {
            unreachable!("built from a second-order system");
        };
        let direct = Simulation::from_multiterm(so.to_multiterm())
            .horizon(t_end)
            .plan(&SolveOptions::new().resolution(m))
            .unwrap()
            .solve_coeffs(&u_dot)
            .unwrap();
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
        let first = plan.factor_profile().num_factorizations();
        assert!(first >= 1);
        let b = plan.solve(&InputSet::new(vec![Waveform::Dc(2.0)])).unwrap();
        // Same step lattice ⇒ the second scenario reuses every factor.
        assert_eq!(plan.factor_profile().num_factorizations(), first);
        assert!(a.num_intervals() > 0 && b.num_intervals() > 0);
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
        let whole = WindowedOptions::new(1);
        let serial = plan.solve_windowed_batch_opts(&sets, &whole, 1).unwrap();
        for threads in [2, 3, 4, 16] {
            let par = plan
                .solve_windowed_batch_opts(&sets, &whole, threads)
                .unwrap();
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
        let p = plan.factor_profile();
        assert_eq!((p.num_symbolic, p.num_numeric), (1, 0));
        assert_eq!(p.num_factorizations(), 1);
        // Its `W = 1` kernel: one pivot, 8 bytes.
        assert_eq!((p.factor_nnz, p.kernel_bytes), (1, 8));

        // Step grid: 12 pencils = 1 analysis + 11 refactorizations.
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let steps = crate::adaptive::geometric_grid(1.0, 12, 1.2);
        let simf = Simulation::from_fractional(fsys).horizon(1.0);
        let planf = simf.plan(&SolveOptions::new().step_grid(steps)).unwrap();
        let p = planf.factor_profile();
        assert_eq!((p.num_symbolic, p.num_numeric), (1, 11));
        assert_eq!(p.num_factorizations(), 12);
        assert_eq!(p.kernel_bytes, 12 * 8, "one factor per column");

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
        assert_eq!(
            p1.kernel_bytes,
            8 * p1.cache_misses,
            "one factor per exponent"
        );
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
        assert_eq!(plan.factor_profile().num_factorizations(), 12);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let r1 = plan.solve(&inputs).unwrap();
        let r2 = plan
            .solve(&InputSet::new(vec![Waveform::step(0.1, 2.0)]))
            .unwrap();
        // Solving more scenarios does not factor again.
        assert_eq!(plan.factor_profile().num_factorizations(), 12);
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
    fn windowed_recurrence_matches_the_accumulator_oracle() {
        let sys = scalar(-2.0);
        let sim = Simulation::from_system(sys.clone()).horizon(1.5);
        let inputs = InputSet::new(vec![Waveform::step(0.4, 1.0)]);
        let rec = sim
            .plan(&SolveOptions::new().resolution(24))
            .unwrap()
            .solve_windowed(&inputs, 6)
            .unwrap();
        let u = inputs.bpf_matrix(6 * 24, 1.5);
        let acc = opm_oracle::accumulator_solve(&sys, &u, 1.5, &[0.0]).unwrap();
        for j in 0..rec.num_intervals() {
            assert!((rec.state_coeff(0, j) - acc[j][0]).abs() < 1e-10);
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
    fn a_cancelled_token_stops_the_memory_square() {
        // Column 128 adds the square of boundary 2, 128 columns a side
        // (an FFT square): a cancelled token stops it before its first
        // panel, and without a token the same call completes.
        let rho: Vec<f64> = (0..256).map(|d| 1.0 / (d as f64 + 1.0)).collect();
        let squares = HistorySquares::new(&rho, SWEEP_BLOCK, 256);
        let store = vec![vec![1.0; 4]; 2 * SWEEP_BLOCK];
        let token = CancelToken::new();
        token.cancel();
        let (mut pending, mut acc) = (Vec::new(), vec![0.0; 4]);
        let err = column_memory(
            &rho,
            &squares,
            &mut pending,
            &store,
            1,
            &mut acc,
            Some(&token),
        )
        .unwrap_err();
        assert!(matches!(err, OpmError::Cancelled(_)), "{err}");
        assert!(pending.iter().flatten().all(|&v| v == 0.0));
        column_memory(&rho, &squares, &mut pending, &store, 1, &mut acc, None).unwrap();
        assert!(acc.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn global_memory_matches_the_direct_sum() {
        // A 2-state mixture with fractional terms α = 0.3, 0.7 and 1.5
        // next to an α = 0 term, over fixed-seed stores of a whole number
        // of 64-column blocks and of a ragged count, 1 and 8 lanes wide:
        // column by column, the in-block sum plus the pending squares
        // give each fractional term the direct sum over the whole
        // history, to 1e-12 of the column's magnitude scale
        // `Σ_d |ρ_d|·‖x_{j−d}‖_∞`; the α = 0 term has no memory.
        use opm_rng::prelude::*;
        use opm_system::Term;
        let diag = |a: f64, b: f64| {
            let mut c = CooMatrix::new(2, 2);
            c.push(0, 0, a);
            c.push(1, 1, b);
            c.to_csr()
        };
        let term = |alpha, a, b| Term {
            alpha,
            matrix: diag(a, b),
        };
        let terms = vec![
            term(0.0, 1.0, 2.0),
            term(0.3, 0.5, 1.0),
            term(0.7, 1.0, 0.25),
            term(1.5, 0.1, 0.2),
        ];
        let mt = MultiTermSystem::new(terms, diag(1.0, 1.0), None).unwrap();
        let mut rng = StdRng::seed_from_u64(0x6D_E40);
        for columns in [512, 200] {
            let (symbols, _) =
                window_symbols(Sweep::Convolution, Some(&mt), columns, 1.0, 1).unwrap();
            let WindowSymbols::Convolution { series, squares } = &symbols else {
                unreachable!("a convolution sweep has convolution symbols");
            };
            for lanes in [1, 8] {
                let store: Vec<Vec<f64>> = (0..columns)
                    .map(|c| {
                        (0..2 * lanes)
                            .map(|e| {
                                (c as f64 * 0.02 + e as f64).sin() + rng.random_range(-0.1..0.1)
                            })
                            .collect()
                    })
                    .collect();
                let magnitudes: Vec<Vec<f64>> = store
                    .iter()
                    .map(|c| vec![c.iter().fold(0.0f64, |s, v| s.max(v.abs()))])
                    .collect();
                for ((t, rho), sq) in mt.terms().iter().zip(series).zip(squares) {
                    let direct = |j: usize| {
                        let mut out = vec![vec![0.0; 2 * lanes]];
                        history_block_into(rho, &store[..j], &mut out);
                        out.pop().unwrap()
                    };
                    let Some(sq) = sq else {
                        assert_eq!(t.alpha, 0.0);
                        assert!(direct(columns).iter().all(|&v| v == 0.0));
                        continue;
                    };
                    let abs_rho: Vec<f64> = rho.iter().map(|v| v.abs()).collect();
                    let mut pending = Vec::new();
                    let mut acc = vec![0.0; 2 * lanes];
                    for j in 0..columns {
                        column_memory(rho, sq, &mut pending, &store[..j], lanes, &mut acc, None)
                            .unwrap();
                        let mut scale = vec![vec![0.0]];
                        history_block_into(&abs_rho, &magnitudes[..j], &mut scale);
                        let dev = acc
                            .iter()
                            .zip(direct(j))
                            .fold(0.0f64, |a, (x, y)| a.max((x - y).abs()));
                        assert!(
                            dev <= 1e-12 * scale[0][0],
                            "N = {columns}, {lanes} lanes, α = {}, column {j}: {dev:e} of {:e}",
                            t.alpha,
                            scale[0][0]
                        );
                    }
                }
            }
        }
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
        // W = 1 is seeded with the plan's recorded factor: exercise the
        // cache from W = 2.
        let sim = Simulation::from_fractional(FractionalSystem::new(0.5, scalar(-1.0)).unwrap())
            .horizon(2.0);
        let plan = sim.plan(&SolveOptions::new().resolution(4)).unwrap();
        let inputs = InputSet::new(vec![Waveform::step(0.3, 1.0)]);
        let retained = |plan: &SimPlan| -> Vec<usize> {
            let PlanKind::Uniform(u) = &plan.kind else {
                unreachable!("a fractional plan at a resolution is uniform");
            };
            u.kernels.values().into_iter().map(|(w, _)| w).collect()
        };
        let first = plan.solve_windowed(&inputs, 2).unwrap();
        for windows in 2..=21 {
            plan.solve_windowed(&inputs, windows).unwrap();
            assert!(retained(&plan).len() <= WINDOW_KERNELS_RETAINED);
        }
        // The least recently used kernels — W = 2 among them — are gone.
        let retained = retained(&plan);
        assert_eq!(retained.len(), WINDOW_KERNELS_RETAINED);
        assert!(!retained.contains(&2), "{retained:?}");
        // An evicted W refactors and solves bit-identically.
        let again = plan.solve_windowed(&inputs, 2).unwrap();
        let bits = |r: &OpmResult| -> Vec<u64> {
            r.columns.iter().flatten().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&again), bits(&first));
        // One numeric refactorization per kernel build: W = 2..=21, plus
        // the rebuild of W = 2.
        let p = plan.factor_profile();
        assert_eq!((p.num_symbolic, p.num_numeric), (1, 21));
    }

    #[test]
    fn worker_lane_chunk_rounds_to_panels_without_idling_a_worker() {
        // Small batches split evenly across the workers ...
        assert_eq!(worker_lane_chunk(8, 2), 4);
        assert_eq!(worker_lane_chunk(20, 4), 5);
        assert_eq!(worker_lane_chunk(3, 2), 2);
        // ... large ones on panel boundaries; one worker takes it all.
        assert_eq!(worker_lane_chunk(100, 2), 56);
        assert_eq!(worker_lane_chunk(100, 4), 32);
        assert_eq!(worker_lane_chunk(8, 1), 8);
    }

    #[test]
    fn streaming_keeps_only_one_window_resident() {
        let sys = scalar(-1.0);
        let sim = Simulation::from_system(sys).horizon(16.0);
        let plan = sim.plan(&SolveOptions::new().resolution(8)).unwrap();
        let inputs = InputSet::new(vec![Waveform::Dc(2.0)]);
        let mut seen = 0usize;
        let end = plan
            .solve_streaming(&inputs, &WindowedOptions::new(32), |block| {
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
}
