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
//!   **single pass**: the engine's [`BlockColumnSweep`] interleaves the
//!   scenarios so every sparse traversal (pencil solve, `E`/`A`
//!   products, `B` application) is amortized K-fold;
//! - [`SimPlan::solve_windowed`] / [`SimPlan::solve_windowed_batch_opts`]
//!   / [`SimPlan::solve_streaming`] — long horizons as `W` windows
//!   through one window factorization;
//! - [`SimPlan::solve_newton_windowed`] — nonlinear netlists;
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
//! windowed, streaming, and linear Newton — runs one window loop: the
//! whole horizon is its one-window case, swept against the factorization
//! the plan was built with. Adaptive, step-grid and Kronecker plans run
//! their own whole-horizon solve at `W = 1` and reject `W > 1`.
//!
//! A uniform plan sweeps one of three column recurrences: the linear
//! two-term recurrence, the integer multi-term finite recurrence, or the
//! nilpotent-series convolution. A fractional model sweeps as its
//! two-term conversion `[(α, E), (0, −A)]`, exactly like a
//! fractional-mixture multi-term model. Every pencil a plan factors — a
//! window count, an adaptive lattice step, a step-grid column, a Newton
//! iterate — is one weight vector of the plan's [`PencilFamily`], and
//! every plan kind built through a [`crate::PlanCache`] records that
//! family's analysis through the cache's pattern tier.

use crate::adaptive::{self, AdaptiveOpmOptions, StepGridFactors, StepLattice};
use crate::cache::PatternCache;
use crate::cancel::CancelToken;
use crate::engine::{
    apply_b_block, validate_coeff_inputs, validate_horizon, validate_x0, BlockColumnSweep,
    BlockOutcome, Method, OutputMap, PencilFamily, SolveOptions, SweepOutcome,
};
use crate::gate::GateCache;
use crate::kron_solve::{fractional_as_multiterm, kron_prepare, kron_solve_prepared, KronFactors};
use crate::metrics::FactorProfile;
use crate::newton::NewtonSweep;
use crate::result::OpmResult;
use crate::sync::StdSync;
use crate::OpmError;
use opm_basis::adaptive::AdaptiveBpf;
use opm_basis::bpf::{endpoint_state, BpfBasis};
use opm_basis::traits::Basis;
use opm_circuits::mna::{
    assemble_fractional_mna, assemble_mna, assemble_nonlinear_mna, Output, Unknown,
};
use opm_circuits::netlist::{Circuit, Element};
use opm_circuits::nonlinear::DeviceModel;
use opm_circuits::parser::parse_netlist;
use opm_fracnum::binomial::binomial_series;
use opm_fracnum::history::{history_block_into, history_convolution_into};
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
    /// [`SimPlan::solve_newton_windowed`].
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

    /// Whether plans built from this session need the Newton path
    /// ([`SimPlan::solve_newton_windowed`]).
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
        let nonzero_x0 = x0.iter().any(|&v| v != 0.0);
        if nonzero_x0 && !matches!(model.as_ref(), SimModel::Linear(_)) {
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
        let uniform = |sweep: Sweep, mt: Option<MultiTermSystem>| {
            UniformPlan::prepare(model, sweep, mt, m, t_end, patterns).map(PlanKind::Uniform)
        };
        let kron = |mt: MultiTermSystem| -> Result<PlanKind, OpmError> {
            let factors = kron_prepare(&mt, m, t_end)?;
            Ok(PlanKind::Kron {
                factors,
                mt: Some(mt),
            })
        };

        let kind = match model.as_ref() {
            SimModel::Linear(sys) => match opts.method {
                Method::Auto | Method::Recurrence | Method::Accumulator => uniform(
                    Sweep::Linear {
                        accumulator: opts.method == Method::Accumulator,
                    },
                    None,
                )?,
                Method::Convolution => {
                    require_zero_x0("Convolution")?;
                    let mt = MultiTermSystem::from_descriptor(sys);
                    uniform(mt_sweep(&mt, Method::Auto)?, Some(mt))?
                }
                Method::Kronecker => {
                    require_zero_x0("Kronecker")?;
                    kron(MultiTermSystem::from_descriptor(sys))?
                }
            },
            // `E·d^α x = A x + B u` is the two-term system
            // `[(α, E), (0, −A)]`: one convolution sweep serves both.
            SimModel::Fractional(fsys) => match opts.method {
                Method::Kronecker => kron(fractional_as_multiterm(fsys))?,
                _ => uniform(Sweep::Convolution, Some(fractional_as_multiterm(fsys)))?,
            },
            SimModel::MultiTerm(mt) => match opts.method {
                Method::Kronecker => PlanKind::Kron {
                    factors: kron_prepare(mt, m, t_end)?,
                    mt: None,
                },
                Method::Accumulator => {
                    unreachable!("validate_options rejects Accumulator on multi-term models")
                }
                method => uniform(mt_sweep(mt, method)?, None)?,
            },
            // The nodal conversion has integer orders 0, 1, 2: always the
            // finite recurrence, fed exact `u̇` averages.
            SimModel::SecondOrder(so) => uniform(
                Sweep::Recurrence {
                    differentiate: true,
                },
                Some(so.to_multiterm()),
            )?,
        };
        if !matches!(
            kind,
            PlanKind::Uniform(UniformPlan {
                sweep: Sweep::Linear { .. },
                ..
            })
        ) {
            require_linear_kind(model.strategy_name())?;
        }
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

struct StepGridPlan {
    grid: AdaptiveBpf,
    factors: StepGridFactors,
}

enum PlanKind {
    /// A uniform-grid sweep (linear, fractional, multi-term, and the
    /// multi-term conversions a plan owns).
    Uniform(UniformPlan),
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
    /// Linear two-term recurrence, or the paper's literal alternating
    /// accumulator, against `σ·E − A`.
    Linear { accumulator: bool },
    /// Integer multi-term finite `(1+q)^K` recurrence; `differentiate`
    /// feeds it exact `u̇` averages (second-order nodal plans).
    Recurrence { differentiate: bool },
    /// Multi-term per-term nilpotent-series convolution (fractional
    /// systems as their two-term conversion, fractional mixtures).
    Convolution,
}

/// A uniform plan: its pencil family and the whole-horizon (`W = 1`)
/// window kernel, factored when the plan is built. Every other window
/// count refactors numerically against the family's analysis.
struct UniformPlan {
    sweep: Sweep,
    /// `σ·E − A` over `(E, A)` for linear sweeps, else `Σ_k w_k·A_k`
    /// over the swept multi-term system's terms.
    pencil: PencilFamily,
    /// The multi-term conversion the plan sweeps when the model is not
    /// itself multi-term (fractional models, linear `Convolution`
    /// method, second-order nodal form).
    mt: Option<MultiTermSystem>,
    whole: Arc<WindowKernel>,
}

/// A reusable solving session: the validated problem shape, orderings
/// and factorizations of one [`Simulation::plan`], amortized over every
/// [`solve`](SimPlan::solve) / [`solve_batch`](SimPlan::solve_batch) /
/// [`solve_windowed`](SimPlan::solve_windowed) call.
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
    /// Plans carrying devices solve through
    /// [`SimPlan::solve_newton_windowed`];
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
/// `W` windows and all batched scenarios. `W = 1` is the whole horizon.
struct WindowKernel {
    lu: SparseLu,
    symbols: WindowSymbols,
}

/// A window kernel's symbol data (see [`window_symbols`]).
enum WindowSymbols {
    /// The linear recurrence or accumulator at `σ_w = 2·m·W/T`. The
    /// carried state is the polyline endpoint.
    Linear { sigma: f64, accumulator: bool },
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
    /// weight vectors `ρ^{(k)}` at the window step — entries past the
    /// window resolution are the weights of the carried Caputo/GL
    /// history tail, term by term.
    Convolution { series: Vec<Vec<f64>> },
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
///
/// Memory: a windowed solve keeps each solved column once. The tail
/// the history kernels read is the newest `L` (or, with full history,
/// all) of the same column store that becomes the result; a streaming
/// solve trims that store to the tail after every window.
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
    pub fn factor_profile(&self) -> FactorProfile {
        let p = match &self.kind {
            PlanKind::Uniform(u) => u.pencil.profile(),
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
    /// through [`SimPlan::solve_newton_windowed`]; every linear entry
    /// point rejects them.
    pub fn has_nonlinear(&self) -> bool {
        !self.devices.is_empty()
    }

    /// Linear entry points refuse plans carrying nonlinear devices —
    /// solving the linear recurrence would silently drop the device
    /// currents.
    fn reject_nonlinear(&self) -> Result<(), OpmError> {
        if self.devices.is_empty() {
            Ok(())
        } else {
            Err(OpmError::BadArguments(format!(
                "this plan carries {} nonlinear device(s) that a linear solve would drop; \
                 use SimPlan::solve_newton_windowed",
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
        self.reject_nonlinear()?;
        let needs_waveforms = match &self.kind {
            PlanKind::AdaptiveLinear { .. } => {
                Some("adaptive stepping needs waveform inputs (exact interval averages)")
            }
            PlanKind::StepGrid(_) => Some("step-grid solving needs waveform inputs"),
            PlanKind::Uniform(UniformPlan {
                sweep:
                    Sweep::Recurrence {
                        differentiate: true,
                    },
                ..
            }) => Some(
                "second-order problems need waveform inputs (the engine \
                 differentiates them exactly)",
            ),
            _ => None,
        };
        if let Some(why) = needs_waveforms {
            return Err(OpmError::BadArguments(why.into()));
        }
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
        let PlanKind::Uniform(plan) = &self.kind else {
            return self.kron_solve(u);
        };
        let mut out = self.drive_batch(
            &plan.whole,
            &[u],
            &WindowedOptions::new(1),
            opm_par::default_threads(),
            |c, _, _| LaneCoeffs::interleave(c, p, self.m),
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
    /// factorization — a numeric-only refactorization against the plan's
    /// own symbolic analysis — serves all `W` windows (and every batched
    /// scenario): [`SimPlan::factor_profile`] reports 1 symbolic + 1
    /// numeric no matter how large `W` grows. `W = 1` is exactly
    /// [`SimPlan::solve`], bit for bit, on every plan kind.
    ///
    /// On a horizon that splits evenly, the result matches a single
    /// whole-horizon plan at resolution `W·m` to roundoff (the BPF
    /// recurrence is the trapezoidal rule in disguise, and the polyline
    /// endpoint handoff is its exact restart).
    ///
    /// `W > 1` is supported for linear/descriptor
    /// (Recurrence/Accumulator), second-order, fractional and multi-term
    /// plans. Linear and integer-recurrence plans carry *exact* finite
    /// state (polyline endpoint / trailing recurrence columns);
    /// fractional and fractional-mixture multi-term plans carry the
    /// Caputo/GL memory of all previous windows as an extra per-lane
    /// forcing built from the history convolution over their solved
    /// columns — exact with full history, truncatable via
    /// [`WindowedOptions::history_len`] (see
    /// [`SimPlan::solve_windowed_batch_opts`]). Adaptive, step-grid and
    /// Kronecker plans are whole-horizon by construction and reject
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
    /// or an unsupported strategy/method (the message names both).
    pub fn solve_windowed(&self, inputs: &InputSet, windows: usize) -> Result<OpmResult, OpmError> {
        let mut out = self.solve_windowed_batch_opts(
            std::slice::from_ref(inputs),
            &WindowedOptions::new(windows),
            opm_par::default_threads(),
        )?;
        Ok(out.pop().expect("one lane in, one result out"))
    }

    /// The batch form of [`SimPlan::solve_windowed`], with explicit
    /// [`WindowedOptions`] — in particular the fractional short-memory
    /// truncation [`WindowedOptions::history_len`] — and worker count.
    /// `K` scenarios sweep through the same single window factorization,
    /// window by window, with the scenario lanes split across `threads`
    /// workers exactly like [`SimPlan::solve_batch`]: results are in
    /// input order and bit-identical to a per-scenario
    /// [`SimPlan::solve_windowed`] loop, for every thread count
    /// (`threads` only sets how lanes are distributed).
    ///
    /// Note on memory: every solved column is stored once — the history
    /// tail a fractional window reads is the newest part of the column
    /// store that becomes the result, so a full-history solve holds the
    /// same columns as the whole-horizon solve. For bounded memory,
    /// stream via [`SimPlan::solve_streaming`] with
    /// [`WindowedOptions::history_len`] set: the store is then trimmed
    /// to the capped tail after every window.
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
        if !results.is_empty() {
            self.windows_solved
                .fetch_add(opts.windows(), Ordering::Relaxed);
        }
        Ok(results)
    }

    /// Streaming windowed solve: like [`SimPlan::solve_windowed`], but
    /// each window's block is handed to `sink` as soon as it is solved
    /// and then **dropped** — peak coefficient storage is `O(n·m)`, one
    /// window, independent of how many windows the horizon spans (plus,
    /// on fractional/multi-term plans, the retained Caputo history tail:
    /// all past columns with full history, at most
    /// [`WindowedOptions::history_len`] columns when truncated, which
    /// bounds the whole solve's memory). The [`WindowBlock`]s carry
    /// global-time bounds, so concatenating their results reproduces
    /// [`SimPlan::solve_windowed`] exactly. Uniform-grid plans only:
    /// adaptive, step-grid and Kronecker plans have no window blocks to
    /// hand out.
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
        self.reject_nonlinear()?;
        self.check_channels(std::slice::from_ref(inputs))?;
        let kernel = self.window_kernel(windows)?;
        let out = self.output_map();
        let lane = std::slice::from_ref(inputs);
        let mut final_state = self.x0.clone();
        let coeffs = |w, seed| self.window_coeffs(lane, windows, w, seed);
        self.windowed_drive(&kernel, 1, opts, true, coeffs, |w, columns, end| {
            // One lane: the interleaved columns are plain columns.
            let one = SweepOutcome {
                columns: columns.to_vec(),
                num_solves: columns.len(),
                num_factorizations: 1,
            };
            sink(WindowBlock {
                window: w,
                result: one.grid_result(&out, self.window_bounds(windows, w, 0)),
                end_state: end.to_vec(),
            });
            final_state.clear();
            final_state.extend_from_slice(end);
        })?;
        self.windows_solved.fetch_add(windows, Ordering::Relaxed);
        Ok(final_state)
    }

    /// Windowed Newton solve: the horizon split into `windows` windows
    /// of `m` columns each, every column solved by SPICE-style
    /// full-value Newton iteration over the endpoint recurrence
    /// `(σE − A)·x_j − f(x_j) = σE·e_j + B·u_j`, `e_{j+1} = 2x_j − e_j`.
    /// `windows = 1` is the whole horizon as one window.
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
    /// On a **linear** netlist (no devices) this is *bit-identical* to
    /// [`SimPlan::solve_windowed`] — the full-value Newton iterate of the
    /// endpoint recurrence reproduces the linear recurrence exactly, so
    /// the call delegates to the linear window sweep (on every plan
    /// kind) and books the `W` windows, plus one Newton iteration per
    /// column on linear-recurrence plans, into the [`FactorProfile`].
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
            // linear window sweep (bit-identical, zero added
            // factorizations) and book the per-column iterations.
            let mut wopts = WindowedOptions::new(windows);
            if let Some(tok) = &opts.cancel {
                wopts = wopts.cancel_token(tok.clone());
            }
            let mut out = self.solve_windowed_batch_opts(
                std::slice::from_ref(inputs),
                &wopts,
                opm_par::default_threads(),
            )?;
            let result = out.pop().expect("one lane in, one result out");
            if let Some(family) = self.linear_family() {
                family.note_newton_iters(result.num_intervals());
            }
            return Ok(result);
        }
        let Some(family) = self.linear_family() else {
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
        let sigma = 2.0 * (m as f64 * windows as f64) / self.t_end;
        let width = self.t_end / windows as f64;
        let too_large = || unallocatable(windows, m);
        let mut columns = Vec::new();
        columns
            .try_reserve_exact(windows.checked_mul(m).ok_or_else(too_large)?)
            .map_err(|_| too_large())?;
        let mut sweep = NewtonSweep::new(sys, &self.devices, family)?;
        let mut e = self.x0.clone();
        for w in 0..windows {
            let u = inputs.bpf_matrix_window(m, w as f64 * width, width);
            let win = sweep.window(family, sigma, m, &u, &e, opts, w)?;
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

    /// The one waveform-batch dispatch behind [`SimPlan::solve_batch`]
    /// and [`SimPlan::solve_windowed_batch_opts`]. Uniform plans run the
    /// window loop for any `W` (the whole horizon is `W = 1`, swept
    /// against the factorization the plan was built with); adaptive,
    /// step-grid and Kronecker plans run their whole-horizon solve at
    /// `W = 1` and reject any other window count.
    fn batch(
        &self,
        inputs: &[InputSet],
        opts: &WindowedOptions,
        threads: usize,
    ) -> Result<Vec<OpmResult>, OpmError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        self.reject_nonlinear()?;
        self.check_channels(inputs)?;
        let windows = opts.windows();
        let whole = windows == 1;
        // The whole-horizon kinds have no window boundary to poll the
        // token at (the window loop polls it at every one).
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
                    adaptive::sweep_step_grid(fsys, &sg.grid, &sg.factors, ws)
                })
                .into_iter()
                .collect()
            }
            PlanKind::Kron { .. } if whole => opm_par::par_map(threads, inputs, |ws| {
                self.kron_solve(&ws.bpf_matrix(self.m, self.t_end))
            })
            .into_iter()
            .collect(),
            // The window loop, or the named rejection of `W ≠ 1` on the
            // whole-horizon kinds.
            _ => {
                let kernel = self.window_kernel(windows)?;
                self.drive_batch(&kernel, inputs, opts, threads, |c, w, seed| {
                    self.window_coeffs(c, windows, w, seed)
                })
            }
        }
    }

    /// Resolves the window kernel for `windows` windows — the one
    /// factorization all windows and scenarios share. A uniform plan's
    /// `W = 1` kernel is the one it factored when it was built; any other
    /// `W` is built on its first request through the plan's single-flight
    /// kernel cache: the window pencil refactored numerically against the
    /// plan's recorded analysis, plus the kernel's window-step symbol
    /// data. The other plan kinds have no window kernel.
    fn window_kernel(&self, windows: usize) -> Result<Arc<WindowKernel>, OpmError> {
        if windows == 0 {
            return Err(OpmError::BadArguments(
                "windowed solving needs at least one window".into(),
            ));
        }
        let (strategy, why) = match &self.kind {
            PlanKind::Uniform(u) if windows == 1 => return Ok(Arc::clone(&u.whole)),
            PlanKind::Uniform(u) => {
                validate_horizon(self.t_end)?;
                let (kernel, _) = self.kernels.get_or_build(windows, || {
                    let (symbols, weights) =
                        window_symbols(u.sweep, self.mt(), self.m, self.t_end, windows)?;
                    let lu = u.pencil.factor(&weights)?;
                    Ok(Arc::new(WindowKernel { lu, symbols }))
                })?;
                return Ok(kernel);
            }
            PlanKind::Kron { .. } => (
                format!("{} (Kronecker plan)", self.model.strategy_name()),
                "the Kronecker oracle materializes the whole horizon as one dense system",
            ),
            PlanKind::AdaptiveLinear { .. } => (
                "linear (adaptive plan)".into(),
                "`adaptive` plans let the step controller pace the horizon; \
                 windowed solving applies to fixed-resolution plans",
            ),
            PlanKind::StepGrid(_) => (
                "fractional (step-grid plan)".into(),
                "step-grid plans resolve the whole horizon on their explicit grid",
            ),
        };
        Err(OpmError::BadArguments(format!(
            "windowed solving is not available for the `{strategy}` strategy: {why}"
        )))
    }

    /// The multi-term system the plan sweeps or projects outputs
    /// through: its owned conversion, else the model's own multi-term
    /// form (`None` for linear and fractional sweeps).
    fn mt(&self) -> Option<&MultiTermSystem> {
        let owned = match &self.kind {
            PlanKind::Uniform(u) => u.mt.as_ref(),
            PlanKind::Kron { mt, .. } => mt.as_ref(),
            _ => None,
        };
        swept_mt(owned, &self.model)
    }

    /// The `σ·E − A` family of a linear-recurrence plan — the pencil the
    /// Newton path restamps.
    fn linear_family(&self) -> Option<&PencilFamily> {
        match &self.kind {
            PlanKind::Uniform(UniformPlan {
                sweep: Sweep::Linear { .. },
                pencil,
                ..
            }) => Some(pencil),
            _ => None,
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

    /// Projects the lanes' waveforms onto window `w` (of `windows`),
    /// reaching `seed` columns back for the stimulus a recurrence
    /// re-reads with its carried columns. The window grid is shifted, the
    /// waveforms are sampled at global time: `u̇` averages for
    /// second-order input, plain interval averages otherwise. This is
    /// the one projection of every uniform waveform solve — the whole
    /// horizon is `W = 1`.
    fn window_coeffs(
        &self,
        sets: &[InputSet],
        windows: usize,
        w: usize,
        seed: usize,
    ) -> LaneCoeffs {
        let us: Vec<Vec<Vec<f64>>> = match &self.kind {
            PlanKind::Uniform(UniformPlan {
                sweep: Sweep::Recurrence { differentiate },
                ..
            }) => {
                let bounds = self.window_bounds(windows, w, seed);
                sets.iter()
                    .map(|set| {
                        if *differentiate {
                            set.derivative_averages_on_grid(&bounds)
                        } else {
                            set.averages_on_grid(&bounds)
                        }
                    })
                    .collect()
            }
            _ => {
                let width = self.t_end / windows as f64;
                sets.iter()
                    .map(|set| set.bpf_matrix_window(self.m, w as f64 * width, width))
                    .collect()
            }
        };
        let refs: Vec<&[Vec<f64>]> = us.iter().map(Vec::as_slice).collect();
        LaneCoeffs::interleave(&refs, self.model.num_inputs(), seed + self.m)
    }

    /// Runs `lanes` through the window loop against `kernel`, split
    /// across up to `threads` workers in contiguous chunks, and assembles
    /// one whole-horizon result per lane straight from the loop's column
    /// store. `coeffs(chunk, w, seed)` supplies a chunk's interleaved
    /// stimulus for window `w` (see [`SimPlan::windowed_drive`]). Lanes
    /// never mix arithmetically (every kernel is elementwise across the
    /// lane dimension), so chunked parallel runs are bit-identical to the
    /// serial run.
    fn drive_batch<L: Sync>(
        &self,
        kernel: &WindowKernel,
        lanes: &[L],
        opts: &WindowedOptions,
        threads: usize,
        coeffs: impl Fn(&[L], usize, usize) -> LaneCoeffs + Sync,
    ) -> Result<Vec<OpmResult>, OpmError> {
        let out = self.output_map();
        let run = |chunk: &[L]| -> Result<Vec<OpmResult>, OpmError> {
            let chunk_coeffs = |w, seed| coeffs(chunk, w, seed);
            let store =
                self.windowed_drive(kernel, chunk.len(), opts, false, chunk_coeffs, |_, _, _| {})?;
            Ok(store
                .into_lane_outcomes()
                .into_iter()
                .map(|o| o.uniform_result(&out, self.t_end))
                .collect())
        };
        let per_worker = worker_lane_chunk(lanes.len(), threads);
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
    /// `coeffs(w, seed)` supplies window `w`'s interleaved stimulus,
    /// preceded by the `seed` columns a recurrence re-reads. Each window
    /// reads the state it carries from the store's newest columns — none
    /// for the polyline endpoint, the trailing `depth` for an integer
    /// recurrence, the Caputo/GL history tail (all, or the short-memory
    /// cap) for fractional kernels. `on_window` then sees the window's
    /// columns and end-of-window state block; with `trim`, the store
    /// afterwards keeps only what the kernel still reads (bounded
    /// streaming memory). Returns the store as one block outcome.
    ///
    /// Polls the [`WindowedOptions`] cancel token at every window
    /// boundary — the cooperative cancellation point that bounds how
    /// long past a deadline a windowed solve can run to one window.
    /// A store the allocator refuses is [`OpmError::BadArguments`].
    fn windowed_drive(
        &self,
        kernel: &WindowKernel,
        lanes: usize,
        opts: &WindowedOptions,
        trim: bool,
        coeffs: impl Fn(usize, usize) -> LaneCoeffs,
        mut on_window: impl FnMut(usize, &[Vec<f64>], &[f64]),
    ) -> Result<BlockOutcome, OpmError> {
        let windows = opts.windows();
        let k = lanes;
        let (carried, recurrence) = match &kernel.symbols {
            WindowSymbols::Linear { .. } => (0, false),
            WindowSymbols::Recurrence { depth, .. } => (*depth, true),
            WindowSymbols::Convolution { .. } => (opts.history_cap().unwrap_or(usize::MAX), false),
        };
        // Linear windows restart from the plan's x0 interleaved across
        // the lanes; thereafter each lane carries its own end state.
        let mut end = vec![0.0; self.model.order() * k];
        if let WindowSymbols::Linear { .. } = kernel.symbols {
            for (i, &v) in self.x0.iter().enumerate() {
                end[i * k..(i + 1) * k].iter_mut().for_each(|x| *x = v);
            }
        }
        // Sized by the request alone, so reserved fallibly.
        let too_large = || unallocatable(windows, self.m);
        let columns = if trim {
            self.m
        } else {
            windows.checked_mul(self.m).ok_or_else(too_large)?
        };
        let mut store: Vec<Vec<f64>> = Vec::new();
        store.try_reserve_exact(columns).map_err(|_| too_large())?;
        let mut num_solves = 0;
        for w in 0..windows {
            opts.check_cancelled()?;
            let tail = &store[store.len() - carried.min(store.len())..];
            let seed = if recurrence { tail.len() } else { 0 };
            let outcome = self.sweep_window(kernel, &coeffs(w, seed), tail, &end);
            end = endpoint_state(&outcome.columns, &end);
            num_solves += outcome.num_solves;
            let fresh = outcome.columns.len();
            store.extend(outcome.columns);
            on_window(w, &store[store.len() - fresh..], &end);
            if trim {
                store.drain(..store.len().saturating_sub(carried));
            }
        }
        Ok(BlockOutcome {
            columns: store,
            lanes: k,
            num_solves,
            num_factorizations: 1,
        })
    }

    /// Solves one window for the lanes of `lc` against the shared
    /// kernel, given the columns carried from earlier windows (`tail`,
    /// oldest → newest) and the previous end-of-window state block
    /// `start`. With the full carried state the restarted sweep is
    /// column-for-column the unbroken one.
    fn sweep_window(
        &self,
        kernel: &WindowKernel,
        lc: &LaneCoeffs,
        tail: &[Vec<f64>],
        start: &[f64],
    ) -> BlockOutcome {
        let lu = &kernel.lu;
        match &kernel.symbols {
            WindowSymbols::Linear { sigma, accumulator } => {
                let SimModel::Linear(sys) = self.model.as_ref() else {
                    unreachable!("linear window kernels are built on linear models");
                };
                // Window-local shift z = x − x(T_w): constant forcing
                // c = A·x(T_w), per lane.
                let mut c_force = vec![0.0; sys.order() * lc.lanes];
                sys.a().mul_block_into(start, &mut c_force, lc.lanes);
                let mut outcome = sweep_linear_block(sys, lu, *sigma, &c_force, *accumulator, lc);
                // z → x: add the window's start state back.
                for col in &mut outcome.columns {
                    for (c, &v) in col.iter_mut().zip(start) {
                        *c += v;
                    }
                }
                outcome
            }
            WindowSymbols::Recurrence { polys, bw, .. } => {
                let mt = self
                    .mt()
                    .expect("recurrence kernels sweep a multi-term system");
                sweep_mt_recurrence_block(mt, lu, polys, bw, lc, tail.to_vec())
            }
            WindowSymbols::Convolution { series } => {
                let mt = self
                    .mt()
                    .expect("convolution kernels sweep a multi-term system");
                sweep_mt_convolution_block(mt, lu, series, lc, tail)
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

    /// One coefficient stimulus through the dense Kronecker oracle.
    fn kron_solve(&self, u: &[Vec<f64>]) -> Result<OpmResult, OpmError> {
        let (PlanKind::Kron { factors, .. }, Some(mt)) = (&self.kind, self.mt()) else {
            unreachable!("kron plans carry or reference a multi-term form");
        };
        kron_solve_prepared(mt, factors, u, self.t_end)
    }

    fn output_map(&self) -> OutRef<'_> {
        match (self.mt(), self.model.as_ref()) {
            (Some(mt), _) => OutRef::Mt(mt),
            (None, SimModel::Linear(sys)) => OutRef::Sys(sys),
            _ => unreachable!("fractional and second-order plans own their multi-term conversion"),
        }
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
/// `c_force = A·x_w` from each lane's window start state `x_w` (`x₀` for
/// the first window).
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

/// Integer multi-term finite recurrence, K lanes wide, seeded with the
/// trailing `seed` columns of the previous window (`lc` holds the
/// matching stimulus columns first), so the restart is column-for-column
/// the unbroken sweep (an empty seed starts the horizon).
fn sweep_mt_recurrence_block(
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

/// Multi-term nilpotent-series convolution, K lanes wide (paper §IV;
/// a fractional system sweeps as its two-term conversion), with an
/// optional carried history tail per term: the memory term of column
/// `j` splits into the window-local part `Σ_{t=1}^{j} ρ_t·x_{j−t}` plus
/// the carried part `Σ_{d} ρ_{j+d}·tail[end−d]` over previous windows'
/// retained columns (an empty `tail` starts the horizon).
fn sweep_mt_convolution_block(
    mt: &MultiTermSystem,
    lu: &SparseLu,
    series: &[Vec<f64>],
    lc: &LaneCoeffs,
    tail: &[Vec<f64>],
) -> BlockOutcome {
    let n = mt.order();
    let k = lc.lanes;
    let carried: Vec<Option<Vec<Vec<f64>>>> = mt
        .terms()
        .iter()
        .zip(series)
        .map(|(term, rho)| {
            if term.alpha == 0.0 {
                None
            } else {
                carried_block(rho, tail, n * k, lc.m)
            }
        })
        .collect();
    let mut acc = vec![0.0; n * k];
    BlockColumnSweep::new(n, lc.m, k).run(lu, |j, history, rhs, work| {
        apply_b_block(mt.b(), &lc.cols[j], k, 1.0, rhs);
        for ((term, rho), carried) in mt.terms().iter().zip(series).zip(&carried) {
            if term.alpha == 0.0 {
                continue; // ρ = e₀: no history contribution
            }
            start_column(&mut acc, carried.as_deref(), j);
            history_convolution_into(rho, 0, history, &mut acc);
            term.matrix.mul_block_into(&acc, work, k);
            axpy(rhs, work, -1.0);
        }
    })
}

/// The carried memory term of every column of a window — the Toeplitz
/// block of `weights` against the tail, in one pass
/// ([`history_block_into`]) — or `None` for an empty tail (the first
/// window carries nothing).
fn carried_block(
    weights: &[f64],
    tail: &[Vec<f64>],
    len: usize,
    m: usize,
) -> Option<Vec<Vec<f64>>> {
    if tail.is_empty() {
        return None;
    }
    let mut block = vec![vec![0.0; len]; m];
    history_block_into(weights, tail, &mut block);
    Some(block)
}

/// Starts column `j`'s memory accumulator from its carried term (zero
/// when nothing is carried); the window-local terms are added after.
fn start_column(acc: &mut [f64], carried: Option<&[Vec<f64>]>, j: usize) {
    match carried {
        Some(block) => acc.copy_from_slice(&block[j]),
        None => acc.fill(0.0),
    }
}

// ---------------------------------------------------------------------------
// Plan-time precomputation: one derivation of every window's symbol data
// ---------------------------------------------------------------------------

fn mt_all_integer(mt: &MultiTermSystem) -> bool {
    mt.terms()
        .iter()
        .all(|t| t.alpha.fract() == 0.0 && t.alpha <= 16.0)
}

/// The multi-term sweep `method` selects: the finite recurrence for
/// integer orders (forced by `Recurrence`), the convolution for
/// fractional mixtures (forced by `Convolution`).
fn mt_sweep(mt: &MultiTermSystem, method: Method) -> Result<Sweep, OpmError> {
    let recurrence = match method {
        Method::Recurrence => {
            if let Some(t) = mt.terms().iter().find(|t| t.alpha.fract() != 0.0) {
                return Err(OpmError::BadArguments(format!(
                    "non-integer order {} in recurrence path",
                    t.alpha
                )));
            }
            true
        }
        Method::Convolution => false,
        _ => mt_all_integer(mt),
    };
    Ok(if recurrence {
        Sweep::Recurrence {
            differentiate: false,
        }
    } else {
        Sweep::Convolution
    })
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
/// window step is `h_w = T/(W·m)`; the convolution weight vectors span
/// all `W·m` columns, so entries past the window resolution weight the
/// carried history.
fn window_symbols(
    sweep: Sweep,
    mt: Option<&MultiTermSystem>,
    m: usize,
    t_end: f64,
    windows: usize,
) -> Result<(WindowSymbols, Vec<f64>), OpmError> {
    let mt = || mt.expect("multi-term sweeps carry their system");
    Ok(match sweep {
        Sweep::Linear { accumulator } => {
            let sigma = 2.0 * (m as f64 * windows as f64) / t_end;
            let symbols = WindowSymbols::Linear { sigma, accumulator };
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
            (WindowSymbols::Convolution { series }, weights)
        }
    })
}

impl UniformPlan {
    /// Derives the whole-horizon kernel, factors its pencil and records
    /// the family's analysis every other window count replays (through
    /// `patterns`, the plan cache's pattern tier, when given).
    fn prepare(
        model: &SimModel,
        sweep: Sweep,
        mt: Option<MultiTermSystem>,
        m: usize,
        t_end: f64,
        patterns: Option<&PatternCache>,
    ) -> Result<Self, OpmError> {
        let swept = swept_mt(mt.as_ref(), model);
        let (symbols, weights) = window_symbols(sweep, swept, m, t_end, 1)?;
        let terms: Vec<&CsrMatrix> = match (swept, model) {
            (Some(mt), _) => mt.terms().iter().map(|t| &t.matrix).collect(),
            (None, SimModel::Linear(sys)) => vec![sys.e(), sys.a()],
            _ => unreachable!("only linear sweeps factor the model's own (E, A)"),
        };
        let (pencil, lu) = PencilFamily::recorded_in(&terms, &weights, patterns)?;
        Ok(UniformPlan {
            sweep,
            pencil,
            mt,
            whole: Arc::new(WindowKernel { lu, symbols }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SolveOptions;
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

        // Step grid: 12 pencils = 1 analysis + 11 refactorizations.
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let steps = crate::adaptive::geometric_grid(1.0, 12, 1.2);
        let simf = Simulation::from_fractional(fsys).horizon(1.0);
        let planf = simf.plan(&SolveOptions::new().step_grid(steps)).unwrap();
        let p = planf.factor_profile();
        assert_eq!((p.num_symbolic, p.num_numeric), (1, 11));
        assert_eq!(p.num_factorizations(), 12);

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
            let r = plan
                .solve_windowed_batch_opts(std::slice::from_ref(&inputs), &opts, 1)
                .unwrap()
                .remove(0);
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
        let covered = plan
            .solve_windowed_batch_opts(std::slice::from_ref(&inputs), &opts, 1)
            .unwrap()
            .remove(0);
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
        // W = 1 is the kernel the plan was built with, never cached:
        // exercise the cache from W = 2.
        let sim = Simulation::from_fractional(FractionalSystem::new(0.5, scalar(-1.0)).unwrap())
            .horizon(2.0);
        let plan = sim.plan(&SolveOptions::new().resolution(4)).unwrap();
        let inputs = InputSet::new(vec![Waveform::step(0.3, 1.0)]);
        let first = plan.solve_windowed(&inputs, 2).unwrap();
        for windows in 2..=21 {
            plan.solve_windowed(&inputs, windows).unwrap();
            assert!(plan.kernels.len() <= WINDOW_KERNELS_RETAINED);
        }
        // The least recently used kernels — W = 2 among them — are gone.
        let retained: Vec<usize> = plan.kernels.values().into_iter().map(|(w, _)| w).collect();
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
        assert_eq!(plan.factor_profile().num_factorizations(), 1);
    }
}
