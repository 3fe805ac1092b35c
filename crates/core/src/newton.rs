//! Per-column Newton iteration over the OPM endpoint recurrence.
//!
//! # The endpoint formulation
//!
//! For nonlinear circuits `E ẋ = A x + f(x) + B u` each column iterates
//! the endpoint recurrence every linear sweep runs ([`crate::linear`]),
//! with the device currents added: with `e₀ = x₀` the polyline
//! endpoint entering column `j`,
//!
//! ```text
//! (σE − A)·x_j − f(x_j) = σE·e_j + B·u_j ,     e_{j+1} = 2·x_j − e_j
//! ```
//!
//! (`σ = 2m/T_w`). The right-hand side and the endpoint step are the
//! linear sweep's own (`Endpoint` in [`crate::engine`]): the window
//! loop's linear arm ([`crate::session`]) solves each column of a
//! nonlinear plan with [`NewtonSweep::column`] instead of a block solve,
//! and with `f ≡ 0` this is the linear recurrence exactly.
//!
//! # SPICE-style full-value iteration
//!
//! Each Newton iterate linearizes every device at the guess `x*` and
//! solves the *full-value* companion system
//!
//! ```text
//! (σE − A − J_f(x*))·x = σE·e_j + B·u_j + I_eq(x*)
//! ```
//!
//! The iteration matrix differs from the plan's pencil only in values
//! (GMIN planting at assembly keeps every device position stored), so
//! every iteration is a numeric-only
//! [`SparseLu::refactor`](opm_sparse::SparseLu::refactor) replayed
//! against the plan's one recorded symbolic analysis — see
//! [`PencilFamily::factor_stamped`]. Convergence is residual-based:
//! `‖(σE − A)x − f(x) − rhs‖_∞ ≤ ABS_TOL + REL_TOL·‖rhs‖_∞`, evaluated
//! with the *exact* (not linearized) device currents.
//!
//! # Cost per iterate
//!
//! An iterate re-stamps the devices, rewrites the pencil values (one
//! pass over the union pattern, plus a binary search per stamp),
//! replays the recorded numeric factorization into the sweep's own
//! factor ([`SparseLu::refactor_into`]), solves once and evaluates the
//! residual (two SpMVs plus the device currents). Every buffer it
//! touches belongs to the [`NewtonSweep`] for the whole solve, so a
//! steady-state iterate makes no heap allocation; a solve allocates once
//! per column (the stored solution) plus a constant setup
//! (`tests/newton_alloc.rs` counts them). On the 36-unknown
//! diode-into-RC-ladder pencil that is 2–4 µs per iterate on a shared
//! 2-vCPU x86 host.

use crate::cancel::CancelToken;
use crate::engine::{Endpoint, PencilFamily};
use crate::OpmError;
use opm_circuits::nonlinear::{DeviceModel, MnaStamps, NonlinearDevice};
use opm_sparse::SparseLu;
use opm_system::DescriptorSystem;

/// Iteration budget per column before [`OpmError::Nonconvergence`].
const MAX_ITERS: usize = 50;
/// A column converges when `‖F(x)‖_∞ ≤ ABS_TOL + REL_TOL·‖rhs‖_∞`.
const ABS_TOL: f64 = 1e-9;
/// See [`ABS_TOL`].
const REL_TOL: f64 = 1e-9;

/// The column solver of a nonlinear plan, one per solved lane: the
/// device list, the map from stamp coordinates into the pencil family's
/// value buffer, and every buffer an iterate touches — the stamped
/// values, the factor, the solve scratch and the iterates themselves —
/// owned for the whole solve, across all windows.
pub(crate) struct NewtonSweep<'a> {
    sys: &'a DescriptorSystem,
    devices: &'a [DeviceModel],
    family: &'a PencilFamily,
    /// Every `(row, col)` position a device may ever stamp, sorted, with
    /// its index in the union-pattern value buffer.
    slots: Vec<((usize, usize), usize)>,
    stamps: MnaStamps,
    /// The stamped Newton-matrix values, refilled every iterate.
    vals: Vec<f64>,
    /// The iterate's factor, refactored in place.
    lu: SparseLu,
    /// The current iterate: the last column's solution, or the window's
    /// start state.
    pub x: Vec<f64>,
    /// The next iterate, solved into and then swapped with `x`.
    x_new: Vec<f64>,
    /// [`SparseLu::solve_into`]'s scratch.
    y: Vec<f64>,
    rhs_base: Vec<f64>,
    rhs: Vec<f64>,
    resid: Vec<f64>,
    work: Vec<f64>,
    f_dev: Vec<f64>,
    /// Newton iterations performed (across all columns solved so far).
    pub newton_iters: usize,
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

impl<'a> NewtonSweep<'a> {
    /// Resolves every position any device may ever touch (the 2×2 blocks
    /// over its coupling pairs — a MOSFET's drain/source swap stays
    /// inside them) into the family's value buffer once, so stamping an
    /// iterate is a binary search over those positions.
    pub fn new(
        sys: &'a DescriptorSystem,
        devices: &'a [DeviceModel],
        family: &'a PencilFamily,
    ) -> Result<Self, OpmError> {
        let mut coords: Vec<(usize, usize)> = Vec::new();
        for dev in devices {
            for (p, q) in dev.coupling_pairs() {
                for (r, c) in [(p, p), (p, q), (q, p), (q, q)] {
                    if r > 0 && c > 0 {
                        coords.push((r - 1, c - 1));
                    }
                }
            }
        }
        coords.sort_unstable();
        coords.dedup();
        let indices = family.value_indices(&coords)?;
        let n = sys.order();
        Ok(NewtonSweep {
            sys,
            devices,
            family,
            slots: coords.into_iter().zip(indices).collect(),
            stamps: MnaStamps::new(),
            vals: Vec::new(),
            lu: SparseLu::default(),
            x: vec![0.0; n],
            x_new: vec![0.0; n],
            y: vec![0.0; n],
            rhs_base: vec![0.0; n],
            rhs: vec![0.0; n],
            resid: vec![0.0; n],
            work: vec![0.0; n],
            f_dev: vec![0.0; n],
            newton_iters: 0,
        })
    }

    /// Residual `F(x) = (σE − A)·x − f(x) − rhs_base` of the current
    /// iterate into `self.resid`, with the exact device currents.
    fn residual(&mut self, sigma: f64) {
        let n = self.sys.order();
        let x = &self.x;
        self.sys.e().mul_block_into(x, &mut self.work, 1);
        for i in 0..n {
            self.resid[i] = sigma * self.work[i] - self.rhs_base[i];
        }
        self.sys.a().mul_block_into(x, &mut self.work, 1);
        for i in 0..n {
            self.resid[i] -= self.work[i];
        }
        self.f_dev.fill(0.0);
        for dev in self.devices {
            dev.accumulate_current(x, &mut self.f_dev);
        }
        for i in 0..n {
            self.resid[i] -= self.f_dev[i];
        }
    }

    /// Solves one column at shift `sigma` into [`NewtonSweep::x`] and
    /// steps `endpoint` past it: the right-hand side `σE·e + B·u` from
    /// `endpoint` and the column's stimulus `u`, then full-value iterates
    /// from `x` to the residual tolerance, polling `cancel` every
    /// iteration. An iterate allocates nothing. `at` is the column and
    /// window a nonconvergence names.
    ///
    /// # Errors
    /// [`OpmError::Nonconvergence`] when the column exhausts
    /// [`MAX_ITERS`]; [`OpmError::Cancelled`] on a tripped token;
    /// [`OpmError::SingularPencil`] from factorization.
    pub fn column(
        &mut self,
        sigma: f64,
        endpoint: &mut Endpoint,
        u: &[f64],
        cancel: Option<&CancelToken>,
        at: (usize, usize),
    ) -> Result<(), OpmError> {
        let weights = [sigma, -1.0];
        endpoint.rhs(self.sys, sigma, u, &mut self.rhs_base);
        let tol = ABS_TOL + REL_TOL * inf_norm(&self.rhs_base);
        let mut res = f64::INFINITY;
        for _ in 0..MAX_ITERS {
            cancel.map_or(Ok(()), CancelToken::check)?;
            self.newton_iters += 1;
            self.stamps.clear();
            for dev in self.devices {
                dev.stamp(&self.x, &mut self.stamps);
            }
            let (stamps, slots) = (&self.stamps, &self.slots);
            self.family
                .factor_stamped(&weights, &mut self.vals, &mut self.lu, |vals| {
                    for &(r, c, g) in stamps.entries() {
                        let k = slots
                            .binary_search_by_key(&(r, c), |&(rc, _)| rc)
                            .expect("device stamps stay inside their coupling pairs");
                        vals[slots[k].1] += g;
                    }
                })?;
            self.rhs.copy_from_slice(&self.rhs_base);
            for &(row, amps) in self.stamps.currents() {
                self.rhs[row] += amps;
            }
            self.lu.solve_into(&self.rhs, &mut self.x_new, &mut self.y);
            std::mem::swap(&mut self.x, &mut self.x_new);
            self.residual(sigma);
            res = inf_norm(&self.resid);
            if res <= tol {
                endpoint.advance(&self.x);
                return Ok(());
            }
        }
        Err(OpmError::Nonconvergence {
            iterations: MAX_ITERS,
            residual: res,
            context: format!("column {} of window {}", at.0, at.1),
        })
    }
}
