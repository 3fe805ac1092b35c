//! Per-column Newton iteration over the OPM endpoint recurrence.
//!
//! # The endpoint formulation
//!
//! The linear OPM recurrence advances the shifted state `z = x − x₀`
//! column by column. For nonlinear circuits
//! `E ẋ = A x + f(x) + B u` the superposition that justifies the shift
//! is gone, so the Newton path uses the algebraically identical
//! *endpoint* form in absolute coordinates: with `e₀ = x₀` the polyline
//! endpoint entering column `j`, each column solves
//!
//! ```text
//! (σE − A)·x_j − f(x_j) = σE·e_j + B·u_j ,     e_{j+1} = 2·x_j − e_j
//! ```
//!
//! (`σ = 2m/T_w`). With `f ≡ 0` this reproduces the linear two-term
//! recurrence exactly — which is why `solve_newton_windowed` on a linear netlist
//! can delegate to the linear sweep bit-identically.
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

use crate::engine::{apply_b, PencilFamily};
use crate::session::NewtonOptions;
use crate::OpmError;
use opm_circuits::nonlinear::{DeviceModel, MnaStamps, NonlinearDevice};
use opm_system::DescriptorSystem;
use std::collections::HashMap;

/// Iteration budget per column before [`OpmError::Nonconvergence`].
const MAX_ITERS: usize = 50;
/// A column converges when `‖F(x)‖_∞ ≤ ABS_TOL + REL_TOL·‖rhs‖_∞`.
const ABS_TOL: f64 = 1e-9;
/// See [`ABS_TOL`].
const REL_TOL: f64 = 1e-9;

/// One solved window of a Newton sweep.
pub(crate) struct NewtonWindow {
    /// Solved state columns, absolute coordinates.
    pub columns: Vec<Vec<f64>>,
    /// Polyline endpoint `x(T_w)` — the next window's seed.
    pub end: Vec<f64>,
}

/// Reusable per-plan Newton machinery: the device list plus the
/// precomputed map from stamp coordinates into the pencil family's
/// shifted value buffer.
pub(crate) struct NewtonSweep<'a> {
    sys: &'a DescriptorSystem,
    devices: &'a [DeviceModel],
    /// `(row, col)` → value index in the union-pattern value buffer.
    idx: HashMap<(usize, usize), usize>,
    stamps: MnaStamps,
    rhs_base: Vec<f64>,
    rhs: Vec<f64>,
    resid: Vec<f64>,
    work: Vec<f64>,
    f_dev: Vec<f64>,
    /// Newton iterations performed (across all windows driven so far).
    pub newton_iters: usize,
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

impl<'a> NewtonSweep<'a> {
    /// Builds the stamp-index map: every position any device may ever
    /// touch (the 2×2 blocks over its coupling pairs) resolved into the
    /// family's value buffer once, so per-iteration stamping is pure
    /// index arithmetic.
    pub fn new(
        sys: &'a DescriptorSystem,
        devices: &'a [DeviceModel],
        family: &PencilFamily,
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
        let idx = coords.into_iter().zip(indices).collect();
        let n = sys.order();
        Ok(NewtonSweep {
            sys,
            devices,
            idx,
            stamps: MnaStamps::new(),
            rhs_base: vec![0.0; n],
            rhs: vec![0.0; n],
            resid: vec![0.0; n],
            work: vec![0.0; n],
            f_dev: vec![0.0; n],
            newton_iters: 0,
        })
    }

    /// Residual `F(x) = (σE − A)·x − f(x) − rhs_base` into `self.resid`,
    /// with the exact device currents.
    fn residual(&mut self, sigma: f64, x: &[f64]) {
        let n = self.sys.order();
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

    /// Sweeps one window: `m` columns at shift `sigma` with stimulus
    /// coefficients `u[ch][j]`, seeded from endpoint `e0`. Each column
    /// warm-starts from the previous column's solution and iterates to
    /// the residual tolerance; the cancel token is polled every
    /// iteration.
    ///
    /// # Errors
    /// [`OpmError::Nonconvergence`] when a column exhausts
    /// [`MAX_ITERS`]; [`OpmError::Cancelled`] on a tripped token;
    /// [`OpmError::SingularPencil`] from factorization.
    #[allow(clippy::too_many_arguments)]
    pub fn window(
        &mut self,
        family: &PencilFamily,
        sigma: f64,
        m: usize,
        u: &[Vec<f64>],
        e0: &[f64],
        opts: &NewtonOptions,
        window: usize,
    ) -> Result<NewtonWindow, OpmError> {
        let n = self.sys.order();
        let weights = [sigma, -1.0];
        let mut e = e0.to_vec();
        let mut x = e0.to_vec();
        let mut columns = Vec::with_capacity(m);
        for j in 0..m {
            // rhs_base = σ·E·e_j + B·u_j.
            self.sys.e().mul_block_into(&e, &mut self.work, 1);
            for i in 0..n {
                self.rhs_base[i] = sigma * self.work[i];
            }
            apply_b(self.sys.b(), u, j, 1.0, &mut self.rhs_base);
            let tol = ABS_TOL + REL_TOL * inf_norm(&self.rhs_base);
            let mut converged = false;
            let mut res = f64::INFINITY;
            let mut iters = 0;
            while iters < MAX_ITERS {
                if let Some(token) = &opts.cancel {
                    token.check()?;
                }
                iters += 1;
                self.newton_iters += 1;
                self.stamps.clear();
                for dev in self.devices {
                    dev.stamp(&x, &mut self.stamps);
                }
                let lu = {
                    let stamps = &self.stamps;
                    let idx = &self.idx;
                    family.factor_stamped(&weights, |vals| {
                        for &(r, c, g) in stamps.entries() {
                            vals[idx[&(r, c)]] += g;
                        }
                    })?
                };
                self.rhs.copy_from_slice(&self.rhs_base);
                for &(row, amps) in self.stamps.currents() {
                    self.rhs[row] += amps;
                }
                let x_new = lu.solve(&self.rhs);
                self.residual(sigma, &x_new);
                res = inf_norm(&self.resid);
                x = x_new;
                if res <= tol {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(OpmError::Nonconvergence {
                    iterations: iters,
                    residual: res,
                    context: format!("column {j} of window {window}"),
                });
            }
            for i in 0..n {
                e[i] = 2.0 * x[i] - e[i];
            }
            columns.push(x.clone());
        }
        Ok(NewtonWindow { columns, end: e })
    }
}
