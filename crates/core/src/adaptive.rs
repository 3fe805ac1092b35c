//! Adaptive-step OPM (paper §III-B and Eq. 25).
//!
//! **Linear systems** adapt on the fly: the endpoint recurrence every
//! linear sweep runs ([`crate::linear`]) solves column `j` as
//! `(2/h_j·E − A)·x_j = (2/h_j)·E·e_j + B·ū_j`, which involves only the
//! *current* step `h_j` (the endpoint step `e_{j+1} = 2x_j − e_j` is
//! step-free), so a rejected column is simply re-solved with a smaller
//! `h_j` — the paper's "time step determined on the fly by some error
//! control mechanism". Steps live on a power-of-two lattice to bound the
//! number of LU factorizations; held at one step, the stepper is the
//! uniform sweep bit for bit.
//!
//! **Fractional systems** couple all steps through `D̃^α` (Eq. 25), so
//! adaptivity uses a caller-chosen *distinct-step grid* (e.g.
//! [`geometric_grid`]) and the incremental Parlett recurrence from
//! `opm-basis` to grow `D̃^α` column by column. Each column has its own
//! diagonal `(2/h_j)^α`, hence its own factorization — the
//! eigendecomposition route of the paper has the same property.

use crate::cache::PatternCache;
use crate::cancel::CancelToken;
use crate::engine::{apply_b_block, Endpoint, PencilFamily};
use crate::gate::GateCache;
use crate::metrics::FactorProfile;
use crate::result::OpmResult;
use crate::sync::StdSync;
use crate::OpmError;
use opm_basis::adaptive::AdaptiveBpf;
use opm_basis::traits::Basis;
use opm_sparse::SparseLu;
use opm_system::{DescriptorSystem, FractionalSystem};
use opm_waveform::InputSet;
use std::sync::Arc;

/// Options for adaptive linear stepping
/// ([`crate::SolveOptions::adaptive`]).
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveOpmOptions {
    /// Predictor–corrector LTE tolerance (per column, ∞-norm).
    pub tol: f64,
    /// Initial step.
    pub h0: f64,
    /// Smallest step.
    pub h_min: f64,
    /// Largest step.
    pub h_max: f64,
}

impl Default for AdaptiveOpmOptions {
    fn default() -> Self {
        AdaptiveOpmOptions {
            tol: 1e-6,
            h0: 1e-3,
            h_min: 1e-12,
            h_max: 0.25,
        }
    }
}

/// The power-of-two lattice exponent nearest to `h`.
fn lattice_exp(h: f64) -> i32 {
    h.log2().round() as i32
}

fn quantize(h: f64) -> f64 {
    2.0f64.powi(lattice_exp(h))
}

/// The step the controller takes from `t`: `h` clamped to the quantized
/// `[h_min, h_max]` lattice range, then halved until it ends inside the
/// horizon (or reaches `h_min`).
fn clamp_step(h: f64, t: f64, t_end: f64, opts: &AdaptiveOpmOptions) -> f64 {
    let mut h = h.min(quantize(opts.h_max)).max(quantize(opts.h_min));
    while t + h > t_end * (1.0 + 1e-12) && h > opts.h_min {
        h *= 0.5;
    }
    h
}

/// The pencil weights `(2/h, −1)` on `(E, A)` of lattice exponent `exp`
/// (step `h = 2^exp`).
fn lattice_weights(exp: i32) -> [f64; 2] {
    [2.0 / 2.0f64.powi(exp), -1.0]
}

/// An adaptive plan's step lattice: one pencil `(2/h)·E − A` per
/// power-of-two exponent, factored on first use through the
/// single-flight [`GateCache`] and shared by every scenario — and every
/// thread — solving through the plan. The family's analysis is recorded
/// when the lattice is built, at the controller's first step, so every
/// later exponent is a numeric-only refactorization.
pub(crate) struct StepLattice {
    family: PencilFamily,
    /// The controller's first exponent and the factor the analysis was
    /// recorded from: its (first) lookup is a miss that factors nothing.
    first: (i32, Arc<SparseLu>),
    factors: GateCache<i32, Arc<SparseLu>, OpmError, StdSync>,
}

impl StepLattice {
    /// Validates the step options and records the family's analysis at
    /// the first step the controller will take on `[0, t_end)` — through
    /// the plan cache's pattern tier when `patterns` is given.
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] on inconsistent step options,
    /// [`OpmError::SingularPencil`] when the first pencil is singular.
    pub(crate) fn new(
        sys: &DescriptorSystem,
        t_end: f64,
        opts: &AdaptiveOpmOptions,
        patterns: Option<&PatternCache>,
    ) -> Result<Self, OpmError> {
        if !(opts.h0 > 0.0 && opts.h_min > 0.0 && opts.h_max >= opts.h0 && t_end > 0.0) {
            return Err(OpmError::BadArguments("inconsistent step options".into()));
        }
        let exp = lattice_exp(clamp_step(quantize(opts.h0), 0.0, t_end, opts));
        let (family, lu) =
            PencilFamily::recorded_in(&[sys.e(), sys.a()], &lattice_weights(exp), patterns, true)?;
        // Every exponent the controller can reach: the quantized range,
        // plus one below it (the end-of-horizon halving may step under
        // `quantize(h_min)`), so nothing is ever evicted.
        let lo = lattice_exp(opts.h_min) - 1;
        let hi = lattice_exp(opts.h_max).max(lo + 1);
        let capacity = (hi - lo + 1) as usize;
        Ok(StepLattice {
            family,
            first: (exp, Arc::new(lu.expect("a replaying build factors"))),
            factors: GateCache::new(capacity, || {
                OpmError::BadArguments(
                    "step-lattice factorization panicked; the panicking request reports it".into(),
                )
            }),
        })
    }

    /// The factorization for exponent `exp` (step `h = 2^exp`), computed
    /// at most once.
    fn get(&self, exp: i32) -> Result<Arc<SparseLu>, OpmError> {
        let (lu, _) = self.factors.get_or_build(exp, || {
            if exp == self.first.0 {
                return Ok(Arc::clone(&self.first.1));
            }
            self.family.factor(&lattice_weights(exp)).map(Arc::new)
        })?;
        Ok(lu)
    }

    /// The family's symbolic/numeric split plus the lattice's hit/miss
    /// readout and the bytes of the factors it holds.
    pub(crate) fn profile(&self) -> FactorProfile {
        let stats = self.factors.stats();
        let others: usize = (self.factors.values().iter())
            .filter(|(exp, _)| *exp != self.first.0)
            .map(|(_, lu)| lu.owned_bytes())
            .sum();
        FactorProfile {
            cache_hits: stats.hits as usize,
            cache_misses: stats.misses as usize,
            kernel_bytes: self.first.1.owned_bytes() + others,
            ..self.family.profile()
        }
    }
}

/// Adaptive-step OPM for linear descriptor systems — the session
/// layer's adaptive plan kind — against the plan's shared step lattice.
/// Channels and `x0` are validated by the plan; the lattice's hit/miss
/// readout is the plan's [`crate::SimPlan::factor_profile`].
///
/// # Errors
/// [`OpmError::SingularPencil`] when a lattice pencil is singular.
pub(crate) fn linear_adaptive_with(
    sys: &DescriptorSystem,
    inputs: &InputSet,
    t_end: f64,
    x0: &[f64],
    opts: AdaptiveOpmOptions,
    lattice: &StepLattice,
) -> Result<OpmResult, OpmError> {
    let mut endpoint = Endpoint::new(x0);
    let mut u = vec![0.0; inputs.len()];
    let mut rhs = vec![0.0; sys.order()];
    let mut t = 0.0;
    let mut h = quantize(opts.h0);
    let mut h_prev = 0.0;
    let mut bounds = vec![0.0];
    let mut columns: Vec<Vec<f64>> = Vec::new();
    let mut accepted_run = 0usize;

    while t < t_end - 1e-12 * t_end {
        // h is on the lattice: the endpoint recurrence at σ = 2/h
        // against the lattice factor.
        h = clamp_step(h, t, t_end, &opts);
        for (uc, w) in u.iter_mut().zip(inputs.channels()) {
            *uc = w.average(t, t + h);
        }
        endpoint.rhs(sys, 2.0 / h, &u, &mut rhs);
        let (lu, mut x) = (lattice.get(lattice_exp(h))?, vec![0.0; rhs.len()]);
        lu.solve_block_into(&rhs, &mut x, 1);
        // Predictor: linear extrapolation of the last column pair.
        let est = match columns.as_slice() {
            [.., x2, x1] => {
                let factor = (h + h_prev) / (2.0 * h_prev);
                x.iter()
                    .zip(x1)
                    .zip(x2)
                    .map(|((xj, a), b)| (xj - (a + (a - b) * factor)).abs())
                    .fold(0.0, f64::max)
            }
            _ => 0.0, // accept the first two columns unconditionally
        };

        if est <= opts.tol || h * 0.5 < opts.h_min {
            t += h;
            bounds.push(t);
            endpoint.advance(&x);
            columns.push(x);
            h_prev = h;
            accepted_run += 1;
            if est < 0.25 * opts.tol && accepted_run >= 3 && h * 2.0 <= opts.h_max {
                h *= 2.0;
                accepted_run = 0;
            }
        } else {
            h *= 0.5;
            accepted_run = 0;
        }
    }

    Ok(OpmResult::new(bounds, columns, sys.c()))
}

/// A strictly geometric step profile: `h_{j+1} = ratio·h_j`, scaled so the
/// steps sum to `t_end`. All steps are pairwise distinct for `ratio ≠ 1`,
/// satisfying the Parlett/eigendecomposition requirement.
///
/// # Panics
/// Panics when `m == 0`, `ratio <= 0` or `ratio == 1`.
pub fn geometric_grid(t_end: f64, m: usize, ratio: f64) -> Vec<f64> {
    assert!(m > 0 && ratio > 0.0 && ratio != 1.0);
    let total: f64 = (0..m).map(|j| ratio.powi(j as i32)).sum();
    (0..m)
        .map(|j| t_end * ratio.powi(j as i32) / total)
        .collect()
}

/// Stimulus-independent data of a distinct-step fractional solve: the
/// upper-triangular columns of `D̃^α` plus one pencil factorization per
/// column. Built once by [`prepare_step_grid`] (the plan layer caches it
/// across scenarios), consumed by [`sweep_step_grid`].
pub(crate) struct StepGridFactors {
    /// `f_cols[j][i] = D̃^α[i, j]` for `i ≤ j`.
    f_cols: Vec<Vec<f64>>,
    /// Factorization of `(D̃^α[j,j]·E − A)` per column.
    lus: Vec<SparseLu>,
    /// Symbolic/numeric split of the factorization work above.
    profile: FactorProfile,
}

impl StepGridFactors {
    pub(crate) fn profile(&self) -> FactorProfile {
        self.profile
    }
}

/// Builds and factors every per-column pencil of a distinct-step grid —
/// the expensive half of a step-grid solve
/// ([`crate::SolveOptions::step_grid`]), independent of the stimulus.
/// All columns share one [`PencilFamily`] (pattern, ordering and
/// symbolic analysis paid once, or replayed from the plan cache's
/// pattern tier when `patterns` is given), and the per-column numeric
/// refactorizations — independent of each other — run in parallel on the
/// [`opm_par::default_threads`] workers. Note this *prepare-time*
/// parallelism is governed solely by `OPM_THREADS` (it happens inside
/// `Simulation::plan`, before any solve-time thread count is known);
/// set `OPM_THREADS=1` to keep plan construction serial.
///
/// # Errors
/// [`OpmError::ConfluentSteps`] when two steps coincide (or lie too
/// close for a stable fractional power); [`OpmError::SingularPencil`]
/// when some column's pencil is singular.
pub(crate) fn prepare_step_grid(
    fsys: &FractionalSystem,
    grid: &AdaptiveBpf,
    patterns: Option<&PatternCache>,
) -> Result<StepGridFactors, OpmError> {
    let sys = fsys.system();
    let m = grid.dim();

    // The scalar Parlett recurrence (like the paper's eigendecomposition)
    // loses accuracy when many steps are nearly equal: divided differences
    // compound by factors ~1/(d_i − d_j). Entries of D̃^α should stay
    // comparable to the diagonal scale; growth beyond this ratio marks a
    // numerically meaningless result and is rejected loudly.
    const CONDITION_LIMIT: f64 = 1e8;

    let mut inc = AdaptiveBpf::incremental_frac_diff(fsys.alpha(), m);
    let mut f_cols: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut weights: Vec<[f64; 2]> = Vec::with_capacity(m);
    for j in 0..m {
        inc.append_column(&grid.diff_column(j))
            .map_err(|e| OpmError::ConfluentSteps(format!("{e}")))?;
        let diag_scale = inc.value(j, j).abs().max(inc.value(0, 0).abs());
        for i in 0..j {
            if inc.value(i, j).abs() > CONDITION_LIMIT * diag_scale {
                return Err(OpmError::ConfluentSteps(format!(
                    "D̃^α entry ({i},{j}) grew to {:.2e} (diagonal scale {:.2e}); \
                     steps too close for a stable fractional power — use fewer \
                     columns or a larger step ratio",
                    inc.value(i, j).abs(),
                    diag_scale
                )));
            }
        }
        f_cols.push((0..=j).map(|i| inc.value(i, j)).collect());
        weights.push([inc.value(j, j), -1.0]);
    }

    // (F[j,j]·E − A)·x_j = B·u_j − E·Σ_{i<j} F[i,j]·x_i — one pencil per
    // column, all on one pattern: analyze once, refactor the rest.
    let at_column = |j: usize, e: OpmError| match e {
        OpmError::SingularPencil(s) => OpmError::SingularPencil(format!("column {j}: {s}")),
        other => other,
    };
    let (family, head) =
        PencilFamily::recorded_in(&[sys.e(), sys.a()], &weights[0], patterns, true)
            .map_err(|e| at_column(0, e))?;
    let mut lus = vec![head.expect("a replaying build factors")];
    lus.extend(
        family
            .factor_all(&weights[1..], opm_par::default_threads())
            .map_err(|(j, e)| at_column(j + 1, e))?,
    );
    let profile = FactorProfile {
        kernel_bytes: lus.iter().map(SparseLu::owned_bytes).sum(),
        ..family.profile()
    };
    Ok(StepGridFactors {
        f_cols,
        lus,
        profile,
    })
}

/// Runs the distinct-step column sweep against prefactored pencils — the
/// cheap, per-stimulus half of a step-grid solve (the plan has checked
/// the stimulus's channels). `cancel` is polled before every column.
///
/// # Errors
/// [`OpmError::Cancelled`] when `cancel` trips.
pub(crate) fn sweep_step_grid(
    fsys: &FractionalSystem,
    grid: &AdaptiveBpf,
    factors: &StepGridFactors,
    inputs: &InputSet,
    cancel: Option<&CancelToken>,
) -> Result<OpmResult, OpmError> {
    let sys = fsys.system();
    let n = sys.order();
    let m = grid.dim();
    let u = inputs.averages_on_grid(grid.bounds());
    let mut uj = vec![0.0; u.len()];

    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(m);
    for j in 0..m {
        cancel.map_or(Ok(()), CancelToken::check)?;
        let fc = &factors.f_cols[j];
        let mut acc = vec![0.0; n];
        for (i, xi) in columns.iter().enumerate() {
            let f = fc[i];
            if f != 0.0 {
                for (a, x) in acc.iter_mut().zip(xi) {
                    *a += f * x;
                }
            }
        }
        let mut rhs = vec![0.0; n];
        uj.iter_mut().zip(&u).for_each(|(v, row)| *v = row[j]);
        apply_b_block(sys.b(), &uj, 1, 1.0, &mut rhs);
        let mut ea = vec![0.0; n];
        sys.e().mul_vec_into(&acc, &mut ea);
        for (r, w) in rhs.iter_mut().zip(&ea) {
            *r -= w;
        }
        columns.push(factors.lus[j].solve(&rhs));
    }

    Ok(OpmResult::new(grid.bounds().to_vec(), columns, sys.c()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimPlan, Simulation, SolveOptions};
    use opm_fracnum::mittag_leffler::ml_kernel;
    use opm_sparse::{CooMatrix, CsrMatrix};
    use opm_waveform::Waveform;

    fn scalar(a: f64) -> DescriptorSystem {
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, a);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        DescriptorSystem::new(CsrMatrix::identity(1), am.to_csr(), b.to_csr(), None).unwrap()
    }

    fn adaptive_plan(
        sys: DescriptorSystem,
        t_end: f64,
        opts: AdaptiveOpmOptions,
    ) -> Result<SimPlan, OpmError> {
        Simulation::from_system(sys)
            .horizon(t_end)
            .plan(&SolveOptions::new().adaptive(opts))
    }

    fn step_grid_plan(fsys: FractionalSystem, steps: Vec<f64>) -> Result<SimPlan, OpmError> {
        let t_end = steps.iter().sum();
        Simulation::from_fractional(fsys)
            .horizon(t_end)
            .plan(&SolveOptions::new().step_grid(steps))
    }

    #[test]
    fn step_lattice_memoizes() {
        let sys = scalar(-1.0);
        let opts = AdaptiveOpmOptions {
            h0: 1.0 / 8.0,
            ..Default::default()
        };
        let lattice = StepLattice::new(&sys, 1.0, &opts, None).unwrap();
        lattice.get(-3).unwrap();
        lattice.get(-3).unwrap();
        lattice.get(-4).unwrap();
        let p = lattice.profile();
        assert_eq!(p.num_factorizations(), 2);
        assert_eq!((p.cache_hits, p.cache_misses), (1, 2));
        // The second miss reuses the first miss's symbolic analysis.
        assert_eq!((p.num_symbolic, p.num_numeric), (1, 1));
    }

    #[test]
    fn adaptive_held_at_one_step_is_the_uniform_sweep() {
        // Both plans run the endpoint recurrence at σ = 128 against the
        // same factor, so a controller that cannot move reproduces the
        // m = 64 uniform solve bit for bit, nonzero x₀ included.
        let mut a = CooMatrix::new(2, 2);
        for (i, j, v) in [(0, 0, -1.0), (0, 1, 0.5), (1, 0, 0.3), (1, 1, -2.0)] {
            a.push(i, j, v);
        }
        let mut b = CooMatrix::new(2, 1);
        b.push(0, 0, 1.0);
        b.push(1, 0, 0.5);
        let sys =
            DescriptorSystem::new(CsrMatrix::identity(2), a.to_csr(), b.to_csr(), None).unwrap();
        let sim = Simulation::from_system(sys)
            .horizon(1.0)
            .initial_state(vec![1.5, -0.5]);
        let inputs = InputSet::new(vec![Waveform::sine(0.0, 1.0, 3.0, 0.0, 0.0)]);
        let step = 2.0f64.powi(-6);
        let held = AdaptiveOpmOptions {
            h0: step,
            h_min: step,
            h_max: step,
            ..Default::default()
        };
        let adaptive = sim.plan(&SolveOptions::new().adaptive(held)).unwrap();
        let uniform = sim.plan(&SolveOptions::new().resolution(64)).unwrap();
        let (ra, ru) = (
            adaptive.solve(&inputs).unwrap(),
            uniform.solve(&inputs).unwrap(),
        );
        assert_eq!(ra.bounds, ru.bounds);
        for i in 0..2 {
            for j in 0..64 {
                assert_eq!(
                    ra.state_coeff(i, j).to_bits(),
                    ru.state_coeff(i, j).to_bits(),
                    "state {i}, column {j}"
                );
            }
        }
    }

    #[test]
    fn adaptive_linear_tracks_analytic_solution() {
        let sys = scalar(-1.0);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let r = adaptive_plan(
            sys,
            2.0,
            AdaptiveOpmOptions {
                tol: 1e-7,
                h0: 1.0 / 64.0,
                ..Default::default()
            },
        )
        .unwrap()
        .solve(&inputs)
        .unwrap();
        // Check interval averages against the analytic averages.
        for (j, w) in r.bounds.windows(2).enumerate().step_by(5) {
            let (a, b) = (w[0], w[1]);
            let want = 1.0 - ((-a).exp() - (-b).exp()) / (b - a);
            let got = r.state_coeff(0, j);
            assert!((got - want).abs() < 1e-4, "[{a},{b}]: {got} vs {want}");
        }
        assert!((r.bounds.last().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_spends_columns_where_the_action_is() {
        // Fast pulse at t < 0.1, then quiet until t = 4.
        let sys = scalar(-30.0);
        let inputs = InputSet::new(vec![Waveform::pulse(
            0.0, 1.0, 0.01, 0.005, 0.05, 0.005, 0.0,
        )
        .unwrap()]);
        let plan = adaptive_plan(
            sys,
            4.0,
            AdaptiveOpmOptions {
                tol: 1e-5,
                h0: 1.0 / 256.0,
                h_min: 1e-9,
                h_max: 0.5,
            },
        )
        .unwrap();
        let r = plan.solve(&inputs).unwrap();
        let early = r.bounds.iter().filter(|&&t| t <= 0.4).count();
        let late = r.bounds.iter().filter(|&&t| t > 2.0).count();
        assert!(
            early > 3 * late,
            "early {early} vs late {late}: no adaptation"
        );
        // And fewer factorizations than columns (lattice reuse).
        assert!(plan.factor_profile().cache_misses < r.num_intervals() / 2);
    }

    #[test]
    fn geometric_grid_sums_and_is_distinct() {
        let g = geometric_grid(1.0, 10, 1.3);
        let total: f64 = g.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        for w in g.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn fractional_adaptive_matches_mittag_leffler() {
        use opm_system::FractionalSystem;
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let steps = geometric_grid(2.0, 32, 1.15);
        let grid = AdaptiveBpf::new(steps.clone());
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let r = step_grid_plan(fsys, steps).unwrap().solve(&inputs).unwrap();
        for (j, &t) in grid.midpoints().iter().enumerate().skip(5).step_by(4) {
            let want = ml_kernel(0.5, 1.5, -1.0, t);
            let got = r.state_coeff(0, j);
            assert!(
                (got - want).abs() < 3e-2 * want.abs().max(0.1),
                "t={t}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn fractional_adaptive_matches_dense_oracle() {
        use opm_linalg::kron::{kron, unvec, vec_of};
        use opm_linalg::DMatrix;
        use opm_system::FractionalSystem;
        let fsys = FractionalSystem::new(0.5, scalar(-2.0)).unwrap();
        let steps = geometric_grid(1.0, 12, 1.15);
        let grid = AdaptiveBpf::new(steps.clone());
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let fast = step_grid_plan(fsys.clone(), steps)
            .unwrap()
            .solve(&inputs)
            .unwrap();

        // Dense oracle: (D̃^αᵀ ⊗ E − I ⊗ A)·vec X = vec(B U).
        let d_alpha = grid.frac_diff_matrix(0.5).unwrap();
        let (e, a, b) = fsys.system().to_dense();
        let m = grid.dim();
        let big = kron(&d_alpha.transpose(), &e).sub(&kron(&DMatrix::identity(m), &a));
        let u = inputs.averages_on_grid(grid.bounds());
        let bu = b.mul_mat(&DMatrix::from_fn(1, m, |_, j| u[0][j]));
        let x = big.factor_lu().unwrap().solve(&vec_of(&bu));
        let xm = unvec(&x, 1, m);
        for j in 0..m {
            assert!(
                (fast.state_coeff(0, j) - xm.get(0, j)).abs() < 1e-9,
                "column {j}: {} vs {}",
                fast.state_coeff(0, j),
                xm.get(0, j)
            );
        }
    }

    #[test]
    fn fractional_adaptive_rejects_equal_steps() {
        use opm_system::FractionalSystem;
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        assert!(matches!(
            step_grid_plan(fsys, vec![0.1, 0.2, 0.1]),
            Err(OpmError::ConfluentSteps(_))
        ));
    }
}
