//! The shared OPM solver engine.
//!
//! Every OPM variant in this crate solves the same matrix equation
//! `Σ_k A_k X Sym_k = B U` column by column: build a pencil from the
//! leading symbol coefficients, factor it **once** (or once per distinct
//! step on adaptive grids), then sweep columns left to right, each
//! column's right-hand side mixing the inputs with a history term over
//! already-solved columns. The five public solvers — linear, fractional,
//! multi-term, adaptive, general-basis — plus the Kronecker oracle are
//! thin *strategies* over the primitives in this module:
//!
//! - [`validate_coeff_inputs`] / [`validate_horizon`] — argument checks;
//! - [`factor_pencil`] — AMD-ordered sparse LU with error mapping;
//! - [`PencilFamily`] — every pencil a plan factors: the weighted sum
//!   `Σ_k w_k·A_k` over one union pattern, one AMD ordering and one
//!   symbolic analysis — recorded when the family is built, or replayed
//!   from another plan on the same pattern through the plan cache's
//!   pattern tier ([`crate::cache`]) — with numeric-only refactorization
//!   per weight vector ([`PencilFamily::factor`]) and a parallel batch
//!   form ([`PencilFamily::factor_all`]). A shift `σ·E − A` is the
//!   two-term case with weights `(σ, −1)`;
//! - [`apply_b`] / [`apply_b_block`] — accumulate `scale·B·u_j` into a
//!   right-hand side (single scenario or an interleaved lane block);
//! - [`BlockColumnSweep`] — the cached-factorization column solve loop,
//!   `lanes` scenarios wide, with read access to all previously solved
//!   columns (the history term);
//! - [`reconstruct_outputs`] / [`SweepOutcome::uniform_result`] —
//!   output projection through `C` and [`OpmResult`] assembly;
//! - [`SolveOptions`] / [`Method`] — resolution, strategy and adaptivity.
//!
//! On top of the primitives sits the plan layer
//! ([`crate::session`]), the one front door: [`crate::Simulation`] →
//! [`crate::Simulation::plan`] → [`crate::SimPlan`] factors once and
//! solves many scenarios:
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
//! let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
//! let r = Simulation::from_system(sys)
//!     .horizon(1.0)
//!     .plan(&SolveOptions::new().resolution(256))
//!     .unwrap()
//!     .solve(&inputs)
//!     .unwrap();
//! let t = r.midpoints()[255];
//! assert!((r.state_coeff(0, 255) - (1.0 - (-t).exp())).abs() < 1e-4);
//! ```

use crate::adaptive::AdaptiveOpmOptions;
use crate::cache::PatternCache;
use crate::metrics::FactorProfile;
use crate::result::OpmResult;
use crate::OpmError;
use opm_sparse::lu::LuOptions;
use opm_sparse::ordering::amd;
use opm_sparse::pencil::ShiftedPencil;
use opm_sparse::{CscMatrix, CsrMatrix, Permutation, SparseError, SparseLu, SymbolicLu};
use opm_system::{DescriptorSystem, MultiTermSystem};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Validates a BPF coefficient matrix (`u_coeffs[ch][j]`) against the
/// expected channel count; returns the interval count `m`.
///
/// # Errors
/// [`OpmError::BadArguments`] on channel mismatch, zero intervals, or
/// ragged rows.
pub fn validate_coeff_inputs(num_inputs: usize, u_coeffs: &[Vec<f64>]) -> Result<usize, OpmError> {
    if u_coeffs.len() != num_inputs {
        return Err(OpmError::BadArguments(format!(
            "{} input rows for {} B columns",
            u_coeffs.len(),
            num_inputs
        )));
    }
    let m = u_coeffs.first().map_or(0, Vec::len);
    if m == 0 {
        return Err(OpmError::BadArguments("zero intervals".into()));
    }
    if u_coeffs.iter().any(|r| r.len() != m) {
        return Err(OpmError::BadArguments("ragged input rows".into()));
    }
    Ok(m)
}

/// Validates the simulation horizon.
///
/// # Errors
/// [`OpmError::BadArguments`] unless `t_end > 0` (NaN rejected too).
pub fn validate_horizon(t_end: f64) -> Result<(), OpmError> {
    if t_end > 0.0 {
        Ok(())
    } else {
        Err(OpmError::BadArguments(format!("t_end = {t_end}")))
    }
}

/// Validates an initial-condition vector against the system order.
///
/// # Errors
/// [`OpmError::BadArguments`] on length mismatch.
pub fn validate_x0(n: usize, x0: &[f64]) -> Result<(), OpmError> {
    if x0.len() != n {
        return Err(OpmError::BadArguments(format!(
            "x0 length {} for order {n}",
            x0.len()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Pencil factorization
// ---------------------------------------------------------------------------

/// The fill-reducing ordering of every pencil factorization: approximate
/// minimum degree ([`amd`]) on the pencil's pattern. The cost model is
/// one factorization plus `m` column sweeps at `O(nnz(L+U))`, so the
/// ordering sets both terms; on the 48×48 RC mesh AMD leaves well under
/// half of RCM's fill, and on ladders the two tie.
fn pencil_order(pattern: &CsrMatrix) -> Permutation {
    amd(pattern)
}

/// Factors an OPM pencil with the AMD fill-reducing ordering, mapping
/// failures onto [`OpmError::SingularPencil`].
///
/// # Errors
/// [`OpmError::SingularPencil`] when the pencil is numerically singular.
pub fn factor_pencil(pencil: &CsrMatrix) -> Result<SparseLu, OpmError> {
    let order = pencil_order(pencil);
    SparseLu::factor(&pencil.to_csc(), Some(&order)).map_err(singular)
}

// ---------------------------------------------------------------------------
// Recorded analyses: one symbolic LU replayed against many value sets
// ---------------------------------------------------------------------------

fn singular(e: SparseError) -> OpmError {
    OpmError::SingularPencil(format!("{e}"))
}

/// The values-free half of a pencil analysis: the CSC pattern it was
/// recorded on, the pattern's AMD ordering and the [`SymbolicLu`] of
/// the factorization that recorded it. Immutable and shared by `Arc`
/// between the plans replaying it and, when built through a
/// [`crate::PlanCache`], the cache's pattern tier.
pub(crate) struct PatternAnalysis {
    colptr: Vec<usize>,
    rowind: Vec<usize>,
    order: Permutation,
    symbolic: SymbolicLu,
}

impl PatternAnalysis {
    /// Orders `csc`'s pattern with AMD, factors it and records the
    /// analysis — what a fresh plan pays.
    pub(crate) fn record(csc: &CscMatrix) -> Result<(Self, SparseLu), OpmError> {
        Self::record_with(csc, pencil_order(&csc.to_csr()))
    }

    /// Factors `csc` under a known `order` (AMD of this very pattern)
    /// and records the analysis.
    pub(crate) fn record_with(
        csc: &CscMatrix,
        order: Permutation,
    ) -> Result<(Self, SparseLu), OpmError> {
        let (symbolic, lu) =
            SymbolicLu::factor_with(csc, Some(&order), LuOptions::default()).map_err(singular)?;
        let analysis = PatternAnalysis {
            colptr: csc.colptr().to_vec(),
            rowind: csc.rowind().to_vec(),
            order,
            symbolic,
        };
        Ok((analysis, lu))
    }

    /// Whether `csc` has the pattern this analysis was recorded on.
    pub(crate) fn has_pattern(&self, csc: &CscMatrix) -> bool {
        self.colptr == csc.colptr() && self.rowind == csc.rowind()
    }

    /// The recorded AMD ordering.
    pub(crate) fn order(&self) -> &Permutation {
        &self.order
    }

    /// The recorded symbolic analysis.
    pub(crate) fn symbolic(&self) -> &SymbolicLu {
        &self.symbolic
    }
}

/// The weighted pencil family `Σ_k w_k·A_k` over all weight vectors —
/// every pencil a plan factors: a window count, a lattice step, a
/// step-grid column or a Newton iterate is just a weight vector, and a
/// shift `σ·E − A` is the two-term case with weights `(σ, −1)`.
/// Everything weight-independent is paid **once**, when the family is
/// built: the union CSC pattern ([`ShiftedPencil`]), the AMD
/// fill-reducing ordering, and the symbolic analysis ([`SymbolicLu`]:
/// fill pattern, pivot order, elimination reach) recorded by factoring
/// the reference weights. A family built through a [`crate::PlanCache`]
/// takes the ordering and analysis from the cache's pattern tier when
/// another plan already recorded them on this pattern, and pays only an
/// exact numeric replay of the reference weights — bit-identical to
/// recording it afresh. Every further weight vector is a numeric-only
/// [`SparseLu::refactor`], with an automatic fall back to a fresh
/// pivoted factorization when a fixed pivot degrades past
/// [`LuOptions::refactor_threshold`]. Fallbacks do not replace the
/// recorded analysis, so the factors produced for given weights are
/// independent of the order — or the thread — in which they are
/// requested.
///
/// # Thread safety
///
/// A family is immutable once built: [`PencilFamily::factor`],
/// [`PencilFamily::factor_all`] and [`PencilFamily::factor_stamped`]
/// take `&self`, each call owns its value buffer, and the counters are
/// relaxed atomics, so factorizations on one family never wait on each
/// other. A [`PencilFamily::profile`] snapshot taken while other
/// threads factor may be mid-update (one counter bumped, the next not
/// yet); once they finish it is exact.
pub struct PencilFamily {
    pencil: ShiftedPencil,
    /// The recorded analysis, shared by `Arc` with the pattern tier when
    /// the family was built through one.
    shared: Arc<PatternAnalysis>,
    /// Statistics of the reference factorization, set once: every
    /// refactorization shares its pattern, so they hold for the whole
    /// family. `num_symbolic` is what the recording itself paid: 1, or
    /// 0 when the pattern tier's exact replay stood in for it.
    reference: FactorProfile,
    /// Numeric-only refactorizations (the exact replay included).
    numeric: AtomicUsize,
    /// Fresh pivoted factorizations forced by pivot degradation.
    fallbacks: AtomicUsize,
    newton_iters: AtomicUsize,
    newton_refactors: AtomicUsize,
    newton_fresh_fallbacks: AtomicUsize,
}

impl PencilFamily {
    /// Assembles the union pattern of `terms`, computes the AMD ordering
    /// and factors the reference pencil `Σ_k weights[k]·terms[k]`,
    /// recording the analysis every later weight vector replays. Returns
    /// the family and the reference factor.
    ///
    /// # Errors
    /// [`OpmError::SingularPencil`] when the reference pencil is
    /// singular.
    ///
    /// # Panics
    /// Panics when `terms` is empty, the terms differ in dimensions, or
    /// there is not one weight per term.
    pub fn new(terms: &[&CsrMatrix], weights: &[f64]) -> Result<(Self, SparseLu), OpmError> {
        Self::recorded_in(terms, weights, None)
    }

    /// [`PencilFamily::new`], recording the analysis through the plan
    /// cache's pattern tier when `patterns` is given: a pattern the tier
    /// has analysed skips AMD and the symbolic factorization, and the
    /// reference factor is bit-identical either way.
    pub(crate) fn recorded_in(
        terms: &[&CsrMatrix],
        weights: &[f64],
        patterns: Option<&PatternCache>,
    ) -> Result<(Self, SparseLu), OpmError> {
        let mut pencil = ShiftedPencil::of_terms(terms);
        let csc = pencil.combined(weights);
        let (shared, lu, replayed) = match patterns {
            Some(tier) => tier.factor(csc)?,
            None => {
                let (analysis, lu) = PatternAnalysis::record(csc)?;
                (Arc::new(analysis), lu, false)
            }
        };
        let stats = lu.supernode_stats();
        let reference = FactorProfile {
            num_symbolic: usize::from(!replayed),
            num_supernodes: stats.num_supernodes,
            supernode_cols: stats.supernode_cols,
            dense_tail_cols: stats.dense_tail_cols,
            factor_cols: stats.num_cols,
            factor_nnz: lu.nnz(),
            ..FactorProfile::default()
        };
        let family = PencilFamily {
            pencil,
            shared,
            reference,
            numeric: AtomicUsize::new(usize::from(replayed)),
            fallbacks: AtomicUsize::new(0),
            newton_iters: AtomicUsize::new(0),
            newton_refactors: AtomicUsize::new(0),
            newton_fresh_fallbacks: AtomicUsize::new(0),
        };
        Ok((family, lu))
    }

    /// Factors `Σ_k weights[k]·A_k` against the recorded analysis
    /// (numeric-only, or a fresh pivoted factorization on pivot
    /// degradation).
    ///
    /// # Errors
    /// [`OpmError::SingularPencil`] when the pencil is singular.
    pub fn factor(&self, weights: &[f64]) -> Result<SparseLu, OpmError> {
        self.factor_into(weights, &mut Vec::new())
    }

    /// [`PencilFamily::factor`] with a caller-owned value buffer.
    fn factor_into(&self, weights: &[f64], vals: &mut Vec<f64>) -> Result<SparseLu, OpmError> {
        self.pencil.combined_values(weights, vals);
        Ok(self.refactor(vals)?.0)
    }

    /// The one refactor-with-fallback path: a numeric-only
    /// [`SparseLu::refactor`] of `values` (laid out on the union
    /// pattern), and on [`SparseError::PivotDegraded`] a fresh pivoted
    /// factorization of the same values under the recorded ordering.
    /// The recorded analysis itself never changes, so the factor for a
    /// value set does not depend on which thread asks or when. Returns
    /// the factor and whether it fell back.
    fn refactor(&self, values: &[f64]) -> Result<(SparseLu, bool), OpmError> {
        match SparseLu::refactor(self.shared.symbolic(), values) {
            Ok(lu) => {
                self.numeric.fetch_add(1, Ordering::Relaxed);
                Ok((lu, false))
            }
            Err(SparseError::PivotDegraded(_)) => {
                let mut csc = self.pencil.pattern().clone();
                csc.values_mut().copy_from_slice(values);
                let lu = SparseLu::factor(&csc, Some(self.shared.order())).map_err(singular)?;
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                Ok((lu, true))
            }
            Err(e) => Err(singular(e)),
        }
    }

    /// Factors every weight vector in `weights`, numerically refactoring
    /// the independent pencils **in parallel** on up to `threads` workers
    /// (see [`opm_par::par_map`]), each worker carrying only a private
    /// value buffer. Per-pencil pivot degradation falls back to a fresh
    /// pivoted factorization of that pencil alone, so the result for each
    /// weight vector — and the whole output — is identical for every
    /// `threads` value.
    ///
    /// # Errors
    /// The index of the first offending weight vector plus
    /// [`OpmError::SingularPencil`] when some pencil is singular.
    pub fn factor_all<W: AsRef<[f64]> + Sync>(
        &self,
        weights: &[W],
        threads: usize,
    ) -> Result<Vec<SparseLu>, (usize, OpmError)> {
        // Contiguous chunks, one per worker task, so every task reuses a
        // single value buffer instead of allocating per pencil.
        let chunk_len = weights.len().div_ceil(threads.max(1)).max(1);
        let chunks: Vec<&[W]> = weights.chunks(chunk_len).collect();
        opm_par::par_map(threads, &chunks, |chunk| {
            let mut vals = Vec::new();
            chunk
                .iter()
                .map(|w| self.factor_into(w.as_ref(), &mut vals))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .enumerate()
        .map(|(i, res)| res.map_err(|e| (i, e)))
        .collect()
    }

    /// Factorization-cost profile of this family so far: the recording
    /// (unless replayed) and every fallback are symbolic, the rest
    /// numeric.
    pub fn profile(&self) -> FactorProfile {
        FactorProfile {
            num_symbolic: self.reference.num_symbolic + self.fallbacks.load(Ordering::Relaxed),
            num_numeric: self.numeric.load(Ordering::Relaxed),
            newton_iters: self.newton_iters.load(Ordering::Relaxed),
            newton_refactors: self.newton_refactors.load(Ordering::Relaxed),
            newton_fresh_fallbacks: self.newton_fresh_fallbacks.load(Ordering::Relaxed),
            ..self.reference
        }
    }

    /// Books `n` Newton iterations into the profile (the session layer
    /// calls this once per solve; on the linear delegation path it books
    /// one iteration per column, matching what a Newton loop would have
    /// measured).
    pub fn note_newton_iters(&self, n: usize) {
        self.newton_iters.fetch_add(n, Ordering::Relaxed);
    }

    /// Resolves matrix coordinates into value indices of the family's
    /// union CSC pattern — the positions [`ShiftedPencil::combined_values`]
    /// writes and [`PencilFamily::factor_stamped`]'s stamp closure
    /// mutates. Computed once per plan so the per-iteration Newton
    /// stamping is pure index arithmetic.
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] when a coordinate lies outside the
    /// union pattern (a device touching a position no term stores —
    /// GMIN planting at assembly is what rules this out).
    pub fn value_indices(&self, coords: &[(usize, usize)]) -> Result<Vec<usize>, OpmError> {
        let pat = self.pencil.pattern();
        let mut bases = Vec::with_capacity(pat.ncols() + 1);
        let mut base = 0usize;
        for j in 0..pat.ncols() {
            bases.push(base);
            base += pat.col_pattern(j).len();
        }
        bases.push(base);
        coords
            .iter()
            .map(|&(i, j)| {
                if j >= pat.ncols() {
                    return Err(OpmError::BadArguments(format!(
                        "stamp column {j} outside {}-column pencil",
                        pat.ncols()
                    )));
                }
                pat.col_pattern(j)
                    .binary_search(&i)
                    .map(|pos| bases[j] + pos)
                    .map_err(|_| {
                        OpmError::BadArguments(format!(
                            "stamp position ({i}, {j}) outside the pencil pattern"
                        ))
                    })
            })
            .collect()
    }

    /// Factors `Σ_k weights[k]·A_k − J` where `J` is applied by `stamp`
    /// directly on the combined value buffer (indices from
    /// [`PencilFamily::value_indices`]) — the Newton iteration matrix.
    /// Numeric-only refactorization against the family's recorded
    /// analysis (the pattern is iteration-invariant because GMIN keeps
    /// every device position stored), with the same pivot-degradation
    /// fallback as [`PencilFamily::factor`]. Books Newton-specific
    /// counters so plans can assert "one symbolic analysis, the rest
    /// numeric" end-to-end.
    ///
    /// # Errors
    /// [`OpmError::SingularPencil`] when the stamped pencil is singular.
    pub fn factor_stamped(
        &self,
        weights: &[f64],
        stamp: impl FnOnce(&mut [f64]),
    ) -> Result<SparseLu, OpmError> {
        let mut vals = Vec::new();
        self.pencil.combined_values(weights, &mut vals);
        stamp(&mut vals);
        let (lu, fell_back) = self.refactor(&vals)?;
        let counter = if fell_back {
            &self.newton_fresh_fallbacks
        } else {
            &self.newton_refactors
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(lu)
    }
}

// ---------------------------------------------------------------------------
// Right-hand-side assembly
// ---------------------------------------------------------------------------

/// Accumulates `scale·B·u_j` into `out`, reading input column `j` from a
/// BPF coefficient matrix.
pub fn apply_b(b: &CsrMatrix, u_coeffs: &[Vec<f64>], j: usize, scale: f64, out: &mut [f64]) {
    for i in 0..b.nrows() {
        let mut s = 0.0;
        for (ch, v) in b.row(i) {
            s += v * u_coeffs[ch][j];
        }
        out[i] += scale * s;
    }
}

/// Accumulates `scale·B·u` for an explicit per-channel column `u`.
pub fn apply_b_column(b: &CsrMatrix, u: &[f64], scale: f64, out: &mut [f64]) {
    for i in 0..b.nrows() {
        let mut s = 0.0;
        for (ch, v) in b.row(i) {
            s += v * u[ch];
        }
        out[i] += scale * s;
    }
}

/// Block form of [`apply_b`]: accumulates `scale·B·u` for `lanes`
/// scenarios at once. `u_block[ch*lanes + l]` is channel `ch` of lane
/// `l`; `out` is a row-major `n × lanes` block. One pass over `B`'s
/// sparse structure serves every lane.
///
/// Lanes are processed in fixed-width register panels
/// ([`opm_linalg::panel::LANE_PANEL_WIDTH`]); per lane the accumulation
/// order matches [`apply_b_block_scalar`] exactly, so results are
/// bit-identical.
pub fn apply_b_block(b: &CsrMatrix, u_block: &[f64], lanes: usize, scale: f64, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if opm_linalg::panel::avx_available() {
        // SAFETY: the `avx` target feature was detected on this CPU.
        unsafe { apply_b_panels_avx(b, u_block, lanes, scale, out) };
        return;
    }
    apply_b_panels_body(b, u_block, lanes, scale, out);
}

/// The AVX codegen copy of the panel driver (`avx` only — no `fma`, so
/// the per-lane arithmetic stays bit-identical to the portable copy and
/// the scalar reference).
///
/// # Safety
/// The caller must have verified that the running CPU supports the
/// `avx` target feature (this crate gates every call behind
/// [`opm_linalg::panel::avx_available`]). The body is ordinary safe
/// Rust — the only obligation is the feature check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn apply_b_panels_avx(
    b: &CsrMatrix,
    u_block: &[f64],
    lanes: usize,
    scale: f64,
    out: &mut [f64],
) {
    apply_b_panels_body(b, u_block, lanes, scale, out);
}

/// The panel sweep (main width plus `4 → 2 → 1` remainder);
/// `#[inline(always)]` so each dispatch copy compiles it with its own
/// target features.
#[inline(always)]
fn apply_b_panels_body(b: &CsrMatrix, u_block: &[f64], lanes: usize, scale: f64, out: &mut [f64]) {
    const W: usize = opm_linalg::panel::LANE_PANEL_WIDTH;
    let mut p0 = 0;
    while p0 + W <= lanes {
        apply_b_panel::<W>(b, u_block, lanes, scale, out, p0);
        p0 += W;
    }
    if p0 + 4 <= lanes {
        apply_b_panel::<4>(b, u_block, lanes, scale, out, p0);
        p0 += 4;
    }
    if p0 + 2 <= lanes {
        apply_b_panel::<2>(b, u_block, lanes, scale, out, p0);
        p0 += 2;
    }
    if p0 < lanes {
        apply_b_panel::<1>(b, u_block, lanes, scale, out, p0);
    }
}

/// The scalar reference implementation of [`apply_b_block`]: one
/// structure pass with a full-width lane loop per entry. The panel path
/// is validated against this bit-for-bit by the `kernel/*` bench records
/// and proptests.
pub fn apply_b_block_scalar(
    b: &CsrMatrix,
    u_block: &[f64],
    lanes: usize,
    scale: f64,
    out: &mut [f64],
) {
    for i in 0..b.nrows() {
        let row = &mut out[i * lanes..(i + 1) * lanes];
        for (ch, v) in b.row(i) {
            let sv = scale * v;
            for (o, u) in row.iter_mut().zip(&u_block[ch * lanes..(ch + 1) * lanes]) {
                *o += sv * u;
            }
        }
    }
}

/// Lanes `p0 .. p0 + W` of the stimulus application, accumulated in a
/// `[f64; W]` register panel per output row.
#[inline(always)]
fn apply_b_panel<const W: usize>(
    b: &CsrMatrix,
    u_block: &[f64],
    lanes: usize,
    scale: f64,
    out: &mut [f64],
    p0: usize,
) {
    for i in 0..b.nrows() {
        let dst = i * lanes + p0;
        let mut acc = [0.0; W];
        acc.copy_from_slice(&out[dst..dst + W]);
        for (ch, v) in b.row(i) {
            let sv = scale * v;
            let src = ch * lanes + p0;
            let us: &[f64; W] = u_block[src..src + W].try_into().unwrap();
            for w in 0..W {
                acc[w] += sv * us[w];
            }
        }
        out[dst..dst + W].copy_from_slice(&acc);
    }
}

// ---------------------------------------------------------------------------
// The column sweep
// ---------------------------------------------------------------------------

/// The multi-RHS generalization of the column sweep: `lanes` scenarios
/// are swept through **one** factorization in a single pass over the
/// columns.
///
/// Storage is lane-interleaved: every column (and the RHS/work scratch)
/// is a row-major `n × lanes` block with the lane values of state `i` at
/// `i*lanes..(i+1)*lanes`. RHS builders assemble all lanes of a column
/// at once, so sparse matrix–vector products ([`CsrMatrix::mul_block_into`]),
/// stimulus application ([`apply_b_block`]) and the triangular solves
/// ([`SparseLu::solve_block_into`]) each traverse their structure once
/// per column instead of once per scenario.
pub struct BlockColumnSweep {
    n: usize,
    m: usize,
    lanes: usize,
    columns: Vec<Vec<f64>>,
    /// Leading columns of `columns` that were seeded, not solved
    /// ([`BlockColumnSweep::seed_history`]) — visible to RHS builders,
    /// excluded from the outcome.
    seeded: usize,
    rhs: Vec<f64>,
    /// Scratch block sized `n·lanes`, for matrix–block products inside
    /// RHS builders (avoids per-column allocation in every strategy).
    work: Vec<f64>,
    num_solves: usize,
}

impl BlockColumnSweep {
    /// A sweep over `m` columns of an order-`n` system, `lanes`
    /// scenarios wide.
    ///
    /// # Panics
    /// Panics when `lanes == 0`.
    pub fn new(n: usize, m: usize, lanes: usize) -> Self {
        assert!(lanes > 0, "block sweep needs at least one lane");
        BlockColumnSweep {
            n,
            m,
            lanes,
            columns: Vec::with_capacity(m),
            seeded: 0,
            rhs: vec![0.0; n * lanes],
            work: vec![0.0; n * lanes],
            num_solves: 0,
        }
    }

    /// Seeds the sweep with already-solved history columns — the state
    /// carry of a windowed solve: the RHS builders read them at indices
    /// `0..cols.len()` exactly as if this sweep had solved them, but
    /// they are excluded from the outcome and from `num_solves`. The
    /// builder's column index `j` keeps counting from the seed
    /// (`history.len()` at each step), so a time-invariant recurrence
    /// continued across a window boundary is column-for-column identical
    /// to the unbroken sweep.
    ///
    /// # Panics
    /// Panics when called after stepping, or twice, or with a column of
    /// the wrong block size.
    pub fn seed_history(&mut self, cols: Vec<Vec<f64>>) {
        assert!(
            self.columns.is_empty() && self.seeded == 0,
            "seed_history must precede the first step"
        );
        assert!(
            cols.iter().all(|c| c.len() == self.n * self.lanes),
            "seed columns must be n × lanes blocks"
        );
        self.seeded = cols.len();
        self.columns = cols;
        self.columns.reserve(self.m);
    }

    /// Runs the full sweep: the `m` columns fixed at construction
    /// against one factorization. Each column zeroes the RHS block, lets
    /// `build(j, history, rhs, work)` fill it, block-solves against `lu`
    /// and appends the new interleaved column. `j` is the index into the
    /// history — it starts past any seeded columns, so seeded and
    /// unseeded sweeps present the same coordinates to the builder.
    /// Seeded history columns are dropped: the outcome holds only the
    /// columns this sweep solved.
    pub fn run(
        mut self,
        lu: &SparseLu,
        mut build: impl FnMut(usize, &[Vec<f64>], &mut [f64], &mut [f64]),
    ) -> BlockOutcome {
        for _ in 0..self.m {
            self.rhs.iter_mut().for_each(|v| *v = 0.0);
            build(
                self.columns.len(),
                &self.columns,
                &mut self.rhs,
                &mut self.work,
            );
            let mut x = vec![0.0; self.n * self.lanes];
            lu.solve_block_into(&self.rhs, &mut x, self.lanes);
            self.num_solves += self.lanes;
            self.columns.push(x);
        }
        self.columns.drain(..self.seeded);
        BlockOutcome {
            columns: self.columns,
            lanes: self.lanes,
            num_solves: self.num_solves,
            num_factorizations: 1,
        }
    }
}

/// Raw multi-lane sweep output: interleaved columns plus counters.
pub struct BlockOutcome {
    /// Solved columns, one interleaved `n × lanes` block per interval.
    pub columns: Vec<Vec<f64>>,
    /// Scenario width.
    pub lanes: usize,
    /// Sparse solves performed (one per lane per column).
    pub num_solves: usize,
    /// Sparse factorizations performed.
    pub num_factorizations: usize,
}

impl BlockOutcome {
    /// De-interleaves into one [`SweepOutcome`] per lane, consuming the
    /// interleaved columns as it goes (peak storage stays one copy plus
    /// one block).
    pub fn into_lane_outcomes(self) -> Vec<SweepOutcome> {
        let lanes = self.lanes;
        if lanes == 1 {
            // The interleaved layout degenerates to plain columns: move
            // them instead of element-copying (the single-scenario path).
            return vec![SweepOutcome {
                columns: self.columns,
                num_solves: self.num_solves,
                num_factorizations: self.num_factorizations,
            }];
        }
        let n = self.columns.first().map_or(0, |c| c.len() / lanes);
        let mut per_lane: Vec<Vec<Vec<f64>>> = (0..lanes)
            .map(|_| Vec::with_capacity(self.columns.len()))
            .collect();
        for blk in self.columns {
            for (l, cols) in per_lane.iter_mut().enumerate() {
                cols.push((0..n).map(|i| blk[i * lanes + l]).collect());
            }
        }
        per_lane
            .into_iter()
            .map(|columns| SweepOutcome {
                columns,
                num_solves: self.num_solves / lanes,
                num_factorizations: self.num_factorizations,
            })
            .collect()
    }
}

/// Raw sweep output: solved columns plus complexity counters.
pub struct SweepOutcome {
    /// Solved coefficient columns, one per interval.
    pub columns: Vec<Vec<f64>>,
    /// Sparse solves performed.
    pub num_solves: usize,
    /// Sparse factorizations performed.
    pub num_factorizations: usize,
}

impl SweepOutcome {
    /// Assembles an [`OpmResult`] on the uniform grid `m × h`.
    pub fn uniform_result(self, out: &impl OutputMap, t_end: f64) -> OpmResult {
        let m = self.columns.len();
        let h = if m == 0 { 0.0 } else { t_end / m as f64 };
        let outputs = reconstruct_outputs(out, &self.columns);
        OpmResult {
            bounds: (0..=m).map(|k| k as f64 * h).collect(),
            columns: self.columns,
            outputs,
            num_solves: self.num_solves,
            num_factorizations: self.num_factorizations,
        }
    }

    /// Assembles an [`OpmResult`] on an explicit boundary grid.
    pub fn grid_result(self, out: &impl OutputMap, bounds: Vec<f64>) -> OpmResult {
        let outputs = reconstruct_outputs(out, &self.columns);
        OpmResult {
            bounds,
            columns: self.columns,
            outputs,
            num_solves: self.num_solves,
            num_factorizations: self.num_factorizations,
        }
    }
}

// ---------------------------------------------------------------------------
// Output reconstruction
// ---------------------------------------------------------------------------

/// A system that can project a state column onto output channels —
/// implemented by every model type the engine solves.
pub trait OutputMap {
    /// Number of output channels.
    fn num_outputs(&self) -> usize;
    /// Projects one state column through the output selector `C` (or the
    /// identity when the model has none).
    fn output(&self, x: &[f64]) -> Vec<f64>;
}

impl OutputMap for DescriptorSystem {
    fn num_outputs(&self) -> usize {
        DescriptorSystem::num_outputs(self)
    }
    fn output(&self, x: &[f64]) -> Vec<f64> {
        DescriptorSystem::output(self, x)
    }
}

impl OutputMap for MultiTermSystem {
    fn num_outputs(&self) -> usize {
        MultiTermSystem::num_outputs(self)
    }
    fn output(&self, x: &[f64]) -> Vec<f64> {
        MultiTermSystem::output(self, x)
    }
}

/// Projects every solved column onto the output channels:
/// `outputs[o][j]`.
pub fn reconstruct_outputs(out: &impl OutputMap, columns: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let q = out.num_outputs();
    let mut outputs = vec![Vec::with_capacity(columns.len()); q];
    for col in columns {
        for (o, val) in out.output(col).into_iter().enumerate() {
            outputs[o].push(val);
        }
    }
    outputs
}

// ---------------------------------------------------------------------------
// SolveOptions: resolution, strategy, adaptivity
// ---------------------------------------------------------------------------

/// Strategy selector for [`SolveOptions::method`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Method {
    /// Pick the fastest correct path (integer orders → finite
    /// recurrence, fractional → convolution).
    #[default]
    Auto,
    /// The finite-history recurrence fast path.
    Recurrence,
    /// The paper's literal alternating-accumulator algorithm (linear
    /// only; kept for cross-validation).
    Accumulator,
    /// The full nilpotent-series convolution path.
    Convolution,
    /// The dense `(Dᵀ⊗E − I⊗A)·vec X` oracle (small problems only).
    Kronecker,
}

/// Solver configuration: resolution, strategy, adaptivity.
#[derive(Clone, Debug, Default)]
pub struct SolveOptions {
    pub(crate) resolution: Option<usize>,
    pub(crate) method: Method,
    pub(crate) adaptive: Option<AdaptiveOpmOptions>,
    pub(crate) step_grid: Option<Vec<f64>>,
}

impl SolveOptions {
    /// Default options: uniform grid, automatic strategy.
    pub fn new() -> Self {
        SolveOptions::default()
    }

    /// Number of uniform intervals `m` (required when the stimulus is
    /// supplied as waveforms).
    #[must_use]
    pub fn resolution(mut self, m: usize) -> Self {
        self.resolution = Some(m);
        self
    }

    /// Forces a particular strategy.
    #[must_use]
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Enables on-the-fly adaptive stepping (linear problems).
    #[must_use]
    pub fn adaptive(mut self, opts: AdaptiveOpmOptions) -> Self {
        self.adaptive = Some(opts);
        self
    }

    /// Solves on an explicit non-uniform step grid (fractional
    /// problems; steps must be pairwise distinct).
    #[must_use]
    pub fn step_grid(mut self, steps: Vec<f64>) -> Self {
        self.step_grid = Some(steps);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_sparse::CooMatrix;
    use opm_system::FractionalSystem;
    use opm_waveform::{InputSet, Waveform};

    fn scalar(a: f64) -> DescriptorSystem {
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, a);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        DescriptorSystem::new(CsrMatrix::identity(1), am.to_csr(), b.to_csr(), None).unwrap()
    }

    /// A one-scenario waveform solve through a fresh plan.
    fn solve_once(
        sim: crate::Simulation,
        inputs: &InputSet,
        opts: &SolveOptions,
    ) -> Result<OpmResult, OpmError> {
        sim.plan(opts)?.solve(inputs)
    }

    #[test]
    fn waveform_solve_equals_coefficient_solve() {
        let sys = scalar(-1.0);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let m = 64;
        let u = inputs.bpf_matrix(m, 2.0);
        let plan = crate::Simulation::from_system(sys)
            .horizon(2.0)
            .plan(&SolveOptions::new().resolution(m))
            .unwrap();
        let via_coeffs = plan.solve_coeffs(&u).unwrap();
        let via_waveforms = plan.solve(&inputs).unwrap();
        for j in 0..m {
            assert_eq!(
                via_coeffs.state_coeff(0, j),
                via_waveforms.state_coeff(0, j)
            );
        }
    }

    #[test]
    fn all_linear_methods_agree() {
        let sim = crate::Simulation::from_system(scalar(-2.0)).horizon(1.0);
        let inputs = InputSet::new(vec![Waveform::sine(0.0, 1.0, 1.0, 0.0, 0.0)]);
        let m = 16;
        let base = solve_once(sim.clone(), &inputs, &SolveOptions::new().resolution(m)).unwrap();
        for method in [Method::Accumulator, Method::Convolution, Method::Kronecker] {
            let opts = SolveOptions::new().resolution(m).method(method);
            let r = solve_once(sim.clone(), &inputs, &opts).unwrap();
            for j in 0..m {
                assert!(
                    (r.state_coeff(0, j) - base.state_coeff(0, j)).abs() < 1e-9,
                    "{method:?}, column {j}"
                );
            }
        }
    }

    #[test]
    fn fractional_dispatch_and_grid() {
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        let sim = crate::Simulation::from_fractional(fsys).horizon(1.0);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let uniform =
            solve_once(sim.clone(), &inputs, &SolveOptions::new().resolution(32)).unwrap();
        assert_eq!(uniform.num_intervals(), 32);
        let steps = crate::adaptive::geometric_grid(1.0, 16, 1.2);
        let graded = solve_once(sim, &inputs, &SolveOptions::new().step_grid(steps)).unwrap();
        assert_eq!(graded.num_intervals(), 16);
    }

    #[test]
    fn descriptive_errors() {
        // Waveforms without resolution.
        let sim = crate::Simulation::from_system(scalar(-1.0)).horizon(1.0);
        assert!(sim.plan(&SolveOptions::new()).is_err());
        // Nonzero ICs on a fractional problem.
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        assert!(crate::Simulation::from_fractional(fsys)
            .horizon(1.0)
            .initial_state(vec![1.0])
            .plan(&SolveOptions::new().resolution(8))
            .is_err());
    }

    #[test]
    fn inapplicable_options_are_rejected_not_ignored() {
        let sim = crate::Simulation::from_system(scalar(-1.0)).horizon(1.0);
        let fsim =
            crate::Simulation::from_fractional(FractionalSystem::new(0.5, scalar(-1.0)).unwrap())
                .horizon(1.0);
        // Nonzero ICs cannot ride the zero-IC strategies.
        for method in [Method::Convolution, Method::Kronecker] {
            assert!(
                sim.clone()
                    .initial_state(vec![2.0])
                    .plan(&SolveOptions::new().resolution(8).method(method))
                    .is_err(),
                "{method:?} must reject nonzero x0"
            );
        }
        // Adaptive stepping is linear-only; step grids are fractional-only.
        assert!(fsim
            .plan(
                &SolveOptions::new()
                    .resolution(8)
                    .adaptive(AdaptiveOpmOptions::default())
            )
            .is_err());
        assert!(sim
            .plan(&SolveOptions::new().step_grid(vec![0.5, 0.3, 0.2]))
            .is_err());
        // Method overrides cannot combine with adaptive solving.
        assert!(sim
            .plan(
                &SolveOptions::new()
                    .adaptive(AdaptiveOpmOptions::default())
                    .method(Method::Kronecker)
            )
            .is_err());
        // A coefficient stimulus that contradicts the planned resolution.
        let u = vec![vec![1.0; 8]];
        let plan16 = sim.plan(&SolveOptions::new().resolution(16)).unwrap();
        assert!(plan16.solve_coeffs(&u).is_err());
        // …but a matching one is fine.
        let plan8 = sim.plan(&SolveOptions::new().resolution(8)).unwrap();
        assert!(plan8.solve_coeffs(&u).is_ok());
    }

    #[test]
    fn pencil_family_shares_one_symbolic_analysis() {
        use opm_sparse::CooMatrix;
        // A 2-D-grid-shaped pencil large enough for real fill.
        let g = 12;
        let n = g * g;
        let mut e = CooMatrix::new(n, n);
        let mut a = CooMatrix::new(n, n);
        let idx = |r: usize, s: usize| r * g + s;
        for r in 0..g {
            for s in 0..g {
                e.push(idx(r, s), idx(r, s), 1.0);
                a.push(idx(r, s), idx(r, s), -4.0);
                if r + 1 < g {
                    a.push(idx(r, s), idx(r + 1, s), 1.0);
                    a.push(idx(r + 1, s), idx(r, s), 1.0);
                }
                if s + 1 < g {
                    a.push(idx(r, s), idx(r, s + 1), 1.0);
                    a.push(idx(r, s + 1), idx(r, s), 1.0);
                }
            }
        }
        let (e, a) = (e.to_csr(), a.to_csr());
        let sigmas = [2.0, 5.0, 17.0, 130.0];
        let (family, _) = PencilFamily::new(&[&e, &a], &[sigmas[0], -1.0]).unwrap();
        for &s in &sigmas[1..] {
            family.factor(&[s, -1.0]).unwrap();
        }
        let p = family.profile();
        assert_eq!((p.num_symbolic, p.num_numeric), (1, 3));

        // Each factorization must agree with the one-shot path.
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        for &s in &sigmas {
            let via_family = family.factor(&[s, -1.0]).unwrap().solve(&b);
            let one_shot = factor_pencil(&e.lin_comb(s, -1.0, &a)).unwrap().solve(&b);
            for i in 0..n {
                assert!(
                    (via_family[i] - one_shot[i]).abs() < 1e-12,
                    "σ={s}, row {i}"
                );
            }
        }
    }

    #[test]
    fn pencil_family_factor_all_is_thread_invariant() {
        let sys = scalar(-3.0);
        let weights: Vec<[f64; 2]> = (1..20).map(|k| [1.5 * k as f64, -1.0]).collect();
        let (family, _) = PencilFamily::new(&[sys.e(), sys.a()], &[0.5, -1.0]).unwrap();
        let lus_1 = family.factor_all(&weights, 1).unwrap();
        let lus_4 = family.factor_all(&weights, 4).unwrap();
        for (l1, l4) in lus_1.iter().zip(&lus_4) {
            assert_eq!(l1.solve(&[1.0]), l4.solve(&[1.0]));
        }
    }

    #[test]
    fn sweep_counts_and_history() {
        let sys = scalar(-1.0);
        let lu = factor_pencil(&sys.e().lin_comb(2.0, -1.0, sys.a())).unwrap();
        let outcome = BlockColumnSweep::new(1, 4, 1).run(&lu, |j, history, rhs, _| {
            assert_eq!(history.len(), j);
            rhs[0] = 1.0;
        });
        assert_eq!(outcome.columns.len(), 4);
        assert_eq!(outcome.num_solves, 4);
    }
}
