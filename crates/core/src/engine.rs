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
//! - [`PencilFamily`] — the many-pencil hot path: one union pattern, one
//!   AMD ordering and one symbolic analysis — recorded when the family
//!   is built — shared by every shift `σ·E − A`, with numeric-only
//!   refactorization per shift ([`PencilFamily::factor`]) and a parallel
//!   batch form ([`PencilFamily::factor_all`]);
//! - [`apply_b`] / [`apply_b_block`] — accumulate `scale·B·u_j` into a
//!   right-hand side (single scenario or an interleaved lane block);
//! - [`BlockColumnSweep`] — the cached-factorization column solve loop,
//!   `lanes` scenarios wide, with read access to all previously solved
//!   columns (the history term); [`ColumnSweep`] is its single-scenario
//!   view;
//! - [`reconstruct_outputs`] / [`SweepOutcome::uniform_result`] —
//!   output projection through `C` and [`OpmResult`] assembly.
//!
//! On top of the primitives sits the plan layer
//! ([`crate::session`]): [`crate::Simulation`] → [`crate::SimPlan`]
//! factors once and solves many scenarios. The declarative front door
//! kept here — describe the task with a [`Problem`], pick
//! resolution/method with [`SolveOptions`], call [`Problem::solve`] —
//! is a thin one-shot wrapper over that layer:
//!
//! ```
//! use opm_core::engine::{Problem, SolveOptions};
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
//! let r = Problem::linear(&sys)
//!     .waveforms(&inputs)
//!     .horizon(1.0)
//!     .solve(&SolveOptions::new().resolution(256))
//!     .unwrap();
//! let t = r.midpoints()[255];
//! assert!((r.state_coeff(0, 255) - (1.0 - (-t).exp())).abs() < 1e-4);
//! ```

use crate::adaptive::AdaptiveOpmOptions;
use crate::metrics::FactorProfile;
use crate::result::OpmResult;
use crate::OpmError;
use opm_sparse::lu::LuOptions;
use opm_sparse::ordering::amd;
use opm_sparse::pencil::ShiftedPencil;
use opm_sparse::{CscMatrix, CsrMatrix, Permutation, SparseError, SparseLu, SymbolicLu};
use opm_system::{DescriptorSystem, FractionalSystem, MultiTermSystem, SecondOrderSystem};
use opm_waveform::InputSet;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Builds and factors the two-matrix pencil `σ·E − A`.
///
/// This is the **one-shot** form, deliberately kept free of any
/// symbolic-reuse machinery: a single factorization cannot amortize an
/// analysis, so it pays exactly one pattern union and one pivoted
/// factor. Call sites that factor *many* shifts of one `(E, A)` pair —
/// step grids, the adaptive lattice — go through [`PencilFamily`],
/// which shares the CSC pattern, AMD ordering and symbolic analysis
/// across all of them.
///
/// # Errors
/// As [`factor_pencil`].
pub fn factor_shifted_pencil(
    e: &CsrMatrix,
    a: &CsrMatrix,
    sigma: f64,
) -> Result<SparseLu, OpmError> {
    factor_pencil(&e.lin_comb(sigma, -1.0, a))
}

// ---------------------------------------------------------------------------
// Recorded analyses: one symbolic LU replayed against many value sets
// ---------------------------------------------------------------------------

fn singular(e: SparseError) -> OpmError {
    OpmError::SingularPencil(format!("{e}"))
}

/// One pencil pattern's recorded analysis — its AMD ordering and
/// [`SymbolicLu`] — plus relaxed counters of the factorizations replayed
/// against it. Immutable once recorded, so any number of threads can
/// refactor through it at once.
pub(crate) struct PencilAnalysis {
    order: Permutation,
    symbolic: SymbolicLu,
    /// Fresh pivoted factorizations forced by pivot degradation.
    fallbacks: AtomicUsize,
    /// Numeric-only refactorizations.
    numeric: AtomicUsize,
}

impl PencilAnalysis {
    /// Factors `csc` under `order` and records the analysis.
    fn record(csc: &CscMatrix, order: Permutation) -> Result<(Self, SparseLu), OpmError> {
        let (symbolic, lu) =
            SymbolicLu::factor_with(csc, Some(&order), LuOptions::default()).map_err(singular)?;
        let analysis = PencilAnalysis {
            order,
            symbolic,
            fallbacks: AtomicUsize::new(0),
            numeric: AtomicUsize::new(0),
        };
        Ok((analysis, lu))
    }

    /// Factors a CSR pencil with the AMD ordering and records the
    /// analysis — the multi-term plans' entry point.
    pub(crate) fn of_pencil(pencil: &CsrMatrix) -> Result<(Self, SparseLu), OpmError> {
        Self::record(&pencil.to_csc(), pencil_order(pencil))
    }

    /// The one refactor-with-fallback path: a numeric-only
    /// [`SparseLu::refactor`] of `values` (laid out on `pattern`, the
    /// recorded pattern), and on [`SparseError::PivotDegraded`] a fresh
    /// pivoted factorization of the same values under the recorded
    /// ordering. The recorded analysis itself never changes, so the
    /// factor for a value set does not depend on which thread asks or
    /// when. Returns the factor and whether it fell back.
    ///
    /// # Errors
    /// [`OpmError::SingularPencil`] when the values are singular.
    pub(crate) fn refactor(
        &self,
        pattern: &CscMatrix,
        values: &[f64],
    ) -> Result<(SparseLu, bool), OpmError> {
        match SparseLu::refactor(&self.symbolic, values) {
            Ok(lu) => {
                self.numeric.fetch_add(1, Ordering::Relaxed);
                Ok((lu, false))
            }
            Err(SparseError::PivotDegraded(_)) => {
                let mut csc = pattern.clone();
                csc.values_mut().copy_from_slice(values);
                let lu = SparseLu::factor(&csc, Some(&self.order)).map_err(singular)?;
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                Ok((lu, true))
            }
            Err(e) => Err(singular(e)),
        }
    }

    /// Counter snapshot: the recorded analysis and every fallback are
    /// symbolic, the rest numeric.
    pub(crate) fn profile(&self) -> FactorProfile {
        FactorProfile {
            num_symbolic: 1 + self.fallbacks.load(Ordering::Relaxed),
            num_numeric: self.numeric.load(Ordering::Relaxed),
            ..FactorProfile::default()
        }
    }
}

/// The shifted-pencil family `σ·E − A` over all shifts, with everything
/// shift-independent paid **once**, when the family is built: the union
/// CSC pattern ([`ShiftedPencil`]), the AMD fill-reducing ordering, and
/// the symbolic analysis ([`SymbolicLu`]: fill pattern, pivot order,
/// elimination reach) recorded by factoring the reference shift. Every
/// further shift is a numeric-only [`SparseLu::refactor`], with an
/// automatic fall back to a fresh pivoted factorization when a fixed
/// pivot degrades past [`LuOptions::refactor_threshold`]. Fallbacks do
/// not replace the recorded analysis, so the factors produced for a
/// given shift are independent of the order — or the thread — in which
/// shifts are requested.
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
    analysis: PencilAnalysis,
    /// Statistics of the reference factorization, set once: every
    /// refactorization shares its pattern, so they hold for the whole
    /// family.
    reference: FactorProfile,
    newton_iters: AtomicUsize,
    newton_refactors: AtomicUsize,
    newton_fresh_fallbacks: AtomicUsize,
}

impl PencilFamily {
    /// Assembles the union pattern of `E` and `A`, computes the AMD
    /// ordering and factors the reference shift `σ₀·E − A`, recording
    /// the analysis every later shift replays. Returns the family and
    /// the reference factor.
    ///
    /// # Errors
    /// [`OpmError::SingularPencil`] when `σ₀·E − A` is singular.
    pub fn new(e: &CsrMatrix, a: &CsrMatrix, sigma0: f64) -> Result<(Self, SparseLu), OpmError> {
        let mut pencil = ShiftedPencil::new(e, a);
        let order = pencil_order(&pencil.pattern().to_csr());
        let (analysis, lu) = PencilAnalysis::record(pencil.shifted(sigma0), order)?;
        let stats = lu.supernode_stats();
        let reference = FactorProfile {
            num_supernodes: stats.num_supernodes,
            supernode_cols: stats.supernode_cols,
            dense_tail_cols: stats.dense_tail_cols,
            factor_cols: stats.num_cols,
            factor_nnz: lu.nnz(),
            ..FactorProfile::default()
        };
        let family = PencilFamily {
            pencil,
            analysis,
            reference,
            newton_iters: AtomicUsize::new(0),
            newton_refactors: AtomicUsize::new(0),
            newton_fresh_fallbacks: AtomicUsize::new(0),
        };
        Ok((family, lu))
    }

    /// Factors `σ·E − A` against the recorded analysis (numeric-only,
    /// or a fresh pivoted factorization on pivot degradation).
    ///
    /// # Errors
    /// [`OpmError::SingularPencil`] when the pencil is singular.
    pub fn factor(&self, sigma: f64) -> Result<SparseLu, OpmError> {
        self.factor_into(sigma, &mut Vec::new())
    }

    /// [`PencilFamily::factor`] with a caller-owned value buffer.
    fn factor_into(&self, sigma: f64, vals: &mut Vec<f64>) -> Result<SparseLu, OpmError> {
        self.pencil.shift_values(sigma, vals);
        Ok(self.analysis.refactor(self.pencil.pattern(), vals)?.0)
    }

    /// Factors every shift in `sigmas`, numerically refactoring the
    /// independent pencils **in parallel** on up to `threads` workers
    /// (see [`opm_par::par_map`]), each worker carrying only a private
    /// value buffer. Per-shift pivot degradation falls back to a fresh
    /// pivoted factorization of that shift alone, so the result for each
    /// shift — and the whole output — is identical for every `threads`
    /// value.
    ///
    /// # Errors
    /// The index of the first offending shift plus
    /// [`OpmError::SingularPencil`] when some pencil is singular.
    pub fn factor_all(
        &self,
        sigmas: &[f64],
        threads: usize,
    ) -> Result<Vec<SparseLu>, (usize, OpmError)> {
        // Contiguous chunks, one per worker task, so every task reuses a
        // single value buffer instead of allocating per shift.
        let chunk_len = sigmas.len().div_ceil(threads.max(1)).max(1);
        let chunks: Vec<&[f64]> = sigmas.chunks(chunk_len).collect();
        opm_par::par_map(threads, &chunks, |chunk| {
            let mut vals = Vec::new();
            chunk
                .iter()
                .map(|&sigma| self.factor_into(sigma, &mut vals))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .enumerate()
        .map(|(i, res)| res.map_err(|e| (i, e)))
        .collect()
    }

    /// Factorization-cost profile of this family so far.
    pub fn profile(&self) -> FactorProfile {
        let counts = self.analysis.profile();
        FactorProfile {
            num_symbolic: counts.num_symbolic,
            num_numeric: counts.num_numeric,
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
    /// union CSC pattern — the positions [`ShiftedPencil::shift_values`]
    /// writes and [`PencilFamily::factor_stamped`]'s stamp closure
    /// mutates. Computed once per plan so the per-iteration Newton
    /// stamping is pure index arithmetic.
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] when a coordinate lies outside the
    /// union pattern (a device touching a position neither `E` nor `A`
    /// stores — GMIN planting at assembly is what rules this out).
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

    /// Factors `σ·E − A − J` where `J` is applied by `stamp` directly on
    /// the shifted value buffer (indices from
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
        sigma: f64,
        stamp: impl FnOnce(&mut [f64]),
    ) -> Result<SparseLu, OpmError> {
        let mut vals = Vec::new();
        self.pencil.shift_values(sigma, &mut vals);
        stamp(&mut vals);
        let (lu, fell_back) = self.analysis.refactor(self.pencil.pattern(), &vals)?;
        let counter = if fell_back {
            &self.newton_fresh_fallbacks
        } else {
            &self.newton_refactors
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(lu)
    }
}

/// [`factor_pencil`] with the symbolic analysis recorded: the analysis
/// can later be replayed against any pencil sharing the same pattern via
/// [`SparseLu::refactor`].
///
/// # Errors
/// As [`factor_pencil`].
pub fn factor_pencil_symbolic(pencil: &CsrMatrix) -> Result<(SymbolicLu, SparseLu), OpmError> {
    PencilAnalysis::of_pencil(pencil).map(|(analysis, lu)| (analysis.symbolic, lu))
}

/// Builds the multi-term pencil `Σ_k w_k·A_k` from per-term leading
/// weights.
///
/// # Errors
/// [`OpmError::BadArguments`] when `terms` is empty.
pub fn weighted_pencil(
    terms: &[opm_system::Term],
    weights: impl Fn(usize) -> f64,
) -> Result<CsrMatrix, OpmError> {
    let mut pencil: Option<CsrMatrix> = None;
    for (k, term) in terms.iter().enumerate() {
        let w = weights(k);
        pencil = Some(match pencil {
            None => term.matrix.scale(w),
            Some(acc) => acc.lin_comb(1.0, w, &term.matrix),
        });
    }
    pencil.ok_or(OpmError::BadArguments("no terms".into()))
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
/// bit-identical. `OPM_NO_PANEL=1` routes to the scalar reference.
pub fn apply_b_block(b: &CsrMatrix, u_block: &[f64], lanes: usize, scale: f64, out: &mut [f64]) {
    if !opm_linalg::panel::lane_panels_enabled() {
        return apply_b_block_scalar(b, u_block, lanes, scale, out);
    }
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
///
/// [`ColumnSweep`] is the `lanes == 1` special case.
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
    pub work: Vec<f64>,
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

    /// Scenario width of the sweep.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Columns solved so far (interleaved blocks — the history the RHS
    /// builder may read).
    pub fn history(&self) -> &[Vec<f64>] {
        &self.columns
    }

    /// Runs one column: zeroes the RHS block, lets `build` fill it
    /// (reading the history), block-solves against `lu`, appends and
    /// returns the new interleaved column.
    pub fn step(
        &mut self,
        lu: &SparseLu,
        build: impl FnOnce(&[Vec<f64>], &mut [f64], &mut [f64]),
    ) -> &[f64] {
        self.rhs.iter_mut().for_each(|v| *v = 0.0);
        build(&self.columns, &mut self.rhs, &mut self.work);
        let mut x = vec![0.0; self.n * self.lanes];
        lu.solve_block_into(&self.rhs, &mut x, self.lanes);
        self.num_solves += self.lanes;
        self.columns.push(x);
        self.columns.last().unwrap()
    }

    /// Runs the full sweep: the `m` columns fixed at construction
    /// against one factorization, the per-column RHS block built by
    /// `build(j, history, rhs, work)`. `j` is the index into the
    /// history — it starts past any seeded columns, so seeded and
    /// unseeded sweeps present the same coordinates to the builder.
    pub fn run(
        mut self,
        lu: &SparseLu,
        mut build: impl FnMut(usize, &[Vec<f64>], &mut [f64], &mut [f64]),
    ) -> BlockOutcome {
        for _ in 0..self.m {
            self.step(lu, |history, rhs, work| {
                build(history.len(), history, rhs, work);
            });
        }
        self.into_outcome(1)
    }

    /// Finishes a manually-stepped sweep. Seeded history columns are
    /// dropped: the outcome holds only the columns this sweep solved.
    pub fn into_outcome(mut self, num_factorizations: usize) -> BlockOutcome {
        if self.seeded > 0 {
            self.columns.drain(..self.seeded);
        }
        BlockOutcome {
            columns: self.columns,
            lanes: self.lanes,
            num_solves: self.num_solves,
            num_factorizations,
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
    /// De-interleaves into one [`SweepOutcome`] per lane.
    pub fn into_lane_outcomes(self) -> Vec<SweepOutcome> {
        let lanes = self.lanes;
        if lanes == 1 {
            // The interleaved layout degenerates to plain columns: move
            // them instead of element-copying (the one-shot solve path).
            return vec![SweepOutcome {
                columns: self.columns,
                num_solves: self.num_solves,
                num_factorizations: self.num_factorizations,
            }];
        }
        let n = self.columns.first().map_or(0, |c| c.len() / lanes);
        (0..lanes)
            .map(|l| SweepOutcome {
                columns: self
                    .columns
                    .iter()
                    .map(|blk| (0..n).map(|i| blk[i * lanes + l]).collect())
                    .collect(),
                num_solves: self.num_solves / lanes,
                num_factorizations: self.num_factorizations,
            })
            .collect()
    }
}

/// The cached-factorization column sweep at the heart of every OPM
/// solver: for `j = 0..m`, assemble a right-hand side (with read access
/// to every previously solved column — the history/convolution term) and
/// solve it against one shared factorization.
///
/// This is the single-scenario view of [`BlockColumnSweep`]; the engine
/// itself always runs the block form.
pub struct ColumnSweep {
    inner: BlockColumnSweep,
}

impl ColumnSweep {
    /// A sweep over `m` columns of an order-`n` system.
    pub fn new(n: usize, m: usize) -> Self {
        ColumnSweep {
            inner: BlockColumnSweep::new(n, m, 1),
        }
    }

    /// Columns solved so far (the history the RHS builder may read).
    pub fn history(&self) -> &[Vec<f64>] {
        self.inner.history()
    }

    /// Runs one column: zeroes the RHS, lets `build` fill it (reading
    /// the history), solves against `lu`, appends and returns the new
    /// column.
    pub fn step(
        &mut self,
        lu: &SparseLu,
        build: impl FnOnce(&[Vec<f64>], &mut [f64], &mut [f64]),
    ) -> &[f64] {
        self.inner.step(lu, build)
    }

    /// Runs the full sweep: the `m` columns fixed at construction
    /// against one factorization, the per-column RHS built by
    /// `build(j, history, rhs, work)`.
    pub fn run(
        self,
        lu: &SparseLu,
        build: impl FnMut(usize, &[Vec<f64>], &mut [f64], &mut [f64]),
    ) -> SweepOutcome {
        let mut outcomes = self.inner.run(lu, build).into_lane_outcomes();
        outcomes.pop().expect("one lane by construction")
    }

    /// Finishes a manually-stepped sweep.
    pub fn into_outcome(self, num_factorizations: usize) -> SweepOutcome {
        let mut outcomes = self
            .inner
            .into_outcome(num_factorizations)
            .into_lane_outcomes();
        outcomes.pop().expect("one lane by construction")
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
    /// Adds `x0` to every column (undoes the `z = x − x₀` state shift).
    #[must_use]
    pub fn shifted_by(mut self, x0: &[f64]) -> Self {
        for col in &mut self.columns {
            for (c, v) in col.iter_mut().zip(x0) {
                *c += v;
            }
        }
        self
    }

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
// Problem / SolveOptions: the declarative front door
// ---------------------------------------------------------------------------

/// The model being simulated (borrowed, cheap to construct).
#[derive(Clone, Copy)]
enum Model<'a> {
    Linear(&'a DescriptorSystem),
    Fractional(&'a FractionalSystem),
    MultiTerm(&'a MultiTermSystem),
    SecondOrder(&'a SecondOrderSystem),
}

/// How the stimulus is supplied.
#[derive(Clone, Copy)]
enum Inputs<'a> {
    /// Nothing supplied yet (an error at solve time).
    Missing,
    /// Precomputed BPF coefficient matrix `u[ch][j]`.
    Coeffs(&'a [Vec<f64>]),
    /// Waveforms, projected by the engine at the chosen resolution.
    Waveforms(&'a InputSet),
}

/// A complete OPM problem description: model + stimulus + horizon + ICs.
///
/// Build one with [`Problem::linear`] / [`Problem::fractional`] /
/// [`Problem::multiterm`] / [`Problem::second_order`], chain the
/// setters, then call [`Problem::solve`].
#[derive(Clone, Copy)]
pub struct Problem<'a> {
    model: Model<'a>,
    inputs: Inputs<'a>,
    t_end: f64,
    x0: Option<&'a [f64]>,
}

impl<'a> Problem<'a> {
    fn new(model: Model<'a>) -> Self {
        Problem {
            model,
            inputs: Inputs::Missing,
            t_end: 0.0,
            x0: None,
        }
    }

    /// A linear descriptor problem `E ẋ = A x + B u`.
    pub fn linear(sys: &'a DescriptorSystem) -> Self {
        Problem::new(Model::Linear(sys))
    }

    /// A fractional problem `E d^α x = A x + B u`.
    pub fn fractional(fsys: &'a FractionalSystem) -> Self {
        Problem::new(Model::Fractional(fsys))
    }

    /// A multi-term problem `Σ_k A_k d^{α_k} x = B u`.
    pub fn multiterm(mt: &'a MultiTermSystem) -> Self {
        Problem::new(Model::MultiTerm(mt))
    }

    /// A second-order nodal problem `M₂ ẍ + M₁ ẋ + M₀ x = B u̇` (the
    /// engine differentiates the supplied waveforms exactly).
    pub fn second_order(so: &'a SecondOrderSystem) -> Self {
        Problem::new(Model::SecondOrder(so))
    }

    /// Supplies the stimulus as a precomputed BPF coefficient matrix
    /// (`u[ch][j]`, one row per input channel).
    #[must_use]
    pub fn coeffs(mut self, u: &'a [Vec<f64>]) -> Self {
        self.inputs = Inputs::Coeffs(u);
        self
    }

    /// Supplies the stimulus as waveforms; the engine projects them at
    /// the resolution chosen in [`SolveOptions`].
    #[must_use]
    pub fn waveforms(mut self, u: &'a InputSet) -> Self {
        self.inputs = Inputs::Waveforms(u);
        self
    }

    /// Sets the simulation horizon `[0, t_end)`.
    #[must_use]
    pub fn horizon(mut self, t_end: f64) -> Self {
        self.t_end = t_end;
        self
    }

    /// Sets a nonzero initial state (linear problems only; fractional
    /// and multi-term OPM assume zero Caputo initial conditions).
    #[must_use]
    pub fn initial_state(mut self, x0: &'a [f64]) -> Self {
        self.x0 = Some(x0);
        self
    }

    /// Solves the problem with the given options: builds a one-shot
    /// [`crate::SimPlan`] (validate, order, factor) and runs the single
    /// scenario through it. For many scenarios against one system, build
    /// the plan yourself via [`crate::Simulation`] and amortize the
    /// factorization.
    ///
    /// # Errors
    /// [`OpmError::BadArguments`] for inconsistent descriptions (missing
    /// inputs, nonzero ICs on fractional problems, waveform-only
    /// strategies fed coefficients, options that do not apply to the
    /// model, …) and any strategy error.
    pub fn solve(&self, opts: &SolveOptions) -> Result<OpmResult, OpmError> {
        let model = self.to_sim_model();
        if matches!(self.inputs, Inputs::Missing) {
            return Err(OpmError::BadArguments(
                "no stimulus: call .coeffs(..) or .waveforms(..)".into(),
            ));
        }
        // Coefficients carry their own column count; a contradicting
        // `resolution` is a description error, not something to ignore.
        if let (Some(r), Inputs::Coeffs(u)) = (opts.resolution, self.inputs) {
            let mu = u.first().map_or(0, Vec::len);
            if mu != r {
                return Err(OpmError::BadArguments(format!(
                    "option `resolution` ({r}) conflicts with the {mu}-column coefficient \
                     stimulus on the `{}` strategy",
                    model.strategy_name()
                )));
            }
        }
        let m = match crate::session::plan_resolution(&model, opts) {
            Ok(m) => m,
            // No explicit resolution: a coefficient stimulus carries its
            // own column count; waveforms cannot.
            Err(needs_resolution) => match self.inputs {
                Inputs::Coeffs(u) => u.first().map_or(0, Vec::len),
                _ => return Err(needs_resolution),
            },
        };
        let plan = crate::session::SimPlan::prepare(
            std::sync::Arc::new(model),
            opts,
            m,
            self.t_end,
            self.x0,
            Vec::new(),
        )?;
        match self.inputs {
            Inputs::Coeffs(u) => plan.solve_coeffs(u),
            Inputs::Waveforms(ws) => plan.solve(ws),
            Inputs::Missing => unreachable!("rejected above"),
        }
    }

    /// The owned model the one-shot plan is built on (the clone is
    /// O(nnz), dwarfed by the factorization `solve` performs).
    fn to_sim_model(self) -> crate::session::SimModel {
        match self.model {
            Model::Linear(sys) => crate::session::SimModel::Linear(sys.clone()),
            Model::Fractional(fsys) => crate::session::SimModel::Fractional(fsys.clone()),
            Model::MultiTerm(mt) => crate::session::SimModel::MultiTerm(mt.clone()),
            Model::SecondOrder(so) => crate::session::SimModel::SecondOrder(so.clone()),
        }
    }
}

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
    use opm_waveform::Waveform;

    fn scalar(a: f64) -> DescriptorSystem {
        let mut am = CooMatrix::new(1, 1);
        am.push(0, 0, a);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        DescriptorSystem::new(CsrMatrix::identity(1), am.to_csr(), b.to_csr(), None).unwrap()
    }

    #[test]
    fn problem_linear_equals_direct_call() {
        let sys = scalar(-1.0);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let m = 64;
        let u = inputs.bpf_matrix(m, 2.0);
        let direct = crate::Simulation::from_system(sys.clone())
            .horizon(2.0)
            .plan(&SolveOptions::new().resolution(m))
            .unwrap()
            .solve_coeffs(&u)
            .unwrap();
        let via_problem = Problem::linear(&sys)
            .waveforms(&inputs)
            .horizon(2.0)
            .solve(&SolveOptions::new().resolution(m))
            .unwrap();
        for j in 0..m {
            assert_eq!(direct.state_coeff(0, j), via_problem.state_coeff(0, j));
        }
    }

    #[test]
    fn all_linear_methods_agree() {
        let sys = scalar(-2.0);
        let inputs = InputSet::new(vec![Waveform::sine(0.0, 1.0, 1.0, 0.0, 0.0)]);
        let m = 16;
        let p = Problem::linear(&sys).waveforms(&inputs).horizon(1.0);
        let base = p.solve(&SolveOptions::new().resolution(m)).unwrap();
        for method in [Method::Accumulator, Method::Convolution, Method::Kronecker] {
            let r = p
                .solve(&SolveOptions::new().resolution(m).method(method))
                .unwrap();
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
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let p = Problem::fractional(&fsys).waveforms(&inputs).horizon(1.0);
        let uniform = p.solve(&SolveOptions::new().resolution(32)).unwrap();
        assert_eq!(uniform.num_intervals(), 32);
        let steps = crate::adaptive::geometric_grid(1.0, 16, 1.2);
        let graded = p.solve(&SolveOptions::new().step_grid(steps)).unwrap();
        assert_eq!(graded.num_intervals(), 16);
    }

    #[test]
    fn descriptive_errors() {
        let sys = scalar(-1.0);
        // Missing stimulus.
        assert!(Problem::linear(&sys)
            .horizon(1.0)
            .solve(&SolveOptions::new().resolution(8))
            .is_err());
        // Waveforms without resolution.
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        assert!(Problem::linear(&sys)
            .waveforms(&inputs)
            .horizon(1.0)
            .solve(&SolveOptions::new())
            .is_err());
        // Nonzero ICs on a fractional problem.
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        assert!(Problem::fractional(&fsys)
            .waveforms(&inputs)
            .horizon(1.0)
            .initial_state(&[1.0])
            .solve(&SolveOptions::new().resolution(8))
            .is_err());
    }

    #[test]
    fn inapplicable_options_are_rejected_not_ignored() {
        let sys = scalar(-1.0);
        let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
        let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
        // Nonzero ICs cannot ride the zero-IC strategies.
        for method in [Method::Convolution, Method::Kronecker] {
            assert!(
                Problem::linear(&sys)
                    .waveforms(&inputs)
                    .horizon(1.0)
                    .initial_state(&[2.0])
                    .solve(&SolveOptions::new().resolution(8).method(method))
                    .is_err(),
                "{method:?} must reject nonzero x0"
            );
        }
        // Adaptive stepping is linear-only; step grids are fractional-only.
        assert!(Problem::fractional(&fsys)
            .waveforms(&inputs)
            .horizon(1.0)
            .solve(
                &SolveOptions::new()
                    .resolution(8)
                    .adaptive(AdaptiveOpmOptions::default())
            )
            .is_err());
        assert!(Problem::linear(&sys)
            .waveforms(&inputs)
            .horizon(1.0)
            .solve(&SolveOptions::new().step_grid(vec![0.5, 0.3, 0.2]))
            .is_err());
        // Method overrides cannot combine with adaptive solving.
        assert!(Problem::linear(&sys)
            .waveforms(&inputs)
            .horizon(1.0)
            .solve(
                &SolveOptions::new()
                    .adaptive(AdaptiveOpmOptions::default())
                    .method(Method::Kronecker)
            )
            .is_err());
        // A resolution that contradicts the supplied coefficient matrix.
        let u = vec![vec![1.0; 8]];
        assert!(Problem::linear(&sys)
            .coeffs(&u)
            .horizon(1.0)
            .solve(&SolveOptions::new().resolution(16))
            .is_err());
        // …but a matching or omitted resolution is fine.
        assert!(Problem::linear(&sys)
            .coeffs(&u)
            .horizon(1.0)
            .solve(&SolveOptions::new().resolution(8))
            .is_ok());
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
        let (family, _) = PencilFamily::new(&e, &a, sigmas[0]).unwrap();
        for &s in &sigmas[1..] {
            family.factor(s).unwrap();
        }
        let p = family.profile();
        assert_eq!((p.num_symbolic, p.num_numeric), (1, 3));

        // Each factorization must agree with the one-shot path.
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        for &s in &sigmas {
            let via_family = family.factor(s).unwrap().solve(&b);
            let one_shot = factor_shifted_pencil(&e, &a, s).unwrap().solve(&b);
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
        let sigmas: Vec<f64> = (1..20).map(|k| 1.5 * k as f64).collect();
        let (family, _) = PencilFamily::new(sys.e(), sys.a(), 0.5).unwrap();
        let lus_1 = family.factor_all(&sigmas, 1).unwrap();
        let lus_4 = family.factor_all(&sigmas, 4).unwrap();
        for (l1, l4) in lus_1.iter().zip(&lus_4) {
            assert_eq!(l1.solve(&[1.0]), l4.solve(&[1.0]));
        }
    }

    #[test]
    fn sweep_counts_and_history() {
        let sys = scalar(-1.0);
        let lu = factor_shifted_pencil(sys.e(), sys.a(), 2.0).unwrap();
        let outcome = ColumnSweep::new(1, 4).run(&lu, |j, history, rhs, _| {
            assert_eq!(history.len(), j);
            rhs[0] = 1.0;
        });
        assert_eq!(outcome.columns.len(), 4);
        assert_eq!(outcome.num_solves, 4);
    }
}
