//! The shared OPM solver engine.
//!
//! Every OPM variant in this crate solves the same matrix equation
//! `Σ_k A_k X Sym_k = B U` column by column: build a pencil from the
//! leading symbol coefficients, factor it **once** (or once per distinct
//! step on adaptive grids), then sweep columns left to right, each
//! column's right-hand side mixing the inputs with a history term over
//! already-solved columns. The plan's sweeps — linear, fractional,
//! multi-term, adaptive — are thin *strategies* over the primitives in
//! this module; the model picks the sweep. The paper's reference forms
//! stay outside this crate, in `opm-oracle`, as the oracles the tests
//! compare against: the dense Kronecker solves and the literal
//! alternating accumulator.
//!
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
//! - [`apply_b_block`] — accumulates `scale·B·u_j` into a right-hand
//!   side, an interleaved block of `lanes` scenarios (one lane is a
//!   plain vector);
//! - `Endpoint` — the endpoint form of the linear recurrence, the
//!   right-hand side `σE·e_j + B·u_j` and the step `e_{j+1} = 2x_j − e_j`
//!   that the uniform, windowed, adaptive and Newton sweeps share;
//! - `BlockColumnSweep` — the cached-factorization column solve loop,
//!   `lanes` scenarios wide, with read access to all previously solved
//!   columns (the history term) and a cancel poll every 64 columns
//!   (`SWEEP_BLOCK`); it returns its plain column store, and
//!   `deinterleave` splits a multi-lane store into per-lane columns;
//! - [`SolveOptions`] — resolution and adaptivity (the model picks the
//!   sweep).
//!
//! Every solve ends in [`crate::OpmResult`]'s one constructor, which
//! projects the columns through the model's output selector `C`; what a
//! solve cost is read from the plan ([`crate::SimPlan::factor_profile`]).
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
use crate::cancel::CancelToken;
use crate::metrics::FactorProfile;
use crate::OpmError;
use opm_sparse::lu::LuOptions;
use opm_sparse::ordering::amd;
use opm_sparse::pencil::ShiftedPencil;
use opm_sparse::{CscMatrix, CsrMatrix, Permutation, SparseError, SparseLu, SymbolicLu};
use opm_system::DescriptorSystem;
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
/// another plan already recorded them on this pattern, and pays at most
/// an exact numeric replay of the reference weights. A window kernel is
/// an exact replay ([`SparseLu::refactor_exact`]) or, where it refuses,
/// a fresh factor under the recorded ordering; every other weight
/// vector is a numeric-only [`SparseLu::refactor`], with an automatic
/// fall back to a fresh pivoted factorization when a fixed pivot
/// degrades past [`LuOptions::refactor_threshold`]. Fallbacks do not
/// replace the recorded analysis, so the factors produced for given
/// weights are independent of the order — or the thread — in which
/// they are requested.
///
/// # Thread safety
///
/// A family is immutable once built: [`PencilFamily::factor`],
/// [`PencilFamily::factor_all`] and [`PencilFamily::factor_stamped`]
/// take `&self`, each call owns (or is handed) its value buffer and
/// factor, and the counters are relaxed atomics, so factorizations on
/// one family never wait on each other. A [`PencilFamily::profile`]
/// snapshot taken while other threads factor may be mid-update (one
/// counter bumped, the next not yet); once they finish it is exact.
pub struct PencilFamily {
    pencil: ShiftedPencil,
    /// The recorded analysis, shared by `Arc` with the pattern tier when
    /// the family was built through one.
    shared: Arc<PatternAnalysis>,
    /// Numeric-only refactorizations (the exact replay included).
    numeric: AtomicUsize,
    /// Symbolic analyses: the recording (unless the pattern tier's
    /// stood in for it) and every fresh pivoted factorization.
    symbolic: AtomicUsize,
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
        let (family, lu) = Self::recorded_in(terms, weights, None, true)?;
        Ok((family, lu.expect("a recording factors its reference")))
    }

    /// [`PencilFamily::new`] through the plan cache's pattern tier when
    /// `patterns` is given: a pattern the tier has analysed skips AMD and
    /// the symbolic LU, and its reference factor — bit-identical either
    /// way — comes only with `replay`.
    pub(crate) fn recorded_in(
        terms: &[&CsrMatrix],
        weights: &[f64],
        patterns: Option<&PatternCache>,
        replay: bool,
    ) -> Result<(Self, Option<SparseLu>), OpmError> {
        let mut pencil = ShiftedPencil::of_terms(terms);
        let csc = pencil.combined(weights);
        let (shared, lu, recorded) = match patterns {
            Some(tier) => tier.factor(csc, replay)?,
            None => {
                let (analysis, lu) = PatternAnalysis::record(csc)?;
                (Arc::new(analysis), Some(lu), true)
            }
        };
        let family = PencilFamily {
            pencil,
            shared,
            numeric: AtomicUsize::new(usize::from(lu.is_some() && !recorded)),
            symbolic: AtomicUsize::new(usize::from(recorded)),
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

    /// [`PencilFamily::factor`] with a caller-owned value buffer. The
    /// factor owns only its values: a replay shares the recorded pattern.
    fn factor_into(&self, weights: &[f64], vals: &mut Vec<f64>) -> Result<SparseLu, OpmError> {
        self.pencil.combined_values(weights, vals);
        let replayed = SparseLu::refactor(self.shared.symbolic(), vals);
        Ok(match self.book(replayed, vals)? {
            Ok(lu) | Err(lu) => lu,
        })
    }

    /// The fresh factor of `Σ_k weights[k]·A_k` under the recorded
    /// ordering, bit for bit: the exact replay ([`SparseLu::refactor_exact`])
    /// or where it refuses that fresh factorization, booked symbolic.
    pub(crate) fn factor_exact(&self, weights: &[f64]) -> Result<SparseLu, OpmError> {
        let mut values = Vec::new();
        self.pencil.combined_values(weights, &mut values);
        if let Ok(lu) = SparseLu::refactor_exact(self.shared.symbolic(), &values) {
            self.numeric.fetch_add(1, Ordering::Relaxed);
            return Ok(lu);
        }
        let mut csc = self.pencil.pattern().clone();
        csc.values_mut().copy_from_slice(&values);
        let (_, lu) = PatternAnalysis::record_with(&csc, self.shared.order().clone())?;
        self.symbolic.fetch_add(1, Ordering::Relaxed);
        Ok(lu)
    }

    /// The in-place refactor with fallback (Newton iterates): a
    /// numeric-only [`SparseLu::refactor_into`] of `values` (laid out on
    /// the union pattern) into `lu`'s storage, and on
    /// [`SparseError::PivotDegraded`] a fresh pivoted factorization of
    /// the same values under the recorded ordering in its place. The
    /// recorded analysis itself never changes, so the factor for a value
    /// set does not depend on which thread asks or when. Returns whether
    /// it fell back.
    fn refactor_into(&self, values: &[f64], lu: &mut SparseLu) -> Result<bool, OpmError> {
        let replayed = lu.refactor_into(self.shared.symbolic(), values);
        match self.book(replayed, values)? {
            Ok(()) => Ok(false),
            Err(fresh) => {
                *lu = fresh;
                Ok(true)
            }
        }
    }

    /// Books a replay of `values` on the recorded analysis: `Ok` with
    /// its result, booked numeric, when it was accepted, and where it
    /// was refused on [`SparseError::PivotDegraded`] `Err` with their
    /// fresh pivoted factorization under the recorded ordering, booked
    /// symbolic (it has a pattern of its own). Any other refusal is the
    /// pencil's singularity.
    fn book<T>(
        &self,
        replayed: Result<T, SparseError>,
        values: &[f64],
    ) -> Result<Result<T, SparseLu>, OpmError> {
        let refused = match replayed {
            Ok(t) => {
                self.numeric.fetch_add(1, Ordering::Relaxed);
                return Ok(Ok(t));
            }
            Err(refused) => refused,
        };
        let SparseError::PivotDegraded(_) = refused else {
            return Err(singular(refused));
        };
        let mut csc = self.pencil.pattern().clone();
        csc.values_mut().copy_from_slice(values);
        let lu = SparseLu::factor(&csc, Some(self.shared.order())).map_err(singular)?;
        self.symbolic.fetch_add(1, Ordering::Relaxed);
        Ok(Err(lu))
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
    /// numeric. The fill is the recorded analysis's: every
    /// refactorization shares its pattern.
    pub fn profile(&self) -> FactorProfile {
        FactorProfile {
            num_symbolic: self.symbolic.load(Ordering::Relaxed),
            num_numeric: self.numeric.load(Ordering::Relaxed),
            newton_iters: self.newton_iters.load(Ordering::Relaxed),
            newton_refactors: self.newton_refactors.load(Ordering::Relaxed),
            newton_fresh_fallbacks: self.newton_fresh_fallbacks.load(Ordering::Relaxed),
            factor_cols: self.shared.symbolic().dim(),
            factor_nnz: self.shared.symbolic().factor_nnz(),
            ..FactorProfile::default()
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
    /// Both buffers are the caller's: `vals` receives the stamped values
    /// and `lu` the factor, each reusing its capacity, so a caller that
    /// keeps them across iterates factors without a heap allocation.
    /// Numeric-only refactorization against the family's recorded
    /// analysis (the pattern is iteration-invariant because GMIN keeps
    /// every device position stored), with the same pivot-degradation
    /// fallback as [`PencilFamily::factor`]: `lu` then holds the fresh
    /// factor. Books Newton-specific counters so plans can assert "one
    /// symbolic analysis, the rest numeric" end-to-end.
    ///
    /// # Errors
    /// [`OpmError::SingularPencil`] when the stamped pencil is singular;
    /// `lu` is then fit only to be factored into again.
    pub fn factor_stamped(
        &self,
        weights: &[f64],
        vals: &mut Vec<f64>,
        lu: &mut SparseLu,
        stamp: impl FnOnce(&mut [f64]),
    ) -> Result<(), OpmError> {
        self.pencil.combined_values(weights, vals);
        stamp(vals);
        let counter = if self.refactor_into(vals, lu)? {
            &self.newton_fresh_fallbacks
        } else {
            &self.newton_refactors
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Right-hand-side assembly
// ---------------------------------------------------------------------------

/// Accumulates `scale·B·u` into `out` for `lanes` scenarios at once.
/// `u_block[ch*lanes + l]` is channel `ch` of lane `l`; `out` is a
/// row-major `n × lanes` block. One pass over `B`'s sparse structure
/// serves every lane.
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

/// The endpoint form of the linear column recurrence, the one every
/// linear sweep runs — uniform, windowed, adaptive and Newton: with
/// `e₀ = x₀` the polyline endpoint entering column `j`,
///
/// ```text
/// (σE − A)·x_j = σE·e_j + B·u_j ,     e_{j+1} = 2·x_j − e_j
/// ```
///
/// `e` is one state or a row-major `n × lanes` block of them.
pub(crate) struct Endpoint {
    /// The endpoint entering the next column.
    pub(crate) e: Vec<f64>,
    /// `E·e` scratch.
    work: Vec<f64>,
}

impl Endpoint {
    /// The recurrence entering its first column at `start`.
    pub(crate) fn new(start: &[f64]) -> Self {
        Endpoint {
            e: start.to_vec(),
            work: vec![0.0; start.len()],
        }
    }

    /// Writes the right-hand side `σE·e + B·u` into `rhs`, where
    /// `u[ch*lanes + l]` is channel `ch` of lane `l`. Each row of `B·u`
    /// is summed in `B`'s stored order before it is added.
    pub(crate) fn rhs(&mut self, sys: &DescriptorSystem, sigma: f64, u: &[f64], rhs: &mut [f64]) {
        let (b, lanes) = (sys.b(), self.e.len() / sys.order());
        sys.e().mul_block_into(&self.e, &mut self.work, lanes);
        for (k, (r, w)) in rhs.iter_mut().zip(&self.work).enumerate() {
            let (i, l) = (k / lanes, k % lanes);
            *r = sigma * w + b.row(i).fold(0.0, |s, (ch, v)| s + v * u[ch * lanes + l]);
        }
    }

    /// Steps past the solved column `x`: `e ← 2x − e`.
    pub(crate) fn advance(&mut self, x: &[f64]) {
        for (e, &xi) in self.e.iter_mut().zip(x) {
            *e = 2.0 * xi - *e;
        }
    }
}

// ---------------------------------------------------------------------------
// The column sweep
// ---------------------------------------------------------------------------

/// The base block of the column sweeps, in columns: a sweep polls its
/// cancel token at the first column and every `SWEEP_BLOCK` columns
/// after it, and a convolution sweep's fractional memory adds one
/// dyadic square per completed block of global columns.
pub(crate) const SWEEP_BLOCK: usize = 64;

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
pub(crate) struct BlockColumnSweep {
    n: usize,
    m: usize,
    lanes: usize,
    columns: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    /// Scratch block sized `n·lanes`, for matrix–block products inside
    /// RHS builders (avoids per-column allocation in every strategy).
    work: Vec<f64>,
}

impl BlockColumnSweep {
    /// A sweep over `m` more columns of an order-`n` system, `lanes`
    /// scenarios wide, continuing `history` — the columns already
    /// solved (empty to start the horizon), which the RHS builders read
    /// exactly as if this sweep had solved them. The builder's column
    /// index `j` counts from there (`history.len()` at each step), so a
    /// time-invariant recurrence continued across a window boundary is
    /// column-for-column identical to the unbroken sweep.
    ///
    /// # Panics
    /// Panics when `lanes == 0`.
    pub(crate) fn new(n: usize, m: usize, lanes: usize, mut history: Vec<Vec<f64>>) -> Self {
        assert!(lanes > 0, "block sweep needs at least one lane");
        history.reserve(m);
        BlockColumnSweep {
            n,
            m,
            lanes,
            columns: history,
            rhs: vec![0.0; n * lanes],
            work: vec![0.0; n * lanes],
        }
    }

    /// Runs the full sweep: the `m` columns fixed at construction
    /// against one factorization. Each column zeroes the RHS block, lets
    /// `build(j, history, rhs, work)` fill it, block-solves against `lu`
    /// and appends the new interleaved column. Returns the history it
    /// continued followed by the `m` solved columns.
    ///
    /// # Errors
    /// [`OpmError::Cancelled`] when `cancel` trips; it is polled before
    /// the first column and every [`SWEEP_BLOCK`] columns after it. Any
    /// error `build` returns (a builder that polls `cancel` inside a
    /// long step) ends the sweep with it.
    pub(crate) fn run(
        mut self,
        lu: &SparseLu,
        cancel: Option<&CancelToken>,
        mut build: impl FnMut(usize, &[Vec<f64>], &mut [f64], &mut [f64]) -> Result<(), OpmError>,
    ) -> Result<Vec<Vec<f64>>, OpmError> {
        for step in 0..self.m {
            if step % SWEEP_BLOCK == 0 {
                cancel.map_or(Ok(()), CancelToken::check)?;
            }
            self.rhs.iter_mut().for_each(|v| *v = 0.0);
            build(
                self.columns.len(),
                &self.columns,
                &mut self.rhs,
                &mut self.work,
            )?;
            let mut x = vec![0.0; self.n * self.lanes];
            lu.solve_block_into(&self.rhs, &mut x, self.lanes);
            self.columns.push(x);
        }
        Ok(self.columns)
    }
}

/// Splits a store of lane-interleaved `n × lanes` columns into one plain
/// column list per lane, consuming the store as it goes (peak storage
/// stays one copy plus one block). One lane is already plain: its
/// columns move instead of being copied.
pub(crate) fn deinterleave(columns: Vec<Vec<f64>>, lanes: usize) -> Vec<Vec<Vec<f64>>> {
    if lanes == 1 {
        return vec![columns];
    }
    let n = columns.first().map_or(0, |c| c.len() / lanes);
    let mut per_lane: Vec<Vec<Vec<f64>>> = (0..lanes)
        .map(|_| Vec::with_capacity(columns.len()))
        .collect();
    for blk in columns {
        for (l, cols) in per_lane.iter_mut().enumerate() {
            cols.push((0..n).map(|i| blk[i * lanes + l]).collect());
        }
    }
    per_lane
}

// ---------------------------------------------------------------------------
// SolveOptions: resolution and adaptivity
// ---------------------------------------------------------------------------

/// Solver configuration: resolution and adaptivity. The sweep itself is
/// the model's: [`crate::Simulation::plan`] picks it from the model
/// class and its orders alone.
#[derive(Clone, Debug, Default)]
pub struct SolveOptions {
    pub(crate) resolution: Option<usize>,
    pub(crate) adaptive: Option<AdaptiveOpmOptions>,
    pub(crate) step_grid: Option<Vec<f64>>,
}

impl SolveOptions {
    /// Default options: uniform grid.
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
    use crate::OpmResult;
    use opm_oracle::{accumulator_solve, kron_solve_linear};
    use opm_sparse::CooMatrix;
    use opm_system::{DescriptorSystem, FractionalSystem};
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
    fn linear_plan_agrees_with_the_oracles() {
        let sys = scalar(-2.0);
        let sim = crate::Simulation::from_system(sys.clone()).horizon(1.0);
        let inputs = InputSet::new(vec![Waveform::sine(0.0, 1.0, 1.0, 0.0, 0.0)]);
        let m = 16;
        let base = solve_once(sim, &inputs, &SolveOptions::new().resolution(m)).unwrap();
        let u = inputs.bpf_matrix(m, 1.0);
        let oracles = [
            ("accumulator", accumulator_solve(&sys, &u, 1.0, &[0.0])),
            ("Kronecker", kron_solve_linear(&sys, &u, 1.0)),
        ];
        for (name, r) in oracles {
            let r = r.unwrap();
            for j in 0..m {
                assert!(
                    (r[j][0] - base.state_coeff(0, j)).abs() < 1e-9,
                    "{name}, column {j}"
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

    /// The pivot-degradation fallback, and back: recorded weights
    /// refactor on the analysis, weights that cancel a recorded pivot get
    /// a fresh factor of their own (booked symbolic), and the recorded
    /// pattern serves the next weights again. Every factor solves bit for
    /// bit like `SparseLu::factor` of its values under the recorded
    /// ordering, and a refactor in place over the fallback factor or a
    /// factor of another dimension equals a refactor from scratch.
    #[test]
    fn pivot_degradation_falls_back_to_a_fresh_factor_and_back() {
        // σ·I − A, A tridiagonal with −2 on the diagonal and 1 beside
        // it: every pivot the recorded order takes first is σ + 2, so at
        // σ = −2 + 1e-15 it degrades against an off-diagonal 1, while
        // the pencil stays nonsingular (n even).
        let n = 8;
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, -2.0);
            if i + 1 < n {
                a.push(i, i + 1, 1.0);
                a.push(i + 1, i, 1.0);
            }
        }
        let (e, a) = (CsrMatrix::identity(n), a.to_csr());
        let (family, _) = PencilFamily::new(&[&e, &a], &[1.0, -1.0]).unwrap();
        let one_shot = |sigma: f64| {
            let mut csc = family.pencil.pattern().clone();
            let mut vals = Vec::new();
            family.pencil.combined_values(&[sigma, -1.0], &mut vals);
            csc.values_mut().copy_from_slice(&vals);
            SparseLu::factor(&csc, Some(family.shared.order())).unwrap()
        };
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let bits =
            |lu: &SparseLu| -> Vec<u64> { lu.solve(&b).iter().map(|v| v.to_bits()).collect() };

        let degraded = -2.0 + 1e-15;
        let mut booked = Vec::new();
        for sigma in [1.0, degraded, 3.0] {
            let lu = family.factor(&[sigma, -1.0]).unwrap();
            assert_eq!(bits(&lu), bits(&one_shot(sigma)), "σ = {sigma}");
            let p = family.profile();
            booked.push((p.num_symbolic, p.num_numeric));
        }
        assert_eq!(booked, [(1, 1), (2, 1), (2, 2)], "(symbolic, numeric)");
        let fallback = family.factor(&[degraded, -1.0]).unwrap();
        assert_eq!(
            fallback,
            one_shot(degraded),
            "the fallback is the fresh factor"
        );

        let mut vals = Vec::new();
        let other_dim = SparseLu::factor(&CsrMatrix::identity(3).to_csc(), None).unwrap();
        for mut lu in [fallback, other_dim] {
            family
                .factor_stamped(&[3.0, -1.0], &mut vals, &mut lu, |_| {})
                .unwrap();
            assert_eq!(lu, family.factor(&[3.0, -1.0]).unwrap());
        }
        // A Newton iterate on degraded values falls back in place.
        let mut lu = family.factor(&[3.0, -1.0]).unwrap();
        family
            .factor_stamped(&[degraded, -1.0], &mut vals, &mut lu, |_| {})
            .unwrap();
        assert_eq!(lu, one_shot(degraded));
        let p = family.profile();
        assert_eq!((p.newton_refactors, p.newton_fresh_fallbacks), (2, 1));
    }

    #[test]
    fn sweep_counts_and_history() {
        let sys = scalar(-1.0);
        let lu = factor_pencil(&sys.e().lin_comb(2.0, -1.0, sys.a())).unwrap();
        let columns = BlockColumnSweep::new(1, 4, 1, Vec::new())
            .run(&lu, None, |j, history, rhs, _| {
                assert_eq!(history.len(), j);
                rhs[0] = 1.0;
                Ok(())
            })
            .unwrap();
        assert_eq!(columns.len(), 4);
    }

    #[test]
    fn sweep_polls_its_token_every_block() {
        // Cancelled while building column 10, the sweep stops at its
        // next poll, the first column of the second block.
        let sys = scalar(-1.0);
        let lu = factor_pencil(&sys.e().lin_comb(2.0, -1.0, sys.a())).unwrap();
        let token = CancelToken::new();
        let mut built = 0;
        let err = BlockColumnSweep::new(1, 4 * SWEEP_BLOCK, 1, Vec::new())
            .run(&lu, Some(&token), |j, _, rhs, _| {
                built += 1;
                if j == 10 {
                    token.cancel();
                }
                rhs[0] = 1.0;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, OpmError::Cancelled(_)), "{err}");
        assert_eq!(built, SWEEP_BLOCK);
    }

    #[test]
    fn deinterleave_splits_lanes_and_moves_one() {
        // Two columns of an n = 2, 3-lane store: block[i*3 + l].
        let store = vec![
            vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0],
            vec![3.0, 4.0, 5.0, 13.0, 14.0, 15.0],
        ];
        let lanes = deinterleave(store, 3);
        assert_eq!(lanes[1], vec![vec![1.0, 11.0], vec![4.0, 14.0]]);
        let one = vec![vec![7.0, 8.0]];
        let ptr = one[0].as_ptr();
        assert_eq!(deinterleave(one, 1)[0][0].as_ptr(), ptr);
    }
}
