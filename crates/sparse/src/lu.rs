//! Left-looking sparse LU with partial pivoting (Gilbert–Peierls).
//!
//! This is the `O(n^β)` direct solver the paper's complexity analysis
//! assumes. Each column is computed by a *sparse triangular solve* whose
//! nonzero pattern is discovered by depth-first search through the graph of
//! the partially built `L` (Gilbert & Peierls, 1988), so the factorization
//! runs in time proportional to arithmetic work rather than `O(n²)`.
//!
//! Pivoting is partial (by magnitude) with a diagonal-preference threshold:
//! the diagonal row is accepted whenever it is within `pivot_threshold` of
//! the largest candidate — the SPICE convention, which preserves the
//! benefit of a fill-reducing pre-ordering on MNA matrices.
//!
//! # Symbolic/numeric split
//!
//! Workloads that factor **many matrices on one sparsity pattern** (the
//! OPM pencils `σ·E − A` over varying shifts, the SPICE per-timestep
//! Jacobians this solver family was designed for) pay the depth-first
//! reach discovery, pivot search and pattern bookkeeping only once:
//! [`SymbolicLu::factor_with`] records the elimination reach and pivot
//! order of a reference factorization, and [`SparseLu::refactor`] replays
//! the *numeric* half against new values — fixed pivots, fixed fill, no
//! DFS — in the KLU style. A pivot that degrades past
//! [`LuOptions::refactor_threshold`] aborts with
//! [`SparseError::PivotDegraded`] so the caller can fall back to a fresh
//! pivoted factorization.
//!
//! [`SparseLu::refactor_exact`] is the same replay under a stricter
//! pivot rule: it accepts a column only when a fresh factorization of
//! the new values would pick the recorded pivot row there, so an
//! accepted replay is bit-identical to [`SymbolicLu::factor_with`] under
//! the same ordering — the contract a pattern-keyed analysis cache
//! needs to stand in for a fresh analysis.

use crate::csc::CscMatrix;
use crate::perm::Permutation;
use crate::SparseError;
use opm_linalg::panel::{backward_upper_panels, forward_unit_lower_panels, LANE_PANEL_WIDTH};

/// Minimum width for a supernodal dense tail: trailing column blocks
/// narrower than this stay in sparse form (the dense kernels cannot
/// recoup their zero-fill overhead on tiny blocks).
const MIN_DENSE_TAIL: usize = 8;

/// Maximum width for a supernodal dense tail: caps the redundant dense
/// mirror at `512² × 8 B = 2 MiB` per factorization.
const MAX_DENSE_TAIL: usize = 512;

/// [`SymbolicLu`]'s marker for a column whose diagonal row was not a
/// pivot candidate.
const NO_SLOT: usize = usize::MAX;

/// Which pivot a numeric replay accepts in each column.
#[derive(Clone, Copy)]
enum PivotRule {
    /// The recorded pivot, unless it falls below
    /// [`LuOptions::refactor_threshold`] times the column's largest
    /// candidate ([`SparseLu::refactor`]).
    Guarded,
    /// The recorded pivot, only where a fresh factorization would pick
    /// the same row ([`SparseLu::refactor_exact`]).
    Exact,
}

/// Factorization options.
#[derive(Clone, Copy, Debug)]
pub struct LuOptions {
    /// Relative threshold for accepting the diagonal pivot (`0 < t ≤ 1`);
    /// `1.0` forces strict partial pivoting, small values prefer the
    /// diagonal. Default `1e-3`.
    pub pivot_threshold: f64,
    /// Pivot-degradation guard for [`SparseLu::refactor`]: a numeric
    /// refactorization rejects column `k` when the fixed pivot falls
    /// below `refactor_threshold` times the largest candidate magnitude
    /// in that column — the values have drifted too far from the
    /// analyzed ones for the recorded pivot order to stay stable.
    /// Default `1e-10`.
    pub refactor_threshold: f64,
    /// Density threshold (stored entries over dense capacity, in
    /// `(0, 1]`) at which the trailing columns of the factors collapse
    /// into a **supernodal dense tail**: the largest trailing block
    /// `[t, n)` whose factor density reaches the threshold is mirrored
    /// into one row-major dense panel and solved with the blocked dense
    /// triangular kernels of `opm-linalg` instead of per-entry sparse
    /// sweeps. Elimination fill concentrates in exactly this trailing
    /// corner (the columns share their elimination reach), so MNA-style
    /// matrices routinely end almost fully dense there while the head
    /// stays sparse.
    ///
    /// The dense tail changes **where** the arithmetic runs, never what
    /// it computes: block solves stay bit-identical to the sparse path.
    /// Values above `1.0` disable detection; see
    /// [`SparseLu::supernode_stats`] for the observability side.
    /// Default `0.9`.
    pub supernode_threshold: f64,
}

impl Default for LuOptions {
    fn default() -> Self {
        LuOptions {
            pivot_threshold: 1e-3,
            refactor_threshold: 1e-10,
            supernode_threshold: 0.9,
        }
    }
}

/// Supernode observability of one factorization — how much of the
/// factors' structure is supernodal (consecutive columns with identical
/// elimination reach) and how wide the detected dense tail is. Reported
/// through `FactorProfile` by the session layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupernodeStats {
    /// Maximal runs (width ≥ 2) of consecutive pivotal columns whose `L`
    /// patterns nest exactly (`pattern(k) = {k+1} ∪ pattern(k+1)`) — the
    /// classical supernode condition.
    pub num_supernodes: usize,
    /// Columns covered by those runs.
    pub supernode_cols: usize,
    /// Width of the detected dense tail (0 when none qualified).
    pub dense_tail_cols: usize,
    /// Total pivotal columns, the denominator for coverage ratios.
    pub num_cols: usize,
}

/// The supernodal dense tail: a redundant row-major mirror of the
/// trailing `dim × dim` corner of the factors, solved with blocked dense
/// triangular kernels while the sparse columns remain authoritative for
/// everything else (`nnz`, `det`, single-vector solves).
#[derive(Clone, Debug)]
struct DenseTail {
    /// First pivotal column of the tail, `t`.
    start: usize,
    /// Tail width `n − t`.
    dim: usize,
    /// Row-major `dim × dim` panel: `L` strictly below the diagonal
    /// (unit diagonal implicit), `U` strictly above it; absent pattern
    /// entries are zero-filled, diagonal slots are unused (`u_diag`
    /// stays authoritative).
    lu: Vec<f64>,
    /// Per tail column: the `U` border entries whose pivotal row lies
    /// *above* the tail (`row < t`), in stored order — applied after the
    /// dense back-substitution, before the sparse one.
    u_above: Vec<Vec<(usize, f64)>>,
}

/// Scans the factor patterns for the largest trailing block `[t, n)`
/// whose stored-entry density reaches `threshold`, returning `t`.
///
/// An `L` entry of a column `k ≥ t` always lies in the tail (its row
/// exceeds `k`); a `U` entry lies in the tail exactly when its pivotal
/// row is `≥ t` (its column is even larger). Both counts are therefore
/// plain suffix sums, and the scan is `O(nnz + min(n, MAX_DENSE_TAIL))`.
fn detect_dense_tail(
    n: usize,
    l_cols: &[Vec<(usize, f64)>],
    u_cols: &[Vec<(usize, f64)>],
    threshold: f64,
) -> Option<usize> {
    if !(threshold > 0.0 && threshold <= 1.0) || n < MIN_DENSE_TAIL {
        return None;
    }
    let lo = n.saturating_sub(MAX_DENSE_TAIL);
    // Suffix counts over the candidate range: l_nnz[t - lo] counts L
    // entries of columns ≥ t, u_nnz[t - lo] counts U entries with
    // pivotal row ≥ t.
    let mut u_rows = vec![0usize; n - lo];
    for col in u_cols {
        for &(i, _) in col {
            if i >= lo {
                u_rows[i - lo] += 1;
            }
        }
    }
    let width = n - lo;
    let mut l_nnz = vec![0usize; width + 1];
    let mut u_nnz = vec![0usize; width + 1];
    for t in (lo..n).rev() {
        l_nnz[t - lo] = l_nnz[t - lo + 1] + l_cols[t].len();
        u_nnz[t - lo] = u_nnz[t - lo + 1] + u_rows[t - lo];
    }
    for t in lo..=(n - MIN_DENSE_TAIL) {
        let d = n - t;
        let stored = l_nnz[t - lo] + u_nnz[t - lo] + d;
        if stored as f64 >= threshold * (d * d) as f64 {
            return Some(t);
        }
    }
    None
}

/// Mirrors the trailing factor columns `[start, n)` into a [`DenseTail`].
fn build_dense_tail(
    n: usize,
    l_cols: &[Vec<(usize, f64)>],
    u_cols: &[Vec<(usize, f64)>],
    start: usize,
) -> DenseTail {
    let dim = n - start;
    let mut lu = vec![0.0; dim * dim];
    let mut u_above: Vec<Vec<(usize, f64)>> = vec![Vec::new(); dim];
    for k in start..n {
        let kk = k - start;
        for &(i, lv) in &l_cols[k] {
            lu[(i - start) * dim + kk] = lv; // rows of L col k are > k ≥ start
        }
        for &(i, uv) in &u_cols[k] {
            if i >= start {
                lu[(i - start) * dim + kk] = uv;
            } else {
                u_above[kk].push((i, uv));
            }
        }
    }
    DenseTail {
        start,
        dim,
        lu,
        u_above,
    }
}

/// The reusable symbolic half of a sparse LU: fill pattern, pivot and
/// column order, and per-column elimination reach in topological order.
///
/// Computed once per sparsity pattern by [`SymbolicLu::factor_with`]
/// (alongside the numeric factors of the analyzed matrix), then amortized
/// over every [`SparseLu::refactor`] with new values on the *same*
/// pattern. The struct is immutable and `Sync`, so one analysis can feed
/// any number of concurrent refactorizations.
///
/// ```
/// use opm_sparse::{CooMatrix, lu::{SparseLu, SymbolicLu}};
/// let mut c = CooMatrix::new(2, 2);
/// c.push(0, 0, 4.0);
/// c.push(0, 1, 1.0);
/// c.push(1, 0, 1.0);
/// c.push(1, 1, 3.0);
/// let csc = c.to_csc();
/// let (sym, lu0) = SymbolicLu::factor(&csc, None).unwrap();
/// // New values, same pattern: numeric-only refactorization.
/// let lu1 = SparseLu::refactor(&sym, &[8.0, 2.0, 2.0, 6.0]).unwrap();
/// let x = lu1.solve(&[10.0, 8.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// assert_eq!(lu0.dim(), lu1.dim());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SymbolicLu {
    n: usize,
    /// Column ordering shared with every refactorization.
    col_perm: Permutation,
    /// `row_perm[k]` = original row pinned as pivot `k`.
    row_perm: Vec<usize>,
    /// Flat scatter map: input value slot `p` (CSC pattern order) lands
    /// at pivotal row `a_dst[p]` of its column.
    a_dst: Vec<usize>,
    /// Per pivotal column `k`: the slot range of original column
    /// `col_perm[k]` in the input value array.
    a_range: Vec<(usize, usize)>,
    /// U pattern per column (pivotal positions `< k`), flattened, in the
    /// topological order the numeric update loop must follow.
    u_ptr: Vec<usize>,
    u_idx: Vec<usize>,
    /// L pattern per column (pivotal positions `> k`), flattened.
    l_ptr: Vec<usize>,
    l_idx: Vec<usize>,
    /// Per pivotal column `k`: the pivot's slot among the column's
    /// pivot candidates (the rows still unpivoted when column `k` was
    /// eliminated) in the order the analysis scanned them — the L
    /// pattern `l_idx[l_ptr[k]..l_ptr[k + 1]]` with the pivot inserted
    /// at this slot.
    piv_slot: Vec<usize>,
    /// Per pivotal column: the diagonal row's slot in the same candidate
    /// list, [`NO_SLOT`] when the diagonal was not a candidate.
    diag_slot: Vec<usize>,
    /// Diagonal-preference threshold inherited from the analysis options.
    pivot_threshold: f64,
    /// Pivot-degradation guard inherited from the analysis options.
    refactor_threshold: f64,
    /// First column of the supernodal dense tail detected on the
    /// recorded pattern (`None`: no tail qualified). Pattern-only, so
    /// every refactorization on this analysis shares it.
    tail_start: Option<usize>,
}

impl SymbolicLu {
    /// Factors `a` and records the symbolic analysis, with default
    /// [`LuOptions`].
    ///
    /// # Errors
    /// As [`SparseLu::factor`].
    pub fn factor(
        a: &CscMatrix,
        order: Option<&Permutation>,
    ) -> Result<(Self, SparseLu), SparseError> {
        Self::factor_with(a, order, LuOptions::default())
    }

    /// Factors `a` with explicit options, returning both the symbolic
    /// analysis (reusable for every matrix sharing `a`'s pattern) and
    /// the numeric factors of `a` itself.
    ///
    /// Unlike [`SparseLu::factor_with`], entries of the elimination
    /// reach that happen to be numerically zero for *this* value set are
    /// kept in the factors: the pattern must cover every value set the
    /// analysis will be replayed against.
    ///
    /// # Errors
    /// As [`SparseLu::factor`].
    pub fn factor_with(
        a: &CscMatrix,
        order: Option<&Permutation>,
        opts: LuOptions,
    ) -> Result<(Self, SparseLu), SparseError> {
        let (lu, sym) = factor_impl(a, order, opts, true)?;
        Ok((sym.expect("symbolic recording requested"), lu))
    }

    /// Dimension of the analyzed pattern.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries of the analyzed input pattern — the length
    /// [`SparseLu::refactor`] expects of its value array.
    pub fn pattern_nnz(&self) -> usize {
        self.a_dst.len()
    }

    /// Stored entries in the factors (`L` strictly lower + `U` incl.
    /// diagonal) every refactorization will produce.
    pub fn factor_nnz(&self) -> usize {
        self.l_idx.len() + self.u_idx.len() + self.n
    }
}

/// Sparse LU factors `P·A·Q = L·U` with unit-diagonal `L`.
///
/// ```
/// use opm_sparse::{CooMatrix, lu::SparseLu};
/// // A saddle-point (MNA-like) matrix with a structural zero diagonal.
/// let mut c = CooMatrix::new(3, 3);
/// c.push(0, 0, 2.0);
/// c.push(0, 2, 1.0);
/// c.push(1, 1, 3.0);
/// c.push(1, 2, -1.0);
/// c.push(2, 0, 1.0);
/// c.push(2, 1, -1.0); // last diagonal entry absent: pivoting required
/// let lu = SparseLu::factor(&c.to_csc(), None).unwrap();
/// let x = lu.solve(&[3.0, 2.0, 0.0]);
/// let a = c.to_csr();
/// let r: Vec<f64> = a.mul_vec(&x).iter().zip([3.0, 2.0, 0.0]).map(|(y, b)| y - b).collect();
/// assert!(r.iter().all(|e| e.abs() < 1e-12));
/// ```
#[derive(Clone, Debug)]
pub struct SparseLu {
    n: usize,
    /// Strictly-lower entries of `L` per column, in pivotal row indices.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Upper entries of `U` per column (positions `< k`), pivotal indices.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// `U[k,k]` pivots.
    u_diag: Vec<f64>,
    /// `row_perm[k]` = original row chosen as pivot `k`.
    row_perm: Vec<usize>,
    /// Column ordering: position `k` factors original column `col_perm[k]`.
    col_perm: Permutation,
    /// Supernodal dense tail, when the trailing factor columns are dense
    /// enough ([`LuOptions::supernode_threshold`]). Used by the panel
    /// block solves; the sparse columns above stay authoritative.
    tail: Option<DenseTail>,
}

impl SparseLu {
    /// Factors `a` with an optional fill-reducing column ordering.
    ///
    /// # Errors
    /// [`SparseError::Singular`] when no acceptable pivot exists in some
    /// column; [`SparseError::DimensionMismatch`] when `a` is not square.
    pub fn factor(a: &CscMatrix, order: Option<&Permutation>) -> Result<Self, SparseError> {
        Self::factor_with(a, order, LuOptions::default())
    }

    /// Factors with explicit [`LuOptions`].
    ///
    /// # Errors
    /// See [`factor`](Self::factor).
    pub fn factor_with(
        a: &CscMatrix,
        order: Option<&Permutation>,
        opts: LuOptions,
    ) -> Result<Self, SparseError> {
        factor_impl(a, order, opts, false).map(|(lu, _)| lu)
    }

    /// Numeric-only refactorization: replays the elimination recorded in
    /// `sym` against new `values` on the analyzed sparsity pattern —
    /// fixed pivot order, fixed fill, no reach discovery. `values` must
    /// be the value array of a CSC with the analyzed pattern (see
    /// [`CscMatrix::values`]), e.g. one produced by
    /// [`crate::pencil::ShiftedPencil::shift_values`].
    ///
    /// Refactoring with the values the analysis itself was run on
    /// replays the exact same pivots and update sequence, so downstream
    /// solves are bitwise-identical across the factor/refactor boundary.
    ///
    /// # Errors
    /// [`SparseError::PivotDegraded`] when a fixed pivot falls below
    /// [`LuOptions::refactor_threshold`] times the largest candidate in
    /// its column (fall back to a fresh pivoted [`SparseLu::factor`]);
    /// [`SparseError::Singular`] when a column vanishes entirely, an
    /// input value is non-finite, or a pivot turns non-finite.
    ///
    /// # Panics
    /// Panics when `values.len() != sym.pattern_nnz()`.
    pub fn refactor(sym: &SymbolicLu, values: &[f64]) -> Result<Self, SparseError> {
        Self::replay(sym, values, PivotRule::Guarded)
    }

    /// Exact replay: [`SparseLu::refactor`] under a pivot rule that
    /// accepts column `k` only when a fresh [`SymbolicLu::factor_with`]
    /// of `values` under the analysis's column order and options would
    /// pick the recorded pivot row there — diagonal preference at
    /// [`LuOptions::pivot_threshold`], else the first strict maximum in
    /// the analysis's scan order, ties decided by the recorded candidate
    /// slots. The arithmetic of the replay is the fresh factorization's,
    /// update for update, so an accepted replay returns factors (and a
    /// dense tail) bit-identical to that fresh factorization, whose
    /// symbolic analysis in turn equals `sym`.
    ///
    /// # Errors
    /// [`SparseError::PivotMismatch`] at the first column where the
    /// fresh factorization would pivot differently (or fail), and
    /// [`SparseError::Singular`] on a non-finite input value: either way
    /// the caller factors fresh under the same ordering to get exactly
    /// what a fresh factorization returns.
    ///
    /// # Panics
    /// Panics when `values.len() != sym.pattern_nnz()`.
    pub fn refactor_exact(sym: &SymbolicLu, values: &[f64]) -> Result<Self, SparseError> {
        Self::replay(sym, values, PivotRule::Exact)
    }

    /// The numeric replay behind [`SparseLu::refactor`] and
    /// [`SparseLu::refactor_exact`]: one loop, two pivot rules.
    fn replay(sym: &SymbolicLu, values: &[f64], rule: PivotRule) -> Result<Self, SparseError> {
        assert_eq!(
            values.len(),
            sym.pattern_nnz(),
            "refactor: value array does not match the analyzed pattern"
        );
        let n = sym.n;
        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut u_diag = vec![0.0; n];
        // Dense accumulator in *pivotal* row coordinates.
        let mut x = vec![0.0f64; n];

        for k in 0..n {
            let upat = &sym.u_idx[sym.u_ptr[k]..sym.u_ptr[k + 1]];
            let lpat = &sym.l_idx[sym.l_ptr[k]..sym.l_ptr[k + 1]];

            // Scatter A[:, col_perm[k]] into pivotal positions,
            // rejecting non-finite input values up front (they would
            // otherwise slip past the pivot checks into the factors).
            let (lo, hi) = sym.a_range[k];
            let mut finite = true;
            for (p, &v) in (lo..hi).zip(&values[lo..hi]) {
                finite &= v.is_finite();
                x[sym.a_dst[p]] = v;
            }
            if !finite {
                for p in lo..hi {
                    x[sym.a_dst[p]] = 0.0;
                }
                return Err(SparseError::Singular(k));
            }

            // Sparse triangular solve over the recorded reach, in the
            // recorded topological order — the same update sequence the
            // analysis performed, hence bitwise-reproducible.
            for &j in upat {
                let xj = x[j];
                if xj != 0.0 {
                    for &(i, lv) in &l_cols[j] {
                        x[i] -= lv * xj;
                    }
                }
            }

            // The recorded pivot, checked against the rule.
            let pivot = x[k];
            let refused = match rule {
                PivotRule::Guarded => {
                    let mut max_cand = pivot.abs();
                    for &i in lpat {
                        max_cand = max_cand.max(x[i].abs());
                    }
                    if !pivot.is_finite() || (pivot == 0.0 && max_cand == 0.0) {
                        Some(SparseError::Singular(k))
                    } else if pivot.abs() < sym.refactor_threshold * max_cand {
                        Some(SparseError::PivotDegraded(k))
                    } else {
                        None
                    }
                }
                PivotRule::Exact => (fresh_pivot_slot(sym, k, &x, lpat) != Some(sym.piv_slot[k]))
                    .then_some(SparseError::PivotMismatch(k)),
            };
            if let Some(err) = refused {
                for &i in upat.iter().chain(lpat) {
                    x[i] = 0.0;
                }
                x[k] = 0.0;
                return Err(err);
            }

            // Gather into the fixed factor pattern; reset workspace. U is
            // gathered in the analysis's emission order (the reverse of
            // the update order), so the stored factors match a fresh
            // factorization entry for entry.
            let mut ucol = Vec::with_capacity(upat.len());
            for &i in upat.iter().rev() {
                ucol.push((i, x[i]));
                x[i] = 0.0;
            }
            let mut lcol = Vec::with_capacity(lpat.len());
            for &i in lpat {
                lcol.push((i, x[i] / pivot));
                x[i] = 0.0;
            }
            x[k] = 0.0;
            u_diag[k] = pivot;
            u_cols.push(ucol);
            l_cols.push(lcol);
        }

        // The analysis already decided where the dense tail starts (a
        // pattern property); only the values need re-mirroring.
        let tail = sym
            .tail_start
            .map(|t| build_dense_tail(n, &l_cols, &u_cols, t));
        Ok(SparseLu {
            n,
            l_cols,
            u_cols,
            u_diag,
            row_perm: sym.row_perm.clone(),
            col_perm: sym.col_perm.clone(),
            tail,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries in `L` (strictly lower) plus `U` (including diagonal).
    pub fn nnz(&self) -> usize {
        self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_cols.iter().map(Vec::len).sum::<usize>()
            + self.n
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    /// Panics when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.solve_into(b, &mut out);
        out
    }

    /// Solves `A·x = b` into a caller-provided buffer (no allocation beyond
    /// one internal scratch reuse).
    ///
    /// # Panics
    /// Panics when slice lengths differ from `self.dim()`.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        assert_eq!(b.len(), self.n, "solve: rhs length mismatch");
        assert_eq!(out.len(), self.n, "solve: out length mismatch");
        // y ← P·b in pivotal order.
        let mut y: Vec<f64> = (0..self.n).map(|k| b[self.row_perm[k]]).collect();
        // Forward solve L·z = y (unit diagonal, column sweep).
        for k in 0..self.n {
            let yk = y[k];
            if yk != 0.0 {
                for &(i, lv) in &self.l_cols[k] {
                    y[i] -= lv * yk;
                }
            }
        }
        // Back solve U·w = z (column sweep from the right).
        for k in (0..self.n).rev() {
            y[k] /= self.u_diag[k];
            let yk = y[k];
            if yk != 0.0 {
                for &(i, uv) in &self.u_cols[k] {
                    y[i] -= uv * yk;
                }
            }
        }
        // Undo column permutation: x[q[k]] = w[k].
        for k in 0..self.n {
            out[self.col_perm.old_of(k)] = y[k];
        }
    }

    /// Solves `A·X = B` for `lanes` right-hand sides in **one** traversal
    /// of the factors.
    ///
    /// `b` and `out` are row-major `n × lanes` blocks: the `lanes` values
    /// of row `i` live at `b[i*lanes..(i+1)*lanes]`. A single pass over
    /// `L` and `U` serves every lane, so the per-entry index decode and
    /// factor traffic are amortized `lanes`-fold — the kernel behind the
    /// engine's multi-scenario block sweep.
    ///
    /// Lanes are swept in fixed-width panels
    /// ([`opm_linalg::panel::LANE_PANEL_WIDTH`] wide, with narrower
    /// remainder panels) held in `[f64; W]` register accumulators, and a
    /// detected supernodal dense tail is solved with blocked dense
    /// kernels; both are pure blocking changes — lanes are independent,
    /// so the per-lane arithmetic sequence is exactly that of
    /// [`SparseLu::solve_block_into_scalar`] and results agree bit-for-bit (up to
    /// the sign of zero). The panel body runs as its AVX codegen copy
    /// where the CPU supports it and as the portable build elsewhere.
    ///
    /// # Panics
    /// Panics when `lanes == 0` or slice lengths differ from
    /// `self.dim() * lanes`.
    pub fn solve_block_into(&self, b: &[f64], out: &mut [f64], lanes: usize) {
        assert!(lanes > 0, "solve_block: zero lanes");
        assert_eq!(b.len(), self.n * lanes, "solve_block: rhs size mismatch");
        assert_eq!(out.len(), self.n * lanes, "solve_block: out size mismatch");
        #[cfg(target_arch = "x86_64")]
        if opm_linalg::panel::avx_available() {
            // SAFETY: the `avx` target feature was detected on this CPU.
            unsafe { self.solve_block_panels_avx(b, out, lanes) };
            return;
        }
        self.solve_block_panels_body(b, out, lanes);
    }

    /// The scalar reference implementation of
    /// [`solve_block_into`](Self::solve_block_into): one pass over the
    /// factors with a full-width lane loop per entry, no panelling, no
    /// dense tail. The panel path is validated against this, bit for
    /// bit, by the `kernel/*` bench records and the ragged-lane
    /// proptests.
    ///
    /// # Panics
    /// As [`solve_block_into`](Self::solve_block_into).
    pub fn solve_block_into_scalar(&self, b: &[f64], out: &mut [f64], lanes: usize) {
        assert!(lanes > 0, "solve_block: zero lanes");
        assert_eq!(b.len(), self.n * lanes, "solve_block: rhs size mismatch");
        assert_eq!(out.len(), self.n * lanes, "solve_block: out size mismatch");
        // y ← P·B in pivotal order.
        let mut y = vec![0.0; self.n * lanes];
        for k in 0..self.n {
            let src = self.row_perm[k] * lanes;
            y[k * lanes..(k + 1) * lanes].copy_from_slice(&b[src..src + lanes]);
        }
        let mut piv = vec![0.0; lanes];
        // Forward solve L·Z = Y (unit diagonal, column sweep).
        for k in 0..self.n {
            piv.copy_from_slice(&y[k * lanes..(k + 1) * lanes]);
            if piv.iter().all(|&v| v == 0.0) {
                continue;
            }
            for &(i, lv) in &self.l_cols[k] {
                for (yi, pv) in y[i * lanes..(i + 1) * lanes].iter_mut().zip(&piv) {
                    *yi -= lv * pv;
                }
            }
        }
        // Back solve U·W = Z (column sweep from the right).
        for k in (0..self.n).rev() {
            let d = self.u_diag[k];
            for (yk, pv) in y[k * lanes..(k + 1) * lanes].iter_mut().zip(piv.iter_mut()) {
                *yk /= d;
                *pv = *yk;
            }
            if piv.iter().all(|&v| v == 0.0) {
                continue;
            }
            for &(i, uv) in &self.u_cols[k] {
                for (yi, pv) in y[i * lanes..(i + 1) * lanes].iter_mut().zip(&piv) {
                    *yi -= uv * pv;
                }
            }
        }
        // Undo column permutation: X[q[k]] = W[k].
        for k in 0..self.n {
            let dst = self.col_perm.old_of(k) * lanes;
            out[dst..dst + lanes].copy_from_slice(&y[k * lanes..(k + 1) * lanes]);
        }
    }

    /// The AVX codegen copy of the panel driver: same Rust body, compiled
    /// with 4-wide `f64` vectors (`avx` only — no `fma`, so multiplies
    /// and adds stay separate IEEE operations and bit-identity with the
    /// portable copy and the scalar reference is preserved).
    ///
    /// # Safety
    /// The caller must have verified that the running CPU supports the
    /// `avx` target feature (this crate gates every call behind
    /// [`opm_linalg::panel::avx_available`]). The body is ordinary safe
    /// Rust — the only obligation is the feature check.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn solve_block_panels_avx(&self, b: &[f64], out: &mut [f64], lanes: usize) {
        self.solve_block_panels_body(b, out, lanes);
    }

    /// The panel sweep. Wide batches go through quad/pair panels (4× and
    /// 2× [`LANE_PANEL_WIDTH`] accumulators) so each pass over the factor
    /// structure serves as many lanes as the register file sustains; an
    /// `8 → 4 → 2 → 1` remainder chain (powers of two) covers every lane
    /// count without a per-element scalar tail. `#[inline(always)]` so
    /// each dispatch copy compiles it with its own target features.
    #[inline(always)]
    fn solve_block_panels_body(&self, b: &[f64], out: &mut [f64], lanes: usize) {
        let mut p0 = 0;
        let mut buf4: Vec<[f64; 4 * LANE_PANEL_WIDTH]> = Vec::new();
        while p0 + 4 * LANE_PANEL_WIDTH <= lanes {
            self.solve_panel::<{ 4 * LANE_PANEL_WIDTH }>(b, out, lanes, p0, &mut buf4);
            p0 += 4 * LANE_PANEL_WIDTH;
        }
        if p0 + 2 * LANE_PANEL_WIDTH <= lanes {
            self.solve_panel::<{ 2 * LANE_PANEL_WIDTH }>(b, out, lanes, p0, &mut Vec::new());
            p0 += 2 * LANE_PANEL_WIDTH;
        }
        if p0 + LANE_PANEL_WIDTH <= lanes {
            self.solve_panel::<LANE_PANEL_WIDTH>(b, out, lanes, p0, &mut Vec::new());
            p0 += LANE_PANEL_WIDTH;
        }
        if p0 + 4 <= lanes {
            self.solve_panel::<4>(b, out, lanes, p0, &mut Vec::new());
            p0 += 4;
        }
        if p0 + 2 <= lanes {
            self.solve_panel::<2>(b, out, lanes, p0, &mut Vec::new());
            p0 += 2;
        }
        if p0 < lanes {
            self.solve_panel::<1>(b, out, lanes, p0, &mut Vec::new());
        }
    }

    /// Solves lanes `p0 .. p0 + W` of the block in one cache-resident
    /// panel (`n × W` f64s): gather through the row permutation, sparse
    /// forward/backward column sweeps over the head columns, the dense
    /// tail (when present) via the blocked kernels, scatter through the
    /// column permutation.
    ///
    /// Every per-lane update happens in the scalar path's order: the
    /// outer column order is identical, and within a column each target
    /// row receives at most one update — so panelling cannot reassociate.
    #[inline(always)]
    fn solve_panel<const W: usize>(
        &self,
        b: &[f64],
        out: &mut [f64],
        lanes: usize,
        p0: usize,
        y: &mut Vec<[f64; W]>,
    ) {
        let n = self.n;
        y.clear();
        y.reserve(n);
        for k in 0..n {
            let src = self.row_perm[k] * lanes + p0;
            let mut panel = [0.0; W];
            panel.copy_from_slice(&b[src..src + W]);
            y.push(panel);
        }
        let t = self.tail.as_ref().map_or(n, |tl| tl.start);
        // Forward solve over the sparse head (every column when no tail).
        for k in 0..t {
            let piv = y[k];
            if piv == [0.0; W] {
                continue;
            }
            for &(i, lv) in &self.l_cols[k] {
                let yi = &mut y[i];
                for w in 0..W {
                    yi[w] -= lv * piv[w];
                }
            }
        }
        if let Some(tl) = &self.tail {
            let (head, tail_y) = y.split_at_mut(t);
            forward_unit_lower_panels(&tl.lu, tl.dim, tail_y);
            backward_upper_panels(&tl.lu, &self.u_diag[t..], tl.dim, tail_y);
            // U border above the tail: target rows are disjoint from the
            // dense block's, and per target row the column order stays
            // descending — the scalar back-substitution's order.
            for kk in (0..tl.dim).rev() {
                let piv = tail_y[kk];
                if piv == [0.0; W] {
                    continue;
                }
                for &(i, uv) in &tl.u_above[kk] {
                    let yi = &mut head[i];
                    for w in 0..W {
                        yi[w] -= uv * piv[w];
                    }
                }
            }
        }
        // Back solve over the sparse head.
        for k in (0..t).rev() {
            let d = self.u_diag[k];
            let yk = &mut y[k];
            for w in 0..W {
                yk[w] /= d;
            }
            let piv = *yk;
            if piv == [0.0; W] {
                continue;
            }
            for &(i, uv) in &self.u_cols[k] {
                let yi = &mut y[i];
                for w in 0..W {
                    yi[w] -= uv * piv[w];
                }
            }
        }
        // Undo column permutation: X[q[k]] = W[k].
        for k in 0..n {
            let dst = self.col_perm.old_of(k) * lanes + p0;
            out[dst..dst + W].copy_from_slice(&y[k]);
        }
    }

    /// Supernode observability: maximal runs of consecutive columns whose
    /// `L` patterns nest exactly (`pattern(k) = {k+1} ∪ pattern(k+1)` —
    /// identical elimination reach below the diagonal), plus the width of
    /// the detected dense tail. Runs of width ≥ 2 count as supernodes.
    pub fn supernode_stats(&self) -> SupernodeStats {
        let n = self.n;
        let mut stats = SupernodeStats {
            dense_tail_cols: self.tail.as_ref().map_or(0, |t| t.dim),
            num_cols: n,
            ..SupernodeStats::default()
        };
        // mark[i] = k after processing column k ⇒ row i ∈ pattern(k);
        // stale marks carry an older k, so no per-column reset is needed.
        let mut mark = vec![usize::MAX; n];
        let mut run = 1usize;
        for k in 0..n.saturating_sub(1) {
            let cur = &self.l_cols[k];
            let nxt = &self.l_cols[k + 1];
            let merges = cur.len() == nxt.len() + 1 && {
                for &(i, _) in cur {
                    mark[i] = k;
                }
                mark[k + 1] == k && nxt.iter().all(|&(i, _)| mark[i] == k)
            };
            if merges {
                run += 1;
            } else {
                if run >= 2 {
                    stats.num_supernodes += 1;
                    stats.supernode_cols += run;
                }
                run = 1;
            }
        }
        if run >= 2 {
            stats.num_supernodes += 1;
            stats.supernode_cols += run;
        }
        stats
    }

    /// Determinant of `A` (product of pivots, sign from both permutations).
    pub fn det(&self) -> f64 {
        let mut d: f64 = self.u_diag.iter().product();
        d *= perm_sign(&self.row_perm);
        d *= perm_sign(self.col_perm.as_slice());
        d
    }
}

/// The candidate slot a fresh factorization would pivot on in column
/// `k` of `sym`, given the column's values after the triangular solve
/// (pivotal coordinates in `x`, candidates `lpat` plus the recorded
/// pivot `k`), or `None` where it would report the column singular.
/// Mirrors [`factor_impl`]'s selection: the first strict maximum in
/// scan order, overridden by the diagonal when that is nonzero and
/// within `pivot_threshold` of the maximum.
fn fresh_pivot_slot(sym: &SymbolicLu, k: usize, x: &[f64], lpat: &[usize]) -> Option<usize> {
    let s = sym.piv_slot[k];
    let cand = |c: usize| match c.cmp(&s) {
        std::cmp::Ordering::Less => x[lpat[c]],
        std::cmp::Ordering::Equal => x[k],
        std::cmp::Ordering::Greater => x[lpat[c - 1]],
    };
    let mut max_abs = 0.0f64;
    let mut arg = None;
    for c in 0..=lpat.len() {
        let v = cand(c).abs();
        if v > max_abs {
            max_abs = v;
            arg = Some(c);
        }
    }
    let d = sym.diag_slot[k];
    if d != NO_SLOT {
        let xd = cand(d);
        if xd.abs() >= sym.pivot_threshold * max_abs && xd != 0.0 {
            arg = Some(d);
        }
    }
    arg.filter(|&c| cand(c).is_finite())
}

/// Shared left-looking factorization. With `record` set, the elimination
/// reach, pivot order and scatter map are captured into a [`SymbolicLu`],
/// and reached-but-numerically-zero entries are kept in the factors so
/// the recorded pattern covers every value set on this sparsity pattern.
fn factor_impl(
    a: &CscMatrix,
    order: Option<&Permutation>,
    opts: LuOptions,
    record: bool,
) -> Result<(SparseLu, Option<SymbolicLu>), SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::DimensionMismatch {
            expected: (a.nrows(), a.nrows()),
            found: (a.nrows(), a.ncols()),
        });
    }
    let n = a.nrows();
    let col_perm = order.cloned().unwrap_or_else(|| Permutation::identity(n));
    assert_eq!(col_perm.len(), n, "ordering length mismatch");

    // During factorization L columns carry ORIGINAL row indices; they
    // are renumbered to pivotal positions once all pivots are known.
    let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    let mut u_diag = vec![0.0; n];
    let mut pinv: Vec<Option<usize>> = vec![None; n];
    let mut row_perm = Vec::with_capacity(n);

    let mut x = vec![0.0f64; n]; // dense accumulator
    let mut visited = vec![false; n];
    let mut xi: Vec<usize> = Vec::with_capacity(n); // postorder
    let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);

    // Symbolic recording (reach in topological order; L pattern is kept
    // in original row indices and renumbered with the rest at the end).
    let mut u_ptr = vec![0usize];
    let mut u_idx: Vec<usize> = Vec::new();
    let mut l_ptr = vec![0usize];
    let mut l_orig: Vec<usize> = Vec::new();
    let mut piv_slot: Vec<usize> = Vec::new();
    let mut diag_slot: Vec<usize> = Vec::new();

    for k in 0..n {
        let jcol = col_perm.old_of(k);

        // --- Symbolic: reach of pattern(A[:, jcol]) through L. ---
        xi.clear();
        for &r0 in a.col_pattern(jcol) {
            if visited[r0] {
                continue;
            }
            visited[r0] = true;
            stack.push((r0, 0));
            while let Some(&mut (node, ref mut ci)) = stack.last_mut() {
                let children: &[(usize, f64)] = match pinv[node] {
                    Some(jl) => &l_cols[jl],
                    None => &[],
                };
                if *ci < children.len() {
                    let child = children[*ci].0;
                    *ci += 1;
                    if !visited[child] {
                        visited[child] = true;
                        stack.push((child, 0));
                    }
                } else {
                    xi.push(node);
                    stack.pop();
                }
            }
        }

        // --- Numeric: sparse lower-triangular solve. ---
        for (r, v) in a.col(jcol) {
            x[r] = v;
        }
        // Reverse postorder = topological order (parents first).
        for &r in xi.iter().rev() {
            if let Some(jl) = pinv[r] {
                if record {
                    u_idx.push(jl);
                }
                let xr = x[r];
                if xr != 0.0 {
                    for &(rr, lv) in &l_cols[jl] {
                        x[rr] -= lv * xr;
                    }
                }
            }
        }

        // --- Pivot selection among non-pivotal reached rows. ---
        let mut max_abs = 0.0f64;
        let mut piv_row = usize::MAX;
        for &r in &xi {
            if pinv[r].is_none() {
                let v = x[r].abs();
                if v > max_abs {
                    max_abs = v;
                    piv_row = r;
                }
            }
        }
        // Diagonal preference: accept original row `jcol` when close
        // enough to the magnitude winner.
        if pinv[jcol].is_none()
            && visited[jcol]
            && x[jcol].abs() >= opts.pivot_threshold * max_abs
            && x[jcol] != 0.0
        {
            piv_row = jcol;
        }
        if piv_row == usize::MAX || x[piv_row] == 0.0 || !x[piv_row].is_finite() {
            // Clean up workspace before reporting failure.
            for &r in &xi {
                visited[r] = false;
                x[r] = 0.0;
            }
            return Err(SparseError::Singular(k));
        }
        let pivot = x[piv_row];

        // --- Emit U column k and L column k; reset workspace. ---
        let mut ucol = Vec::new();
        let mut lcol = Vec::new();
        // Slots in the candidate scan order (the pivot search's `xi`
        // walk over unpivoted rows), for the exact replay's tie-breaks.
        let mut slot = 0usize;
        let (mut pslot, mut dslot) = (NO_SLOT, NO_SLOT);
        for &r in &xi {
            let v = x[r];
            match pinv[r] {
                Some(pos) => {
                    if record || v != 0.0 {
                        ucol.push((pos, v));
                    }
                }
                None => {
                    if r == piv_row {
                        pslot = slot;
                    }
                    if r == jcol {
                        dslot = slot;
                    }
                    slot += 1;
                    if r != piv_row && (record || v != 0.0) {
                        lcol.push((r, v / pivot));
                        if record {
                            l_orig.push(r);
                        }
                    }
                }
            }
            visited[r] = false;
            x[r] = 0.0;
        }
        if record {
            u_ptr.push(u_idx.len());
            l_ptr.push(l_orig.len());
            piv_slot.push(pslot);
            diag_slot.push(dslot);
        }
        u_diag[k] = pivot;
        pinv[piv_row] = Some(k);
        row_perm.push(piv_row);
        u_cols.push(ucol);
        l_cols.push(lcol);
    }

    // Renumber L's row indices from original to pivotal positions.
    for col in &mut l_cols {
        for entry in col.iter_mut() {
            entry.0 = pinv[entry.0].expect("all rows pivotal after completion");
        }
    }

    let tail_start = detect_dense_tail(n, &l_cols, &u_cols, opts.supernode_threshold);
    let tail = tail_start.map(|t| build_dense_tail(n, &l_cols, &u_cols, t));

    let sym = if record {
        for r in l_orig.iter_mut() {
            *r = pinv[*r].expect("all rows pivotal after completion");
        }
        // Scatter map: value slot p of the input CSC (pattern order)
        // lands at pivotal row pinv[rowind[p]]; per-column slot ranges
        // come from prefix sums over the (contiguous) column patterns.
        let mut col_lo = vec![0usize; n + 1];
        for j in 0..n {
            col_lo[j + 1] = col_lo[j] + a.col_pattern(j).len();
        }
        let mut a_dst = Vec::with_capacity(col_lo[n]);
        for j in 0..n {
            for &r in a.col_pattern(j) {
                a_dst.push(pinv[r].expect("all rows pivotal after completion"));
            }
        }
        let a_range = (0..n)
            .map(|k| {
                let jcol = col_perm.old_of(k);
                (col_lo[jcol], col_lo[jcol + 1])
            })
            .collect();
        Some(SymbolicLu {
            n,
            col_perm: col_perm.clone(),
            row_perm: row_perm.clone(),
            a_dst,
            a_range,
            u_ptr,
            u_idx,
            l_ptr,
            l_idx: l_orig,
            piv_slot,
            diag_slot,
            pivot_threshold: opts.pivot_threshold,
            refactor_threshold: opts.refactor_threshold,
            tail_start,
        })
    } else {
        None
    };

    Ok((
        SparseLu {
            n,
            l_cols,
            u_cols,
            u_diag,
            row_perm,
            col_perm,
            tail,
        },
        sym,
    ))
}

fn perm_sign(p: &[usize]) -> f64 {
    let mut seen = vec![false; p.len()];
    let mut sign = 1.0;
    for start in 0..p.len() {
        if seen[start] {
            continue;
        }
        let mut len = 0usize;
        let mut j = start;
        while !seen[j] {
            seen[j] = true;
            j = p[j];
            len += 1;
        }
        if len % 2 == 0 {
            sign = -sign;
        }
    }
    sign
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;
    use crate::ordering::{amd, rcm};

    fn residual_inf(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(y, bb)| (y - bb).abs())
            .fold(0.0, f64::max)
    }

    /// 2-D Laplacian + identity on a g×g grid (SPD, well conditioned).
    fn grid_matrix(g: usize) -> CsrMatrix {
        let n = g * g;
        let mut c = CooMatrix::new(n, n);
        let idx = |r: usize, s: usize| r * g + s;
        for r in 0..g {
            for s in 0..g {
                c.push(idx(r, s), idx(r, s), 5.0);
                if r + 1 < g {
                    c.push(idx(r, s), idx(r + 1, s), -1.0);
                    c.push(idx(r + 1, s), idx(r, s), -1.0);
                }
                if s + 1 < g {
                    c.push(idx(r, s), idx(r, s + 1), -1.0);
                    c.push(idx(r, s + 1), idx(r, s), -1.0);
                }
            }
        }
        c.to_csr()
    }

    #[test]
    fn identity_factors_trivially() {
        let lu = SparseLu::factor(&CsrMatrix::identity(5).to_csc(), None).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(lu.solve(&b), b.to_vec());
        assert!((lu.det() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn tridiagonal_solve() {
        let n = 50;
        let mut c = CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.5);
            if i + 1 < n {
                c.push(i, i + 1, -1.0);
                c.push(i + 1, i, -1.0);
            }
        }
        let a = c.to_csr();
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.mul_vec(&xt);
        let lu = SparseLu::factor(&a.to_csc(), None).unwrap();
        let x = lu.solve(&b);
        assert!(residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn grid_solve_with_and_without_ordering() {
        let a = grid_matrix(20); // n = 400
        let xt: Vec<f64> = (0..400).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b = a.mul_vec(&xt);
        for order in [None, Some(rcm(&a)), Some(amd(&a))] {
            let lu = SparseLu::factor(&a.to_csc(), order.as_ref()).unwrap();
            let x = lu.solve(&b);
            let err = x
                .iter()
                .zip(&xt)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "order {:?} err {err}", order.map(|_| "some"));
        }
    }

    #[test]
    fn ordering_reduces_fill_on_grid() {
        let a = grid_matrix(24);
        let natural = SparseLu::factor(&a.to_csc(), None).unwrap();
        let md = SparseLu::factor(&a.to_csc(), Some(&amd(&a))).unwrap();
        assert!(
            md.nnz() < natural.nnz(),
            "AMD should reduce fill: {} vs {}",
            md.nnz(),
            natural.nnz()
        );
    }

    #[test]
    fn saddle_point_matrix_requires_pivoting() {
        // [[0, 1], [1, 0]] has no usable first diagonal pivot.
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 1, 1.0);
        c.push(1, 0, 1.0);
        let a = c.to_csr();
        let lu = SparseLu::factor(&a.to_csc(), None).unwrap();
        let x = lu.solve(&[5.0, 7.0]);
        assert_eq!(x, vec![7.0, 5.0]);
        assert!((lu.det() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn mna_like_block_system() {
        // [G  B; Bᵀ 0] with G SPD — the canonical MNA shape with voltage
        // sources. n = 4 nodes + 1 source current.
        let mut c = CooMatrix::new(5, 5);
        let g = [
            (0, 0, 3.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 2.0),
            (2, 2, 2.0),
            (3, 3, 1.5),
        ];
        for &(i, j, v) in &g {
            c.push(i, j, v);
        }
        c.push(0, 4, 1.0);
        c.push(4, 0, 1.0); // source at node 0: structural zero at (4,4)
        let a = c.to_csr();
        let b = [0.0, 1.0, 0.5, -0.25, 2.0];
        let lu = SparseLu::factor(&a.to_csc(), None).unwrap();
        let x = lu.solve(&b);
        assert!(residual_inf(&a, &x, &b) < 1e-12);
        // x[0] is pinned to the source value.
        assert!((x[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_reported() {
        let mut c = CooMatrix::new(3, 3);
        c.push(0, 0, 1.0);
        c.push(1, 1, 1.0);
        // Row/col 2 empty: structurally singular.
        let err = SparseLu::factor(&c.to_csc(), None).unwrap_err();
        assert!(matches!(err, SparseError::Singular(_)));
    }

    #[test]
    fn numerically_singular_matrix_reported() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(0, 1, 2.0);
        c.push(1, 0, 2.0);
        c.push(1, 1, 4.0);
        let err = SparseLu::factor(&c.to_csc(), None).unwrap_err();
        assert!(matches!(err, SparseError::Singular(1)));
    }

    #[test]
    fn det_matches_dense() {
        let mut c = CooMatrix::new(3, 3);
        for &(i, j, v) in &[
            (0, 0, 2.0),
            (0, 1, 1.0),
            (1, 1, 3.0),
            (1, 2, -1.0),
            (2, 0, 1.0),
            (2, 2, 4.0),
        ] {
            c.push(i, j, v);
        }
        let a = c.to_csr();
        let dense_det = a.to_dense().factor_lu().unwrap().det();
        let sparse_det = SparseLu::factor(&a.to_csc(), None).unwrap().det();
        assert!((dense_det - sparse_det).abs() < 1e-12 * dense_det.abs());
    }

    #[test]
    fn strict_partial_pivoting_option() {
        let a = grid_matrix(6);
        let lu = SparseLu::factor_with(
            &a.to_csc(),
            None,
            LuOptions {
                pivot_threshold: 1.0,
                ..LuOptions::default()
            },
        )
        .unwrap();
        let b: Vec<f64> = (0..36).map(|i| i as f64).collect();
        let x = lu.solve(&b);
        assert!(residual_inf(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn block_solve_matches_lane_by_lane() {
        let a = grid_matrix(9); // n = 81, needs ordering-agnostic check
        let n = 81;
        let lanes = 5;
        let lu = SparseLu::factor(&a.to_csc(), Some(&rcm(&a))).unwrap();
        // Lane l gets rhs b_l[i] = sin(0.1·i·(l+1)), with lane 2 all zero
        // (exercises the zero-skip path).
        let mut b_block = vec![0.0; n * lanes];
        let mut singles: Vec<Vec<f64>> = Vec::new();
        for l in 0..lanes {
            let b: Vec<f64> = (0..n)
                .map(|i| {
                    if l == 2 {
                        0.0
                    } else {
                        (0.1 * i as f64 * (l + 1) as f64).sin()
                    }
                })
                .collect();
            for i in 0..n {
                b_block[i * lanes + l] = b[i];
            }
            singles.push(lu.solve(&b));
        }
        let mut x_block = vec![0.0; n * lanes];
        lu.solve_block_into(&b_block, &mut x_block, lanes);
        for l in 0..lanes {
            for i in 0..n {
                assert_eq!(
                    x_block[i * lanes + l],
                    singles[l][i],
                    "lane {l}, row {i}: block and single solves must agree bitwise"
                );
            }
        }
    }

    #[test]
    fn block_solve_single_lane_equals_solve_into() {
        // With pivoting engaged (saddle-point matrix) the lanes = 1 block
        // path must follow the exact same arithmetic as solve_into.
        let mut c = CooMatrix::new(3, 3);
        c.push(0, 0, 2.0);
        c.push(0, 2, 1.0);
        c.push(1, 1, 3.0);
        c.push(1, 2, -1.0);
        c.push(2, 0, 1.0);
        c.push(2, 1, -1.0);
        let lu = SparseLu::factor(&c.to_csc(), None).unwrap();
        let b = [3.0, 2.0, 0.5];
        let mut single = vec![0.0; 3];
        lu.solve_into(&b, &mut single);
        let mut block = vec![0.0; 3];
        lu.solve_block_into(&b, &mut block, 1);
        assert_eq!(single, block);
    }

    #[test]
    fn refactor_same_values_is_bitwise_identical() {
        let a = grid_matrix(12); // n = 144, with pivoting-friendly structure
        let csc = a.to_csc();
        let order = rcm(&a);
        let (sym, lu0) = SymbolicLu::factor(&csc, Some(&order)).unwrap();
        let lu1 = SparseLu::refactor(&sym, csc.values()).unwrap();
        let b: Vec<f64> = (0..144).map(|i| ((i * 13 % 29) as f64) - 14.0).collect();
        assert_eq!(lu0.solve(&b), lu1.solve(&b));
        assert_eq!(lu0.det(), lu1.det());
    }

    #[test]
    fn refactor_new_values_solves_the_new_matrix() {
        let a = grid_matrix(10);
        let csc = a.to_csc();
        let (sym, _) = SymbolicLu::factor(&csc, Some(&amd(&a))).unwrap();
        // Scale + perturb the values on the same pattern.
        let vals: Vec<f64> = csc.values().iter().map(|&v| 3.0 * v + 0.1).collect();
        let mut csc2 = csc.clone();
        csc2.values_mut().copy_from_slice(&vals);
        let lu = SparseLu::refactor(&sym, &vals).unwrap();
        let b: Vec<f64> = (0..100).map(|i| (i as f64 * 0.17).cos()).collect();
        let x = lu.solve(&b);
        let r = residual_inf(&csc2.to_csr(), &x, &b);
        assert!(r < 1e-10, "refactor residual {r}");
    }

    #[test]
    fn refactor_detects_pivot_degradation() {
        // Analyze [[1, 2], [3, 4]]: the diagonal-preference rule pins the
        // pivot of column 0 to row 0. New values make that pivot vanish
        // relative to row 1 — the fixed order must refuse, and a fresh
        // pivoted factorization must succeed by swapping rows.
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(1, 0, 3.0);
        c.push(0, 1, 2.0);
        c.push(1, 1, 4.0);
        let csc = c.to_csc();
        let (sym, _) = SymbolicLu::factor(&csc, None).unwrap();
        // Pattern order is column-major: [(0,0), (1,0), (0,1), (1,1)].
        let degraded = [1e-16, 3.0, 2.0, 4.0];
        let err = SparseLu::refactor(&sym, &degraded).unwrap_err();
        assert!(matches!(err, SparseError::PivotDegraded(0)), "{err:?}");
        let mut csc2 = csc.clone();
        csc2.values_mut().copy_from_slice(&degraded);
        let fresh = SparseLu::factor(&csc2, None).unwrap();
        let x = fresh.solve(&[2.0, 7.0]);
        let r = residual_inf(&csc2.to_csr(), &x, &[2.0, 7.0]);
        assert!(r < 1e-12);
    }

    #[test]
    fn refactor_reports_vanished_column_as_singular() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(1, 1, 1.0);
        let (sym, _) = SymbolicLu::factor(&c.to_csc(), None).unwrap();
        let err = SparseLu::refactor(&sym, &[0.0, 1.0]).unwrap_err();
        assert!(matches!(err, SparseError::Singular(0)), "{err:?}");
    }

    #[test]
    fn refactor_rejects_non_finite_values_anywhere_in_a_column() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(1, 0, 3.0);
        c.push(0, 1, 2.0);
        c.push(1, 1, 4.0);
        let (sym, _) = SymbolicLu::factor(&c.to_csc(), None).unwrap();
        // NaN off the pivot (an L-slot) must not slip into the factors.
        let err = SparseLu::refactor(&sym, &[1.0, f64::NAN, 2.0, 4.0]).unwrap_err();
        assert!(matches!(err, SparseError::Singular(0)), "{err:?}");
        // Infinity in a later column reports that column.
        let err = SparseLu::refactor(&sym, &[1.0, 3.0, f64::INFINITY, 4.0]).unwrap_err();
        assert!(matches!(err, SparseError::Singular(1)), "{err:?}");
        // And the workspace is clean afterwards: a good refactor works.
        let lu = SparseLu::refactor(&sym, &[1.0, 3.0, 2.0, 4.0]).unwrap();
        let x = lu.solve(&[3.0, 7.0]);
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symbolic_pattern_counts_are_consistent() {
        let a = grid_matrix(8);
        let csc = a.to_csc();
        let (sym, lu) = SymbolicLu::factor(&csc, Some(&rcm(&a))).unwrap();
        assert_eq!(sym.dim(), 64);
        assert_eq!(sym.pattern_nnz(), csc.nnz());
        assert_eq!(sym.factor_nnz(), lu.nnz());
    }

    /// Sparse diagonal head of `head` columns + fully dense trailing
    /// `dim × dim` block — the canonical supernodal-tail shape (fill
    /// concentrated in the elimination corner).
    fn arrow_matrix(head: usize, dim: usize) -> CsrMatrix {
        let n = head + dim;
        let mut c = CooMatrix::new(n, n);
        for i in 0..head {
            c.push(i, i, 2.0 + i as f64 * 0.1);
        }
        for i in head..n {
            for j in head..n {
                let v = if i == j {
                    10.0 + i as f64 * 0.01
                } else {
                    1.0 / (1.0 + (i as f64 - j as f64).abs())
                };
                c.push(i, j, v);
            }
        }
        c.to_csr()
    }

    #[test]
    fn dense_tail_detected_on_arrow_matrix() {
        let a = arrow_matrix(12, 12);
        let lu = SparseLu::factor(&a.to_csc(), None).unwrap();
        let stats = lu.supernode_stats();
        assert_eq!(stats.num_cols, 24);
        // The trailing 12 columns are fully dense: one supernode, and
        // the dense tail must cover exactly that block (the head is
        // diagonal, so no wider tail reaches 90% density).
        assert_eq!(stats.dense_tail_cols, 12, "{stats:?}");
        assert_eq!(stats.num_supernodes, 1, "{stats:?}");
        assert_eq!(stats.supernode_cols, 12, "{stats:?}");
    }

    #[test]
    fn dense_tail_disabled_by_threshold() {
        let a = arrow_matrix(12, 12);
        let lu = SparseLu::factor_with(
            &a.to_csc(),
            None,
            LuOptions {
                supernode_threshold: 1.5,
                ..LuOptions::default()
            },
        )
        .unwrap();
        assert_eq!(lu.supernode_stats().dense_tail_cols, 0);
    }

    #[test]
    fn dense_tail_block_solve_matches_scalar_reference() {
        // Couple the head to the tail so the U border above the tail
        // (`u_above`) is exercised, not just the dense block.
        let mut c = CooMatrix::new(24, 24);
        for i in 0..12 {
            c.push(i, i, 2.0 + i as f64 * 0.1);
            c.push(i, 12 + i, 0.5); // head row → tail column border
        }
        for i in 12..24 {
            for j in 12..24 {
                let v = if i == j {
                    10.0 + i as f64 * 0.01
                } else {
                    1.0 / (1.0 + (i as f64 - j as f64).abs())
                };
                c.push(i, j, v);
            }
        }
        let lu = SparseLu::factor(&c.to_csc(), None).unwrap();
        assert!(lu.supernode_stats().dense_tail_cols >= 12);
        for lanes in [1usize, 3, 8, 11, 16, 37, 100] {
            let b: Vec<f64> = (0..24 * lanes)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 7.0)
                .collect();
            let mut scalar = vec![0.0; 24 * lanes];
            lu.solve_block_into_scalar(&b, &mut scalar, lanes);
            let mut panels = vec![0.0; 24 * lanes];
            lu.solve_block_into(&b, &mut panels, lanes);
            assert_eq!(scalar, panels, "lanes = {lanes}");
        }
    }

    #[test]
    fn refactor_shares_the_dense_tail_decision() {
        let a = arrow_matrix(12, 12);
        let csc = a.to_csc();
        let (sym, lu0) = SymbolicLu::factor(&csc, None).unwrap();
        let lu1 = SparseLu::refactor(&sym, csc.values()).unwrap();
        assert_eq!(lu0.supernode_stats(), lu1.supernode_stats());
        assert!(lu1.supernode_stats().dense_tail_cols >= 12);
        let lanes = 9;
        let b: Vec<f64> = (0..24 * lanes).map(|i| (i as f64 * 0.13).sin()).collect();
        let mut x0 = vec![0.0; 24 * lanes];
        let mut x1 = vec![0.0; 24 * lanes];
        lu0.solve_block_into(&b, &mut x0, lanes);
        lu1.solve_block_into(&b, &mut x1, lanes);
        assert_eq!(x0, x1);
    }

    // -- exact replay -------------------------------------------------------

    /// Asserts two factorizations are the same bit for bit: pivots,
    /// both permutations, every stored L/U entry in stored order, the
    /// dense tail, and the single- and multi-lane solves.
    fn assert_same_factors(got: &SparseLu, want: &SparseLu) {
        let bits = |col: &[(usize, f64)]| -> Vec<(usize, u64)> {
            col.iter().map(|&(i, v)| (i, v.to_bits())).collect()
        };
        assert_eq!(got.row_perm, want.row_perm, "row permutation");
        assert_eq!(got.col_perm, want.col_perm, "column permutation");
        let diag = |lu: &SparseLu| lu.u_diag.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(diag(got), diag(want), "U diagonal");
        for k in 0..want.n {
            assert_eq!(bits(&got.l_cols[k]), bits(&want.l_cols[k]), "L column {k}");
            assert_eq!(bits(&got.u_cols[k]), bits(&want.u_cols[k]), "U column {k}");
        }
        match (&got.tail, &want.tail) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                assert_eq!((g.start, g.dim), (w.start, w.dim), "tail shape");
                let lu = |t: &DenseTail| t.lu.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(lu(g), lu(w), "tail panel");
                for (gu, wu) in g.u_above.iter().zip(&w.u_above) {
                    assert_eq!(bits(gu), bits(wu), "tail border");
                }
            }
            _ => panic!("one factorization has a dense tail, the other not"),
        }
        let n = want.n;
        let lanes = 5;
        let b: Vec<f64> = (0..n * lanes).map(|i| (i as f64 * 0.37).sin()).collect();
        let solve_bits = |lu: &SparseLu| -> Vec<u64> {
            let mut out = vec![0.0; n * lanes];
            lu.solve_block_into(&b, &mut out, lanes);
            out.extend(lu.solve(&b[..n]));
            out.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(solve_bits(got), solve_bits(want), "solves");
    }

    /// Exact replay of `values` against `sym` versus a fresh recorded
    /// factorization under the same ordering: the replay accepts exactly
    /// when the fresh row permutation equals the recorded one, and an
    /// accepted replay equals the fresh factors (and the fresh analysis
    /// equals `sym`). Returns whether it accepted.
    fn check_exact_replay(sym: &SymbolicLu, pattern: &CscMatrix, values: &[f64]) -> bool {
        let mut csc = pattern.clone();
        csc.values_mut().copy_from_slice(values);
        let fresh = SymbolicLu::factor_with(&csc, Some(&sym.col_perm), LuOptions::default());
        let replay = SparseLu::refactor_exact(sym, values);
        match (fresh, replay) {
            (Ok((fsym, flu)), Ok(lu)) => {
                assert_eq!(flu.row_perm, sym.row_perm, "false accept");
                assert!(
                    fsym == *sym,
                    "an accepted replay's analysis must equal the fresh one"
                );
                assert_same_factors(&lu, &flu);
                true
            }
            (Ok((_, flu)), Err(e)) => {
                assert_ne!(flu.row_perm, sym.row_perm, "false reject: {e:?}");
                false
            }
            (Err(_), replay) => {
                assert!(replay.is_err(), "accepted where the fresh factor fails");
                false
            }
        }
    }

    /// A `g×g` conductance grid with a small shunt at every node, plus
    /// voltage sources: one from node 0 to ground and one floating
    /// between the grid's last two nodes. Source columns hold ±1 stamps
    /// and a structurally zero diagonal, so their pivots are off the
    /// diagonal and start as exact-magnitude ties. `gscale` scales the
    /// edge conductances (one factor per edge, in stamping order).
    fn mna_with_sources(g: usize, gscale: &[f64]) -> CsrMatrix {
        let nodes = g * g;
        let n = nodes + 2;
        let mut c = CooMatrix::new(n, n);
        let mut e = 0;
        let mut edge = |c: &mut CooMatrix, a: usize, b: usize| {
            let w = gscale[e];
            e += 1;
            c.push(a, a, w);
            c.push(b, b, w);
            c.push(a, b, -w);
            c.push(b, a, -w);
        };
        for r in 0..g {
            for s in 0..g {
                let i = r * g + s;
                c.push(i, i, 1e-3);
                if s + 1 < g {
                    edge(&mut c, i, i + 1);
                }
                if r + 1 < g {
                    edge(&mut c, i, i + g);
                }
            }
        }
        let (v0, v1) = (nodes, nodes + 1);
        c.push(0, v0, 1.0);
        c.push(v0, 0, 1.0);
        let (a, b) = (nodes - 2, nodes - 1);
        c.push(a, v1, 1.0);
        c.push(b, v1, -1.0);
        c.push(v1, a, 1.0);
        c.push(v1, b, -1.0);
        c.to_csr()
    }

    /// Random value sets on three patterns — a 2D grid, an MNA matrix
    /// with voltage-source rows, the arrow matrix with a dense tail —
    /// mild and wild: every accepted exact replay is the fresh
    /// factorization bit for bit, and it accepts exactly when the fresh
    /// pivots equal the recorded ones.
    #[test]
    fn exact_replay_accepts_exactly_when_fresh_pivots_match() {
        let mut rng = opm_rng::StdRng::seed_from_u64(17);
        let g = 6;
        let edges = 2 * g * (g - 1);
        let mna = |rng: &mut opm_rng::StdRng, lo: f64, hi: f64| {
            let scale: Vec<f64> = (0..edges).map(|_| rng.random_range(lo..hi)).collect();
            mna_with_sources(g, &scale)
        };
        let base_mna = mna_with_sources(g, &vec![1.0; edges]);
        let cases: Vec<(&str, CsrMatrix)> = vec![
            ("grid", grid_matrix(7)),
            ("mna", base_mna),
            ("arrow", arrow_matrix(20, 16)),
        ];
        let (mut accepted, mut refused) = (0, 0);
        for (name, a) in cases {
            let csc = a.to_csc();
            let (sym, lu) =
                SymbolicLu::factor_with(&csc, Some(&amd(&a)), LuOptions::default()).unwrap();
            if name == "arrow" {
                assert!(
                    lu.supernode_stats().dense_tail_cols > 0,
                    "arrow fixture has no tail"
                );
            }
            for trial in 0..40 {
                let wild = trial % 2 == 1;
                let values: Vec<f64> = if name == "mna" {
                    // Conductances vary; the ±1 source stamps never do.
                    let (lo, hi) = if wild { (1e-4, 1e2) } else { (0.5, 1.5) };
                    let m = mna(&mut rng, lo, hi).to_csc();
                    assert_eq!((m.colptr(), m.rowind()), (csc.colptr(), csc.rowind()));
                    m.values().to_vec()
                } else if wild {
                    csc.values()
                        .iter()
                        .map(|&v| {
                            let sign = if rng.random() < 0.3 { -1.0 } else { 1.0 };
                            sign * v * 10f64.powf(rng.random_range(-3.0..3.0))
                        })
                        .collect()
                } else {
                    csc.values()
                        .iter()
                        .map(|&v| v * rng.random_range(0.5..1.5))
                        .collect()
                };
                if check_exact_replay(&sym, &csc, &values) {
                    accepted += 1;
                } else {
                    refused += 1;
                }
            }
        }
        assert!(
            accepted > 0 && refused > 0,
            "{accepted} accepted, {refused} refused"
        );
    }

    /// An equal-magnitude tie is decided as the fresh factorization
    /// decides it — the first candidate in its scan order — so a replay
    /// recorded on that candidate accepts the tie and one recorded on
    /// the other candidate refuses it.
    #[test]
    fn exact_replay_decides_ties_like_the_fresh_factor() {
        // Column 0 holds a negligible diagonal and two off-diagonal
        // candidates, rows 1 and 2; columns 1 and 2 leave a single
        // candidate each whichever row column 0 takes.
        let pattern = |v1: f64, v2: f64| {
            let mut c = CooMatrix::new(3, 3);
            c.push(0, 0, 1e-9);
            c.push(1, 0, v1);
            c.push(2, 0, v2);
            c.push(0, 1, 10.0);
            c.push(1, 2, 1.0);
            c.push(2, 2, 1.0);
            c.to_csc()
        };
        let tie = pattern(1.0, -1.0);
        let fresh = SparseLu::factor(&tie, None).unwrap();
        assert_eq!(
            fresh.row_perm[0], 1,
            "the fresh factor takes the first of a tie"
        );
        for (v1, v2, accepts) in [(2.0, 1.0, true), (1.0, 2.0, false)] {
            let csc = pattern(v1, v2);
            let (sym, _) = SymbolicLu::factor(&csc, None).unwrap();
            assert_eq!(check_exact_replay(&sym, &csc, tie.values()), accepts);
        }
    }

    /// The guarded refactor keeps its contract: it takes a recorded
    /// pivot the exact replay refuses, as long as it is not degraded.
    #[test]
    fn guarded_refactor_still_accepts_non_fresh_pivots() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(1, 0, 3.0);
        c.push(0, 1, 2.0);
        c.push(1, 1, 4.0);
        let (sym, _) = SymbolicLu::factor(&c.to_csc(), None).unwrap();
        // Diagonal 1e-4 is below pivot_threshold × 3 but above the
        // degradation guard: a fresh factor swaps rows, the guarded
        // refactor keeps the recorded diagonal.
        let vals = [1e-4, 3.0, 2.0, 4.0];
        assert!(SparseLu::refactor(&sym, &vals).is_ok());
        assert!(matches!(
            SparseLu::refactor_exact(&sym, &vals),
            Err(SparseError::PivotMismatch(0))
        ));
    }

    #[test]
    fn rectangular_rejected() {
        let c = CooMatrix::new(2, 3);
        assert!(matches!(
            SparseLu::factor(&c.to_csc(), None),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }
}
