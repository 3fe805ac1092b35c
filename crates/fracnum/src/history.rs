//! Reusable history-convolution kernels for memory-carrying fractional
//! recurrences.
//!
//! Every discrete fractional operator in this workspace — the
//! Grünwald–Letnikov stepper (`opm-transient`), the OPM nilpotent-series
//! sweep and its windowed restart (`opm-core`) — spends its time in the
//! same place: a weighted sum of *past* solution columns,
//!
//! ```text
//! conv = Σ_{d=1}^{P} w_{offset+d} · tail[P − d]
//! ```
//!
//! with `tail` ordered oldest → newest. The kernel here is that sum,
//! shared so the whole-horizon, windowed and time-stepping paths cannot
//! drift apart numerically. It is elementwise across the column length,
//! so it applies equally to single columns and to the engine's
//! lane-interleaved `n × K` blocks.
//!
//! A windowed solve needs that sum for every column `j` of a window
//! against the same carried tail (`offset = j`): the weights `w_{j+d}`
//! form an upper-triangular Toeplitz block, so the window's whole
//! carried memory is one Toeplitz-block × tail product, known before
//! the window starts. [`history_block_into`] computes it in one
//! register-tiled pass over the tail instead of one pass per column.
//!
//! [`HistoryTail`] adds the *short-memory principle* on top: a
//! bounded-length tail of retained columns. Dropping columns older than
//! `cap` is exactly the Grünwald–Letnikov short-memory truncation —
//! since the weights of a fractional difference decay like
//! `|w_k| = O(k^{−1−α})`, the neglected forcing is bounded by the tail
//! sum `Σ_{k>cap}|w_k| = O(cap^{−α})` times the solution's sup-norm.

/// Accumulates the history convolution
/// `out[i] += Σ_{d=1}^{tail.len()} weights[offset + d] · tail[len − d][i]`
/// — the memory term of a fractional recurrence, with `tail` ordered
/// oldest → newest and `offset` the local column index (0 for plain
/// time-stepping, `j` for column `j` of a restarted window).
///
/// Weight indices past the end of `weights` are treated as zero, so a
/// deliberately truncated weight vector is a valid short-memory
/// truncation. Zero weights are skipped without touching the column.
///
/// Accumulation runs in fixed-width lane panels
/// ([`opm_linalg::panel::LANE_PANEL_WIDTH`] elements of `out` at a time,
/// held in registers across a chunk of history columns, with the chunk
/// count bounded so the memory streams stay prefetchable); per element
/// the terms are added in the exact depth order of
/// [`history_convolution_into_scalar`], so results are bit-identical.
///
/// # Panics
/// Panics when some tail column is shorter than `out`.
pub fn history_convolution_into(
    weights: &[f64],
    offset: usize,
    tail: &[Vec<f64>],
    out: &mut [f64],
) {
    let len = tail.len();
    // Resolve the (weight, column) terms once, with the scalar path's
    // exact break/skip semantics, so the panel loops below are pure
    // elementwise accumulation.
    let mut terms: Vec<(f64, &[f64])> = Vec::with_capacity(len);
    for d in 1..=len {
        let Some(&w) = weights.get(offset + d) else {
            break; // weights exhausted: every older column weighs zero
        };
        if w == 0.0 {
            continue;
        }
        let col = &tail[len - d];
        assert!(
            col.len() >= out.len(),
            "tail column {} entries for a {}-entry accumulator",
            col.len(),
            out.len()
        );
        terms.push((w, col.as_slice()));
    }
    #[cfg(target_arch = "x86_64")]
    if opm_linalg::panel::avx_available() {
        // SAFETY: the `avx` target feature was detected on this CPU.
        unsafe { convolution_panels_avx(&terms, out) };
        return;
    }
    convolution_panels_body(&terms, out);
}

/// History columns walked concurrently per panel pass. A deep tail read
/// panel-wise across *all* columns at once would interleave more memory
/// streams than the hardware prefetcher tracks; chunking the terms keeps
/// the stream count bounded while per-element accumulation order (chunk
/// order × in-chunk depth order = depth order) is exactly the scalar
/// reference's.
const CONV_STREAMS: usize = 8;

/// The AVX codegen copy of the convolution driver (`avx` only — no
/// `fma`, so the per-element arithmetic stays bit-identical to the
/// portable copy and the scalar reference).
///
/// # Safety
/// The caller must have verified that the running CPU supports the
/// `avx` target feature (this crate gates every call behind
/// [`opm_linalg::panel::avx_available`]). The body is ordinary safe
/// Rust — the only obligation is the feature check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn convolution_panels_avx(terms: &[(f64, &[f64])], out: &mut [f64]) {
    convolution_panels_body(terms, out);
}

/// The panel sweep over term chunks of [`CONV_STREAMS`] columns (main
/// width plus `4 → 2 → 1` remainder per chunk); `#[inline(always)]` so
/// each dispatch copy compiles it with its own target features.
#[inline(always)]
fn convolution_panels_body(terms: &[(f64, &[f64])], out: &mut [f64]) {
    const W: usize = opm_linalg::panel::LANE_PANEL_WIDTH;
    let n = out.len();
    for chunk in terms.chunks(CONV_STREAMS) {
        let mut p0 = 0;
        while p0 + W <= n {
            convolution_panel::<W>(chunk, p0, out);
            p0 += W;
        }
        if p0 + 4 <= n {
            convolution_panel::<4>(chunk, p0, out);
            p0 += 4;
        }
        if p0 + 2 <= n {
            convolution_panel::<2>(chunk, p0, out);
            p0 += 2;
        }
        if p0 < n {
            convolution_panel::<1>(chunk, p0, out);
        }
    }
}

/// Accumulates all convolution terms into `out[p0..p0 + W]` with a
/// register panel: each element receives its terms in slice order (the
/// scalar path's depth order), one load/store of `out` per panel.
#[inline(always)]
fn convolution_panel<const W: usize>(terms: &[(f64, &[f64])], p0: usize, out: &mut [f64]) {
    let mut acc = [0.0; W];
    acc.copy_from_slice(&out[p0..p0 + W]);
    for &(w, col) in terms {
        let c: &[f64; W] = col[p0..p0 + W].try_into().unwrap();
        for i in 0..W {
            acc[i] += w * c[i];
        }
    }
    out[p0..p0 + W].copy_from_slice(&acc);
}

/// The scalar reference implementation of [`history_convolution_into`]:
/// one full pass over `out` per history column, in depth order. The
/// panel path is validated against this bit-for-bit by the `kernel/*`
/// bench records and proptests.
///
/// # Panics
/// As [`history_convolution_into`].
pub fn history_convolution_into_scalar(
    weights: &[f64],
    offset: usize,
    tail: &[Vec<f64>],
    out: &mut [f64],
) {
    let len = tail.len();
    for d in 1..=len {
        let Some(&w) = weights.get(offset + d) else {
            break; // weights exhausted: every older column weighs zero
        };
        if w == 0.0 {
            continue;
        }
        let col = &tail[len - d];
        assert!(
            col.len() >= out.len(),
            "tail column {} entries for a {}-entry accumulator",
            col.len(),
            out.len()
        );
        for (o, &c) in out.iter_mut().zip(col) {
            *o += w * c;
        }
    }
}

/// Adds the carried history term of every column of a window:
/// `out[j][i] += Σ_{d=1}^{tail.len()} weights[j + d] · tail[len − d][i]`
/// for `j ∈ 0..out.len()` — [`history_convolution_into`] at offset `j`
/// into `out[j]`, for all `j` at once.
///
/// The weights `w_{j+d}` depend on `j + d` only (an upper-triangular
/// Toeplitz block), so one pass over the tail serves all columns: the
/// tail is read one [`opm_linalg::panel::LANE_PANEL_WIDTH`]-element
/// strip at a time, and within a strip a register tile of a few output
/// columns accumulates every depth before it is stored, so each strip
/// of the tail is fetched from memory once per window instead of once
/// per column. Per element the terms are added in the exact depth order
/// of [`history_convolution_into_scalar`], with the same exhausted- and
/// zero-weight skips, so `out[j]` is bit-identical to a per-column call.
///
/// # Panics
/// Panics when the columns of `out` differ in length, or when a tail
/// column within reach of the weights is shorter than them.
pub fn history_block_into(weights: &[f64], tail: &[Vec<f64>], out: &mut [Vec<f64>]) {
    let Some(n) = out.first().map(Vec::len) else {
        return;
    };
    assert!(
        out.iter().all(|c| c.len() == n),
        "window columns must share one length"
    );
    // Column 0 reaches deepest (`d < weights.len()`); older columns
    // weigh zero for every output column and are never read.
    let len = tail.len();
    let depth = len.min(weights.len().saturating_sub(1));
    let cols: Vec<&[f64]> = tail[len - depth..]
        .iter()
        .map(|c| {
            assert!(
                c.len() >= n,
                "tail column {} entries for a {n}-entry accumulator",
                c.len()
            );
            &c[..n]
        })
        .collect();
    // Zero weights are skipped term by term; tiles whose weight range
    // holds none (the usual case) run without per-term checks.
    let zeros: Vec<usize> = (0..weights.len()).filter(|&k| weights[k] == 0.0).collect();
    #[cfg(target_arch = "x86_64")]
    if opm_linalg::panel::avx_available() {
        // SAFETY: the `avx` target feature was detected on this CPU.
        unsafe { block_strips_avx(weights, &zeros, &cols, out) };
        return;
    }
    block_strips_body(weights, &zeros, &cols, out);
}

/// Whether no index of the sorted `zeros` lies in `lo..hi`.
fn zero_free(zeros: &[usize], lo: usize, hi: usize) -> bool {
    zeros
        .get(zeros.partition_point(|&z| z < lo))
        .map_or(true, |&z| z >= hi)
}

/// Output columns per register tile of [`history_block_into`]: a tile
/// holds `BLOCK_TILE × LANE_PANEL_WIDTH` accumulators (eight AVX
/// registers) next to the streamed tail strip and the broadcast weight.
const BLOCK_TILE: usize = 4;

/// The AVX codegen copy of the block driver (`avx` only — no `fma`, so
/// the per-element arithmetic stays bit-identical to the portable copy
/// and the scalar reference).
///
/// # Safety
/// The caller must have verified that the running CPU supports the
/// `avx` target feature (this crate gates every call behind
/// [`opm_linalg::panel::avx_available`]). The body is ordinary safe
/// Rust — the only obligation is the feature check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn block_strips_avx(
    weights: &[f64],
    zeros: &[usize],
    cols: &[&[f64]],
    out: &mut [Vec<f64>],
) {
    block_strips_body(weights, zeros, cols, out);
}

/// Walks the element strips (main width plus `4 → 2 → 1` remainder);
/// `#[inline(always)]` so each dispatch copy compiles it with its own
/// target features.
#[inline(always)]
fn block_strips_body(weights: &[f64], zeros: &[usize], cols: &[&[f64]], out: &mut [Vec<f64>]) {
    const W: usize = opm_linalg::panel::LANE_PANEL_WIDTH;
    let n = out[0].len();
    let mut p0 = 0;
    while p0 + W <= n {
        block_strip::<W>(weights, zeros, cols, p0, out);
        p0 += W;
    }
    if p0 + 4 <= n {
        block_strip::<4>(weights, zeros, cols, p0, out);
        p0 += 4;
    }
    if p0 + 2 <= n {
        block_strip::<2>(weights, zeros, cols, p0, out);
        p0 += 2;
    }
    if p0 < n {
        block_strip::<1>(weights, zeros, cols, p0, out);
    }
}

/// One `W`-element strip of every output column, tiled `BLOCK_TILE`
/// columns at a time (remainder `2 → 1`); the strip of the tail stays
/// cache-resident across the tiles.
#[inline(always)]
fn block_strip<const W: usize>(
    weights: &[f64],
    zeros: &[usize],
    cols: &[&[f64]],
    p0: usize,
    out: &mut [Vec<f64>],
) {
    let m = out.len();
    let mut j0 = 0;
    while j0 + BLOCK_TILE <= m {
        block_tile::<BLOCK_TILE, W>(weights, zeros, cols, j0, p0, out);
        j0 += BLOCK_TILE;
    }
    if j0 + 2 <= m {
        block_tile::<2, W>(weights, zeros, cols, j0, p0, out);
        j0 += 2;
    }
    if j0 < m {
        block_tile::<1, W>(weights, zeros, cols, j0, p0, out);
    }
}

/// Accumulates every carried term into `out[j0..j0 + J][p0..p0 + W]`
/// in registers: element `(j, i)` receives `w_{j+d} · cols[depth − d][i]`
/// for `d = 1, 2, …` in order, skipping exhausted and zero weights
/// exactly as the scalar reference does.
#[inline(always)]
fn block_tile<const J: usize, const W: usize>(
    weights: &[f64],
    zeros: &[usize],
    cols: &[&[f64]],
    j0: usize,
    p0: usize,
    out: &mut [Vec<f64>],
) {
    let mut acc = [[0.0; W]; J];
    for (a, o) in acc.iter_mut().zip(&out[j0..j0 + J]) {
        a.copy_from_slice(&o[p0..p0 + W]);
    }
    let depth = cols.len();
    // Up to `full` every column of the tile has a weight; past `reach`
    // none has. Depths `1..=fast` need no per-term check at all.
    let full = depth.min(weights.len().saturating_sub(j0 + J));
    let reach = depth.min(weights.len().saturating_sub(j0 + 1));
    let fast = if zero_free(zeros, j0 + 1, j0 + J + full) {
        full
    } else {
        0
    };
    for (col, w) in cols[depth - fast..]
        .iter()
        .rev()
        .zip(weights.get(j0 + 1..).unwrap_or_default().windows(J))
    {
        let c: &[f64; W] = col[p0..p0 + W].try_into().unwrap();
        for (a, &wj) in acc.iter_mut().zip(w) {
            for i in 0..W {
                a[i] += wj * c[i];
            }
        }
    }
    for d in fast + 1..=reach {
        let c: &[f64; W] = cols[depth - d][p0..p0 + W].try_into().unwrap();
        for (jj, a) in acc.iter_mut().enumerate() {
            let w = weights.get(j0 + jj + d).copied().unwrap_or(0.0);
            if w != 0.0 {
                for i in 0..W {
                    a[i] += w * c[i];
                }
            }
        }
    }
    for (a, o) in acc.iter().zip(&mut out[j0..j0 + J]) {
        o[p0..p0 + W].copy_from_slice(a);
    }
}

/// A bounded tail of retained history columns — the short-memory
/// truncation state of a windowed fractional solve.
///
/// Push each window's solved columns with [`HistoryTail::extend`]; the
/// tail keeps at most `cap` of the most recent ones (all of them when
/// `cap` is `None` — the exact, full-memory mode). The retained slice
/// ([`HistoryTail::columns`], oldest → newest) feeds
/// [`history_convolution_into`] directly.
///
/// ```
/// use opm_fracnum::history::HistoryTail;
/// let mut tail = HistoryTail::new(Some(3));
/// tail.extend(vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]]);
/// // Only the 3 most recent columns survive.
/// assert_eq!(tail.columns(), &[vec![2.0], vec![3.0], vec![4.0]]);
/// ```
#[derive(Clone, Debug)]
pub struct HistoryTail {
    cap: Option<usize>,
    cols: Vec<Vec<f64>>,
}

impl HistoryTail {
    /// An empty tail retaining at most `cap` columns (`None`: unbounded).
    pub fn new(cap: Option<usize>) -> Self {
        HistoryTail {
            cap,
            cols: Vec::new(),
        }
    }

    /// Appends newly solved columns (oldest → newest) and drops columns
    /// beyond the retention cap.
    pub fn extend(&mut self, cols: impl IntoIterator<Item = Vec<f64>>) {
        self.cols.extend(cols);
        if let Some(cap) = self.cap {
            if self.cols.len() > cap {
                let excess = self.cols.len() - cap;
                self.cols.drain(..excess);
            }
        }
    }

    /// The retained columns, oldest → newest.
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.cols
    }

    /// Number of retained columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when nothing is retained yet.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convolution_matches_direct_sum() {
        let weights = [0.0, 0.5, -0.25, 0.125, -0.0625];
        let tail = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let mut out = vec![1.0, -1.0];
        history_convolution_into(&weights, 0, &tail, &mut out);
        // d=1 → w_1·tail[2], d=2 → w_2·tail[1], d=3 → w_3·tail[0].
        let want0 = 1.0 + 0.5 * 3.0 - 0.25 * 2.0 + 0.125 * 1.0;
        let want1 = -1.0 + 0.5 * 30.0 - 0.25 * 20.0 + 0.125 * 10.0;
        assert!((out[0] - want0).abs() < 1e-15);
        assert!((out[1] - want1).abs() < 1e-15);
    }

    #[test]
    fn offset_shifts_the_weight_window() {
        let weights = [9.0, 9.0, 9.0, 2.0, 4.0];
        let tail = vec![vec![1.0], vec![1.0]];
        let mut out = vec![0.0];
        // offset 2: uses w_3 (newest) and w_4 (oldest).
        history_convolution_into(&weights, 2, &tail, &mut out);
        assert_eq!(out[0], 2.0 + 4.0);
    }

    #[test]
    fn exhausted_weights_act_as_zero() {
        let weights = [1.0, 3.0];
        let tail = vec![vec![100.0], vec![7.0]];
        let mut out = vec![0.0];
        // Only d=1 has a weight (w_1 = 3); d=2 would need w_2.
        history_convolution_into(&weights, 0, &tail, &mut out);
        assert_eq!(out[0], 21.0);
    }

    #[test]
    fn tail_caps_retention() {
        let mut tail = HistoryTail::new(Some(2));
        assert!(tail.is_empty());
        tail.extend(vec![vec![1.0]]);
        tail.extend(vec![vec![2.0], vec![3.0], vec![4.0]]);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.columns(), &[vec![3.0], vec![4.0]]);
        // Unbounded tail keeps everything.
        let mut full = HistoryTail::new(None);
        full.extend((0..5).map(|i| vec![i as f64]));
        assert_eq!(full.len(), 5);
    }

    #[test]
    fn panel_convolution_matches_scalar_for_ragged_lengths() {
        // Column lengths straddle every remainder width (8/4/2/1).
        for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 29] {
            let weights: Vec<f64> = (0..12)
                .map(|k| if k == 5 { 0.0 } else { (-0.8f64).powi(k) })
                .collect();
            let tail: Vec<Vec<f64>> = (0..9)
                .map(|d| {
                    (0..n)
                        .map(|i| ((d * 31 + i * 7) as f64 * 0.37).sin())
                        .collect()
                })
                .collect();
            let mut scalar: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 1.0).collect();
            let mut panels = scalar.clone();
            history_convolution_into_scalar(&weights, 1, &tail, &mut scalar);
            history_convolution_into(&weights, 1, &tail, &mut panels);
            assert_eq!(scalar, panels, "n = {n}");
        }
    }

    #[test]
    fn block_matches_per_column_scalar() {
        // Column lengths straddle every strip remainder (8/4/2/1), window
        // widths every tile remainder (4/2/1), tails run from empty to
        // past the window, and short weight vectors run out mid-tile.
        for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 29] {
            for m in [1usize, 3, 4, 5, 64] {
                let mut tails = vec![0, 1, 3 * m + 5];
                if m > 1 {
                    tails.push(m - 1);
                }
                for len in tails {
                    let tail: Vec<Vec<f64>> = (0..len)
                        .map(|d| {
                            (0..n)
                                .map(|i| ((d * 31 + i * 7) as f64 * 0.37).sin())
                                .collect()
                        })
                        .collect();
                    let full = m + len + 1;
                    // Full reach with and without a zero weight; then cut
                    // so that the weights run out inside some tile.
                    let cases = [
                        (full, true),
                        (full, false),
                        (m / 2 + len / 2 + 2, true),
                        (3, false),
                    ];
                    for (wlen, zero) in cases {
                        let weights: Vec<f64> = (0..wlen.min(full))
                            .map(|k| {
                                if zero && k == 5 {
                                    0.0
                                } else {
                                    (-0.8f64).powi(k as i32)
                                }
                            })
                            .collect();
                        for start in [0.0, 1.0] {
                            let init: Vec<Vec<f64>> = (0..m)
                                .map(|j| (0..n).map(|i| start * (i + j) as f64 * 0.25).collect())
                                .collect();
                            let mut scalar = init.clone();
                            for (j, col) in scalar.iter_mut().enumerate() {
                                history_convolution_into_scalar(&weights, j, &tail, col);
                            }
                            let mut block = init;
                            history_block_into(&weights, &tail, &mut block);
                            for (s, b) in scalar.iter().zip(&block) {
                                let (s, b): (Vec<u64>, Vec<u64>) = (
                                    s.iter().map(|v| v.to_bits()).collect(),
                                    b.iter().map(|v| v.to_bits()).collect(),
                                );
                                assert_eq!(
                                    s, b,
                                    "n = {n}, m = {m}, len = {len}, wlen = {wlen}, zero = {zero}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_skips_zero_weights_without_touching_the_column() {
        // Every third weight is zero and one tail column is infinite: a
        // skipped term leaves the column's sum finite, a multiplied one
        // would turn it into NaN (0 · ∞).
        let (n, m, len) = (9, 8, 12);
        let weights: Vec<f64> = (0..m + len + 1)
            .map(|k| {
                if k % 3 == 0 {
                    0.0
                } else {
                    0.5f64.powi(k as i32)
                }
            })
            .collect();
        let mut tail: Vec<Vec<f64>> = (0..len)
            .map(|d| (0..n).map(|i| (d + i) as f64 * 0.1).collect())
            .collect();
        tail[len - 4] = vec![f64::INFINITY; n];
        let mut scalar = vec![vec![0.0; n]; m];
        for (j, col) in scalar.iter_mut().enumerate() {
            history_convolution_into_scalar(&weights, j, &tail, col);
        }
        let mut block = vec![vec![0.0; n]; m];
        history_block_into(&weights, &tail, &mut block);
        let bits = |cols: &[Vec<f64>]| -> Vec<u64> {
            cols.iter().flatten().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&scalar), bits(&block));
        assert!(block.iter().flatten().all(|v| !v.is_nan()));
    }

    #[test]
    fn truncated_tail_equals_truncated_weights() {
        // Dropping old columns ≡ zeroing their weights: the two
        // implementations of short memory must agree exactly.
        let weights: Vec<f64> = (0..8).map(|k| 0.7f64.powi(k)).collect();
        let cols: Vec<Vec<f64>> = (0..6).map(|i| vec![(i as f64).sin() + 2.0]).collect();
        let mut capped = HistoryTail::new(Some(3));
        capped.extend(cols.clone());
        let mut via_cap = vec![0.0];
        history_convolution_into(&weights, 1, capped.columns(), &mut via_cap);
        let mut short_w = weights.clone();
        for w in short_w.iter_mut().skip(1 + 3 + 1) {
            *w = 0.0; // offset + cap reached: older columns weigh zero
        }
        let mut via_weights = vec![0.0];
        history_convolution_into(&short_w, 1, &cols, &mut via_weights);
        assert_eq!(via_cap, via_weights);
    }
}
