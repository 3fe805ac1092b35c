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
//! The memory that a block of columns receives from everything before
//! it is that sum for every column `j` of the block against the same
//! tail (`offset = j`): the weights `w_{j+d}` form an upper-triangular
//! Toeplitz block, so the block's whole memory from the tail is one
//! Toeplitz-block × tail product. [`history_block_into`] computes it in
//! one register-tiled pass over the tail instead of one pass per column
//! — `O(N²)` work per series over a full `N`-column history.
//! [`HistorySquares`] computes the same full-history memory over equal
//! blocks of columns as dyadic squares, each one FFT convolution
//! against a cached kernel spectrum (the transform is
//! [`opm_linalg::fft`]), in `O(N log² N)`; squares below
//! [`FFT_SQUARE_MIN_COLUMNS`] a side use [`history_block_into`], which
//! stays the oracle the squares are tested against. The OPM convolution
//! sweep (`opm-core`) runs one such memory over the global columns of a
//! solve in 64-column blocks: each column sums its own block directly
//! with [`history_convolution_into`] and takes the older terms from the
//! squares, whatever the solve's window split.
//!
//! [`HistoryTail`] is a list of retained columns with an optional cap.
//! Dropping columns older than `cap` is the Grünwald–Letnikov
//! short-memory truncation: since the weights of a fractional difference
//! decay like `|w_k| = O(k^{−1−α})`, the neglected forcing is bounded by
//! the tail sum `Σ_{k>cap}|w_k| = O(cap^{−α})` times the solution's
//! sup-norm. No solve in the workspace truncates: a convolution solve
//! carries its whole memory through [`HistorySquares`].

use opm_linalg::fft::FftPlan;

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

/// The cyclic convolution of one panel with a level's kernel: forward
/// transform, spectral product, inverse transform. Kept out of line in
/// both dispatch copies — inlined into the square's load/store loop the
/// transform compiles to code several times slower.
#[inline(always)]
fn convolve_body(
    spec: &SquareSpectrum,
    re: &mut [[f64; SQUARE_PANEL_WIDTH]],
    im: &mut [[f64; SQUARE_PANEL_WIDTH]],
) {
    spec.plan.forward_bitrev(re, im);
    for (((r, i), &kr), &ki) in re.iter_mut().zip(im.iter_mut()).zip(&spec.re).zip(&spec.im) {
        for p in 0..SQUARE_PANEL_WIDTH {
            let (a, b) = (r[p], i[p]);
            r[p] = a * kr - b * ki;
            i[p] = a * ki + b * kr;
        }
    }
    spec.plan.inverse_bitrev(re, im);
}

/// The portable copy of [`convolve_body`].
#[inline(never)]
fn convolve_portable(
    spec: &SquareSpectrum,
    re: &mut [[f64; SQUARE_PANEL_WIDTH]],
    im: &mut [[f64; SQUARE_PANEL_WIDTH]],
) {
    convolve_body(spec, re, im);
}

/// The AVX codegen copy of [`convolve_body`] (`avx` only — no `fma`, so
/// the per-element arithmetic stays bit-identical to the portable copy).
///
/// # Safety
/// The caller must have verified that the running CPU supports the
/// `avx` target feature (this crate gates every call behind
/// [`opm_linalg::panel::avx_available`]). The body is ordinary safe
/// Rust — the only obligation is the feature check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline(never)]
unsafe fn convolve_avx(
    spec: &SquareSpectrum,
    re: &mut [[f64; SQUARE_PANEL_WIDTH]],
    im: &mut [[f64; SQUARE_PANEL_WIDTH]],
) {
    convolve_body(spec, re, im);
}

/// Columns per side a memory square must reach before
/// [`HistorySquares`] evaluates it by FFT instead of by
/// [`history_block_into`]. Measured on a 2-vCPU AVX Xeon with α = ½
/// weights, one square at a time (best of 50): at 64 columns a side the
/// FFT square takes 1.2× the direct block's time (100–528 elements); at
/// 128 it is 1.2–1.6× faster and at 256 2.0–2.7× faster (2–528
/// elements). The `kernel/history_fft*` records of the `sweep` bench
/// measure the combined effect over a whole full-history solve.
pub const FFT_SQUARE_MIN_COLUMNS: usize = 128;

/// The full-history memory of a convolution over `N` columns split
/// into blocks of `b` columns (the last one cut short when `b` does not
/// divide `N`), computed as dyadic squares (Hairer, Lubich & Schlichte,
/// *SIAM J. Sci. Stat. Comput.* 6 (1985) 532–541) instead of one
/// Toeplitz block per block of outputs.
///
/// Block `o` receives, in its column `j`, `Σ_{c < o·b} ρ_{o·b + j − c}·x_c`
/// over every column `c` of the earlier blocks. At block boundary `B`
/// (`1 ≤ B < ⌈N/b⌉`), let `s = lowbit(B)`: the square of boundary `B`
/// adds the terms whose inputs lie in blocks `[B − s, B)` to the
/// outputs in blocks `[B, min(B + s, ⌈N/b⌉))`. Every strictly lower
/// (output, input) block pair is covered by exactly one boundary, each
/// square is one linear convolution against `ρ[1 .. 2sb)` — the same
/// kernel for every boundary of a level — and all of a boundary's
/// inputs are solved when it is reached, so a block's memory from the
/// earlier blocks is complete before its first column. Work per series
/// is `O(N log² N)` for `N` columns, against `O(N²)` for one
/// direct block per block. Squares stop at column `N`: a square that
/// reaches a cut-short last block computes only its columns before `N`.
///
/// A square of at least [`FFT_SQUARE_MIN_COLUMNS`] columns per side is
/// a cyclic convolution of length `next_pow2(2sb)` (long enough that
/// nothing wraps into the outputs) against a kernel spectrum computed
/// once here; a smaller one is [`history_block_into`] on the square.
/// Transforms run one element panel at a time. Two series of the same
/// lane — rows `q` and `q + ⌈rows/2⌉` of a `rows × lanes` column — share
/// one complex series (a real kernel keeps them apart exactly); values
/// of different lanes never meet, so a lane's bits do not depend on
/// which other lanes share its block. Against the direct block a
/// column's memory agrees to about `5e-16` of its magnitude scale
/// `Σ_d |ρ_{j+d}|·‖x_d‖_∞` (the tests bound it by `1e-12` of that
/// scale); its own entries can cancel far below that scale (one 1-entry column of the
/// property test is off by `3.5e-11` of itself), while on the
/// `cpe_history` shape the deviation is about `1e-13` of each column's
/// largest entry. The scale is per lane, not per row: the FFT's
/// rounding scales with the whole complex series, so a row much smaller
/// than its partner (a µA branch current beside a 1 V node) carries an
/// error of the partner's size — measured about `1e-15` of the lane and
/// `1e-9` of the row itself with rows `1e6` apart — where the direct
/// block's error scales with the row alone.
#[derive(Clone, Debug)]
pub struct HistorySquares {
    block: usize,
    /// The column count `N`.
    columns: usize,
    /// Per level `ℓ` (`s = 2^ℓ`, every `s < ⌈N/b⌉`): the kernel
    /// spectrum of an FFT-sized square, `None` for a direct one.
    levels: Vec<Option<SquareSpectrum>>,
}

/// The spectrum of one level's kernel `ρ[1 .. 2sb)`, in the
/// bit-reversed order of [`FftPlan::forward_bitrev`] and scaled by
/// `1/N` (exact: `N` is a power of two).
#[derive(Clone, Debug)]
struct SquareSpectrum {
    plan: FftPlan,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl HistorySquares {
    /// The squares of `columns` columns in blocks of `block`, with
    /// memory weights `weights` (`ρ_d` weighs a column `d` steps back;
    /// entries past the end weigh zero).
    pub fn new(weights: &[f64], block: usize, columns: usize) -> Self {
        let blocks = columns.div_ceil(block);
        let levels = (0..usize::BITS)
            .map(|l| 1usize << l)
            .take_while(|&s| s < blocks)
            .map(|s| {
                let side = s * block;
                (side >= FFT_SQUARE_MIN_COLUMNS).then(|| {
                    let n = (2 * side).next_power_of_two();
                    let plan = FftPlan::new(n);
                    let scale = 1.0 / n as f64;
                    let mut re: Vec<[f64; 1]> = vec![[0.0]; n];
                    for (d, r) in re.iter_mut().enumerate().take(2 * side).skip(1) {
                        r[0] = weights.get(d).copied().unwrap_or(0.0);
                    }
                    let mut im = vec![[0.0]; n];
                    plan.forward_bitrev(&mut re, &mut im);
                    SquareSpectrum {
                        plan,
                        re: re.iter().map(|v| v[0] * scale).collect(),
                        im: im.iter().map(|v| v[0] * scale).collect(),
                    }
                })
            })
            .collect();
        HistorySquares {
            block,
            columns,
            levels,
        }
    }

    /// Adds the square of block boundary `boundary` (`1 ≤ boundary <
    /// ⌈N/b⌉`) to the pending memory. `store` holds the solved columns
    /// of blocks `0..boundary` (at least); `pending` holds the memory
    /// accumulated so far for blocks `boundary, boundary + 1, …` (its
    /// first column is column 0 of block `boundary`) and is extended
    /// with zero columns to cover the square's outputs before column
    /// `N`. Every column is `rows × lanes` row-major (`lanes` = 1 for a
    /// plain column).
    ///
    /// `stop` is polled before each FFT element panel; when it returns
    /// `true` the square returns at once, leaving `pending` with only
    /// the panels done so far (fit only to be dropped). A direct square
    /// (under [`FFT_SQUARE_MIN_COLUMNS`] columns a side) is not polled.
    ///
    /// # Panics
    /// Panics when `boundary` is not a block boundary, when `store` is
    /// short of block `boundary`, or when the column length is not a
    /// multiple of `lanes`.
    pub fn add_boundary(
        &self,
        weights: &[f64],
        boundary: usize,
        store: &[Vec<f64>],
        pending: &mut Vec<Vec<f64>>,
        lanes: usize,
        mut stop: impl FnMut() -> bool,
    ) {
        let (w, b) = (boundary, self.block);
        let blocks = self.columns.div_ceil(b);
        assert!((1..blocks).contains(&w), "boundary {w} of {blocks} blocks");
        let s = w & w.wrapping_neg();
        let inputs = &store[(w - s) * b..w * b];
        let len = inputs[0].len();
        assert!(
            lanes > 0 && len % lanes == 0,
            "{len}-entry columns of {lanes} lanes"
        );
        let span = (s * b).min(self.columns - w * b);
        if pending.len() < span {
            pending.resize(span, vec![0.0; len]);
        }
        let out = &mut pending[..span];
        let Some(spec) = &self.levels[s.trailing_zeros() as usize] else {
            history_block_into(weights, inputs, out);
            return;
        };
        // Rows `q` and `q + half/lanes` share a complex series: the paired
        // elements `e < len − half` (imaginary partner `e + half`), then
        // the unpaired middle row of an odd row count. Every panel is
        // `SQUARE_PANEL_WIDTH` wide, the last of a range zero-padded, and
        // all of them reuse one scratch pair.
        let half = (len / lanes).div_ceil(2) * lanes;
        let n = spec.plan.len();
        let mut re = vec![[0.0; SQUARE_PANEL_WIDTH]; n];
        let mut im = vec![[0.0; SQUARE_PANEL_WIDTH]; n];
        for (range, partner) in [(0..len - half, Some(half)), (len - half..half, None)] {
            for e0 in range.clone().step_by(SQUARE_PANEL_WIDTH) {
                if stop() {
                    return;
                }
                let cols = e0..range.end.min(e0 + SQUARE_PANEL_WIDTH);
                square_panel(spec, inputs, out, cols, partner, &mut re, &mut im);
            }
        }
    }
}

/// Elements per FFT square panel: the series transformed together, one
/// AVX register of each sample. A series' bits do not depend on the
/// width (see [`opm_linalg::fft`]), only speed and the `2·N·width` f64
/// scratch of a square do: on a 2-vCPU AVX Xeon, at the
/// `kernel/history_fft` shape (15 squares of a 16 × 64 solve,
/// 264-element columns), 4 runs as fast as 8 with half the scratch
/// (64 KiB at `N` = 1024) and 2 about 1.4× slower.
const SQUARE_PANEL_WIDTH: usize = 4;

/// The square for the elements of `cols` (real parts) and, with a
/// partner offset `h`, the elements `h` further on (imaginary parts):
/// load the inputs zero-padded to `N` into the scratch `re`/`im`,
/// transform, multiply by the kernel spectrum, transform back, and add
/// the outputs' part (samples `sm..sm + span`) to `out`.
fn square_panel(
    spec: &SquareSpectrum,
    inputs: &[Vec<f64>],
    out: &mut [Vec<f64>],
    cols: std::ops::Range<usize>,
    partner: Option<usize>,
    re: &mut [[f64; SQUARE_PANEL_WIDTH]],
    im: &mut [[f64; SQUARE_PANEL_WIDTH]],
) {
    let side = inputs.len();
    let width = cols.len();
    re.fill([0.0; SQUARE_PANEL_WIDTH]);
    im.fill([0.0; SQUARE_PANEL_WIDTH]);
    for (t, c) in inputs.iter().enumerate() {
        re[t][..width].copy_from_slice(&c[cols.clone()]);
        if let Some(h) = partner {
            im[t][..width].copy_from_slice(&c[cols.start + h..cols.end + h]);
        }
    }
    #[cfg(target_arch = "x86_64")]
    if opm_linalg::panel::avx_available() {
        // SAFETY: the `avx` target feature was detected on this CPU.
        unsafe { convolve_avx(spec, re, im) };
    } else {
        convolve_portable(spec, re, im);
    }
    #[cfg(not(target_arch = "x86_64"))]
    convolve_portable(spec, re, im);
    for (j, col) in out.iter_mut().enumerate() {
        let (r, i) = (&re[side + j], &im[side + j]);
        for (o, v) in col[cols.clone()].iter_mut().zip(r) {
            *o += v;
        }
        if let Some(h) = partner {
            for (o, v) in col[cols.start + h..cols.end + h].iter_mut().zip(i) {
                *o += v;
            }
        }
    }
}

/// A tail of retained history columns, optionally bounded — the state
/// of a per-column history replay.
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

    /// The Tustin series of `((1 − q)/(1 + q))^α` — the BPF fractional
    /// memory weights up to their `(2/h)^α` scale.
    fn tustin(alpha: f64, len: usize) -> Vec<f64> {
        let mut c = vec![1.0, -2.0 * alpha];
        for k in 1..len - 1 {
            c.push(((k as f64 - 1.0) * c[k - 1] - 2.0 * alpha * c[k]) / (k as f64 + 1.0));
        }
        c.truncate(len);
        c
    }

    /// Every window's carried block by squares against
    /// [`history_block_into`] over the whole tail, window by window: the
    /// largest deviation relative to each carried column's magnitude
    /// scale `Σ_d |ρ_{j+d}|·‖x_d‖_∞` — the size that rounding in any
    /// evaluation order of the sum scales with, where the column's own
    /// entries can cancel to far below it. Also checks that the pending
    /// memory ends empty.
    fn squares_vs_blocks(
        weights: &[f64],
        m: usize,
        windows: usize,
        store: &[Vec<f64>],
        lanes: usize,
    ) -> f64 {
        let squares = HistorySquares::new(weights, m, m * windows);
        let len = store[0].len();
        let abs_weights: Vec<f64> = weights.iter().map(|v| v.abs()).collect();
        let magnitudes: Vec<Vec<f64>> = store
            .iter()
            .map(|c| vec![c.iter().fold(0.0f64, |s, v| s.max(v.abs()))])
            .collect();
        let mut pending = Vec::new();
        let mut worst = 0.0f64;
        for w in 1..windows {
            squares.add_boundary(weights, w, store, &mut pending, lanes, || false);
            let got: Vec<Vec<f64>> = pending.drain(..m).collect();
            let mut want = vec![vec![0.0; len]; m];
            history_block_into(weights, &store[..w * m], &mut want);
            let mut scale = vec![vec![0.0]; m];
            history_block_into(&abs_weights, &magnitudes[..w * m], &mut scale);
            for ((g, d), sc) in got.iter().zip(&want).zip(&scale) {
                let dev = g
                    .iter()
                    .zip(d)
                    .fold(0.0f64, |s, (a, b)| s.max((a - b).abs()));
                worst = worst.max(dev / sc[0]);
            }
        }
        assert!(
            pending.is_empty(),
            "m = {m}, W = {windows}: memory left pending"
        );
        worst
    }

    #[test]
    fn history_squares_match_blocks_window_by_window() {
        // Fixed-seed property: every α, window width and window count,
        // 1–9 lanes of 1–3 rows, smooth-plus-noise columns. m = 128
        // puts the single square of W = 2 on the FFT path.
        // Under Miri one FFT-sized and one direct-only case per α.
        use opm_rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x5C_A7E5);
        let (ms, ws): (&[usize], &[usize]) = if cfg!(miri) {
            (&[5, 64], &[3])
        } else {
            (&[5, 24, 64, 100, 128], &[2, 3, 5, 16, 17])
        };
        for alpha in [0.3, 0.5, 0.8, 1.5] {
            for &m in ms {
                for &windows in ws {
                    let lanes = rng.random_range(1..10usize);
                    let rows = rng.random_range(1..4usize);
                    let weights = tustin(alpha, m * windows);
                    let store: Vec<Vec<f64>> = (0..m * windows)
                        .map(|c| {
                            (0..rows * lanes)
                                .map(|i| {
                                    (c as f64 * 0.01 + i as f64).sin() + rng.random_range(-0.1..0.1)
                                })
                                .collect()
                        })
                        .collect();
                    let dev = squares_vs_blocks(&weights, m, windows, &store, lanes);
                    assert!(
                        dev <= 1e-13,
                        "α = {alpha}, m = {m}, W = {windows}, {rows}×{lanes}: {dev:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn history_squares_bound_small_rows_by_their_lane() {
        // Rows 0 and 1 of a 2-row lane share one complex series, so the
        // FFT's rounding in row 1 scales with row 0: with rows 1e6 apart
        // in size, row 1 keeps 1e-12 of the lane's largest entry, not of
        // its own.
        let (m, windows) = (128, 4);
        let weights = tustin(0.5, m * windows);
        let store: Vec<Vec<f64>> = (0..m * windows)
            .map(|c| {
                let x = c as f64 * 0.02;
                vec![x.sin() + 0.3 * (7.0 * x).cos(), 1e-6 * (3.0 * x).cos()]
            })
            .collect();
        let squares = HistorySquares::new(&weights, m, m * windows);
        let mut pending = Vec::new();
        let (mut lane_rel, mut row_rel) = (0.0f64, 0.0f64);
        for w in 1..windows {
            squares.add_boundary(&weights, w, &store, &mut pending, 1, || false);
            let got: Vec<Vec<f64>> = pending.drain(..m).collect();
            let mut want = vec![vec![0.0; 2]; m];
            history_block_into(&weights, &store[..w * m], &mut want);
            let lane = want.iter().flatten().fold(0.0f64, |s, v| s.max(v.abs()));
            let row1 = want.iter().fold(0.0f64, |s, c| s.max(c[1].abs()));
            let dev = got
                .iter()
                .zip(&want)
                .fold(0.0f64, |s, (g, d)| s.max((g[1] - d[1]).abs()));
            lane_rel = lane_rel.max(dev / lane);
            row_rel = row_rel.max(dev / row1);
        }
        assert!(lane_rel <= 1e-12, "row 1 off by {lane_rel:e} of the lane");
        // Measured: about 1e-15 of the lane, 1e-9 of row 1 itself.
        assert!(row_rel <= 1e-12 * 1e6, "row 1 off by {row_rel:e} of itself");
    }

    #[test]
    fn history_squares_stop_at_the_last_column() {
        // N = 200 in 64-column blocks: the last block holds 8 columns,
        // so boundary 3's square extends the pending memory by 8
        // columns, not 64, and they match the direct block.
        let (b, n) = (64, 200);
        let weights = tustin(0.5, n);
        let store: Vec<Vec<f64>> = (0..n).map(|c| vec![(c as f64 * 0.1).sin()]).collect();
        let squares = HistorySquares::new(&weights, b, n);
        let mut pending = Vec::new();
        for w in 1..4 {
            pending.drain(..pending.len().min(b));
            squares.add_boundary(&weights, w, &store, &mut pending, 1, || false);
        }
        assert_eq!(pending.len(), 8);
        let mut want = vec![vec![0.0]; 8];
        history_block_into(&weights, &store[..3 * b], &mut want);
        for (g, d) in pending.iter().zip(&want) {
            assert!((g[0] - d[0]).abs() <= 1e-13, "{} vs {}", g[0], d[0]);
        }
    }

    #[test]
    fn history_squares_stop_when_the_check_trips() {
        // One FFT square (128 columns a side) over 40-entry columns: 20
        // paired elements, 5 panels. A check that trips on its third poll
        // leaves at most three panels done, and those match the full run.
        let (b, rows) = (128, 40);
        let weights = tustin(0.5, 2 * b);
        let store: Vec<Vec<f64>> = (0..2 * b)
            .map(|c| {
                (0..rows)
                    .map(|i| (c as f64 * 0.05 + i as f64).sin())
                    .collect()
            })
            .collect();
        let squares = HistorySquares::new(&weights, b, 2 * b);
        let mut full = Vec::new();
        squares.add_boundary(&weights, 1, &store, &mut full, 1, || false);
        let (mut stopped, mut polls) = (Vec::new(), 0);
        squares.add_boundary(&weights, 1, &store, &mut stopped, 1, || {
            polls += 1;
            polls == 3
        });
        assert_eq!(polls, 3);
        let done: Vec<usize> = (0..rows)
            .filter(|&e| stopped.iter().any(|c| c[e] != 0.0))
            .collect();
        assert!(
            !done.is_empty() && done.len() <= 3 * 2 * SQUARE_PANEL_WIDTH,
            "{done:?}"
        );
        for (got, want) in stopped.iter().zip(&full) {
            for &e in &done {
                assert_eq!(got[e].to_bits(), want[e].to_bits());
            }
        }
        assert!((0..rows).all(|e| full.iter().any(|c| c[e] != 0.0)));
    }

    #[test]
    fn history_squares_keep_lanes_apart() {
        // A lane's carried memory has the same bits alone as in lane 2 of
        // a 3-lane block next to unrelated data: rows pair within a lane,
        // never across lanes.
        let (m, windows, rows) = (64, 5, 3);
        let weights = tustin(0.5, m * windows);
        let run = |lanes: usize, pick: usize| -> Vec<u64> {
            let store: Vec<Vec<f64>> = (0..m * windows)
                .map(|c| {
                    (0..rows * lanes)
                        .map(|e| {
                            let (r, lane) = (e / lanes, e % lanes);
                            if lane == pick {
                                ((c * 7 + r * 3) as f64 * 0.05).cos()
                            } else {
                                1e3 * ((c * 13 + e) as f64).sin()
                            }
                        })
                        .collect()
                })
                .collect();
            let squares = HistorySquares::new(&weights, m, m * windows);
            let mut pending = Vec::new();
            let mut bits = Vec::new();
            for w in 1..windows {
                squares.add_boundary(&weights, w, &store, &mut pending, lanes, || false);
                for c in pending.drain(..m) {
                    bits.extend((0..rows).map(|r| c[r * lanes + pick].to_bits()));
                }
            }
            bits
        };
        assert_eq!(run(1, 0), run(3, 2));
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
