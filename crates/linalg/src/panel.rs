//! Fixed-width lane panels: the SIMD-friendly blocking every
//! lane-elementwise kernel in the workspace shares.
//!
//! The engine's hot path is elementwise across *lanes* (scenarios): a
//! triangular solve, SpMM or history convolution applies the same sparse
//! structure to `K` independent right-hand sides stored lane-interleaved
//! (`n × K` row-major blocks). The scalar kernels walk each structure
//! entry once and loop over all `K` lanes in memory; the panel kernels
//! here instead process the lanes in fixed-width chunks of
//! [`LANE_PANEL_WIDTH`] `f64`s held in `[f64; W]` accumulators — small
//! enough to live in vector registers, with a fixed trip count the
//! compiler fully unrolls and vectorizes. A panel of the solution block
//! (`n × 64` bytes) is also small enough to stay cache-resident across a
//! whole factor traversal, where the full `n × K` block of a wide batch
//! is not.
//!
//! Lanes are independent, so panelling **never reassociates within a
//! lane**: for every lane the sequence of arithmetic operations is the
//! one the scalar kernel performs, and results are bit-identical (the
//! only tolerated exception is the sign of zero, which skip-granularity
//! differences can flip; `==` and max-abs-delta comparisons treat
//! `-0.0 == 0.0`). Ragged lane counts are handled by narrower
//! monomorphizations (`W = 4, 2, 1`) rather than a per-element scalar
//! tail, so the remainder follows the same code shape.
//!
//! On `x86_64` the panel drivers are additionally compiled in a second,
//! AVX-enabled copy selected at runtime ([`avx_available`]): the same
//! `[f64; W]` loops vectorized 4-wide instead of SSE2's 2-wide. Only
//! `avx` is enabled — never `fma` — so multiplies and adds stay separate
//! IEEE-754 operations and the per-lane arithmetic sequence (and thus
//! the bits) is identical across the portable and AVX copies.
//!
//! Every dispatching kernel keeps a public `*_scalar` reference; the
//! proptests and the `kernel/*` bench records compare the panel path
//! against it bit for bit.

/// Width of the main lane panel, in `f64` lanes: every panelized kernel
/// processes lanes in `[f64; LANE_PANEL_WIDTH]` chunks (one AVX-512
/// register or two AVX2 registers), with `W = 4, 2, 1` monomorphizations
/// covering the remainder. Batch lane chunking aligns per-worker chunks
/// to this width so workers split on panel boundaries.
pub const LANE_PANEL_WIDTH: usize = 8;

/// Whether the running CPU supports AVX, i.e. whether the panel
/// drivers' runtime-dispatched AVX copies may be called. Always `false`
/// off `x86_64` and under Miri, which cannot model the feature detection,
/// so there the portable panel bodies run. The detection result is cached
/// by the standard library; this is cheap enough for per-kernel-call
/// dispatch.
#[inline]
pub fn avx_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(any(not(target_arch = "x86_64"), miri))]
    {
        false
    }
}

/// Forward-substitutes the unit-diagonal dense lower triangle of the
/// row-major `dim × dim` panel `lu` through one lane panel per row:
/// `y ← L⁻¹·y` with `L[i][k] = lu[i*dim + k]` for `i > k` (the diagonal
/// and upper slots are ignored).
///
/// The sweep is by columns (`k` ascending), so each target row receives
/// its updates in the same order as a sparse column sweep over the same
/// columns — the property the supernodal dense tail relies on for
/// bit-identical agreement with the scalar solve.
///
/// `#[inline(always)]` so the body is compiled with the caller's target
/// features — the AVX copies of the panel drivers rely on this.
#[inline(always)]
pub fn forward_unit_lower_panels<const W: usize>(lu: &[f64], dim: usize, y: &mut [[f64; W]]) {
    debug_assert_eq!(lu.len(), dim * dim);
    debug_assert_eq!(y.len(), dim);
    for k in 0..dim {
        let piv = y[k];
        if piv == [0.0; W] {
            continue;
        }
        for i in (k + 1)..dim {
            let lv = lu[i * dim + k];
            let yi = &mut y[i];
            for w in 0..W {
                yi[w] -= lv * piv[w];
            }
        }
    }
}

/// Back-substitutes the dense upper triangle of the row-major
/// `dim × dim` panel `lu` through one lane panel per row:
/// `y ← U⁻¹·y` with `U[i][k] = lu[i*dim + k]` for `i < k` and the
/// diagonal supplied separately in `diag` (the strictly-lower slots are
/// ignored).
///
/// Columns are processed from the right (`k` descending), dividing
/// `y[k]` by `diag[k]` before its updates are applied — the exact
/// operation order of the scalar sparse back-substitution.
///
/// `#[inline(always)]` so the body is compiled with the caller's target
/// features — the AVX copies of the panel drivers rely on this.
#[inline(always)]
pub fn backward_upper_panels<const W: usize>(
    lu: &[f64],
    diag: &[f64],
    dim: usize,
    y: &mut [[f64; W]],
) {
    debug_assert_eq!(lu.len(), dim * dim);
    debug_assert_eq!(diag.len(), dim);
    debug_assert_eq!(y.len(), dim);
    for k in (0..dim).rev() {
        let d = diag[k];
        let yk = &mut y[k];
        for w in 0..W {
            yk[w] /= d;
        }
        let piv = *yk;
        if piv == [0.0; W] {
            continue;
        }
        for i in 0..k {
            let uv = lu[i * dim + k];
            let yi = &mut y[i];
            for w in 0..W {
                yi[w] -= uv * piv[w];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_width_is_a_power_of_two() {
        // The 8 → 4 → 2 → 1 remainder chain covers every lane count only
        // because each width halves the previous one.
        assert!(LANE_PANEL_WIDTH.is_power_of_two());
        assert_eq!(LANE_PANEL_WIDTH, 8);
    }

    #[test]
    fn dense_panels_solve_a_known_triangle() {
        // L = [[1,0],[0.5,1]], U = [[2,3],[0,4]] packed into one panel.
        let dim = 2;
        let lu = vec![0.0, 3.0, 0.5, 0.0];
        let diag = [2.0, 4.0];
        // Solve L·U·x = b for b = (2, 9) in both lanes of a 2-wide panel.
        let mut y = vec![[2.0; 2], [9.0; 2]];
        forward_unit_lower_panels(&lu, dim, &mut y);
        assert_eq!(y, vec![[2.0; 2], [8.0; 2]]);
        backward_upper_panels(&lu, &diag, dim, &mut y);
        // U·x = (2, 8): x1 = 2, x0 = (2 − 3·2)/2 = −2.
        assert_eq!(y, vec![[-2.0; 2], [2.0; 2]]);
    }

    #[test]
    fn zero_panels_are_skipped_without_effect() {
        let dim = 3;
        let mut lu = vec![0.0; 9];
        lu[3] = 0.25; // L[1][0]
        lu[7] = -1.5; // L[2][1]
        let mut y = vec![[0.0; 4]; 3];
        forward_unit_lower_panels(&lu, dim, &mut y);
        assert_eq!(y, vec![[0.0; 4]; 3]);
        backward_upper_panels(&lu, &[1.0, 1.0, 1.0], dim, &mut y);
        assert_eq!(y, vec![[0.0; 4]; 3]);
    }
}
