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
}
