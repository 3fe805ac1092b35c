//! Radix-2 FFT over panels of vector samples — the workspace's one
//! power-of-two transform.
//!
//! A transform of length `N` runs on split real/imaginary arrays whose
//! samples are lane panels `[f64; W]`: `W` independent series are
//! transformed at once, each with exactly the arithmetic a `W = 1` call
//! performs on it, so a series' bits never depend on the panel it sits
//! in. Twiddles come from a table computed once per length
//! ([`FftPlan::new`]) by direct evaluation of `cos`/`sin` over the first
//! octant and exact symmetries beyond it, never by repeated
//! multiplication.
//!
//! Two half transforms make a convolution with no permutation pass:
//! [`FftPlan::forward_bitrev`] (decimation in frequency: natural order in,
//! bit-reversed order out) and [`FftPlan::inverse_bitrev`] (decimation in
//! time with conjugate twiddles: bit-reversed in, natural out, unscaled).
//! Pointwise products between them are order-agnostic. [`FftPlan::forward`]
//! adds the bit-reversal permutation for a natural-order spectrum. The
//! stages nearest the samples (half-widths 1 and 2, whose twiddles are
//! exactly 1 and ∓i) run fused, without multiplies.
//!
//! Like the kernels in [`crate::panel`], the transforms are
//! `#[inline(always)]`: a caller's runtime-dispatched AVX copy compiles
//! them with its own target features (never `fma`, so the bits match the
//! portable copy).

/// The twiddle table of one power-of-two length.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// `cos(2πk/N)` for `k ∈ 0..N/2`.
    cos: Vec<f64>,
    /// `sin(2πk/N)` for `k ∈ 0..N/2`.
    sin: Vec<f64>,
}

impl FftPlan {
    /// The plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics when `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "radix-2 FFT needs a power-of-two length"
        );
        // Angles up to π/4 are evaluated; the rest of the half circle
        // follows by the exact symmetries θ ↦ π/2 − θ and θ ↦ π − θ.
        let eighth: Vec<(f64, f64)> = (0..=n / 8)
            .map(|k| (2.0 * std::f64::consts::PI * k as f64 / n as f64).sin_cos())
            .collect();
        let quarter = |k: usize| {
            if k <= n / 8 {
                eighth[k]
            } else {
                let (s, c) = eighth[n / 4 - k];
                (c, s)
            }
        };
        let (sin, cos) = (0..n / 2)
            .map(|k| {
                if k <= n / 4 {
                    quarter(k)
                } else {
                    let (s, c) = quarter(n / 2 - k);
                    (s, -c)
                }
            })
            .unzip();
        FftPlan { n, cos, sin }
    }

    /// The transform length `N`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the length is zero (never: the smallest plan has `N = 1`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward DFT (`X_k = Σ_t x_t·e^{−2πikt/N}`) of every series
    /// of the panel, natural order in, **bit-reversed** order out
    /// (Gentleman–Sande decimation in frequency).
    ///
    /// # Panics
    /// Panics when `re` or `im` does not hold `N` samples.
    #[inline(always)]
    pub fn forward_bitrev<const W: usize>(&self, re: &mut [[f64; W]], im: &mut [[f64; W]]) {
        self.check(re, im);
        if self.n < 2 {
            return;
        }
        let block = cache_block::<W>();
        let (mut half, mut stride) = (self.n / 2, 1);
        while 2 * half > block {
            self.dif_stage(re, im, half, stride);
            half /= 2;
            stride *= 2;
        }
        // Below the cache block the sub-transforms are independent: run
        // each one's remaining stages while it is cache-resident.
        for (rb, ib) in re
            .chunks_exact_mut(2 * half)
            .zip(im.chunks_exact_mut(2 * half))
        {
            let (mut h, mut st) = (half, stride);
            while h >= 4 {
                self.dif_stage(rb, ib, h, st);
                h /= 2;
                st *= 2;
            }
            dif_tail(rb, ib, h);
        }
    }

    /// In-place unscaled inverse DFT (`x_t = Σ_k X_k·e^{+2πikt/N}`, `N`
    /// times the true inverse) of every series of the panel,
    /// **bit-reversed** order in, natural order out (Cooley–Tukey
    /// decimation in time) — the exact counterpart of
    /// [`FftPlan::forward_bitrev`].
    ///
    /// # Panics
    /// Panics when `re` or `im` does not hold `N` samples.
    #[inline(always)]
    pub fn inverse_bitrev<const W: usize>(&self, re: &mut [[f64; W]], im: &mut [[f64; W]]) {
        self.check(re, im);
        let block = cache_block::<W>().min(self.n);
        for (rb, ib) in re.chunks_exact_mut(block).zip(im.chunks_exact_mut(block)) {
            let (mut h, mut st) = dit_head(rb, ib, self.n);
            while h < block {
                self.dit_stage(rb, ib, h, st);
                h *= 2;
                st /= 2;
            }
        }
        let (mut half, mut stride) = (block, self.n / (2 * block));
        while half < self.n {
            self.dit_stage(re, im, half, stride);
            half *= 2;
            stride /= 2;
        }
    }

    /// One decimation-in-frequency stage over groups of `2·half`
    /// samples: `(a, b) → (a + b, (a − b)·w^j)` with
    /// `w^j = e^{−2πi·j·stride/N}`.
    #[inline(always)]
    fn dif_stage<const W: usize>(
        &self,
        re: &mut [[f64; W]],
        im: &mut [[f64; W]],
        half: usize,
        stride: usize,
    ) {
        for (rc, ic) in re
            .chunks_exact_mut(2 * half)
            .zip(im.chunks_exact_mut(2 * half))
        {
            let (ra, rb) = rc.split_at_mut(half);
            let (ia, ib) = ic.split_at_mut(half);
            for j in 0..half {
                let (wr, wi) = (self.cos[j * stride], -self.sin[j * stride]);
                let (ar, ai, br, bi) = (&mut ra[j], &mut ia[j], &mut rb[j], &mut ib[j]);
                for p in 0..W {
                    let (tr, ti) = (ar[p] - br[p], ai[p] - bi[p]);
                    ar[p] += br[p];
                    ai[p] += bi[p];
                    br[p] = tr * wr - ti * wi;
                    bi[p] = tr * wi + ti * wr;
                }
            }
        }
    }

    /// One decimation-in-time stage over groups of `2·half` samples:
    /// `(a, b) → (a + b·w^j, a − b·w^j)` with `w^j = e^{+2πi·j·stride/N}`.
    #[inline(always)]
    fn dit_stage<const W: usize>(
        &self,
        re: &mut [[f64; W]],
        im: &mut [[f64; W]],
        half: usize,
        stride: usize,
    ) {
        for (rc, ic) in re
            .chunks_exact_mut(2 * half)
            .zip(im.chunks_exact_mut(2 * half))
        {
            let (ra, rb) = rc.split_at_mut(half);
            let (ia, ib) = ic.split_at_mut(half);
            for j in 0..half {
                let (wr, wi) = (self.cos[j * stride], self.sin[j * stride]);
                let (ar, ai, br, bi) = (&mut ra[j], &mut ia[j], &mut rb[j], &mut ib[j]);
                for p in 0..W {
                    let tr = br[p] * wr - bi[p] * wi;
                    let ti = br[p] * wi + bi[p] * wr;
                    br[p] = ar[p] - tr;
                    bi[p] = ai[p] - ti;
                    ar[p] += tr;
                    ai[p] += ti;
                }
            }
        }
    }

    /// In-place forward DFT with natural order on both sides:
    /// [`FftPlan::forward_bitrev`] followed by [`bit_reverse`].
    ///
    /// # Panics
    /// Panics when `re` or `im` does not hold `N` samples.
    #[inline(always)]
    pub fn forward<const W: usize>(&self, re: &mut [[f64; W]], im: &mut [[f64; W]]) {
        self.forward_bitrev(re, im);
        bit_reverse(re);
        bit_reverse(im);
    }

    #[inline(always)]
    fn check<const W: usize>(&self, re: &[[f64; W]], im: &[[f64; W]]) {
        assert!(
            re.len() == self.n && im.len() == self.n,
            "FFT of length {} given {} real and {} imaginary samples",
            self.n,
            re.len(),
            im.len()
        );
    }
}

/// The last DIF stages of a block whose remaining stage has half-width
/// `half` (2: two stages, 1: one), as one pass per 4 (or 2) samples with
/// the exact twiddles 1 and −i: no multiplies, one load and store of
/// each sample.
#[inline(always)]
fn dif_tail<const W: usize>(re: &mut [[f64; W]], im: &mut [[f64; W]], half: usize) {
    if half == 2 {
        for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
            for p in 0..W {
                let (a0r, a0i) = (r[0][p] + r[2][p], i[0][p] + i[2][p]);
                let (b0r, b0i) = (r[0][p] - r[2][p], i[0][p] - i[2][p]);
                let (a1r, a1i) = (r[1][p] + r[3][p], i[1][p] + i[3][p]);
                // (x₁ − x₃)·(−i)
                let (b1r, b1i) = (i[1][p] - i[3][p], r[3][p] - r[1][p]);
                r[0][p] = a0r + a1r;
                i[0][p] = a0i + a1i;
                r[1][p] = a0r - a1r;
                i[1][p] = a0i - a1i;
                r[2][p] = b0r + b1r;
                i[2][p] = b0i + b1i;
                r[3][p] = b0r - b1r;
                i[3][p] = b0i - b1i;
            }
        }
    } else if half == 1 {
        for (r, i) in re.chunks_exact_mut(2).zip(im.chunks_exact_mut(2)) {
            for p in 0..W {
                let (ar, ai) = (r[0][p], i[0][p]);
                r[0][p] = ar + r[1][p];
                i[0][p] = ai + i[1][p];
                r[1][p] = ar - r[1][p];
                i[1][p] = ai - i[1][p];
            }
        }
    }
}

/// The first DIT stages (half-widths 1 and 2) of a block, as one pass
/// per 4 samples with the exact twiddles 1 and +i (one stage for a
/// 2-sample block, none for 1); returns the next stage's
/// `(half, stride)` in an `n`-point transform.
#[inline(always)]
fn dit_head<const W: usize>(re: &mut [[f64; W]], im: &mut [[f64; W]], n: usize) -> (usize, usize) {
    match re.len() {
        1 => (1, n / 2),
        2 => {
            for p in 0..W {
                let (ar, ai) = (re[0][p], im[0][p]);
                re[0][p] = ar + re[1][p];
                im[0][p] = ai + im[1][p];
                re[1][p] = ar - re[1][p];
                im[1][p] = ai - im[1][p];
            }
            (2, n / 4)
        }
        _ => {
            for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
                for p in 0..W {
                    let (a0r, a0i) = (r[0][p] + r[1][p], i[0][p] + i[1][p]);
                    let (a1r, a1i) = (r[0][p] - r[1][p], i[0][p] - i[1][p]);
                    let (a2r, a2i) = (r[2][p] + r[3][p], i[2][p] + i[3][p]);
                    // (x₂ − x₃)·(+i)
                    let (tr, ti) = (i[3][p] - i[2][p], r[2][p] - r[3][p]);
                    r[0][p] = a0r + a2r;
                    i[0][p] = a0i + a2i;
                    r[2][p] = a0r - a2r;
                    i[2][p] = a0i - a2i;
                    r[1][p] = a1r + tr;
                    i[1][p] = a1i + ti;
                    r[3][p] = a1r - tr;
                    i[3][p] = a1i - ti;
                }
            }
            (4, n / 8)
        }
    }
}

/// Samples per cache-resident sub-transform at panel width `W`: the
/// stages below this size run block by block on about 16 KiB of split
/// real/imaginary data, the stages above it sweep the whole array.
/// Every butterfly sees the same operands in either order, so the
/// blocking changes speed only, never bits.
#[inline(always)]
fn cache_block<const W: usize>() -> usize {
    (16 * 1024 / (16 * W)).next_power_of_two().max(2)
}

/// Permutes a power-of-two-length slice into bit-reversed index order
/// (an involution: applying it twice restores the input).
///
/// # Panics
/// Panics when the length is not a power of two.
#[inline(always)]
pub fn bit_reverse<T>(data: &mut [T]) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "radix-2 FFT needs a power-of-two length"
    );
    if n <= 2 {
        return;
    }
    let shift = usize::BITS - n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if i < j {
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DFT by definition, one series.
    fn dft(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        (0..n)
            .map(|k| {
                (0..n).fold((0.0, 0.0), |(sr, si), t| {
                    let ang = -2.0 * std::f64::consts::PI * ((k * t) % n) as f64 / n as f64;
                    let (s, c) = ang.sin_cos();
                    (sr + re[t] * c - im[t] * s, si + re[t] * s + im[t] * c)
                })
            })
            .unzip()
    }

    fn series(n: usize, seed: usize) -> (Vec<f64>, Vec<f64>) {
        (0..n)
            .map(|t| {
                let x = (t * 37 + seed * 11) as f64;
                ((x * 0.61).sin(), (x * 0.23).cos() - 0.5)
            })
            .unzip()
    }

    #[test]
    fn fft_panel_forward_matches_the_definition() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let plan = FftPlan::new(n);
            let (mut re, mut im): (Vec<[f64; 3]>, Vec<[f64; 3]>) =
                (vec![[0.0; 3]; n], vec![[0.0; 3]; n]);
            let cols: Vec<_> = (0..3).map(|p| series(n, p)).collect();
            for t in 0..n {
                for p in 0..3 {
                    re[t][p] = cols[p].0[t];
                    im[t][p] = cols[p].1[t];
                }
            }
            plan.forward(&mut re, &mut im);
            for (p, (xr, xi)) in cols.iter().enumerate() {
                let (wr, wi) = dft(xr, xi);
                let scale = wr.iter().chain(&wi).fold(1e-300f64, |s, v| s.max(v.abs()));
                for k in 0..n {
                    let err = (re[k][p] - wr[k]).abs().max((im[k][p] - wi[k]).abs());
                    assert!(
                        err <= 1e-13 * scale,
                        "n = {n}, series {p}, bin {k}: {err:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn fft_panel_series_bits_do_not_depend_on_the_panel() {
        // One series alone (W = 1) and in slot 2 of a W = 4 panel next to
        // unrelated data: identical bits through forward and inverse, at
        // a length the two widths split into different cache blocks.
        let n = 2048;
        let plan = FftPlan::new(n);
        let (xr, xi) = series(n, 5);
        let (mut r1, mut i1): (Vec<[f64; 1]>, Vec<[f64; 1]>) = (
            xr.iter().map(|&v| [v]).collect(),
            xi.iter().map(|&v| [v]).collect(),
        );
        let mut r4: Vec<[f64; 4]> = (0..n).map(|t| [t as f64, 1e9, xr[t], -3.5]).collect();
        let mut i4: Vec<[f64; 4]> = (0..n).map(|t| [1.0, -(t as f64), xi[t], 1e-9]).collect();
        plan.forward_bitrev(&mut r1, &mut i1);
        plan.forward_bitrev(&mut r4, &mut i4);
        plan.inverse_bitrev(&mut r1, &mut i1);
        plan.inverse_bitrev(&mut r4, &mut i4);
        for t in 0..n {
            assert_eq!(r1[t][0].to_bits(), r4[t][2].to_bits());
            assert_eq!(i1[t][0].to_bits(), i4[t][2].to_bits());
        }
    }

    #[test]
    fn fft_panel_round_trip_scales_by_the_length() {
        for n in [1usize, 2, 8, 128] {
            let plan = FftPlan::new(n);
            let (xr, xi) = series(n, 1);
            let mut re: Vec<[f64; 2]> = xr.iter().map(|&v| [v, -v]).collect();
            let mut im: Vec<[f64; 2]> = xi.iter().map(|&v| [v, 2.0 * v]).collect();
            plan.forward_bitrev(&mut re, &mut im);
            plan.inverse_bitrev(&mut re, &mut im);
            for t in 0..n {
                let want = [xr[t], -xr[t], xi[t], 2.0 * xi[t]];
                let got = [re[t][0], re[t][1], im[t][0], im[t][1]].map(|v| v / n as f64);
                for (g, w) in got.iter().zip(want) {
                    assert!((g - w).abs() < 1e-14, "n = {n}, t = {t}");
                }
            }
        }
    }

    #[test]
    fn fft_panel_cyclic_convolution_by_spectral_product() {
        // forward_bitrev · pointwise · inverse_bitrev is the cyclic
        // convolution, with no permutation pass in between.
        let n = 16;
        let plan = FftPlan::new(n);
        let x: Vec<f64> = (0..n).map(|t| (t as f64 * 0.7).sin()).collect();
        let k: Vec<f64> = (0..n).map(|t| 0.8f64.powi(t as i32)).collect();
        let (mut xr, mut xi): (Vec<[f64; 1]>, Vec<[f64; 1]>) =
            (x.iter().map(|&v| [v]).collect(), vec![[0.0]; n]);
        let (mut kr, mut ki): (Vec<[f64; 1]>, Vec<[f64; 1]>) =
            (k.iter().map(|&v| [v]).collect(), vec![[0.0]; n]);
        plan.forward_bitrev(&mut xr, &mut xi);
        plan.forward_bitrev(&mut kr, &mut ki);
        for t in 0..n {
            let (a, b, c, d) = (xr[t][0], xi[t][0], kr[t][0], ki[t][0]);
            xr[t][0] = a * c - b * d;
            xi[t][0] = a * d + b * c;
        }
        plan.inverse_bitrev(&mut xr, &mut xi);
        for u in 0..n {
            let want: f64 = (0..n).map(|t| x[t] * k[(u + n - t) % n]).sum();
            assert!((xr[u][0] / n as f64 - want).abs() < 1e-13, "u = {u}");
            assert!(xi[u][0].abs() < 1e-13);
        }
    }

    #[test]
    fn fft_bit_reverse_is_an_involution() {
        let mut v: Vec<usize> = (0..16).collect();
        bit_reverse(&mut v);
        assert_eq!(v[..4], [0, 8, 4, 12]);
        bit_reverse(&mut v);
        assert_eq!(v, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn fft_plan_rejects_other_lengths() {
        FftPlan::new(12);
    }
}
