//! Error metrics used by the experiment harness, plus the factorization
//! cost profile the session layer reports.

/// Factorization-cost observability for a plan, cache or pencil family:
/// how much symbolic (full pivoted analysis) versus numeric-only
/// (refactorization against a shared [`opm_sparse::SymbolicLu`]) work
/// was performed, and how the adaptive step-lattice cache behaved.
///
/// `num_symbolic + num_numeric` is the total number of factorizations —
/// the quantity the paper's `O(n^β)` term counts; the split shows how
/// much of it the symbolic/numeric reuse converted into the cheaper
/// numeric-only form.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FactorProfile {
    /// Full symbolic analyses (pattern DFS + pivot search + numeric).
    pub num_symbolic: usize,
    /// Numeric-only refactorizations (fixed pivots and fill, no DFS).
    pub num_numeric: usize,
    /// Step-lattice cache lookups served from memory (adaptive plans).
    pub cache_hits: usize,
    /// Step-lattice cache lookups that had to factor (adaptive plans).
    pub cache_misses: usize,
    /// Windows swept by the session layer's windowed, streaming and
    /// Newton solves (`solve`/`solve_batch` book none; a nonlinear plan
    /// books each lane's). Each window
    /// reuses the same window pencil factorization, so this counter
    /// growing while `num_symbolic + num_numeric` stays flat *is* the
    /// long-horizon reuse invariant.
    pub num_windows: usize,
    /// Pivotal columns of the reference factorization, its dimension.
    /// With [`FactorProfile::factor_nnz`] it is the cost counter of the
    /// column solves. Reported by pencil-family-backed plans
    /// (linear/fractional/adaptive); 0 where no factor was captured.
    pub factor_cols: usize,
    /// Stored entries of the reference factorization, nnz(L+U) with the
    /// diagonal — the fill the ordering left, which sets the cost of
    /// every column solve (0 when not captured). Deterministic, so a
    /// fill regression shows up without timing noise.
    pub factor_nnz: usize,
    /// Heap bytes of the factors a plan holds: its built window kernels
    /// (uniform plans), its per-column factors (step-grid plans) or its
    /// step-lattice factors (adaptive plans). Only values and pivots
    /// count: every factor replayed on an analysis shares that
    /// analysis's pattern, which is not counted. 0 for a pencil family,
    /// which keeps no factor.
    pub kernel_bytes: usize,
    /// Newton iterations of a nonlinear plan's column solves (on a linear
    /// netlist, `solve_newton_windowed` books one per column — the
    /// single iteration a linear column takes by construction).
    pub newton_iters: usize,
    /// Numeric-only refactorizations performed *inside* Newton
    /// iterations (each also counts in [`FactorProfile::num_numeric`]).
    /// Per-iteration cost staying numeric-refactor-only means
    /// `num_symbolic` stays at 1 while this grows.
    pub newton_refactors: usize,
    /// Newton refactorizations that degraded past the pivot threshold
    /// and fell back to a fresh pivoted factorization (each also counts
    /// in [`FactorProfile::num_symbolic`]). 0 on well-scaled circuits.
    pub newton_fresh_fallbacks: usize,
}

impl FactorProfile {
    /// Total factorizations performed (symbolic + numeric).
    pub fn num_factorizations(&self) -> usize {
        self.num_symbolic + self.num_numeric
    }

    /// The JSON shape shared by `opm-serve`'s `/metrics` endpoint and
    /// the bench bins' `BENCH_*.json` artifacts.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let int = |v: usize| Json::Int(v as i64);
        Json::Obj(vec![
            ("num_symbolic".into(), int(self.num_symbolic)),
            ("num_numeric".into(), int(self.num_numeric)),
            ("cache_hits".into(), int(self.cache_hits)),
            ("cache_misses".into(), int(self.cache_misses)),
            ("num_windows".into(), int(self.num_windows)),
            ("factor_cols".into(), int(self.factor_cols)),
            ("factor_nnz".into(), int(self.factor_nnz)),
            ("kernel_bytes".into(), int(self.kernel_bytes)),
            ("newton_iters".into(), int(self.newton_iters)),
            ("newton_refactors".into(), int(self.newton_refactors)),
            (
                "newton_fresh_fallbacks".into(),
                int(self.newton_fresh_fallbacks),
            ),
        ])
    }
}

/// The paper's Eq. (30) relative error in dB:
/// `err = 20·log₁₀(‖y_test − y_ref‖₂ / ‖y_ref‖₂)`.
///
/// Note the paper normalizes by the *OPM* waveform and measures the FFT
/// baselines against it; pass OPM as `reference` to reproduce Table I.
///
/// # Panics
/// Panics on length mismatch or an all-zero reference.
pub fn relative_error_db(test: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(test.len(), reference.len(), "series length mismatch");
    let diff: f64 = test
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let norm: f64 = reference.iter().map(|b| b * b).sum();
    assert!(norm > 0.0, "reference norm is zero");
    20.0 * (diff.sqrt() / norm.sqrt()).log10()
}

/// Stacked multi-channel version of [`relative_error_db`] (concatenates
/// all channels into one vector, as the paper's `‖y‖₂` over `y ∈ R²`).
pub fn relative_error_db_multi(test: &[Vec<f64>], reference: &[Vec<f64>]) -> f64 {
    assert_eq!(test.len(), reference.len(), "channel count mismatch");
    let mut diff = 0.0;
    let mut norm = 0.0;
    for (t, r) in test.iter().zip(reference) {
        assert_eq!(t.len(), r.len(), "series length mismatch");
        for (a, b) in t.iter().zip(r) {
            diff += (a - b) * (a - b);
            norm += b * b;
        }
    }
    assert!(norm > 0.0, "reference norm is zero");
    20.0 * (diff.sqrt() / norm.sqrt()).log10()
}

/// Maximum absolute deviation.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Root-mean-square deviation.
pub fn rms_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series length mismatch");
    let s: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (s / a.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_scale_sanity() {
        let reference = vec![1.0, 0.0, 0.0];
        // 10% error ⇒ −20 dB.
        let test = vec![1.1, 0.0, 0.0];
        assert!((relative_error_db(&test, &reference) + 20.0).abs() < 1e-12);
        // 1% ⇒ −40 dB.
        let test = vec![1.01, 0.0, 0.0];
        assert!((relative_error_db(&test, &reference) + 40.0).abs() < 1e-10);
    }

    #[test]
    fn multi_channel_stacks() {
        let r = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let t = vec![vec![1.0, 0.1], vec![0.0, 1.0]];
        // ‖diff‖ = 0.1, ‖ref‖ = √2 ⇒ 20·log10(0.1/√2).
        let want = 20.0 * (0.1f64 / 2.0f64.sqrt()).log10();
        assert!((relative_error_db_multi(&t, &r) - want).abs() < 1e-12);
    }

    #[test]
    fn simple_diffs() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[0.5, 2.5]), 0.5);
        assert!((rms_diff(&[1.0, 1.0], &[0.0, 0.0]) - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        relative_error_db(&[1.0], &[1.0, 2.0]);
    }
}
