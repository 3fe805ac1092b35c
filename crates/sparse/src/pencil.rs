//! Pencil assembly: the CSC union pattern of a weighted pencil family
//! built **once**.
//!
//! Every OPM pencil is a weighted sum `Σ_k w_k·A_k` of fixed matrices:
//! the shifts `σ·E − A` of linear sweeps, step grids and the adaptive
//! step lattice are the two-term case with weights `(σ, −1)`, and a
//! multi-term window pencil weights each term by its leading symbol
//! coefficient. A strategy that factors many pencils factors one
//! *pattern* `∪_k pattern(A_k)` with different values. Rebuilding the
//! CSC (linear combinations plus a transpose-shaped conversion) per
//! weight vector is pure waste: this module assembles the union pattern
//! once, stores every term's values aligned to it, and rewrites only the
//! value array per weight vector. Combined with
//! [`crate::lu::SymbolicLu`] the whole symbolic side of a factorization
//! (pattern, ordering, elimination reach) is paid once per pencil
//! *family* instead of once per pencil.

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;

/// A weighted pencil family `Σ_k w_k·A_k` over all weight vectors `w`:
/// one CSC union pattern plus every term's values aligned to it. The
/// two-term family `σ·E − A` ([`ShiftedPencil::new`]) has its own
/// shift-valued entry points.
///
/// ```
/// use opm_sparse::{CooMatrix, pencil::ShiftedPencil, lu::SparseLu};
/// let mut e = CooMatrix::new(2, 2);
/// e.push(0, 0, 1.0);
/// e.push(1, 1, 2.0);
/// let mut a = CooMatrix::new(2, 2);
/// a.push(0, 1, -1.0);
/// a.push(1, 0, 1.0);
/// let mut pencil = ShiftedPencil::new(&e.to_csr(), &a.to_csr());
/// // σ = 3: factor (3E − A) = [[3, 1], [−1, 6]] without rebuilding
/// // the pattern; (3E − A)·[1, 1]ᵀ = [4, 5]ᵀ.
/// let lu = SparseLu::factor(pencil.shifted(3.0), None).unwrap();
/// let x = lu.solve(&[4.0, 5.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct ShiftedPencil {
    /// Union pattern; its value array is scratch for the last weights.
    csc: CscMatrix,
    /// Each term's values on the union pattern (0 where the term has no
    /// entry).
    terms: Vec<Vec<f64>>,
}

impl ShiftedPencil {
    /// The two-term family `σ·E − A`: terms `(E, A)`, weights `(σ, −1)`.
    ///
    /// # Panics
    /// Panics when `e` and `a` have different dimensions.
    pub fn new(e: &CsrMatrix, a: &CsrMatrix) -> Self {
        Self::of_terms(&[e, a])
    }

    /// Assembles the union pattern of `terms` in CSC layout and aligns
    /// every term's values to it.
    ///
    /// # Panics
    /// Panics when `terms` is empty or the terms differ in dimensions.
    pub fn of_terms(terms: &[&CsrMatrix]) -> Self {
        let (first, rest) = terms.split_first().expect("a pencil needs a term");
        // Term k's values on the union pattern: the combination with
        // unit weight on term k and zero weight elsewhere. `lin_comb`
        // keeps zero-weighted entries, so every selection has the
        // *identical* union pattern and the CSC conversions leave the
        // value arrays position-aligned.
        let mut selections = (0..terms.len()).map(|k| {
            let unit = |j: usize| if j == k { 1.0 } else { 0.0 };
            rest.iter()
                .zip(1..)
                .fold(first.scale(unit(0)), |acc, (t, j)| {
                    acc.lin_comb(1.0, unit(j), t)
                })
                .to_csc()
        });
        let csc = selections.next().expect("a pencil needs a term");
        let terms = std::iter::once(csc.values().to_vec())
            .chain(selections.map(|s| s.values().to_vec()))
            .collect();
        ShiftedPencil { csc, terms }
    }

    /// Matrix dimension (the pencil is square iff its terms are).
    pub fn nrows(&self) -> usize {
        self.csc.nrows()
    }

    /// Stored entries of the union pattern.
    pub fn nnz(&self) -> usize {
        self.csc.values().len()
    }

    /// The union pattern (the value payload is whatever weights were
    /// last written via [`ShiftedPencil::combined`]; use it for
    /// pattern-only work such as fill-reducing orderings).
    pub fn pattern(&self) -> &CscMatrix {
        &self.csc
    }

    /// Writes the values of `Σ_k w_k·A_k` (pattern order) into `out` —
    /// the borrowed form parallel refactorization uses, one scratch
    /// buffer per worker against one shared pattern. The sum runs left
    /// to right from `w_0·A_0`, so the two-term `(σ, −1)` values are
    /// bit for bit `σ·e − a`.
    ///
    /// # Panics
    /// Panics unless there is one weight per term.
    pub fn combined_values(&self, weights: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.nnz(), 0.0);
        combine_into(&self.terms, weights, out);
    }

    /// Sets the internal value array to `Σ_k w_k·A_k` and returns the
    /// CSC — ready to factor, with no pattern rebuild.
    ///
    /// # Panics
    /// As [`ShiftedPencil::combined_values`].
    pub fn combined(&mut self, weights: &[f64]) -> &CscMatrix {
        combine_into(&self.terms, weights, self.csc.values_mut());
        &self.csc
    }

    /// Writes the values of `σ·E − A` into `out` (two-term pencils).
    pub fn shift_values(&self, sigma: f64, out: &mut Vec<f64>) {
        self.combined_values(&[sigma, -1.0], out);
    }

    /// Sets the internal value array to `σ·E − A` and returns the CSC
    /// (two-term pencils).
    pub fn shifted(&mut self, sigma: f64) -> &CscMatrix {
        self.combined(&[sigma, -1.0])
    }
}

/// `out = Σ_k w_k·terms[k]`, accumulated left to right.
fn combine_into(terms: &[Vec<f64>], weights: &[f64], out: &mut [f64]) {
    assert_eq!(weights.len(), terms.len(), "one weight per pencil term");
    for (o, &v) in out.iter_mut().zip(&terms[0]) {
        *o = weights[0] * v;
    }
    for (vals, &w) in terms.iter().zip(weights).skip(1) {
        for (o, &v) in out.iter_mut().zip(vals) {
            *o += w * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> (CsrMatrix, CsrMatrix) {
        let mut e = CooMatrix::new(3, 3);
        e.push(0, 0, 2.0);
        e.push(1, 1, 1.0);
        e.push(2, 2, 3.0);
        let mut a = CooMatrix::new(3, 3);
        a.push(0, 0, -1.0);
        a.push(0, 2, 0.5);
        a.push(2, 0, 1.5);
        (e.to_csr(), a.to_csr())
    }

    #[test]
    fn shifted_matches_lin_comb_for_every_shift() {
        let (e, a) = sample();
        let mut pencil = ShiftedPencil::new(&e, &a);
        for &sigma in &[0.0, 1.0, -2.5, 1e6] {
            let want = e.lin_comb(sigma, -1.0, &a);
            let got = pencil.shifted(sigma);
            for i in 0..3 {
                for j in 0..3 {
                    assert_eq!(got.get(i, j), want.get(i, j), "σ={sigma} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn shift_values_agree_with_in_place() {
        let (e, a) = sample();
        let mut pencil = ShiftedPencil::new(&e, &a);
        let mut vals = Vec::new();
        pencil.shift_values(7.25, &mut vals);
        let in_place = pencil.shifted(7.25);
        assert_eq!(vals, in_place.values());
    }

    #[test]
    fn three_terms_combine_on_their_union() {
        let (e, a) = sample();
        let mut c = CooMatrix::new(3, 3);
        c.push(1, 2, 4.0);
        c.push(0, 0, 1.0);
        let c = c.to_csr();
        let mut pencil = ShiftedPencil::of_terms(&[&e, &a, &c]);
        // E ∪ A has 5 entries; C adds (1,2).
        assert_eq!(pencil.nnz(), 6);
        let w = [0.5, -2.0, 3.0];
        let want = e.lin_comb(w[0], w[1], &a).lin_comb(1.0, w[2], &c);
        let got = pencil.combined(&w);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(got.get(i, j), want.get(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn pattern_is_the_union() {
        let (e, a) = sample();
        let pencil = ShiftedPencil::new(&e, &a);
        // E has 3 diagonal entries, A adds (0,2) and (2,0); (0,0) overlaps.
        assert_eq!(pencil.nnz(), 5);
    }
}
