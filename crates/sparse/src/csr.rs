//! Compressed sparse row format: products, combinations, transpose.
//!
//! CSR is the workhorse for the simulation loop — `E·v` accumulations in
//! the OPM column recurrence and the right-hand sides of every baseline
//! integrator are CSR mat-vecs.

use crate::csc::CscMatrix;
use opm_linalg::{DMatrix, DVector};

/// An immutable sparse matrix in compressed sparse row layout.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    /// Panics when the arrays are inconsistent (wrong `indptr` length,
    /// non-monotone `indptr`, column index out of range, or unsorted
    /// columns within a row).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1, "indptr length must be nrows+1");
        assert_eq!(indices.len(), data.len(), "indices/data length mismatch");
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr tail wrong");
        for r in 0..nrows {
            assert!(indptr[r] <= indptr[r + 1], "indptr must be monotone");
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "columns within a row must be sorted/unique");
            }
            if let Some(&last) = row.last() {
                assert!(last < ncols, "column index out of range");
            }
        }
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            data,
        }
    }

    /// Builds an `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            data: vec![1.0; n],
        }
    }

    /// Builds from a dense matrix, dropping explicit zeros.
    pub fn from_dense(a: &DMatrix) -> Self {
        let mut indptr = Vec::with_capacity(a.nrows() + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                let v = a.get(i, j);
                if v != 0.0 {
                    indices.push(j);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: a.nrows(),
            ncols: a.ncols(),
            indptr,
            indices,
            data,
        }
    }

    /// Row count.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Column count.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Iterates over `(col, value)` pairs of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .zip(&self.data[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Reads entry `(i, j)` (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        match self.indices[lo..hi].binary_search(&j) {
            Ok(pos) => self.data[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a preallocated buffer (`y` overwritten).
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "mul_vec: x length mismatch");
        assert_eq!(y.len(), self.nrows, "mul_vec: y length mismatch");
        for i in 0..self.nrows {
            let mut s = 0.0;
            for k in self.indptr[i]..self.indptr[i + 1] {
                s += self.data[k] * x[self.indices[k]];
            }
            y[i] = s;
        }
    }

    /// Accumulating product `y += k·A·x`.
    pub fn mul_vec_acc(&self, k: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for i in 0..self.nrows {
            let mut s = 0.0;
            for p in self.indptr[i]..self.indptr[i + 1] {
                s += self.data[p] * x[self.indices[p]];
            }
            y[i] += k * s;
        }
    }

    /// Matrix–block product `Y = A·X` for `lanes` vectors at once.
    ///
    /// `x` and `y` are row-major `ncols × lanes` / `nrows × lanes` blocks
    /// (the lane values of row `i` at `i*lanes..(i+1)*lanes`); one pass
    /// over the sparse structure serves every lane (`y` overwritten).
    ///
    /// Lanes are processed in fixed-width register panels
    /// ([`opm_linalg::panel::LANE_PANEL_WIDTH`]); per lane the
    /// accumulation order is exactly [`CsrMatrix::mul_block_into_scalar`]'s
    /// (CSR entry order), so results are bit-identical.
    ///
    /// # Panics
    /// Panics when `lanes == 0` or on dimension mismatch.
    pub fn mul_block_into(&self, x: &[f64], y: &mut [f64], lanes: usize) {
        assert!(lanes > 0, "mul_block: zero lanes");
        assert_eq!(x.len(), self.ncols * lanes, "mul_block: x size mismatch");
        assert_eq!(y.len(), self.nrows * lanes, "mul_block: y size mismatch");
        #[cfg(target_arch = "x86_64")]
        if opm_linalg::panel::avx_available() {
            // SAFETY: the `avx` target feature was detected on this CPU.
            unsafe { self.mul_block_panels_avx(x, y, lanes) };
            return;
        }
        self.mul_block_panels_body(x, y, lanes);
    }

    /// The AVX codegen copy of the panel driver (`avx` only — no `fma`,
    /// so the per-lane arithmetic stays bit-identical to the portable
    /// copy and the scalar reference).
    ///
    /// # Safety
    /// The caller must have verified that the running CPU supports the
    /// `avx` target feature (this crate gates every call behind
    /// [`opm_linalg::panel::avx_available`]). The body is ordinary safe
    /// Rust — the only obligation is the feature check.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn mul_block_panels_avx(&self, x: &[f64], y: &mut [f64], lanes: usize) {
        self.mul_block_panels_body(x, y, lanes);
    }

    /// The panel sweep (main width plus `4 → 2 → 1` remainder);
    /// `#[inline(always)]` so each dispatch copy compiles it with its own
    /// target features.
    #[inline(always)]
    fn mul_block_panels_body(&self, x: &[f64], y: &mut [f64], lanes: usize) {
        const W: usize = opm_linalg::panel::LANE_PANEL_WIDTH;
        let mut p0 = 0;
        while p0 + 2 * W <= lanes {
            self.mul_panel::<{ 2 * W }>(x, y, lanes, p0);
            p0 += 2 * W;
        }
        if p0 + W <= lanes {
            self.mul_panel::<W>(x, y, lanes, p0);
            p0 += W;
        }
        if p0 + 4 <= lanes {
            self.mul_panel::<4>(x, y, lanes, p0);
            p0 += 4;
        }
        if p0 + 2 <= lanes {
            self.mul_panel::<2>(x, y, lanes, p0);
            p0 += 2;
        }
        if p0 < lanes {
            self.mul_panel::<1>(x, y, lanes, p0);
        }
    }

    /// The scalar reference implementation of
    /// [`mul_block_into`](Self::mul_block_into): one structure pass with
    /// a full-width lane loop per entry. The panel path is validated
    /// against this bit-for-bit by the `kernel/*` bench records and the
    /// ragged-lane proptests.
    ///
    /// # Panics
    /// As [`mul_block_into`](Self::mul_block_into).
    pub fn mul_block_into_scalar(&self, x: &[f64], y: &mut [f64], lanes: usize) {
        assert!(lanes > 0, "mul_block: zero lanes");
        assert_eq!(x.len(), self.ncols * lanes, "mul_block: x size mismatch");
        assert_eq!(y.len(), self.nrows * lanes, "mul_block: y size mismatch");
        for i in 0..self.nrows {
            let row = &mut y[i * lanes..(i + 1) * lanes];
            row.iter_mut().for_each(|v| *v = 0.0);
            for k in self.indptr[i]..self.indptr[i + 1] {
                let a = self.data[k];
                let src = self.indices[k] * lanes;
                for (yi, xi) in row.iter_mut().zip(&x[src..src + lanes]) {
                    *yi += a * xi;
                }
            }
        }
    }

    /// Lanes `p0 .. p0 + W` of the block product, accumulated in a
    /// `[f64; W]` register panel per output row (single store per row,
    /// no read-modify-write of `y` per entry).
    #[inline(always)]
    fn mul_panel<const W: usize>(&self, x: &[f64], y: &mut [f64], lanes: usize, p0: usize) {
        for i in 0..self.nrows {
            let mut acc = [0.0; W];
            for k in self.indptr[i]..self.indptr[i + 1] {
                let a = self.data[k];
                let src = self.indices[k] * lanes + p0;
                let xs: &[f64; W] = x[src..src + W].try_into().unwrap();
                for w in 0..W {
                    acc[w] += a * xs[w];
                }
            }
            let dst = i * lanes + p0;
            y[dst..dst + W].copy_from_slice(&acc);
        }
    }

    /// Matrix–vector product with [`DVector`].
    pub fn mul_dvec(&self, x: &DVector) -> DVector {
        DVector::from(self.mul_vec(x.as_slice()))
    }

    /// Returns `k·self` with the same pattern.
    pub fn scale(&self, k: f64) -> CsrMatrix {
        let mut out = self.clone();
        out.data.iter_mut().for_each(|v| *v *= k);
        out
    }

    /// Linear combination `α·self + β·other` with pattern union.
    ///
    /// This is the kernel that forms the OPM system matrix
    /// `d_jj·E − A` and every implicit-integrator matrix `E/h − θ·A`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn lin_comb(&self, alpha: f64, beta: f64, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "lin_comb: dimension mismatch"
        );
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        let mut data = Vec::with_capacity(self.nnz() + other.nnz());
        indptr.push(0);
        for i in 0..self.nrows {
            let (mut p, pe) = (self.indptr[i], self.indptr[i + 1]);
            let (mut q, qe) = (other.indptr[i], other.indptr[i + 1]);
            while p < pe || q < qe {
                let cp = if p < pe { self.indices[p] } else { usize::MAX };
                let cq = if q < qe { other.indices[q] } else { usize::MAX };
                if cp < cq {
                    indices.push(cp);
                    data.push(alpha * self.data[p]);
                    p += 1;
                } else if cq < cp {
                    indices.push(cq);
                    data.push(beta * other.data[q]);
                    q += 1;
                } else {
                    indices.push(cp);
                    data.push(alpha * self.data[p] + beta * other.data[q]);
                    p += 1;
                    q += 1;
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            data,
        }
    }

    /// Transpose (also the CSR↔CSC conversion kernel).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.indices {
            counts[c] += 1;
        }
        let mut indptr = vec![0usize; self.ncols + 1];
        for j in 0..self.ncols {
            indptr[j + 1] = indptr[j] + counts[j];
        }
        let mut next = indptr.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![0.0; self.nnz()];
        for i in 0..self.nrows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[k];
                let dst = next[j];
                indices[dst] = i;
                data[dst] = self.data[k];
                next[j] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            data,
        }
    }

    /// Converts to CSC (same matrix, column-compressed layout).
    pub fn to_csc(&self) -> CscMatrix {
        let t = self.transpose();
        CscMatrix::from_raw(self.nrows, self.ncols, t.indptr, t.indices, t.data)
    }

    /// Densifies (test/diagnostic helper; avoid on large systems).
    pub fn to_dense(&self) -> DMatrix {
        let mut a = DMatrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for (j, v) in self.row(i) {
                a.set(i, j, v);
            }
        }
        a
    }

    /// The diagonal as a vector (missing entries are 0).
    pub fn diag(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Drops entries with `|v| <= tol`, returning a pruned matrix.
    pub fn prune(&self, tol: f64) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..self.nrows {
            for (j, v) in self.row(i) {
                if v.abs() > tol {
                    indices.push(j);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            data,
        }
    }

    /// Infinity norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.nrows)
            .map(|i| self.row(i).map(|(_, v)| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Symmetric pattern check: `true` when `A` and `Aᵀ` share their
    /// nonzero pattern and values within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.indices != self.indices {
            // Patterns differ structurally; fall back to value comparison.
            return self.lin_comb(1.0, -1.0, &t).norm_inf() <= tol;
        }
        self.data
            .iter()
            .zip(&t.data)
            .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut c = CooMatrix::new(3, 3);
        for &(i, j, v) in &[
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ] {
            c.push(i, j, v);
        }
        c.to_csr()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let y = a.mul_vec(&x);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
        let d = a.to_dense();
        let yd = d.mul_vec(&DVector::from_slice(&x));
        assert_eq!(y, yd.into_vec());
    }

    #[test]
    fn mul_block_matches_per_lane_spmv() {
        let a = sample();
        let lanes = 3;
        // Lane l carries x_l = [1+l, 2, 3−l].
        let mut x_block = vec![0.0; 3 * lanes];
        for l in 0..lanes {
            let x = [1.0 + l as f64, 2.0, 3.0 - l as f64];
            for i in 0..3 {
                x_block[i * lanes + l] = x[i];
            }
        }
        let mut y_block = vec![f64::NAN; 3 * lanes]; // must be overwritten
        a.mul_block_into(&x_block, &mut y_block, lanes);
        for l in 0..lanes {
            let x = [1.0 + l as f64, 2.0, 3.0 - l as f64];
            let y = a.mul_vec(&x);
            for i in 0..3 {
                assert_eq!(y_block[i * lanes + l], y[i], "lane {l}, row {i}");
            }
        }
    }

    #[test]
    fn mul_vec_acc_accumulates() {
        let a = sample();
        let x = [1.0, 1.0, 1.0];
        let mut y = vec![1.0, 1.0, 1.0];
        a.mul_vec_acc(2.0, &x, &mut y);
        assert_eq!(y, vec![7.0, 7.0, 19.0]);
    }

    #[test]
    fn transpose_involution_and_correctness() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(t.get(0, 2), 4.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn lin_comb_pattern_union() {
        let a = sample();
        let i = CsrMatrix::identity(3);
        // 2A − 3I
        let c = a.lin_comb(2.0, -3.0, &i);
        assert_eq!(c.get(0, 0), -1.0);
        assert_eq!(c.get(1, 1), 3.0);
        assert_eq!(c.get(0, 2), 4.0);
        // Identity entry absent from A still appears.
        let c2 = CsrMatrix::identity(3).lin_comb(1.0, 1.0, &sample());
        assert_eq!(c2.get(1, 1), 4.0);
    }

    #[test]
    fn prune_drops_small_entries() {
        let a = sample().lin_comb(1.0, -1.0, &sample());
        // All-zero after cancellation; entries remain structurally.
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.prune(0.0).nnz(), 0);
    }

    #[test]
    fn norms_and_diag() {
        let a = sample();
        assert_eq!(a.norm_inf(), 9.0);
        assert_eq!(a.diag(), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn symmetry_detection() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 1, 2.0);
        c.push(1, 0, 2.0);
        c.push(0, 0, 1.0);
        assert!(c.to_csr().is_symmetric(0.0));
        let mut d = CooMatrix::new(2, 2);
        d.push(0, 1, 2.0);
        assert!(!d.to_csr().is_symmetric(1e-15));
    }

    #[test]
    fn from_dense_roundtrip() {
        let d = DMatrix::from_rows(&[&[0.0, 1.5], &[-2.0, 0.0]]);
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn from_raw_rejects_unsorted() {
        let _ = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[test]
    fn identity_spmv_is_copy() {
        let i = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.mul_vec(&x), x.to_vec());
    }
}
