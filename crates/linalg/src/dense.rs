//! Row-major dense real matrices and vectors.
//!
//! These types back the small dense systems of the reproduction: the 7-state
//! fractional transmission line of Table I, operational matrices up to a few
//! thousand intervals, Kronecker-product oracle solves, and reference
//! solutions. Large circuit matrices use `opm-sparse` instead.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::lu::LuFactors;

/// A dense column vector of `f64`.
///
/// ```
/// use opm_linalg::DVector;
/// let v = DVector::from_slice(&[3.0, 4.0]);
/// assert_eq!(v.norm2(), 5.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DVector {
    data: Vec<f64>,
}

impl DVector {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        DVector { data: vec![0.0; n] }
    }

    /// Creates a vector by copying a slice.
    pub fn from_slice(s: &[f64]) -> Self {
        DVector { data: s.to_vec() }
    }

    /// Creates a vector from a closure over indices.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> f64) -> Self {
        DVector {
            data: (0..n).map(f).collect(),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the vector has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector, yielding its storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Euclidean norm.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (`∞`-norm); 0 for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Dot product.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn dot(&self, other: &DVector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &DVector) -> DVector {
        assert_eq!(self.len(), other.len(), "add: length mismatch");
        DVector::from_fn(self.len(), |i| self.data[i] + other.data[i])
    }

    /// Returns `self − other`.
    pub fn sub(&self, other: &DVector) -> DVector {
        assert_eq!(self.len(), other.len(), "sub: length mismatch");
        DVector::from_fn(self.len(), |i| self.data[i] - other.data[i])
    }

    /// Returns `k·self`.
    pub fn scale(&self, k: f64) -> DVector {
        DVector::from_fn(self.len(), |i| k * self.data[i])
    }

    /// In-place `self += k·other` (axpy).
    pub fn axpy(&mut self, k: f64, other: &DVector) {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Iterates over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }
}

impl Index<usize> for DVector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for DVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl From<Vec<f64>> for DVector {
    fn from(data: Vec<f64>) -> Self {
        DVector { data }
    }
}

impl FromIterator<f64> for DVector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        DVector {
            data: iter.into_iter().collect(),
        }
    }
}

/// A dense row-major matrix of `f64`.
///
/// ```
/// use opm_linalg::DMatrix;
/// let a = DMatrix::identity(3).scale(2.0);
/// assert_eq!(a.get(1, 1), 2.0);
/// assert_eq!(a.mul_mat(&a).get(2, 2), 4.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates an `nrows × ncols` zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a closure over `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        DMatrix { nrows, ncols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        DMatrix { nrows, ncols, data }
    }

    /// Creates a diagonal matrix from the given entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = DMatrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Row count.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Column count.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Reads entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j]
    }

    /// Writes entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j] = v;
    }

    /// Adds `v` to entry `(i, j)`.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j] += v;
    }

    /// Borrows row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrows row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> DVector {
        DVector::from_fn(self.nrows, |i| self.get(i, j))
    }

    /// Overwrites column `j` from a vector.
    pub fn set_col(&mut self, j: usize, v: &DVector) {
        assert_eq!(v.len(), self.nrows, "set_col: length mismatch");
        for i in 0..self.nrows {
            self.set(i, j, v[i]);
        }
    }

    /// Borrows the raw row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DMatrix {
        DMatrix::from_fn(self.ncols, self.nrows, |i, j| self.get(j, i))
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &DMatrix) -> DMatrix {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        DMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Returns `self − other`.
    pub fn sub(&self, other: &DMatrix) -> DMatrix {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        DMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Returns `k·self`.
    pub fn scale(&self, k: f64) -> DMatrix {
        DMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|a| k * a).collect(),
        }
    }

    /// Matrix–vector product `self · v`.
    pub fn mul_vec(&self, v: &DVector) -> DVector {
        assert_eq!(self.ncols, v.len(), "mul_vec: dimension mismatch");
        let mut out = DVector::zeros(self.nrows);
        for i in 0..self.nrows {
            let row = self.row(i);
            let mut s = 0.0;
            for (a, b) in row.iter().zip(v.as_slice()) {
                s += a * b;
            }
            out[i] = s;
        }
        out
    }

    /// Vector–matrix product `vᵀ · self`, returned as a vector.
    pub fn mul_vec_left(&self, v: &DVector) -> DVector {
        assert_eq!(self.nrows, v.len(), "mul_vec_left: dimension mismatch");
        let mut out = DVector::zeros(self.ncols);
        for i in 0..self.nrows {
            let vi = v[i];
            if vi == 0.0 {
                continue;
            }
            for (j, a) in self.row(i).iter().enumerate() {
                out[j] += vi * a;
            }
        }
        out
    }

    /// Matrix–matrix product `self · other` (ikj loop order for locality).
    pub fn mul_mat(&self, other: &DMatrix) -> DMatrix {
        assert_eq!(self.ncols, other.nrows, "mul_mat: dimension mismatch");
        let mut out = DMatrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let row = out.row_mut(i);
                for (j, &okj) in orow.iter().enumerate() {
                    row[j] += aik * okj;
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Induced 1-norm (max absolute column sum).
    pub fn norm1(&self) -> f64 {
        let mut best = 0.0f64;
        for j in 0..self.ncols {
            let s: f64 = (0..self.nrows).map(|i| self.get(i, j).abs()).sum();
            best = best.max(s);
        }
        best
    }

    /// Induced ∞-norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.nrows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// LU-factorizes the matrix with partial pivoting.
    ///
    /// # Errors
    /// Returns `None` when the matrix is singular to working precision.
    ///
    /// # Panics
    /// Panics when the matrix is not square.
    pub fn factor_lu(&self) -> Option<LuFactors> {
        LuFactors::new(self)
    }

    /// Solves `self · x = b` through a fresh LU factorization.
    ///
    /// Convenience for one-shot solves; reuse [`factor_lu`](Self::factor_lu)
    /// when solving against many right-hand sides.
    pub fn solve(&self, b: &DVector) -> Option<DVector> {
        Some(self.factor_lu()?.solve(b))
    }

    /// True when the matrix is upper triangular within `tol`.
    pub fn is_upper_triangular(&self, tol: f64) -> bool {
        for i in 0..self.nrows {
            for j in 0..i.min(self.ncols) {
                if self.get(i, j).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Multiplies two upper-triangular matrices in `O(n³/6)` flops,
    /// preserving exact upper-triangularity of the result.
    pub fn mul_upper_triangular(&self, other: &DMatrix) -> DMatrix {
        assert!(self.is_square() && other.is_square() && self.nrows == other.nrows);
        let n = self.nrows;
        let mut out = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let mut s = 0.0;
                for k in i..=j {
                    s += self.get(i, k) * other.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }
}

impl fmt::Display for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                write!(f, "{:>12.5e} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_arithmetic() {
        let a = DVector::from_slice(&[1.0, 2.0, 3.0]);
        let b = DVector::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.dot(&b), 32.0);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        let mut c = a.clone();
        c.axpy(-1.0, &a);
        assert_eq!(c.norm_inf(), 0.0);
    }

    #[test]
    fn vector_norms() {
        let v = DVector::from_slice(&[-3.0, 4.0]);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(DVector::zeros(0).norm_inf(), 0.0);
    }

    #[test]
    fn matrix_construction_and_indexing() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.col(1).as_slice(), &[2.0, 4.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let d = DMatrix::from_diag(&[5.0, 6.0]);
        assert_eq!(d.get(0, 0), 5.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul_mat(&b);
        assert_eq!(c, DMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matvec_and_left_matvec_are_transposes() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0, 0.5], &[3.0, 4.0, -1.0]]);
        let v = DVector::from_slice(&[1.0, -2.0]);
        let left = a.mul_vec_left(&v);
        let via_transpose = a.transpose().mul_vec(&v);
        assert_eq!(left, via_transpose);
    }

    #[test]
    fn transpose_involution() {
        let a = DMatrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn norms_consistent() {
        let a = DMatrix::from_rows(&[&[1.0, -2.0], &[0.0, 3.0]]);
        assert_eq!(a.norm1(), 5.0); // col sums: 1, 5
        assert_eq!(a.norm_inf(), 3.0); // row sums: 3, 3
        assert_eq!(a.norm_max(), 3.0);
        assert!((a.norm_fro() - (1.0f64 + 4.0 + 9.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn upper_triangular_product_matches_general() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 4.0, 5.0], &[0.0, 0.0, 6.0]]);
        let b = DMatrix::from_rows(&[&[7.0, 8.0, 9.0], &[0.0, 1.0, 2.0], &[0.0, 0.0, 3.0]]);
        assert_eq!(a.mul_upper_triangular(&b), a.mul_mat(&b));
        assert!(a.is_upper_triangular(0.0));
        assert!(!a.transpose().is_upper_triangular(0.0));
    }

    #[test]
    fn solve_roundtrip() {
        let a = DMatrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let x_true = DVector::from_slice(&[1.0, -1.0]);
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).unwrap();
        assert!(x.sub(&x_true).norm_inf() < 1e-14);
    }

    #[test]
    fn set_col_roundtrip() {
        let mut m = DMatrix::zeros(3, 2);
        let v = DVector::from_slice(&[1.0, 2.0, 3.0]);
        m.set_col(1, &v);
        assert_eq!(m.col(1), v);
        assert_eq!(m.col(0).norm_inf(), 0.0);
    }
}
