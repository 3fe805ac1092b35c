//! Left-looking simplicial sparse Cholesky (`A = L·Lᵀ`).
//!
//! The second-order nodal formulation of the power-grid experiment
//! (Table II) produces SPD matrices `d²·C + d·G + Γ`; Cholesky factors
//! them with half the work and none of the pivoting of LU.

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::perm::Permutation;
use crate::SparseError;

/// Sparse Cholesky factor `P·A·Pᵀ = L·Lᵀ` with `L` lower triangular.
///
/// ```
/// use opm_sparse::{CooMatrix, cholesky::SparseCholesky};
/// let mut c = CooMatrix::new(2, 2);
/// c.push(0, 0, 4.0);
/// c.push(0, 1, 2.0);
/// c.push(1, 0, 2.0);
/// c.push(1, 1, 3.0);
/// let ch = SparseCholesky::factor(&c.to_csc(), None).unwrap();
/// let x = ch.solve(&[8.0, 7.0]);
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct SparseCholesky {
    n: usize,
    /// Columns of `L`, sorted by row, including the diagonal entry first.
    cols: Vec<Vec<(usize, f64)>>,
    perm: Permutation,
}

impl SparseCholesky {
    /// Factors an SPD matrix with an optional symmetric ordering.
    ///
    /// Only the lower triangle of `a` is read; the caller is trusted on
    /// symmetry (checked cheaply in debug builds).
    ///
    /// # Errors
    /// [`SparseError::NotPositiveDefinite`] on a non-positive pivot;
    /// [`SparseError::DimensionMismatch`] when `a` is not square.
    pub fn factor(a: &CscMatrix, order: Option<&Permutation>) -> Result<Self, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::DimensionMismatch {
                expected: (a.nrows(), a.nrows()),
                found: (a.nrows(), a.ncols()),
            });
        }
        let n = a.nrows();
        let perm = order.cloned().unwrap_or_else(|| Permutation::identity(n));
        assert_eq!(perm.len(), n, "ordering length mismatch");

        // Apply the symmetric permutation once: B = P·A·Pᵀ.
        let b = permute_symmetric(a, &perm);

        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        // link[j] = columns whose next unconsumed entry sits at row j.
        let mut link: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut col_pos: Vec<usize> = vec![0; n];

        let mut x = vec![0.0f64; n];
        let mut in_pattern = vec![false; n];
        let mut pattern: Vec<usize> = Vec::with_capacity(n);

        for j in 0..n {
            // Scatter lower part of B[:, j].
            pattern.clear();
            for (i, v) in b.col(j) {
                if i >= j {
                    x[i] = v;
                    if !in_pattern[i] {
                        in_pattern[i] = true;
                        pattern.push(i);
                    }
                }
            }
            // Left-looking updates from all columns k with L[j,k] ≠ 0.
            let updating: Vec<usize> = std::mem::take(&mut link[j]);
            for k in updating {
                let ljk = cols[k][col_pos[k]].1;
                // Subtract ljk · L[j.., k].
                for &(i, lik) in &cols[k][col_pos[k]..] {
                    if !in_pattern[i] {
                        in_pattern[i] = true;
                        pattern.push(i);
                        x[i] = 0.0;
                    }
                    x[i] -= ljk * lik;
                }
                // Advance column k to its next row and re-link.
                col_pos[k] += 1;
                if col_pos[k] < cols[k].len() {
                    let next_row = cols[k][col_pos[k]].0;
                    link[next_row].push(k);
                }
            }
            // Pivot.
            let pivot = x[j];
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(SparseError::NotPositiveDefinite(j));
            }
            let ljj = pivot.sqrt();
            // Emit column j (sorted by row; diagonal first).
            pattern.sort_unstable();
            let mut col = Vec::with_capacity(pattern.len());
            for &i in &pattern {
                let v = x[i];
                in_pattern[i] = false;
                x[i] = 0.0;
                if i == j {
                    col.push((j, ljj));
                } else if v != 0.0 {
                    col.push((i, v / ljj));
                }
            }
            debug_assert_eq!(col[0].0, j, "diagonal must lead the column");
            if col.len() > 1 {
                let next_row = col[1].0;
                link[next_row].push(j);
            }
            col_pos[j] = 1; // position past the diagonal
            cols.push(col);
        }

        Ok(SparseCholesky { n, cols, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entry count of `L`.
    pub fn nnz(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    /// Panics when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "solve: rhs length mismatch");
        // y ← P·b
        let mut y: Vec<f64> = (0..self.n).map(|k| b[self.perm.old_of(k)]).collect();
        // Forward: L·z = y (column sweep).
        for k in 0..self.n {
            let (dk, lkk) = self.cols[k][0];
            debug_assert_eq!(dk, k);
            y[k] /= lkk;
            let yk = y[k];
            for &(i, lv) in &self.cols[k][1..] {
                y[i] -= lv * yk;
            }
        }
        // Backward: Lᵀ·w = z (dot products against columns).
        for k in (0..self.n).rev() {
            let mut s = y[k];
            for &(i, lv) in &self.cols[k][1..] {
                s -= lv * y[i];
            }
            y[k] = s / self.cols[k][0].1;
        }
        // Undo permutation.
        let mut out = vec![0.0; self.n];
        for k in 0..self.n {
            out[self.perm.old_of(k)] = y[k];
        }
        out
    }
}

/// Symmetric permutation `B = P·A·Pᵀ` through a COO rebuild.
fn permute_symmetric(a: &CscMatrix, p: &Permutation) -> CscMatrix {
    let n = a.nrows();
    let inv = p.inverse();
    let mut coo = CooMatrix::with_capacity(n, n, a.nnz());
    for j in 0..n {
        for (i, v) in a.col(j) {
            coo.push(inv.old_of(i), inv.old_of(j), v);
        }
    }
    coo.to_csc()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;
    use crate::ordering::{amd, rcm};

    fn spd_grid(g: usize) -> CsrMatrix {
        let n = g * g;
        let mut c = CooMatrix::new(n, n);
        let idx = |r: usize, s: usize| r * g + s;
        for r in 0..g {
            for s in 0..g {
                c.push(idx(r, s), idx(r, s), 4.5);
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
    fn solves_spd_grid() {
        let a = spd_grid(15);
        let n = a.nrows();
        let xt: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
        let b = a.mul_vec(&xt);
        for order in [None, Some(rcm(&a)), Some(amd(&a))] {
            let ch = SparseCholesky::factor(&a.to_csc(), order.as_ref()).unwrap();
            let x = ch.solve(&b);
            let err = x
                .iter()
                .zip(&xt)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9);
        }
    }

    #[test]
    fn cholesky_matches_lu_solution() {
        let a = spd_grid(8);
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.1).cos()).collect();
        let ch = SparseCholesky::factor(&a.to_csc(), None).unwrap();
        let lu = crate::lu::SparseLu::factor(&a.to_csc(), None).unwrap();
        let xc = ch.solve(&b);
        let xl = lu.solve(&b);
        let diff = xc
            .iter()
            .zip(&xl)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-10);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(1, 1, -1.0);
        let err = SparseCholesky::factor(&c.to_csc(), None).unwrap_err();
        assert_eq!(err, SparseError::NotPositiveDefinite(1));
    }

    #[test]
    fn semidefinite_matrix_rejected() {
        // Laplacian without grounding: singular (row sums zero).
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(0, 1, -1.0);
        c.push(1, 0, -1.0);
        c.push(1, 1, 1.0);
        assert!(SparseCholesky::factor(&c.to_csc(), None).is_err());
    }

    #[test]
    fn ordering_reduces_cholesky_fill() {
        let a = spd_grid(20);
        let nat = SparseCholesky::factor(&a.to_csc(), None).unwrap();
        let md = SparseCholesky::factor(&a.to_csc(), Some(&amd(&a))).unwrap();
        assert!(md.nnz() < nat.nnz(), "{} !< {}", md.nnz(), nat.nnz());
    }

    #[test]
    fn diagonal_matrix_factors() {
        let mut c = CooMatrix::new(3, 3);
        for i in 0..3 {
            c.push(i, i, (i + 1) as f64);
        }
        let ch = SparseCholesky::factor(&c.to_csc(), None).unwrap();
        let x = ch.solve(&[1.0, 2.0, 3.0]);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-14);
        }
        assert_eq!(ch.nnz(), 3);
    }
}
