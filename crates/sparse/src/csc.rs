//! Compressed sparse column format — the factorization-side layout.
//!
//! Left-looking LU consumes matrices column by column, so it factors from
//! CSC. Conversion from CSR is a transpose-shaped pass.

use crate::csr::CsrMatrix;

/// An immutable sparse matrix in compressed sparse column layout.
#[derive(Clone, Debug, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowind: Vec<usize>,
    data: Vec<f64>,
}

impl CscMatrix {
    /// Builds from raw CSC arrays.
    ///
    /// # Panics
    /// Panics when the arrays are inconsistent (see [`CsrMatrix::from_raw`]
    /// for the mirrored conditions).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowind: Vec<usize>,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(colptr.len(), ncols + 1, "colptr length must be ncols+1");
        assert_eq!(rowind.len(), data.len(), "rowind/data length mismatch");
        assert_eq!(*colptr.last().unwrap(), rowind.len(), "colptr tail wrong");
        for c in 0..ncols {
            assert!(colptr[c] <= colptr[c + 1], "colptr must be monotone");
            let col = &rowind[colptr[c]..colptr[c + 1]];
            for w in col.windows(2) {
                assert!(w[0] < w[1], "rows within a column must be sorted/unique");
            }
            if let Some(&last) = col.last() {
                assert!(last < nrows, "row index out of range");
            }
        }
        CscMatrix {
            nrows,
            ncols,
            colptr,
            rowind,
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

    /// Stored entry count.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Iterates over `(row, value)` pairs of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.colptr[j];
        let hi = self.colptr[j + 1];
        self.rowind[lo..hi]
            .iter()
            .zip(&self.data[lo..hi])
            .map(|(&r, &v)| (r, v))
    }

    /// Column pointers: column `j` stores entries
    /// `colptr()[j]..colptr()[j + 1]` of [`CscMatrix::rowind`] and
    /// [`CscMatrix::values`].
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row index of every stored entry, column by column (rows ascending
    /// within a column) — with [`CscMatrix::colptr`], the whole pattern.
    pub fn rowind(&self) -> &[usize] {
        &self.rowind
    }

    /// Row indices of column `j` (pattern only).
    pub fn col_pattern(&self, j: usize) -> &[usize] {
        &self.rowind[self.colptr[j]..self.colptr[j + 1]]
    }

    /// The stored values in pattern order (column-major, rows ascending
    /// within each column) — the layout [`SymbolicLu::factor_with`]
    /// analyzes and [`SparseLu::refactor`] consumes.
    ///
    /// [`SymbolicLu::factor_with`]: crate::lu::SymbolicLu::factor_with
    /// [`SparseLu::refactor`]: crate::lu::SparseLu::refactor
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the stored values. The sparsity *pattern* is
    /// immutable — only the numeric payload can change — which is
    /// exactly the contract symbolic/numeric factorization splits rely
    /// on: rewrite the values of a shifted pencil in place, then
    /// refactor against the unchanged pattern.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reads entry `(i, j)` via binary search in column `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.colptr[j];
        let hi = self.colptr[j + 1];
        match self.rowind[lo..hi].binary_search(&i) {
            Ok(pos) => self.data[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Converts back to CSR.
    pub fn to_csr(&self) -> CsrMatrix {
        // A CSC of A has the same arrays as a CSR of Aᵀ; transpose once.
        CsrMatrix::from_raw(
            self.ncols,
            self.nrows,
            self.colptr.clone(),
            self.rowind.clone(),
            self.data.clone(),
        )
        .transpose()
    }

    /// Matrix–vector product `y = A·x` (column-sweep form).
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "mul_vec: x length mismatch");
        let mut y = vec![0.0; self.nrows];
        for j in 0..self.ncols {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            for k in self.colptr[j]..self.colptr[j + 1] {
                y[self.rowind[k]] += self.data[k] * xj;
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample_csc() -> CscMatrix {
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
        c.to_csc()
    }

    #[test]
    fn csc_layout_matches_csr() {
        let a = sample_csc();
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(2, 0), 4.0);
        assert_eq!(a.get(1, 0), 0.0);
        let cols0: Vec<_> = a.col(0).collect();
        assert_eq!(cols0, vec![(0, 1.0), (2, 4.0)]);
    }

    #[test]
    fn roundtrip_csr_csc_csr() {
        let mut c = CooMatrix::new(4, 3);
        c.push(0, 1, 1.0);
        c.push(3, 2, -2.0);
        c.push(2, 0, 0.5);
        let csr = c.to_csr();
        assert_eq!(csr.to_csc().to_csr(), csr);
    }

    #[test]
    fn spmv_agrees_with_csr() {
        let a = sample_csc();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(a.mul_vec(&x), a.to_csr().mul_vec(&x));
    }

    #[test]
    fn col_pattern_is_sorted() {
        let a = sample_csc();
        assert_eq!(a.col_pattern(0), &[0, 2]);
        assert_eq!(a.col_pattern(1), &[1]);
    }
}
