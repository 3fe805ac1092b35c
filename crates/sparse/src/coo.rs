//! Triplet (coordinate) sparse format — the assembly format.
//!
//! Circuit stamping naturally generates `(row, col, value)` triplets with
//! repeats (each element stamps into shared nodes); [`CooMatrix::to_csr`]
//! sorts and sums duplicates in push order, exactly what MNA assembly
//! needs.

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;

/// A sparse matrix under construction, stored as unsorted triplets.
///
/// ```
/// use opm_sparse::CooMatrix;
/// let mut m = CooMatrix::new(2, 2);
/// m.push(0, 0, 1.0);
/// m.push(0, 0, 2.0); // duplicate — summed on conversion
/// let csr = m.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty `nrows × ncols` builder.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty builder with space reserved for `cap` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
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

    /// Number of raw triplets pushed so far (duplicates not collapsed).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a triplet. Zero values are kept (they may pin structure).
    ///
    /// # Panics
    /// Panics when the indices are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.nrows && col < self.ncols,
            "coo push out of bounds: ({row},{col}) in {}x{}",
            self.nrows,
            self.ncols
        );
        self.entries.push((row, col, value));
    }

    /// Converts to CSR, sorting triplets and summing duplicates **in push
    /// order** — the order a netlist stamps them — so the sums do not
    /// depend on a sort's tie-breaking. A stable two-pass counting sort
    /// (by column, then by row) orders the triplets in `O(nnz + n)`.
    pub fn to_csr(&self) -> CsrMatrix {
        let entries = &self.entries;
        let mut next = bucket_starts(entries.iter().map(|e| e.1), self.ncols);
        let mut by_col = vec![0usize; entries.len()];
        for (p, &(_, c, _)) in entries.iter().enumerate() {
            by_col[next[c]] = p;
            next[c] += 1;
        }
        let row_starts = bucket_starts(entries.iter().map(|e| e.0), self.nrows);
        let mut next = row_starts.clone();
        let mut sorted = vec![0usize; entries.len()];
        for &p in &by_col {
            let r = entries[p].0;
            sorted[next[r]] = p;
            next[r] += 1;
        }

        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices: Vec<usize> = Vec::with_capacity(entries.len());
        let mut data: Vec<f64> = Vec::with_capacity(entries.len());
        indptr.push(0);
        for r in 0..self.nrows {
            let row_start = indices.len();
            for &p in &sorted[row_starts[r]..row_starts[r + 1]] {
                let (_, c, v) = entries[p];
                if indices[row_start..].last() == Some(&c) {
                    let last = data.len() - 1;
                    data[last] += v;
                } else {
                    indices.push(c);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }

        CsrMatrix::from_raw(self.nrows, self.ncols, indptr, indices, data)
    }

    /// Converts to CSC (via CSR transpose plumbing).
    pub fn to_csc(&self) -> CscMatrix {
        self.to_csr().to_csc()
    }
}

/// Bucket boundaries of a counting sort over `keys` in `0..nkeys`: key
/// `k`'s bucket is `at[k]..at[k + 1]`.
fn bucket_starts(keys: impl Iterator<Item = usize>, nkeys: usize) -> Vec<usize> {
    let mut at = vec![0usize; nkeys + 1];
    for k in keys {
        at[k + 1] += 1;
    }
    for k in 0..nkeys {
        at[k + 1] += at[k];
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut m = CooMatrix::new(3, 3);
        m.push(1, 1, 2.0);
        m.push(1, 1, 3.0);
        m.push(0, 2, -1.0);
        let csr = m.to_csr();
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.get(0, 2), -1.0);
        assert_eq!(csr.get(2, 2), 0.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn duplicates_are_summed_in_push_order() {
        // (1e16 + 1) + 1 ≠ 1e16 + (1 + 1) in f64: the order shows.
        let mut m = CooMatrix::new(2, 2);
        for v in [1e16, 1.0, 1.0] {
            m.push(0, 1, v);
        }
        for v in [1.0, 1.0, 1e16] {
            m.push(1, 0, v);
        }
        let csr = m.to_csr();
        assert_eq!(csr.get(0, 1), 1e16);
        assert_eq!(csr.get(1, 0), 1e16 + 2.0);
    }

    #[test]
    fn empty_rows_have_empty_ranges() {
        let mut m = CooMatrix::new(4, 4);
        m.push(3, 0, 1.0);
        let csr = m.to_csr();
        for r in 0..3 {
            assert_eq!(csr.row(r).count(), 0);
        }
        assert_eq!(csr.row(3).count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut m = CooMatrix::new(2, 2);
        m.push(2, 0, 1.0);
    }

    #[test]
    fn empty_matrix_converts() {
        let m = CooMatrix::new(3, 2);
        assert!(m.is_empty());
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.nrows(), 3);
        assert_eq!(csr.ncols(), 2);
    }
}
