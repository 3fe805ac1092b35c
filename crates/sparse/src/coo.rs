//! Triplet (coordinate) sparse format — the assembly format.
//!
//! Circuit stamping naturally generates `(row, col, value)` triplets with
//! repeats (each element stamps into shared nodes); [`CooMatrix::to_csr`]
//! sorts and sums duplicates in push order, exactly what MNA assembly
//! needs. [`CsrBuilder`] applies the same rule to stamps emitted twice,
//! a counting pass and a filling pass, with no triplet list between.

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
        if row >= self.nrows || col >= self.ncols {
            out_of_bounds("coo", row, col, self.nrows, self.ncols);
        }
        self.entries.push((row, col, value));
    }

    /// Converts to CSR, summing duplicates **in push order** — the order
    /// a netlist stamps them — so the sums do not depend on a sort's
    /// tie-breaking. This is [`CsrBuilder`] fed the triplets twice.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut csr = CsrBuilder::new(self.nrows, self.ncols);
        for &(r, c, _) in &self.entries {
            csr.push(r, c, 0.0);
        }
        csr.start_filling();
        for &(r, c, v) in &self.entries {
            csr.push(r, c, v);
        }
        csr.finish()
    }

    /// Converts to CSC (via CSR transpose plumbing).
    pub fn to_csc(&self) -> CscMatrix {
        self.to_csr().to_csc()
    }
}

/// Builds a CSR matrix straight from stamps, without storing triplets.
///
/// The caller emits the same stamps twice, in the same order: the first
/// pass only counts each row's stamps, and after
/// [`start_filling`](Self::start_filling) the second writes them into
/// their rows. [`finish`](Self::finish) then sorts each row stably by
/// column and sums duplicates **in push order**, the rule
/// [`CooMatrix::to_csr`] follows too.
///
/// ```
/// use opm_sparse::coo::CsrBuilder;
/// let mut m = CsrBuilder::new(2, 2);
/// for filling in [false, true] {
///     if filling {
///         m.start_filling();
///     }
///     m.push(1, 1, 2.0);
///     m.push(1, 0, -1.0);
///     m.push(1, 1, 3.0);
/// }
/// let csr = m.finish();
/// assert_eq!(csr.get(1, 1), 5.0);
/// assert_eq!(csr.nnz(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct CsrBuilder {
    nrows: usize,
    ncols: usize,
    /// Counting pass: `ptr[r + 1]` counts row `r`'s stamps. Filling pass:
    /// row `r`'s slots are `ptr[r]..ptr[r + 1]`.
    ptr: Vec<usize>,
    /// Filling pass: row `r`'s next free slot (`None` while counting).
    next: Option<Vec<usize>>,
    /// Column and value per stamp, bucketed by row.
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrBuilder {
    /// Starts the counting pass of an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CsrBuilder {
            nrows,
            ncols,
            ptr: vec![0; nrows + 1],
            next: None,
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Counts a stamp, or, once filling, stores it.
    ///
    /// # Panics
    /// Panics when the indices are out of bounds, or when the filling
    /// pass stamps a row more often than the counting pass did.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        if row >= self.nrows || col >= self.ncols {
            out_of_bounds("csr", row, col, self.nrows, self.ncols);
        }
        match &mut self.next {
            None => self.ptr[row + 1] += 1,
            Some(next) => {
                let at = next[row];
                assert!(at < self.ptr[row + 1], "row stamped more than counted");
                self.cols[at] = col;
                self.vals[at] = value;
                next[row] += 1;
            }
        }
    }

    /// Ends the counting pass: the filling pass must repeat its stamps.
    ///
    /// # Panics
    /// Panics when called twice.
    pub fn start_filling(&mut self) {
        assert!(self.next.is_none(), "already filling");
        for r in 0..self.nrows {
            self.ptr[r + 1] += self.ptr[r];
        }
        self.next = Some(self.ptr[..self.nrows].to_vec());
        self.cols = vec![0; self.ptr[self.nrows]];
        self.vals = vec![0.0; self.ptr[self.nrows]];
    }

    /// Sorts each row by column, stably so duplicates stay in push
    /// order, and sums the duplicates.
    ///
    /// # Panics
    /// Panics before [`start_filling`](Self::start_filling), and when the
    /// filling pass stamped a row less often than the counting pass did.
    pub fn finish(mut self) -> CsrMatrix {
        let next = self
            .next
            .take()
            .expect("finish called before start_filling");
        assert!(
            next[..] == self.ptr[1..],
            "filling pass stamped fewer entries than counted"
        );
        // Each row is sorted in a scratch copy and summed back in place:
        // a summed row never ends past the start of the next.
        let mut row: Vec<(usize, f64)> = Vec::new();
        let mut write = 0;
        for r in 0..self.nrows {
            let stamps = self.ptr[r]..self.ptr[r + 1];
            row.clear();
            row.extend(
                self.cols[stamps.clone()]
                    .iter()
                    .copied()
                    .zip(self.vals[stamps].iter().copied()),
            );
            row.sort_by_key(|&(c, _)| c);
            self.ptr[r] = write;
            for &(c, v) in &row {
                if write > self.ptr[r] && self.cols[write - 1] == c {
                    self.vals[write - 1] += v;
                } else {
                    self.cols[write] = c;
                    self.vals[write] = v;
                    write += 1;
                }
            }
        }
        self.ptr[self.nrows] = write;
        self.cols.truncate(write);
        self.vals.truncate(write);
        CsrMatrix::from_raw(self.nrows, self.ncols, self.ptr, self.cols, self.vals)
    }
}

/// The bounds panic of both `push`es, kept out of line: formatting it
/// inline slows a stamp walk several times over.
#[cold]
#[inline(never)]
fn out_of_bounds(format: &str, row: usize, col: usize, nrows: usize, ncols: usize) -> ! {
    panic!("{format} push out of bounds: ({row},{col}) in {nrows}x{ncols}")
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

    /// Push-order sums by a map, independent of the builder's sort.
    fn reference(nrows: usize, ncols: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut sums = std::collections::BTreeMap::new();
        for &(r, c, v) in entries {
            *sums.entry((r, c)).or_insert(-0.0) += v;
        }
        let mut indptr = vec![0; nrows + 1];
        let (mut indices, mut data) = (Vec::new(), Vec::new());
        for (&(r, c), &v) in &sums {
            indptr[r + 1] += 1;
            indices.push(c);
            data.push(v);
        }
        for r in 0..nrows {
            indptr[r + 1] += indptr[r];
        }
        CsrMatrix::from_raw(nrows, ncols, indptr, indices, data)
    }

    #[test]
    fn builder_sums_in_push_order_like_a_map() {
        let mut rng = opm_rng::StdRng::seed_from_u64(0x0063_7372_6275_696c);
        for trial in 0..40 {
            let (nrows, ncols) = (1 + trial % 7, 1 + trial % 5);
            // Long rows too: up to ~100 stamps share a row.
            let count = rng.random_range(0..(trial * 20 + 1));
            let entries: Vec<(usize, usize, f64)> = (0..count)
                .map(|_| {
                    let scale = [1e16, 1.0, -1.0, 1e-16][rng.random_range(0..4)];
                    let r = rng.random_range(0..nrows);
                    let c = rng.random_range(0..ncols);
                    (r, c, scale * rng.random_range(1..4) as f64)
                })
                .collect();
            let want = reference(nrows, ncols, &entries);
            let mut b = CsrBuilder::new(nrows, ncols);
            for filling in [false, true] {
                if filling {
                    b.start_filling();
                }
                for &(r, c, v) in &entries {
                    b.push(r, c, v);
                }
            }
            let mut coo = CooMatrix::new(nrows, ncols);
            for &(r, c, v) in &entries {
                coo.push(r, c, v);
            }
            // `Debug` prints every array, the data in shortest round-trip
            // form: equal prints are equal bits.
            for got in [b.finish(), coo.to_csr()] {
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "trial {trial}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "more than counted")]
    fn builder_rejects_extra_stamps() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.start_filling();
        b.push(0, 0, 1.0);
        b.push(0, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "fewer entries than counted")]
    fn builder_rejects_missing_stamps() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(1, 0, 1.0);
        b.start_filling();
        b.push(0, 0, 1.0);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "before start_filling")]
    fn builder_needs_a_filling_pass() {
        let _ = CsrBuilder::new(1, 1).finish();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_push_out_of_bounds_panics() {
        CsrBuilder::new(2, 2).push(0, 2, 1.0);
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
