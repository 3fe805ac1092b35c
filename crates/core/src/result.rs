//! OPM solution containers: coefficient matrices with reconstruction.

use opm_sparse::CsrMatrix;

/// An OPM solution `x(t) ≈ X·φ(t)` on a (possibly non-uniform) grid,
/// with its outputs `Y = C·X`.
///
/// `columns[j]` is the coefficient vector `x_j ∈ Rⁿ` of interval `j` —
/// the interval *average* of the state (paper Eq. 2), which is also a
/// second-order-accurate midpoint sample. A result is only the
/// solution: what it cost lives with the plan that produced it
/// ([`crate::SimPlan::factor_profile`]), since one factorization serves
/// every column and every scenario of the plan.
#[derive(Clone, Debug)]
pub struct OpmResult {
    /// Interval boundaries, length `m + 1`.
    pub bounds: Vec<f64>,
    /// Coefficient columns, `columns[j].len() == n`.
    pub columns: Vec<Vec<f64>>,
    /// Output coefficients: `outputs[o][j]` (computed through `C` when the
    /// system has one, otherwise equal to the state rows).
    pub outputs: Vec<Vec<f64>>,
}

/// The bounds of `m` uniform intervals over `[0, t_end)`.
pub(crate) fn uniform_bounds(m: usize, t_end: f64) -> Vec<f64> {
    let h = if m == 0 { 0.0 } else { t_end / m as f64 };
    (0..=m).map(|k| k as f64 * h).collect()
}

impl OpmResult {
    /// The one way a solve builds its result: projects every column
    /// through the model's output selector `c` (the identity when the
    /// model has none) into `outputs[o][j]`.
    pub(crate) fn new(bounds: Vec<f64>, columns: Vec<Vec<f64>>, c: Option<&CsrMatrix>) -> Self {
        let q = c.map_or_else(|| columns.first().map_or(0, Vec::len), CsrMatrix::nrows);
        let mut outputs = vec![Vec::with_capacity(columns.len()); q];
        let mut y = vec![0.0; q];
        for col in &columns {
            let y: &[f64] = match c {
                Some(c) => {
                    c.mul_vec_into(col, &mut y);
                    &y
                }
                None => col,
            };
            for (row, &v) in outputs.iter_mut().zip(y) {
                row.push(v);
            }
        }
        OpmResult {
            bounds,
            columns,
            outputs,
        }
    }

    /// Number of intervals `m`.
    pub fn num_intervals(&self) -> usize {
        self.columns.len()
    }

    /// State dimension `n`.
    pub fn order(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Interval midpoints — the natural abscissae of the coefficients.
    pub fn midpoints(&self) -> Vec<f64> {
        self.bounds
            .windows(2)
            .map(|ab| 0.5 * (ab[0] + ab[1]))
            .collect()
    }

    /// Coefficient of state `i` on interval `j`.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn state_coeff(&self, i: usize, j: usize) -> f64 {
        self.columns[j][i]
    }

    /// Row `i` of the coefficient matrix (state `i` across time).
    pub fn state_row(&self, i: usize) -> Vec<f64> {
        self.columns.iter().map(|c| c[i]).collect()
    }

    /// Output channel `o` across time.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn output_row(&self, o: usize) -> &[f64] {
        &self.outputs[o]
    }

    /// Piecewise-constant reconstruction of state `i` at time `t`
    /// (0 outside `[0, T)`).
    pub fn reconstruct_state(&self, i: usize, t: f64) -> f64 {
        match self.interval_of(t) {
            Some(j) => self.columns[j][i],
            None => 0.0,
        }
    }

    /// Index of the interval containing `t`.
    pub fn interval_of(&self, t: f64) -> Option<usize> {
        if t < self.bounds[0] || t >= *self.bounds.last().unwrap() {
            return None;
        }
        // Binary search over boundaries.
        let idx = self.bounds.partition_point(|&b| b <= t);
        Some(idx - 1)
    }

    /// Endpoint-value series for state `i`: recovers `x(t_k)` from the
    /// interval averages via `v_{k+1} = 2·c_k − v_k` (exact under the
    /// trapezoidal-polyline interpretation of BPF-OPM). Returns values at
    /// `bounds[1..]`.
    pub fn endpoint_series(&self, i: usize, x0_i: f64) -> Vec<f64> {
        let mut v = x0_i;
        self.columns
            .iter()
            .map(|c| {
                v = 2.0 * c[i] - v;
                v
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpmResult {
        OpmResult {
            bounds: vec![0.0, 0.5, 1.0, 2.0],
            columns: vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]],
            outputs: vec![vec![1.0, 2.0, 3.0]],
        }
    }

    #[test]
    fn new_projects_through_c_or_copies_the_state() {
        let columns = vec![vec![1.0, 10.0], vec![2.0, 20.0]];
        let mut c = opm_sparse::CooMatrix::new(1, 2);
        c.push(0, 1, 0.5);
        let r = OpmResult::new(vec![0.0, 1.0, 2.0], columns.clone(), Some(&c.to_csr()));
        assert_eq!(r.outputs, vec![vec![5.0, 10.0]]);
        let r = OpmResult::new(vec![0.0, 1.0, 2.0], columns, None);
        assert_eq!(r.outputs, vec![vec![1.0, 2.0], vec![10.0, 20.0]]);
    }

    #[test]
    fn geometry() {
        let r = sample();
        assert_eq!(r.num_intervals(), 3);
        assert_eq!(r.order(), 2);
        assert_eq!(r.midpoints(), vec![0.25, 0.75, 1.5]);
        assert_eq!(r.interval_of(0.6), Some(1));
        assert_eq!(r.interval_of(1.99), Some(2));
        assert_eq!(r.interval_of(2.0), None);
        assert_eq!(r.interval_of(-0.1), None);
    }

    #[test]
    fn reconstruction_and_rows() {
        let r = sample();
        assert_eq!(r.reconstruct_state(1, 0.6), 20.0);
        assert_eq!(r.reconstruct_state(0, 5.0), 0.0);
        assert_eq!(r.state_row(0), vec![1.0, 2.0, 3.0]);
        assert_eq!(r.output_row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn endpoint_recurrence() {
        // Averages of the polyline 0→2→2→4 are 1, 2, 3.
        let r = sample();
        assert_eq!(r.endpoint_series(0, 0.0), vec![2.0, 2.0, 4.0]);
    }
}
