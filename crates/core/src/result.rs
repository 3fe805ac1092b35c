//! OPM solution containers: coefficient matrices with reconstruction.

/// An OPM solution `x(t) ≈ X·φ(t)` on a (possibly non-uniform) grid.
///
/// `columns[j]` is the coefficient vector `x_j ∈ Rⁿ` of interval `j` —
/// the interval *average* of the state (paper Eq. 2), which is also a
/// second-order-accurate midpoint sample.
#[derive(Clone, Debug)]
pub struct OpmResult {
    /// Interval boundaries, length `m + 1` (`bounds[0] = 0`).
    pub bounds: Vec<f64>,
    /// Coefficient columns, `columns[j].len() == n`.
    pub columns: Vec<Vec<f64>>,
    /// Output coefficients: `outputs[o][j]` (computed through `C` when the
    /// system has one, otherwise equal to the state rows).
    pub outputs: Vec<Vec<f64>>,
    /// Sparse solves performed (complexity accounting).
    pub num_solves: usize,
    /// Sparse LU factorizations *backing* this result. Results produced
    /// by one reusable plan share the plan's factorizations, so summing
    /// this field across a batch over-counts — use
    /// `SimPlan::factor_profile()` for the true total. (Adaptive
    /// solves through a shared step-lattice cache instead report only
    /// the factorizations newly performed for this result.)
    pub num_factorizations: usize,
}

impl OpmResult {
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
            num_solves: 3,
            num_factorizations: 1,
        }
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
