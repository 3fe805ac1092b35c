//! The paper's reference forms of the OPM column equation, kept as
//! oracles: no plan runs them, and the tests check every sweep
//! `opm-core` runs against them. [`kron`] is the dense Kronecker vec
//! form (Eqs. 15/18/27), [`accumulator`] the literal alternating
//! accumulator (§III) and [`general_basis`] the integral form over any
//! [`opm_basis::Basis`] (§I). The first two return plain state columns
//! (`Vec<Vec<f64>>`, entry `j` is `x_j`); every oracle reports its own
//! [`OracleError`], so no `opm-core` type is needed. The dense forms
//! are `O((nm)³)` and share one guard, `n·m ≤ 4096`.

#![forbid(unsafe_code)]

pub mod accumulator;
pub mod general_basis;
pub mod kron;

pub use accumulator::accumulator_solve;
pub use general_basis::{GeneralBasisPlan, GeneralBasisResult};
pub use kron::{kron_solve_fractional, kron_solve_linear, kron_solve_multiterm};

/// Why an oracle refused a problem.
#[derive(Clone, Debug, PartialEq)]
pub enum OracleError {
    /// Shapes mismatch, the horizon is not positive, or `n·m` exceeds
    /// the dense guard.
    BadArguments(String),
    /// The form's matrix is singular.
    Singular(String),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::BadArguments(s) => write!(f, "bad arguments: {s}"),
            OracleError::Singular(s) => write!(f, "singular: {s}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// The largest `n·m` a dense form assembles.
const MAX_DENSE: usize = 4096;

/// `n·m`, the order of a dense form's matrix, within the dense guard.
/// The product is request-sized, so an overflowing one is too big as
/// well.
fn dense_order(n: usize, m: usize) -> Result<usize, OracleError> {
    let too_big = |nm: String| {
        OracleError::BadArguments(format!("n·m = {nm} exceeds the dense oracle guard"))
    };
    match n.checked_mul(m) {
        Some(nm) if nm <= MAX_DENSE => Ok(nm),
        Some(nm) => Err(too_big(nm.to_string())),
        None => Err(too_big(format!("{n}·{m}"))),
    }
}

/// Checks a coefficient stimulus (one row per input, `m ≥ 1` columns
/// each) and the horizon, returning `m`.
fn check_stimulus(
    num_inputs: usize,
    u_coeffs: &[Vec<f64>],
    t_end: f64,
) -> Result<usize, OracleError> {
    let bad = |s: String| Err(OracleError::BadArguments(s));
    let m = u_coeffs.first().map_or(0, Vec::len);
    if u_coeffs.len() != num_inputs {
        bad(format!(
            "{} input rows for {num_inputs} B columns",
            u_coeffs.len()
        ))
    } else if m == 0 || u_coeffs.iter().any(|r| r.len() != m) {
        bad("empty or ragged input rows".into())
    } else if t_end > 0.0 {
        Ok(m)
    } else {
        bad(format!("t_end = {t_end}"))
    }
}

/// Checks an initial state against the system order.
fn check_x0(n: usize, x0: &[f64]) -> Result<(), OracleError> {
    match x0.len() {
        len if len == n => Ok(()),
        len => Err(OracleError::BadArguments(format!(
            "x0 length {len} for order {n}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_rejects_an_overflowing_size() {
        // 4 states × 2^62 columns wraps to 0 in unchecked arithmetic.
        let err = dense_order(4, 1 << 62).unwrap_err();
        assert!(
            matches!(&err, OracleError::BadArguments(msg) if msg.contains("dense oracle guard")),
            "{err}"
        );
        assert_eq!(dense_order(4, 1024), Ok(4096));
        assert!(dense_order(4097, 1).is_err());
    }

    #[test]
    fn stimulus_and_initial_state_checks() {
        assert_eq!(check_stimulus(1, &[vec![1.0, 2.0]], 1.0), Ok(2));
        assert!(check_stimulus(2, &[vec![1.0]], 1.0).is_err());
        assert!(check_stimulus(1, &[vec![]], 1.0).is_err());
        assert!(check_stimulus(2, &[vec![1.0, 2.0], vec![1.0]], 1.0).is_err());
        assert!(check_stimulus(1, &[vec![1.0]], f64::NAN).is_err());
        assert!(check_x0(2, &[0.0]).is_err());
    }
}
