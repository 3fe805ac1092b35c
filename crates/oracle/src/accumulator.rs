//! The paper's literal alternating-accumulator algorithm (§III), the
//! oracle of the endpoint recurrence every linear sweep runs.

use crate::{check_stimulus, check_x0, OracleError};
use opm_linalg::DVector;
use opm_system::DescriptorSystem;

/// The alternating-accumulator solve of `E X D = A X + B U`. With
/// `σ = 2/h` and `z = x − x₀`, column `j` solves
///
/// ```text
/// (σE − A)·z_j = B·u_j + A·x₀ − 2σ·E·g_j,   g₀ = 0,   g_j = −(g_{j−1} + z_{j−1})
/// ```
///
/// against one dense factorization of `σE − A`, and `x_j = z_j + x₀`.
/// Returns the state columns `x_0 … x_{m−1}`.
///
/// # Errors
/// [`OracleError::BadArguments`] on shape mismatches or a non-positive
/// horizon; [`OracleError::Singular`] when `σE − A` is singular.
pub fn accumulator_solve(
    sys: &DescriptorSystem,
    u_coeffs: &[Vec<f64>],
    t_end: f64,
    x0: &[f64],
) -> Result<Vec<Vec<f64>>, OracleError> {
    let m = check_stimulus(sys.num_inputs(), u_coeffs, t_end)?;
    check_x0(sys.order(), x0)?;
    let sigma = 2.0 * m as f64 / t_end;
    let lu = sys
        .e()
        .lin_comb(sigma, -1.0, sys.a())
        .to_dense()
        .factor_lu()
        .ok_or_else(|| OracleError::Singular("σE − A singular".into()))?;
    let c = sys.a().mul_vec(x0);
    let mut g = vec![0.0; sys.order()];
    let mut z = vec![0.0; sys.order()];
    let mut columns = Vec::with_capacity(m);
    for j in 0..m {
        for (gi, zi) in g.iter_mut().zip(&z) {
            *gi = -(*gi + zi);
        }
        let u: Vec<f64> = u_coeffs.iter().map(|row| row[j]).collect();
        let mut rhs = c.clone();
        sys.b().mul_vec_acc(1.0, &u, &mut rhs);
        sys.e().mul_vec_acc(-2.0 * sigma, &g, &mut rhs);
        z = lu.solve(&DVector::from(rhs)).into_vec();
        columns.push(z.iter().zip(x0).map(|(zi, xi)| zi + xi).collect());
    }
    Ok(columns)
}
