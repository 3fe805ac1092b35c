//! Sparse-matrix formats and direct solvers for the OPM workspace.
//!
//! The paper's complexity claim — `O(n^β m + n m²)` with `1 < β < 2` — rests
//! on a sparse direct solver for the per-column systems `(d_jj·E − A)·x = r`.
//! This crate provides that substrate, built from scratch:
//!
//! - [`coo::CooMatrix`] — triplet builder (duplicates summed), the natural
//!   output of circuit stamping.
//! - [`csr::CsrMatrix`] — compressed sparse row: matrix–vector products,
//!   linear combinations (`α·E + β·A`), transpose.
//! - [`csc::CscMatrix`] — compressed sparse column, the factorization format.
//! - [`lu::SparseLu`] — left-looking Gilbert–Peierls LU with partial
//!   pivoting (diagonal-preference threshold, SPICE style), split into a
//!   reusable symbolic analysis ([`lu::SymbolicLu`]) and numeric-only
//!   refactorization ([`lu::SparseLu::refactor`]) for many-matrix,
//!   one-pattern workloads.
//! - [`pencil::ShiftedPencil`] — the weighted pencil family `Σ_k w_k·A_k`
//!   (`σ·E − A` is its two-term case): union CSC pattern assembled once,
//!   values rewritten per weight vector.
//! - [`cholesky::SparseCholesky`] — left-looking simplicial Cholesky for the
//!   SPD matrices of the second-order nodal formulation.
//! - [`ordering`] — approximate minimum degree (the pencil ordering) and
//!   reverse Cuthill–McKee fill-reducing orderings; [`perm::Permutation`].
//!
//! # Example
//!
//! ```
//! use opm_sparse::{CooMatrix, lu::SparseLu};
//!
//! let mut coo = CooMatrix::new(2, 2);
//! coo.push(0, 0, 4.0);
//! coo.push(0, 1, 1.0);
//! coo.push(1, 0, 1.0);
//! coo.push(1, 1, 3.0);
//! let a = coo.to_csr();
//! let lu = SparseLu::factor(&a.to_csc(), None).expect("nonsingular");
//! let x = lu.solve(&[9.0, 7.0]);
//! assert!((x[0] - 20.0 / 11.0).abs() < 1e-12);
//! ```

pub mod cholesky;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod lu;
pub mod ordering;
pub mod pencil;
pub mod perm;

pub use cholesky::SparseCholesky;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use lu::{SparseLu, SymbolicLu};
pub use pencil::ShiftedPencil;
pub use perm::Permutation;

/// Errors produced by sparse factorizations.
#[derive(Clone, Debug, PartialEq)]
pub enum SparseError {
    /// The matrix is structurally or numerically singular; the payload is
    /// the column at which factorization broke down.
    Singular(usize),
    /// A numeric refactorization ([`lu::SparseLu::refactor`]) found the
    /// fixed pivot of this column degraded past
    /// [`lu::LuOptions::refactor_threshold`]; the caller should fall
    /// back to a fresh pivoted factorization.
    PivotDegraded(usize),
    /// An exact replay ([`lu::SparseLu::refactor_exact`]) found that a
    /// fresh factorization would not pivot on the recorded row of this
    /// column; the caller should factor fresh.
    PivotMismatch(usize),
    /// Cholesky encountered a non-positive pivot; the matrix is not
    /// positive definite.
    NotPositiveDefinite(usize),
    /// Dimensions are inconsistent for the requested operation.
    DimensionMismatch {
        /// What the operation expected.
        expected: (usize, usize),
        /// What it received.
        found: (usize, usize),
    },
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::Singular(k) => write!(f, "matrix is singular at column {k}"),
            SparseError::PivotDegraded(k) => write!(
                f,
                "refactorization pivot degraded at column {k}; a fresh pivoted \
                 factorization is required"
            ),
            SparseError::PivotMismatch(k) => write!(
                f,
                "a fresh factorization would pivot differently at column {k}"
            ),
            SparseError::NotPositiveDefinite(k) => {
                write!(f, "matrix is not positive definite (pivot {k})")
            }
            SparseError::DimensionMismatch { expected, found } => write!(
                f,
                "dimension mismatch: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
        }
    }
}

impl std::error::Error for SparseError {}
