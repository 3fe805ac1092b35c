//! Multi-term (incommensurate) fractional/integer systems
//! `Σ_k M_k · d^{α_k} x / dt^{α_k} = B·u`.
//!
//! This is the natural generalization of the paper's high-order case: the
//! OPM column solve only needs every `D^{α_k}` to be upper triangular,
//! which holds for any set of orders. The second-order power-grid model
//! `C ẍ + G ẋ + Γ x = B u` is the three-term instance
//! `[(2, C), (1, G), (0, Γ)]`.

use crate::{DescriptorSystem, FractionalSystem, SystemError};
use opm_sparse::CsrMatrix;

/// One differential term `M·d^α x`.
#[derive(Clone, Debug)]
pub struct Term {
    /// Differentiation order `α ≥ 0` (0 = algebraic term).
    pub alpha: f64,
    /// Coefficient matrix `M` (n×n).
    pub matrix: CsrMatrix,
}

/// A multi-term differential system.
#[derive(Clone, Debug)]
pub struct MultiTermSystem {
    terms: Vec<Term>,
    b: CsrMatrix,
    c: Option<CsrMatrix>,
}

impl MultiTermSystem {
    /// Builds and validates a multi-term system.
    ///
    /// Terms are sorted by descending order; duplicate orders are allowed
    /// (their matrices act additively).
    ///
    /// # Errors
    /// - [`SystemError::Empty`] when no terms are supplied.
    /// - [`SystemError::InvalidOrder`] for negative/non-finite orders.
    /// - [`SystemError::DimensionMismatch`] for inconsistent shapes.
    pub fn new(
        mut terms: Vec<Term>,
        b: CsrMatrix,
        c: Option<CsrMatrix>,
    ) -> Result<Self, SystemError> {
        if terms.is_empty() {
            return Err(SystemError::Empty);
        }
        let n = terms[0].matrix.nrows();
        for t in &terms {
            if !(t.alpha >= 0.0 && t.alpha.is_finite()) {
                return Err(SystemError::InvalidOrder(t.alpha));
            }
            if t.matrix.nrows() != n || t.matrix.ncols() != n {
                return Err(SystemError::DimensionMismatch(format!(
                    "term matrices must be {n}x{n}, got {}x{}",
                    t.matrix.nrows(),
                    t.matrix.ncols()
                )));
            }
        }
        if b.nrows() != n {
            return Err(SystemError::DimensionMismatch(format!(
                "B must have {n} rows, got {}",
                b.nrows()
            )));
        }
        if let Some(ref c) = c {
            if c.ncols() != n {
                return Err(SystemError::DimensionMismatch(format!(
                    "C must have {n} columns, got {}",
                    c.ncols()
                )));
            }
        }
        terms.sort_by(|x, y| y.alpha.partial_cmp(&x.alpha).unwrap());
        Ok(MultiTermSystem { terms, b, c })
    }

    /// Number of state variables.
    pub fn order(&self) -> usize {
        self.terms[0].matrix.nrows()
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.b.ncols()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.c.as_ref().map_or(self.order(), CsrMatrix::nrows)
    }

    /// The terms, sorted by descending order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The highest differentiation order.
    pub fn max_order(&self) -> f64 {
        self.terms[0].alpha
    }

    /// The input matrix.
    pub fn b(&self) -> &CsrMatrix {
        &self.b
    }

    /// The output matrix, if any.
    pub fn c(&self) -> Option<&CsrMatrix> {
        self.c.as_ref()
    }

    /// Applies the output map.
    pub fn output(&self, x: &[f64]) -> Vec<f64> {
        match &self.c {
            Some(c) => c.mul_vec(x),
            None => x.to_vec(),
        }
    }

    /// Converts a descriptor system `E ẋ = A x + B u` into the two-term
    /// form `E·d¹x + (−A)·d⁰x = B·u`: [`MultiTermSystem::from_fractional`]
    /// at `α = 1`.
    pub fn from_descriptor(sys: &DescriptorSystem) -> Self {
        Self::two_term(1.0, sys)
    }

    /// Converts a fractional system `E·d^α x = A x + B u` into the
    /// two-term form `[(α, E), (0, −A)]`, the system a fractional plan
    /// sweeps and the Kronecker oracle assembles.
    pub fn from_fractional(fsys: &FractionalSystem) -> Self {
        Self::two_term(fsys.alpha(), fsys.system())
    }

    /// `E·d^α x + (−A)·d⁰x = B·u`, already in descending order (`α > 0`).
    fn two_term(alpha: f64, sys: &DescriptorSystem) -> Self {
        let terms = vec![
            Term {
                alpha,
                matrix: sys.e().clone(),
            },
            Term {
                alpha: 0.0,
                matrix: sys.a().scale(-1.0),
            },
        ];
        MultiTermSystem {
            terms,
            b: sys.b().clone(),
            c: sys.c().cloned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_sparse::CooMatrix;

    fn eye(n: usize) -> CsrMatrix {
        CsrMatrix::identity(n)
    }

    #[test]
    fn terms_sorted_descending() {
        let sys = MultiTermSystem::new(
            vec![
                Term {
                    alpha: 0.0,
                    matrix: eye(2),
                },
                Term {
                    alpha: 2.0,
                    matrix: eye(2),
                },
                Term {
                    alpha: 1.0,
                    matrix: eye(2),
                },
            ],
            eye(2),
            None,
        )
        .unwrap();
        let orders: Vec<f64> = sys.terms().iter().map(|t| t.alpha).collect();
        assert_eq!(orders, vec![2.0, 1.0, 0.0]);
        assert_eq!(sys.max_order(), 2.0);
    }

    #[test]
    fn from_descriptor_roundtrip_semantics() {
        let mut a = CooMatrix::new(2, 2);
        a.push(0, 0, -3.0);
        a.push(1, 0, 1.0);
        let d = DescriptorSystem::new(eye(2), a.to_csr(), eye(2), None).unwrap();
        let mt = MultiTermSystem::from_descriptor(&d);
        assert_eq!(mt.terms().len(), 2);
        assert_eq!(mt.terms()[0].alpha, 1.0);
        // −A stored for the algebraic term.
        assert_eq!(mt.terms()[1].matrix.get(0, 0), 3.0);
        assert_eq!(mt.terms()[1].matrix.get(1, 0), -1.0);
    }

    /// Every term's order and matrix, then `B` and `C`, as dense matrices.
    fn parts(mt: &MultiTermSystem) -> (Vec<f64>, Vec<opm_linalg::DMatrix>) {
        let orders = mt.terms().iter().map(|t| t.alpha).collect();
        let mut mats: Vec<_> = mt.terms().iter().map(|t| t.matrix.to_dense()).collect();
        mats.push(mt.b().to_dense());
        mats.extend(mt.c().map(CsrMatrix::to_dense));
        (orders, mats)
    }

    fn descriptor() -> DescriptorSystem {
        let mut e = CooMatrix::new(2, 2);
        e.push(0, 0, 2.0);
        let mut a = CooMatrix::new(2, 2);
        a.push(0, 0, -3.0);
        a.push(1, 0, 1.0);
        a.push(1, 1, -0.5);
        let mut c = CooMatrix::new(1, 2);
        c.push(0, 1, 1.0);
        DescriptorSystem::new(e.to_csr(), a.to_csr(), eye(2), Some(c.to_csr())).unwrap()
    }

    #[test]
    fn from_fractional_at_alpha_one_is_from_descriptor() {
        let d = descriptor();
        let frac =
            MultiTermSystem::from_fractional(&FractionalSystem::new(1.0, d.clone()).unwrap());
        assert_eq!(parts(&frac), parts(&MultiTermSystem::from_descriptor(&d)));
    }

    #[test]
    fn from_fractional_keeps_the_order_new_gives() {
        let d = descriptor();
        for alpha in [0.3, 1.0, 1.7] {
            let fsys = FractionalSystem::new(alpha, d.clone()).unwrap();
            let via_new = MultiTermSystem::new(
                vec![
                    Term {
                        alpha,
                        matrix: d.e().clone(),
                    },
                    Term {
                        alpha: 0.0,
                        matrix: d.a().scale(-1.0),
                    },
                ],
                d.b().clone(),
                d.c().cloned(),
            )
            .unwrap();
            assert_eq!(
                parts(&MultiTermSystem::from_fractional(&fsys)),
                parts(&via_new)
            );
        }
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            MultiTermSystem::new(vec![], eye(1), None),
            Err(SystemError::Empty)
        ));
        assert!(MultiTermSystem::new(
            vec![Term {
                alpha: -1.0,
                matrix: eye(1)
            }],
            eye(1),
            None
        )
        .is_err());
        assert!(MultiTermSystem::new(
            vec![Term {
                alpha: 1.0,
                matrix: eye(2)
            }],
            eye(3),
            None
        )
        .is_err());
    }
}
