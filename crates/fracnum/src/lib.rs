//! Fractional-calculus numerics for the OPM workspace.
//!
//! The paper simulates fractional differential equations (FDEs) with
//! operational matrices; this crate supplies everything needed to *verify*
//! such simulations and to build classical baselines:
//!
//! - [`gamma`] — Γ, ln Γ (Lanczos), regularized incomplete gamma, erf/erfc.
//! - [`binomial`] — generalized binomial coefficients `C(α, k)`.
//! - [`mod@mittag_leffler`] — the two-parameter Mittag-Leffler function
//!   `E_{α,β}(z)`, the analytic solution kernel of linear FDEs. Negative
//!   arguments are evaluated by fixed-Talbot numerical Laplace-transform
//!   inversion — the very technique of the paper's references \[1,3,5\].
//! - [`grunwald`] — Grünwald–Letnikov coefficients and pointwise fractional
//!   derivatives (the classical time-domain FDE discretization).
//! - [`history`] — the shared history-convolution kernels behind every
//!   memory-carrying fractional recurrence in the workspace: per column,
//!   per block of columns, and the dyadic FFT squares of
//!   [`history::HistorySquares`] through which a convolution solve
//!   carries its whole memory over equal blocks of global columns.
//!   [`history::HistoryTail`] is a column list with an
//!   optional retention cap; no solve in the workspace caps its memory.
//!
//! # Example: fractional relaxation oracle
//!
//! ```
//! use opm_fracnum::mittag_leffler::mittag_leffler;
//! // d^α x / dt^α = −x, x(0) = 1 (Caputo) ⇒ x(t) = E_α(−t^α).
//! let x = mittag_leffler(0.5, 1.0, -1.0);
//! assert!((x - 0.42758357615580705).abs() < 1e-6); // e^{1}·erfc(1)
//! ```

pub mod binomial;
pub mod gamma;
pub mod grunwald;
pub mod history;
pub mod mittag_leffler;

pub use binomial::binomial_alpha;
pub use gamma::{erf, erfc, gamma_fn, ln_gamma};
pub use grunwald::GrunwaldCoefficients;
pub use history::{history_block_into, history_convolution_into, HistorySquares, HistoryTail};
pub use mittag_leffler::mittag_leffler;
