//! FFT substrate and the paper's frequency-domain FDE baseline.
//!
//! Section V-A of the paper compares OPM against simulation "in the
//! frequency domain using Fourier transform and inverse Fourier
//! transform": sample the input, transform, evaluate
//! `X(jω) = (E·(jω)^α − A)^{-1}·B·U(jω)` per frequency, transform back.
//! `FFT-1` uses 8 sampling points, `FFT-2` uses 100 — which is why this
//! crate includes a Bluestein transform for arbitrary lengths, not just
//! radix-2.
//!
//! - [`fft`] — iterative radix-2 Cooley–Tukey + inverse.
//! - [`bluestein`] — arbitrary-N FFT via chirp-z, set up once per
//!   length ([`Bluestein`](bluestein::Bluestein)).
//! - [`dft`] — the O(N²) definition, kept as a test oracle.
//! - [`freq_solve`] — the frequency-domain simulator ([`FftSimulator`]).
//!
//! [`FftSimulator`]: freq_solve::FftSimulator

// No unsafe anywhere in this crate; the only unsafe in the workspace
// is the audited AVX panel dispatch in opm-{core,sparse,fracnum}.
#![forbid(unsafe_code)]

pub mod bluestein;
pub mod dft;
pub mod fft;
pub mod freq_solve;

pub use freq_solve::{FftSimulator, FreqResult};
