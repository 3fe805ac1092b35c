//! **Experiment E3** — the basis-generality claim of §I: OPM "can
//! readily switch to using other basis functions, each having its own
//! merits."
//!
//! The same RC response is solved in BPF, Walsh, Haar and shifted
//! Legendre bases at several m; reconstruction errors show (a) identical
//! accuracy for the three piecewise-constant bases (same span), and
//! (b) spectral accuracy for Legendre on this smooth response — plus the
//! paper's "overall trend" use case: a sequency-truncated Walsh solution.
//!
//! `cargo run --release -p opm-bench --bin basis_compare`

use opm_basis::{Basis, BpfBasis, HaarBasis, LegendreBasis, WalshBasis};
use opm_bench::{row, rule};
// Non-BPF bases solve through the basis-generic integral-form plan; the
// `Simulation` plan layer is BPF-specialized by design.
use opm_core::general_basis::GeneralBasisPlan;
use opm_sparse::{CooMatrix, CsrMatrix};
use opm_system::DescriptorSystem;
use opm_waveform::{InputSet, Waveform};

fn main() {
    let mut a = CooMatrix::new(1, 1);
    a.push(0, 0, -1.0);
    let mut b = CooMatrix::new(1, 1);
    b.push(0, 0, 1.0);
    let sys = DescriptorSystem::new(CsrMatrix::identity(1), a.to_csr(), b.to_csr(), None).unwrap();
    let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
    let t_end = 2.0;
    let exact = |t: f64| 1.0 - (-t).exp();

    println!("E3 — max reconstruction error of ẋ = −x + 1 in four bases\n");
    let widths = [6usize, 12, 12, 12, 12];
    row(
        &[
            "m".into(),
            "BPF".into(),
            "Walsh".into(),
            "Haar".into(),
            "Legendre".into(),
        ],
        &widths,
    );
    rule(&widths);
    for &m in &[8usize, 16, 32] {
        let bases: Vec<Box<dyn Basis>> = vec![
            Box::new(BpfBasis::new(m, t_end)),
            Box::new(WalshBasis::new(m, t_end)),
            Box::new(HaarBasis::new(m, t_end)),
            Box::new(LegendreBasis::new(m.min(24), t_end)),
        ];
        let mut cells = vec![format!("{m}")];
        for basis in &bases {
            let r = GeneralBasisPlan::new(&sys, basis.as_ref(), &[0.0])
                .unwrap()
                .solve(&inputs)
                .unwrap();
            let mut err = 0.0f64;
            for i in 0..500 {
                let t = t_end * (i as f64 + 0.5) / 500.0;
                err = err.max((r.reconstruct_state(basis.as_ref(), 0, t) - exact(t)).abs());
            }
            cells.push(format!("{err:.2e}"));
        }
        row(&cells, &widths);
    }

    // Walsh trend extraction: truncate to the lowest 4 sequencies.
    println!("\nWalsh low-sequency truncation (m = 32 → keep 4 coefficients):");
    let m = 32;
    let wb = WalshBasis::new(m, t_end);
    let r = GeneralBasisPlan::new(&sys, &wb, &[0.0])
        .unwrap()
        .solve(&inputs)
        .unwrap();
    let mut coeffs: Vec<f64> = (0..m).map(|j| r.x_coeffs.get(0, j)).collect();
    for c in coeffs.iter_mut().skip(4) {
        *c = 0.0;
    }
    let mut trend_err = 0.0f64;
    for i in 0..500 {
        let t = t_end * (i as f64 + 0.5) / 500.0;
        trend_err = trend_err.max((wb.reconstruct(&coeffs, t) - exact(t)).abs());
    }
    println!("  4-of-32 coefficients reproduce the trend to max error {trend_err:.2e}");
    println!("  (the paper's \"overall trend of the response\" use case for Walsh bases)");
}
