//! The paper's basis-generality claim in action: the same RC circuit
//! solved in four different operational bases (BPF, Walsh, Haar,
//! Legendre), with reconstruction errors against the analytic solution.
//!
//! Run with `cargo run --example basis_gallery`.

use opm::basis::{Basis, BpfBasis, HaarBasis, LegendreBasis, WalshBasis};
// Non-BPF bases solve through the basis-generic integral-form plan; the
// `Simulation` plan layer ([`opm::prelude::Simulation`]) is
// BPF-specialized by design.
use opm::core::general_basis::GeneralBasisPlan;
use opm::sparse::{CooMatrix, CsrMatrix};
use opm::system::DescriptorSystem;
use opm::waveform::{InputSet, Waveform};

fn main() {
    // ẋ = −x + u, u = 1(t): x = 1 − e^{−t}.
    let mut a = CooMatrix::new(1, 1);
    a.push(0, 0, -1.0);
    let mut b = CooMatrix::new(1, 1);
    b.push(0, 0, 1.0);
    let sys = DescriptorSystem::new(CsrMatrix::identity(1), a.to_csr(), b.to_csr(), None).unwrap();
    let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
    let t_end = 2.0;
    let m = 16;
    let exact = |t: f64| 1.0 - (-t).exp();

    println!("ẋ = −x + 1 solved in four bases, m = {m}, T = {t_end}");
    println!("{:>10} {:>14}", "basis", "max |error|");

    let bases: Vec<(&str, Box<dyn Basis>)> = vec![
        ("BPF", Box::new(BpfBasis::new(m, t_end))),
        ("Walsh", Box::new(WalshBasis::new(m, t_end))),
        ("Haar", Box::new(HaarBasis::new(m, t_end))),
        ("Legendre", Box::new(LegendreBasis::new(m, t_end))),
    ];

    let mut errors = Vec::new();
    for (name, basis) in &bases {
        let r = GeneralBasisPlan::new(&sys, basis.as_ref(), &[0.0])
            .unwrap()
            .solve(&inputs)
            .unwrap();
        let mut err = 0.0f64;
        for i in 0..400 {
            let t = t_end * (i as f64 + 0.5) / 400.0;
            err = err.max((r.reconstruct_state(basis.as_ref(), 0, t) - exact(t)).abs());
        }
        println!("{name:>10} {err:>14.3e}");
        errors.push((*name, err));
    }

    // Piecewise-constant bases share the same span, hence the same error;
    // the polynomial basis is spectrally accurate on this smooth response.
    let bpf = errors[0].1;
    let leg = errors[3].1;
    assert!((errors[1].1 - bpf).abs() < 1e-6, "Walsh spans BPF space");
    assert!((errors[2].1 - bpf).abs() < 1e-6, "Haar spans BPF space");
    assert!(leg < 1e-6 * bpf.max(1e-6), "Legendre is spectral here");
    println!("\nOK — identical span for BPF/Walsh/Haar; spectral accuracy for Legendre.");
}
