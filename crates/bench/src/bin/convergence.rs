//! **Experiment E4** — accuracy orders against analytic oracles.
//!
//! 1. Linear: OPM / trapezoidal / Gear-2 / backward Euler on the RC step
//!    response vs the exact exponential.
//! 2. Fractional: OPM vs Grünwald–Letnikov on the half-order relaxation
//!    vs the Mittag-Leffler solution.
//!
//! `cargo run --release -p opm-bench --bin convergence`

use opm_bench::{row, rule};
use opm_core::{Simulation, SolveOptions};
use opm_fracnum::mittag_leffler::ml_kernel;
use opm_sparse::{CooMatrix, CsrMatrix};
use opm_system::{DescriptorSystem, FractionalSystem};
use opm_transient::{backward_euler, bdf, gl_fractional, trapezoidal};
use opm_waveform::{InputSet, Waveform};

fn scalar(lambda: f64) -> DescriptorSystem {
    let mut a = CooMatrix::new(1, 1);
    a.push(0, 0, lambda);
    let mut b = CooMatrix::new(1, 1);
    b.push(0, 0, 1.0);
    DescriptorSystem::new(CsrMatrix::identity(1), a.to_csr(), b.to_csr(), None).unwrap()
}

fn main() {
    println!("E4a — linear convergence: ẋ = −x + 1, error at T = 1 vs m\n");
    let sys = scalar(-1.0);
    let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);
    let exact_end = 1.0 - (-1.0f64).exp();

    let widths = [8usize, 12, 12, 12, 12];
    row(
        &[
            "m".into(),
            "OPM".into(),
            "trap".into(),
            "Gear-2".into(),
            "b-Euler".into(),
        ],
        &widths,
    );
    rule(&widths);
    let mut last: Option<[f64; 4]> = None;
    let mut rates = [0.0f64; 4];
    for &m in &[32usize, 64, 128, 256, 512] {
        let u = inputs.bpf_matrix(m, 1.0);
        let opm = Simulation::from_system(sys.clone())
            .horizon(1.0)
            .plan(&SolveOptions::new().resolution(u[0].len()))
            .unwrap()
            .solve_coeffs(&u)
            .unwrap();
        // Endpoint recovery for a like-for-like endpoint comparison.
        let opm_end = opm.endpoint_series(0, 0.0)[m - 1];
        let tr = trapezoidal(&sys, &inputs, 1.0, m, &[0.0], false)
            .unwrap()
            .outputs[0][m - 1];
        let ge = bdf(&sys, &inputs, 1.0, m, 2, &[0.0], false)
            .unwrap()
            .outputs[0][m - 1];
        let be = backward_euler(&sys, &inputs, 1.0, m, &[0.0], false)
            .unwrap()
            .outputs[0][m - 1];
        let errs = [
            (opm_end - exact_end).abs(),
            (tr - exact_end).abs(),
            (ge - exact_end).abs(),
            (be - exact_end).abs(),
        ];
        row(
            &[
                format!("{m}"),
                format!("{:.2e}", errs[0]),
                format!("{:.2e}", errs[1]),
                format!("{:.2e}", errs[2]),
                format!("{:.2e}", errs[3]),
            ],
            &widths,
        );
        if let Some(prev) = last {
            for k in 0..4 {
                rates[k] = (prev[k] / errs[k]).log2();
            }
        }
        last = Some(errs);
    }
    println!(
        "\nobserved orders (last refinement): OPM {:.2}, trap {:.2}, Gear-2 {:.2}, b-Euler {:.2}",
        rates[0], rates[1], rates[2], rates[3]
    );
    assert!(
        rates[0] > 1.7 && rates[1] > 1.7 && rates[2] > 1.7,
        "2nd-order cluster"
    );
    assert!(rates[3] > 0.7 && rates[3] < 1.4, "b-Euler is 1st order");

    println!(
        "\nE4b — fractional convergence: d^½x = −x + 1 vs Mittag-Leffler, RMS over (0.2, 2]\n"
    );
    let fsys = FractionalSystem::new(0.5, scalar(-1.0)).unwrap();
    let widths = [8usize, 14, 14];
    row(&["m".into(), "OPM".into(), "GL".into()], &widths);
    rule(&widths);
    for &m in &[64usize, 128, 256, 512] {
        let t_end = 2.0;
        let u = inputs.bpf_matrix(m, t_end);
        let opm = Simulation::from_fractional(fsys.clone())
            .horizon(t_end)
            .plan(&SolveOptions::new().resolution(u[0].len()))
            .unwrap()
            .solve_coeffs(&u)
            .unwrap();
        let gl = gl_fractional(&fsys, &inputs, t_end, m, false).unwrap();
        let h = t_end / m as f64;
        let mut s_opm = 0.0;
        let mut s_gl = 0.0;
        let mut count = 0usize;
        for j in (m / 10)..m {
            let t_mid = (j as f64 + 0.5) * h;
            let t_end_pt = (j as f64 + 1.0) * h;
            let want_mid = ml_kernel(0.5, 1.5, -1.0, t_mid);
            let want_end = ml_kernel(0.5, 1.5, -1.0, t_end_pt);
            s_opm += (opm.state_coeff(0, j) - want_mid).powi(2);
            s_gl += (gl.outputs[0][j] - want_end).powi(2);
            count += 1;
        }
        row(
            &[
                format!("{m}"),
                format!("{:.3e}", (s_opm / count as f64).sqrt()),
                format!("{:.3e}", (s_gl / count as f64).sqrt()),
            ],
            &widths,
        );
    }
    println!("\nboth fractional methods converge; OPM needs no history-length tuning.");
}
