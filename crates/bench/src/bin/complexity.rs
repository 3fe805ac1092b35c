//! **Experiment E2** — the paper's §IV complexity claim
//! `O(n^β m + n m²)`:
//!
//! 1. m-sweep at fixed n of whole-horizon solves — linear OPM should
//!    scale ~O(m) (one LU, m solves), and fractional OPM ~O(m log² m):
//!    its history convolution, the paper's `n m²` term, runs as direct
//!    sums within 64-column blocks plus dyadic FFT squares across them,
//!    so its fitted exponent stays near 1 (it read about 1.9 while a
//!    whole-horizon solve summed its whole history directly).
//! 2. n-sweep at fixed m — both scale with the sparse-solve cost `n^β`,
//!    `1 < β < 2`.
//! 3. W-sweep at fixed block size m of the fractional memory over
//!    `N = W·m` columns, kernel against kernel: one direct Toeplitz
//!    block per block (`history_block_into` over the store) costs
//!    `O(W²m²)` (slope ≈ 2 in `W`); the dyadic FFT squares
//!    (`HistorySquares::add_boundary`) cost `O(N log² N)` (slope toward
//!    1).
//!
//! `cargo run --release -p opm-bench --bin complexity`

use opm_basis::bpf::BpfBasis;
use opm_bench::{fmt_time, row, rule, timed, timed_best};
use opm_circuits::grid::PowerGridSpec;
use opm_circuits::mna::assemble_mna;
use opm_core::{Simulation, SolveOptions};
use opm_fracnum::history::{history_block_into, HistorySquares};
use opm_sparse::{CooMatrix, CsrMatrix};
use opm_system::{DescriptorSystem, FractionalSystem};
use opm_waveform::{InputSet, Waveform};

/// Fractional RC-style chain of order n (diagonal E, tridiagonal A).
fn chain(n: usize) -> DescriptorSystem {
    let mut a = CooMatrix::new(n, n);
    for i in 0..n {
        a.push(i, i, -2.0);
        if i + 1 < n {
            a.push(i, i + 1, 1.0);
            a.push(i + 1, i, 1.0);
        }
    }
    let mut b = CooMatrix::new(n, 1);
    b.push(0, 0, 1.0);
    DescriptorSystem::new(CsrMatrix::identity(n), a.to_csr(), b.to_csr(), None).unwrap()
}

fn main() {
    let inputs = InputSet::new(vec![
        Waveform::pulse(0.0, 1.0, 0.0, 0.05, 0.3, 0.05, 1.0).unwrap()
    ]);

    println!(
        "E2a — whole-horizon m-sweep at n = 400 (chain), plan + solve, best of 3: \
         linear ~O(m), fractional ~O(m log² m)\n"
    );
    let sys = chain(400);
    let fsys = FractionalSystem::new(0.5, chain(400)).unwrap();
    let widths = [8usize, 14, 14, 10];
    row(
        &[
            "m".into(),
            "linear".into(),
            "fractional".into(),
            "frac/lin".into(),
        ],
        &widths,
    );
    rule(&widths);
    let mut series = Vec::new();
    for &m in &[128usize, 256, 512, 1024, 2048] {
        let u = inputs.bpf_matrix(m, 4.0);
        let (_, t_lin) = timed_best(3, || {
            Simulation::from_system(sys.clone())
                .horizon(4.0)
                .plan(&SolveOptions::new().resolution(u[0].len()))
                .unwrap()
                .solve_coeffs(&u)
                .unwrap()
        });
        let (_, t_frac) = timed_best(3, || {
            Simulation::from_fractional(fsys.clone())
                .horizon(4.0)
                .plan(&SolveOptions::new().resolution(u[0].len()))
                .unwrap()
                .solve_coeffs(&u)
                .unwrap()
        });
        row(
            &[
                format!("{m}"),
                fmt_time(t_lin),
                fmt_time(t_frac),
                format!("{:.1}×", t_frac / t_lin),
            ],
            &widths,
        );
        series.push((m as f64, t_lin, t_frac));
    }
    let scaling = |a: (f64, f64), b: (f64, f64)| (b.1 / a.1).ln() / (b.0 / a.0).ln();
    let lin_order = scaling(
        (series[1].0, series[1].1),
        (series[series.len() - 1].0, series[series.len() - 1].1),
    );
    let frac_order = scaling(
        (series[1].0, series[1].2),
        (series[series.len() - 1].0, series[series.len() - 1].2),
    );
    println!(
        "\nfitted exponents in m: linear ≈ m^{lin_order:.2}, whole-horizon fractional ≈ m^{frac_order:.2}"
    );

    println!("\nE2b — n-sweep at m = 200 (power-grid MNA): sparse-solve scaling n^β\n");
    let widths = [10usize, 10, 14, 16];
    row(
        &[
            "grid".into(),
            "n".into(),
            "runtime".into(),
            "per-column".into(),
        ],
        &widths,
    );
    rule(&widths);
    let mut pts = Vec::new();
    for &g in &[6usize, 9, 13, 19, 27] {
        let spec = PowerGridSpec {
            layers: 2,
            rows: g,
            cols: g,
            num_loads: 4,
            ..Default::default()
        };
        let model = assemble_mna(&spec.build(), &[]).unwrap();
        let n = model.system.order();
        let m = 200;
        let u = model.inputs.bpf_matrix(m, 10e-9);
        let x0 = vec![0.0; n];
        let (_, secs) = timed(|| {
            Simulation::from_system(model.system.clone())
                .horizon(10e-9)
                .initial_state(x0.clone())
                .plan(&SolveOptions::new().resolution(u[0].len()))
                .unwrap()
                .solve_coeffs(&u)
                .unwrap()
        });
        row(
            &[
                format!("2×{g}×{g}"),
                format!("{n}"),
                fmt_time(secs),
                fmt_time(secs / m as f64),
            ],
            &widths,
        );
        pts.push((n as f64, secs));
    }
    let beta = (pts[pts.len() - 1].1 / pts[1].1).ln() / (pts[pts.len() - 1].0 / pts[1].0).ln();
    println!("\nfitted exponent in n: runtime ≈ n^{beta:.2} (paper: 1 < β < 2)");

    let (m, rows) = (64, 100);
    println!(
        "\nE2c — W-sweep of the fractional memory in blocks of m = {m}, n = {rows}, full history\n"
    );
    let widths = [6usize, 8, 14, 14, 10];
    row(
        &[
            "W".into(),
            "columns".into(),
            "direct".into(),
            "squares".into(),
            "dir/sq".into(),
        ],
        &widths,
    );
    rule(&widths);
    let mut wpts = Vec::new();
    for &w in &[4usize, 8, 16, 32, 64] {
        // The memory of every later block from the earlier ones, for
        // half-order weights over a one-lane store of `rows` states.
        let rho = BpfBasis::new(m, 4.0 / w as f64).frac_diff_coeffs_n(0.5, w * m);
        let store: Vec<Vec<f64>> = (0..w * m)
            .map(|c| {
                (0..rows)
                    .map(|r| (c as f64 * 0.01 + r as f64 * 0.05).sin())
                    .collect()
            })
            .collect();
        let squares = HistorySquares::new(&rho, m, m * w);
        let direct = || {
            for b in 1..w {
                let mut block = vec![vec![0.0; rows]; m];
                history_block_into(&rho, &store[..b * m], &mut block);
            }
        };
        let fft = || {
            let mut pending = Vec::new();
            for b in 1..w {
                squares.add_boundary(&rho, b, &store, &mut pending, 1, || false);
                pending.drain(..m);
            }
        };
        let (_, t_direct) = timed_best(3, direct);
        let (_, t_squares) = timed_best(3, fft);
        row(
            &[
                format!("{w}"),
                format!("{}", w * m),
                fmt_time(t_direct),
                fmt_time(t_squares),
                format!("{:.1}×", t_direct / t_squares),
            ],
            &widths,
        );
        wpts.push((w as f64, t_direct, t_squares));
    }
    let (lo, hi) = (wpts[1], wpts[wpts.len() - 1]);
    let slope = |a: f64, b: f64| (b / a).ln() / (hi.0 / lo.0).ln();
    println!(
        "\nfitted exponents in W: direct ≈ W^{:.2}, squares ≈ W^{:.2}",
        slope(lo.1, hi.1),
        slope(lo.2, hi.2)
    );
}
