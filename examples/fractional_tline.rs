//! The paper's Table I scenario: a fractional (order ½) transmission-line
//! model — 7 states, 2 ports — driven by a pulse on port 1, solved by OPM
//! and cross-checked against the FFT frequency-domain baseline.
//!
//! Run with `cargo run --example fractional_tline`.

use opm::circuits::tline::FractionalLineSpec;
use opm::core::metrics::relative_error_db_multi;
use opm::core::{Simulation, SolveOptions};
use opm::fft::FftSimulator;

fn ascii_plot(series: &[f64], label: &str) {
    let max = series
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(1e-30);
    println!("  {label} (peak {:.3e} A)", max);
    for (k, &v) in series.iter().enumerate() {
        let cols = 48;
        let mid = cols / 2;
        let pos = ((v / max) * mid as f64).round() as i64 + mid as i64;
        let mut line = vec![b' '; cols + 1];
        line[mid] = b'|';
        line[pos.clamp(0, cols as i64) as usize] = b'*';
        println!("  {k:>3} {}", String::from_utf8(line).unwrap());
    }
}

fn main() {
    let spec = FractionalLineSpec::default();
    let model = spec.assemble();
    println!(
        "Fractional line: n = {} states, α = {}, ports = {}",
        model.system.order(),
        model.system.alpha(),
        model.system.num_inputs()
    );

    // The paper's window: [0, 2.7 ns), m = 8 — plus a finer rerun.
    let t_end = 2.7e-9;
    let sim = Simulation::from_fractional(model.system.clone()).horizon(t_end);
    for m in [8usize, 64] {
        let r = sim
            .plan(&SolveOptions::new().resolution(m))
            .and_then(|plan| plan.solve(&model.inputs))
            .expect("solves");
        println!("\nOPM with m = {m}: port-1 current waveform");
        if m == 8 {
            ascii_plot(r.output_row(0), "i_port1");
        } else {
            let peak = r.output_row(0).iter().fold(0.0f64, |a, &v| a.max(v.abs()));
            println!("  (peak |i| = {peak:.3e} A over {m} intervals)");
        }
    }

    // FFT baseline at 8 and 100 sampling points (the paper's FFT-1/FFT-2),
    // compared on the m = 8 OPM grid per Eq. (30).
    let m = 8;
    let opm = sim
        .plan(&SolveOptions::new().resolution(m))
        .and_then(|plan| plan.solve(&model.inputs))
        .expect("solves");
    let opm_outputs: Vec<Vec<f64>> = (0..2).map(|o| opm.output_row(o).to_vec()).collect();
    for n_samples in [8usize, 100] {
        let fft = FftSimulator::new(n_samples).simulate(&model.system, &model.inputs, t_end);
        // Subsample the FFT result onto the 8 OPM midpoints.
        let fft_on_grid: Vec<Vec<f64>> = (0..2)
            .map(|o| {
                opm.midpoints()
                    .iter()
                    .map(|&t| fft.interpolate_output(o, t))
                    .collect()
            })
            .collect();
        let err = relative_error_db_multi(&fft_on_grid, &opm_outputs);
        println!("FFT-{n_samples:<3} vs OPM relative error: {err:>7.1} dB");
    }
    println!("\n(The finer FFT run tracks OPM more closely — the Table I shape.)");
}
