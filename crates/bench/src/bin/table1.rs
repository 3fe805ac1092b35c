//! **Table I reproduction** — fractional transmission line (n = 7,
//! α = ½, 2 ports), T = 2.7 ns, m = 8: OPM vs FFT-1 (8 points) vs FFT-2
//! (100 points).
//!
//! Reports CPU time per solve and the paper's Eq. (30) relative error of
//! each FFT run *with respect to OPM* (the paper's own normalization —
//! OPM's row shows "−").
//!
//! `cargo run --release -p opm-bench --bin table1`

use opm_bench::{emit_json_record, fmt_time, row, rule, timed};
use opm_circuits::tline::FractionalLineSpec;
use opm_core::metrics::relative_error_db_multi;
use opm_core::{Simulation, SolveOptions};
use opm_fft::FftSimulator;

fn main() {
    let spec = FractionalLineSpec::default();
    let model = spec.assemble();
    let t_end = 2.7e-9;
    let m = 8;
    println!(
        "Table I — fractional line: n = {}, α = {}, p = q = {}, T = {:.1e} s, m = {m}",
        model.system.order(),
        model.system.alpha(),
        model.system.num_inputs(),
        t_end
    );
    println!();

    const REPS: usize = 200;
    // The methods here run in single-digit microseconds, where a
    // throttling phase on a shared machine can flip the ordering the
    // shape check asserts. The timing rounds are therefore
    // *interleaved* — every round times OPM and both FFT runs back to
    // back, so a slow phase hits all three methods alike — and each
    // method reports its best round.
    const ROUNDS: usize = 5;

    // OPM.
    let u = model.inputs.bpf_matrix(m, t_end);
    let opm_round = || {
        let mut last = None;
        for _ in 0..REPS {
            last = Some(
                Simulation::from_fractional(model.system.clone())
                    .horizon(t_end)
                    .plan(&SolveOptions::new().resolution(u[0].len()))
                    .unwrap()
                    .solve_coeffs(&u)
                    .unwrap(),
            );
        }
        last.unwrap()
    };
    const FFT_RUNS: [(&str, usize); 2] = [("FFT-1", 8), ("FFT-2", 100)];
    let fft_sims: Vec<FftSimulator> = FFT_RUNS
        .iter()
        .map(|&(_, n_samples)| FftSimulator::new(n_samples))
        .collect();
    let fft_round = |sim: &FftSimulator| {
        let mut last = None;
        for _ in 0..REPS {
            last = Some(sim.simulate(&model.system, &model.inputs, t_end));
        }
        last.unwrap()
    };

    let (mut opm, mut t_opm) = timed(opm_round);
    let mut fft_runs: Vec<(_, f64)> = fft_sims.iter().map(|s| timed(|| fft_round(s))).collect();
    for _ in 1..ROUNDS {
        let (o, s) = timed(opm_round);
        if s < t_opm {
            (opm, t_opm) = (o, s);
        }
        for (sim, run) in fft_sims.iter().zip(fft_runs.iter_mut()) {
            let (r, s) = timed(|| fft_round(sim));
            if s < run.1 {
                *run = (r, s);
            }
        }
    }
    let opm_out: Vec<Vec<f64>> = (0..2).map(|o| opm.output_row(o).to_vec()).collect();

    // FFT baselines.
    let mut results = Vec::new();
    for ((name, _), (res, t_fft)) in FFT_RUNS.into_iter().zip(fft_runs) {
        // Interpolate the FFT waveform on OPM's midpoints for the Eq. (30)
        // comparison.
        let on_grid: Vec<Vec<f64>> = (0..2)
            .map(|o| {
                opm.midpoints()
                    .iter()
                    .map(|&t| res.interpolate_output(o, t))
                    .collect()
            })
            .collect();
        let err_db = relative_error_db_multi(&on_grid, &opm_out);
        results.push((name, t_fft / REPS as f64, Some(err_db)));
    }
    results.push(("OPM", t_opm / REPS as f64, None));

    for (name, secs, err) in &results {
        emit_json_record(&format!("table1/{name}"), *secs, *err);
    }

    let widths = [8usize, 14, 18];
    row(
        &["Method".into(), "CPU time".into(), "Rel. error (dB)".into()],
        &widths,
    );
    rule(&widths);
    for (name, secs, err) in &results {
        row(
            &[
                (*name).into(),
                fmt_time(*secs),
                err.map_or("-".into(), |e| format!("{e:.1}")),
            ],
            &widths,
        );
    }
    println!();
    println!("paper reported: FFT-1 6.09 ms / −29.2 dB · FFT-2 40.7 ms / −46.5 dB · OPM 3.56 ms");
    println!(
        "reproduction criteria: err(FFT-2) < err(FFT-1); time(OPM) < time(FFT-1) < time(FFT-2)"
    );

    let e1 = results[0].2.unwrap();
    let e2 = results[1].2.unwrap();
    let (t1, t2, topm) = (results[0].1, results[1].1, results[2].1);
    assert!(e2 < e1, "FFT-2 must track OPM better");
    assert!(topm < t1 && t1 < t2, "timing order: OPM < FFT-1 < FFT-2");
    println!("shape check: PASS");
}
