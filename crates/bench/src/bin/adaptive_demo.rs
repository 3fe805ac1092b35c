//! **Experiment E1** — the §III-B/§V claim: adaptive time steps give "a
//! more flexible simulation with lower runtime".
//!
//! A fast pulse hits an RC ladder, then a long quiet tail follows.
//! Fixed-step OPM must carry the pulse-resolving step across the whole
//! window; adaptive OPM relaxes the step after the transient and spends
//! far fewer columns at matched accuracy.
//!
//! `cargo run --release -p opm-bench --bin adaptive_demo`

use opm_bench::{fmt_time, row, rule, timed};
use opm_circuits::ladder::rc_ladder;
use opm_circuits::mna::{assemble_mna, Output};
use opm_core::adaptive::AdaptiveOpmOptions;
use opm_core::{Simulation, SolveOptions};
use opm_waveform::Waveform;

fn main() {
    let drive = Waveform::pulse(0.0, 1.0, 10e-6, 50e-9, 2e-6, 50e-9, 0.0).unwrap();
    let ckt = rc_ladder(8, 1e3, 0.1e-9, drive);
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(9)]).unwrap();
    let t_end = 2e-3;
    let x0 = vec![0.0; model.system.order()];

    // Accuracy yardstick: a very fine uniform run.
    let m_ref = 1 << 18;
    let u_ref = model.inputs.bpf_matrix(m_ref, t_end);
    let sim = Simulation::from_system(model.system.clone())
        .horizon(t_end)
        .initial_state(x0.clone());
    let reference = sim
        .plan(&SolveOptions::new().resolution(u_ref[0].len()))
        .unwrap()
        .solve_coeffs(&u_ref)
        .unwrap();
    let ref_avg = |a: f64, b: f64| -> f64 {
        let k0 = ((a / t_end) * m_ref as f64).round() as usize;
        let k1 = (((b / t_end) * m_ref as f64).round() as usize).min(m_ref);
        (k0..k1.max(k0 + 1))
            .map(|k| reference.output_row(0)[k.min(m_ref - 1)])
            .sum::<f64>()
            / (k1.max(k0 + 1) - k0) as f64
    };
    // Length-weighted L² error of the piecewise-constant reconstruction
    // over the whole window — the functional norm both grids share.
    let err_of = |bounds: &[f64], series: &[f64]| -> f64 {
        let mut s = 0.0;
        for (w, &v) in bounds.windows(2).zip(series) {
            let d = v - ref_avg(w[0], w[1]);
            s += d * d * (w[1] - w[0]);
        }
        (s / t_end).sqrt()
    };

    println!("E1 — adaptive vs fixed-step OPM on pulse-then-quiet RC ladder (T = 2 ms)\n");
    let widths = [22usize, 10, 12, 12, 14];
    row(
        &[
            "run".into(),
            "columns".into(),
            "factor.".into(),
            "runtime".into(),
            "L2 err (V)".into(),
        ],
        &widths,
    );
    rule(&widths);

    for &m in &[2048usize, 16384, 131072] {
        let u = model.inputs.bpf_matrix(m, t_end);
        let (r, secs) = timed(|| {
            sim.clone()
                .plan(&SolveOptions::new().resolution(u[0].len()))
                .unwrap()
                .solve_coeffs(&u)
                .unwrap()
        });
        let err = err_of(&r.bounds, r.output_row(0));
        row(
            &[
                format!("fixed m = {m}"),
                format!("{m}"),
                "1".into(),
                fmt_time(secs),
                format!("{err:.2e}"),
            ],
            &widths,
        );
    }

    let ((ada, ada_profile), secs) = timed(|| {
        let plan = sim
            .clone()
            .plan(&SolveOptions::new().adaptive(AdaptiveOpmOptions {
                tol: 1e-5,
                h0: 1e-7,
                h_min: 2e-8,
                h_max: 1e-4,
            }))
            .unwrap();
        let run = plan.solve(&model.inputs).unwrap();
        (run, plan.factor_profile())
    });
    let err = err_of(&ada.bounds, ada.output_row(0));
    row(
        &[
            "adaptive (tol 1e-5)".into(),
            format!("{}", ada.num_intervals()),
            format!("{}", ada_profile.num_factorizations()),
            fmt_time(secs),
            format!("{err:.2e}"),
        ],
        &widths,
    );
    println!("\nthe adaptive run resolves the 50 ns edges only around the pulse and stretches");
    println!("to h_max in the tail — far fewer columns than an error-matched fixed grid.");
}
