//! Adaptive time steps (paper §III-B): OPM concentrates columns where the
//! waveform moves and stretches them when it is quiet.
//!
//! Run with `cargo run --example adaptive_step`.

use opm::circuits::ladder::rc_ladder;
use opm::circuits::mna::{assemble_mna, Output};
use opm::core::adaptive::AdaptiveOpmOptions;
use opm::core::{Simulation, SolveOptions};
use opm::waveform::Waveform;

fn main() {
    // A fast pulse hits a 5-section RC ladder; afterwards everything
    // settles for a long quiet tail.
    let drive = Waveform::pulse(0.0, 1.0, 10e-6, 1e-6, 20e-6, 1e-6, 0.0).unwrap();
    let ckt = rc_ladder(5, 1e3, 1e-9, drive);
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(6)]).expect("assembles");
    let t_end = 2e-3;
    let x0 = vec![0.0; model.system.order()];

    let sim = Simulation::from_system(model.system.clone())
        .horizon(t_end)
        .initial_state(x0);
    let adaptive_plan = sim
        .plan(&SolveOptions::new().adaptive(AdaptiveOpmOptions {
            tol: 1e-6,
            h0: 1e-6,
            h_min: 1e-9,
            h_max: 1e-4,
        }))
        .expect("adaptive plans");
    let adaptive = adaptive_plan.solve(&model.inputs).expect("adaptive solves");

    // Uniform run with the same *smallest* step the pulse required.
    let h_min_used = adaptive
        .bounds
        .windows(2)
        .map(|w| w[1] - w[0])
        .fold(f64::INFINITY, f64::min);
    let m_uniform = (t_end / h_min_used).ceil() as usize;

    println!(
        "adaptive OPM: {} columns, {} factorizations",
        adaptive.num_intervals(),
        adaptive_plan.factor_profile().num_factorizations()
    );
    println!("uniform OPM at the same finest step would need {m_uniform} columns");
    let ratio = m_uniform as f64 / adaptive.num_intervals() as f64;
    println!("column savings: {ratio:.1}×");

    // Sanity: the adaptive run still matches a (moderately) fine uniform
    // run at the probe output.
    let m_check = 4000;
    let uniform = sim
        .plan(&SolveOptions::new().resolution(m_check))
        .and_then(|plan| plan.solve(&model.inputs))
        .expect("uniform solves");
    // Compare interval averages against interval averages: average the
    // uniform cells covered by each adaptive interval.
    let mut worst = 0.0f64;
    for (j, w) in adaptive.bounds.windows(2).enumerate() {
        let k0 = ((w[0] / t_end) * m_check as f64).round() as usize;
        let k1 = (((w[1] / t_end) * m_check as f64).round() as usize).min(m_check);
        if k1 <= k0 {
            continue;
        }
        let avg: f64 = (k0..k1).map(|k| uniform.output_row(0)[k]).sum::<f64>() / (k1 - k0) as f64;
        worst = worst.max((adaptive.output_row(0)[j] - avg).abs());
    }
    println!("max deviation vs fine uniform run (average-vs-average): {worst:.2e} V");
    assert!(
        ratio > 3.0,
        "adaptivity should save columns on this workload"
    );
    assert!(worst < 2e-2, "accuracy must be preserved");
    println!("OK — adaptive OPM is cheaper at matched accuracy.");
}
