//! Table II scenario at example scale: a 3-D RLC power grid simulated
//! with OPM on the second-order nodal (NA) model, cross-checked against
//! trapezoidal integration of the first-order MNA model.
//!
//! Run with `cargo run --example power_grid`.

use opm::circuits::grid::PowerGridSpec;
use opm::circuits::mna::assemble_mna;
use opm::circuits::na::assemble_na;
use opm::core::{Simulation, SolveOptions};
use opm::transient::trapezoidal;

fn main() {
    let spec = PowerGridSpec {
        layers: 3,
        rows: 6,
        cols: 6,
        num_loads: 6,
        ..Default::default()
    };
    let ckt = spec.build();
    let na = assemble_na(&ckt, &[]).expect("NA assembles");
    let mna = assemble_mna(&ckt, &[]).expect("MNA assembles");
    println!(
        "power grid {}×{}×{}: NA model n = {}, MNA model n = {} (paper: 75 K vs 110 K)",
        spec.layers,
        spec.rows,
        spec.cols,
        na.system.order(),
        mna.system.order()
    );

    let t_end = 10e-9;
    let m = 400;

    // OPM on the second-order model: C v̈ + G v̇ + Γ v = B·J̇ (the engine
    // differentiates the load waveforms exactly).
    let t0 = std::time::Instant::now();
    let opm = Simulation::from_second_order(na.system.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(m))
        .and_then(|plan| plan.solve(&na.inputs))
        .expect("OPM solves");
    let opm_time = t0.elapsed();

    // Trapezoidal on the (larger) MNA model.
    let x0 = vec![0.0; mna.system.order()];
    let t0 = std::time::Instant::now();
    let trap = trapezoidal(&mna.system, &mna.inputs, t_end, m, &x0, false).expect("trap solves");
    let trap_time = t0.elapsed();

    // Compare the worst-droop node voltage between formulations. The DC
    // operating point is vdd; both start from 0, so compare directly.
    let probe = 0usize; // node 1 voltage is state 0 in both models
    let mut worst = 0.0f64;
    for j in 1..m {
        let mid_trap = 0.5 * (trap.outputs[probe][j - 1] + trap.outputs[probe][j]);
        worst = worst.max((opm.state_coeff(probe, j) - mid_trap).abs());
    }
    println!("OPM (NA, n = {}):          {opm_time:?}", na.system.order());
    println!(
        "trapezoidal (MNA, n = {}): {trap_time:?}",
        mna.system.order()
    );
    println!("cross-formulation deviation at node 1: {worst:.3e} V");
    assert!(worst < 2e-2 * spec.vdd, "formulations disagree");
    println!("OK — the second-order OPM run reproduces the MNA transient.");
}
