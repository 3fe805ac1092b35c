//! Long horizons through windowed streaming.
//!
//! A 1 kΩ / 1 µF low-pass driven for 100 time constants. A single
//! block-pulse expansion would need every column in memory at once;
//! `SimPlan::solve_windowed` restarts the expansion per window and
//! carries the end-of-window state, and `SimPlan::solve_streaming`
//! hands each window's block to a callback and drops it — per-window
//! resident memory, however long the horizon.
//!
//! Run: `cargo run --example long_horizon`

use opm::prelude::*;

fn main() {
    let tau = 1e-3; // R·C
    let windows = 100;
    let m = 64;
    let t_end = 100.0 * tau;

    let sim = Simulation::from_netlist(
        "* RC low-pass, unit-suffixed SPICE values\n\
         V1 in 0 DC 5\n\
         R1 in out 1kOhm\n\
         C1 out 0 1uF\n\
         .end",
        &["out"],
    )
    .unwrap()
    .horizon(t_end);

    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();

    // Whole-horizon answer, assembled in memory: W·m columns.
    let full = plan.solve_windowed(sim.inputs().unwrap(), windows).unwrap();
    let p = plan.factor_profile();
    println!(
        "windowed : {} windows × {m} columns = {} intervals, \
         {} symbolic + {} numeric factorization(s)",
        p.num_windows,
        full.num_intervals(),
        p.num_symbolic,
        p.num_numeric
    );
    println!(
        "           v(out) at T = {:.4} V (DC gain 5 V)",
        full.output_row(0).last().unwrap()
    );
    assert_eq!((p.num_symbolic, p.num_numeric), (1, 1));

    // Streaming: watch the charge curve go by, one window at a time.
    println!("streaming: first 5 window endpoints");
    let wopts = WindowedOptions::new(windows);
    let final_state = plan
        .solve_streaming(sim.inputs().unwrap(), &wopts, |block| {
            if block.window < 5 {
                let t = block.result.bounds.last().unwrap() / tau;
                println!(
                    "           window {:>2}: t = {:>4.1} τ, v(out) = {:.4} V",
                    block.window,
                    t,
                    block.result.output_row(0).last().unwrap()
                );
            }
        })
        .unwrap();
    println!(
        "           final state after {windows} windows: {:?}",
        final_state
    );

    // The same plan still serves ordinary whole-horizon sweeps.
    let levels: Vec<_> = [1.0, 5.0]
        .iter()
        .map(|&v| opm::waveform::InputSet::new(vec![Waveform::Dc(v)]))
        .collect();
    let runs = plan.solve_batch(&levels).unwrap();
    assert!(runs[1].output_row(0)[m - 1] > runs[0].output_row(0)[m - 1]);

    // Fractional models window too: the whole Caputo/GL memory of
    // every previous window rides along as a history forcing.
    let fsim = Simulation::from_netlist(
        "* R into a half-order constant-phase element\n\
         V1 in 0 DC 1\n\
         R1 in top 100\n\
         P1 top 0 CPE 1u 0.5\n\
         .end",
        &["top"],
    )
    .unwrap()
    .horizon(1e-4); // 100× the 1e-6 horizon a whole-horizon plan would use
    let fplan = fsim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let fr = fplan.solve_windowed(fsim.inputs().unwrap(), 100).unwrap();
    let fp = fplan.factor_profile();
    println!(
        "fractional: {} windows × {m} columns (full memory), \
         {} symbolic + {} numeric factorization(s), v(top) at T = {:.4} V",
        fp.num_windows,
        fp.num_symbolic,
        fp.num_numeric,
        fr.output_row(0).last().unwrap()
    );
    assert_eq!((fp.num_symbolic, fp.num_numeric), (1, 1));
}
