//! Quickstart: simulate an RC low-pass with the `Simulation`/`SimPlan`
//! session API, check it against the analytic solution, then sweep the
//! drive level through the same factorization.
//!
//! Run with `cargo run --example quickstart`.

use opm::prelude::*;

fn main() {
    // 1 kΩ / 1 µF low-pass driven by a 5 V step at t = 0.
    let r = 1e3;
    let c = 1e-6;
    let tau = r * c;
    let sim = Simulation::from_netlist(
        "* RC low-pass\n\
         V1 in 0 DC 5\n\
         R1 in out 1k\n\
         C1 out 0 1u\n\
         .end",
        &["out"],
    )
    .expect("assembles")
    .horizon(5.0 * tau);

    let m = 200;
    let plan = sim.plan(&SolveOptions::new().resolution(m)).expect("plans");
    let result = plan
        .solve(sim.inputs().expect("netlist sources"))
        .expect("solves");

    println!(
        "RC step response (τ = {:.1e} s), OPM with m = {m} intervals",
        tau
    );
    println!(
        "{:>12} {:>12} {:>12} {:>10}",
        "t [s]", "OPM [V]", "exact [V]", "err"
    );
    let t_end = 5.0 * tau;
    let mut worst: f64 = 0.0;
    for j in 0..m {
        let t = (j as f64 + 0.5) * t_end / m as f64;
        let got = result.output_row(0)[j];
        let want = 5.0 * (1.0 - (-t / tau).exp());
        worst = worst.max((got - want).abs());
        if j % 25 == 0 || j == m - 1 {
            println!(
                "{t:>12.4e} {got:>12.6} {want:>12.6} {:>10.2e}",
                (got - want).abs()
            );
        }
    }
    println!("\nmax |error| over all {m} intervals: {worst:.2e} V");
    assert!(worst < 1e-3, "unexpectedly large error");

    // A drive-level study through the SAME factorization: the plan was
    // factored once, the batch is swept through it in a single pass.
    let levels = [1.0, 2.0, 3.0, 4.0, 5.0];
    let sets: Vec<InputSet> = levels
        .iter()
        .map(|&v| InputSet::new(vec![Waveform::Dc(v)]))
        .collect();
    let runs = plan.solve_batch(&sets).expect("sweeps");
    println!(
        "\ndrive-level sweep (one factorization, {} scenarios):",
        levels.len()
    );
    for (level, run) in levels.iter().zip(&runs) {
        println!(
            "  V = {level} V  →  v_out(T) = {:.4} V",
            run.output_row(0)[m - 1]
        );
    }
    let factorizations = plan.factor_profile().num_factorizations();
    assert_eq!(factorizations, 1);
    println!("factorizations performed by the plan: {factorizations}");
    println!("OK — OPM matches the analytic charge curve.");
}
