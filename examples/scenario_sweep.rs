//! Scenario sweep: amortize one pencil factorization over a whole
//! parameter study with `SimPlan::solve_batch` / `SimPlan::sweep`, and
//! compare against re-solving from scratch per scenario.
//!
//! Run with `cargo run --release --example scenario_sweep`.

use std::time::Instant;

use opm::circuits::ladder::rc_ladder;
use opm::circuits::mna::{assemble_mna, Output};
use opm::prelude::*;

fn main() {
    // A 40-section RC ladder: large enough that factoring dominates a
    // single solve.
    let sections = 40;
    let ckt = rc_ladder(sections, 1e3, 1e-9, Waveform::step(0.0, 1.0));
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(sections + 1)]).expect("assembles");
    let (m, t_end) = (512, 2e-5);
    let opts = SolveOptions::new().resolution(m);

    // The study: 60 rise-time variants of the drive edge.
    let rises: Vec<f64> = (0..60).map(|i| 1e-8 * (1.0 + i as f64)).collect();
    let stimulus = |&rise: &f64| {
        InputSet::new(vec![
            Waveform::pulse(0.0, 1.0, 0.0, rise, 1e-5, 1e-7, 0.0).unwrap()
        ])
    };

    // Naive: a fresh plan per scenario re-validates, re-orders and
    // re-factors every time; its cost is the sum of the plans' profiles.
    let t0 = Instant::now();
    let mut naive_factorizations = 0;
    let naive: Vec<_> = rises
        .iter()
        .map(|r| {
            let plan = Simulation::from_system(model.system.clone())
                .horizon(t_end)
                .plan(&opts)
                .expect("plans");
            naive_factorizations += plan.factor_profile().num_factorizations();
            plan.solve(&stimulus(r)).expect("solves")
        })
        .collect();
    let naive_s = t0.elapsed().as_secs_f64();

    // Planned: factor once, sweep all scenarios through the pencil in a
    // single interleaved pass.
    let sim = Simulation::from_system(model.system.clone()).horizon(t_end);
    let plan = sim.plan(&opts).expect("plans");
    let t0 = Instant::now();
    let sets: Vec<InputSet> = rises.iter().map(stimulus).collect();
    let planned = plan.solve_batch(&sets).expect("sweeps");
    let plan_s = t0.elapsed().as_secs_f64();

    // Same numbers, different cost.
    let mut worst = 0.0f64;
    for (a, b) in naive.iter().zip(&planned) {
        for j in 0..m {
            worst = worst.max((a.output_row(0)[j] - b.output_row(0)[j]).abs());
        }
    }
    println!(
        "{} scenarios, n = {} unknowns, m = {m} columns",
        rises.len(),
        plan.order()
    );
    println!("naive loop : {naive_s:.3} s  ({naive_factorizations} factorizations)");
    println!(
        "plan sweep : {plan_s:.3} s  ({} factorization)",
        plan.factor_profile().num_factorizations()
    );
    println!(
        "speedup    : {:.1}×   max |Δ| = {worst:.2e}",
        naive_s / plan_s
    );
    assert_eq!(plan.factor_profile().num_factorizations(), 1);
    assert!(worst < 1e-12, "batch must reproduce the loop exactly");
}
