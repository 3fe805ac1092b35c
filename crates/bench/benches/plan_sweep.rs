//! Criterion bench for the plan layer: one `SimPlan` factorization
//! amortized over a scenario batch vs an independent plan + solve per
//! scenario, on an RC-ladder MNA system.

use opm_bench::criterion::{criterion_group, criterion_main, Criterion};
use opm_circuits::ladder::rc_ladder;
use opm_circuits::mna::{assemble_mna, Output};
use opm_core::{Simulation, SolveOptions};
use opm_waveform::{InputSet, Waveform};
use std::hint::black_box;

const SCENARIOS: usize = 32;

fn bench(c: &mut Criterion) {
    let sections = 24;
    let ckt = rc_ladder(sections, 1e3, 1e-9, Waveform::step(0.0, 1.0));
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(sections + 1)]).unwrap();
    let (m, t_end) = (256, 2e-5);
    let opts = SolveOptions::new().resolution(m);
    let sets: Vec<InputSet> = (0..SCENARIOS)
        .map(|s| {
            InputSet::new(vec![Waveform::pulse(
                0.0,
                1.0 + 0.1 * s as f64,
                0.0,
                1e-8 * (1 + s) as f64,
                1e-5,
                1e-7,
                0.0,
            )])
        })
        .collect();

    let mut g = c.benchmark_group("plan_sweep");
    g.sample_size(10);
    g.bench_function("naive_loop_32", |b| {
        b.iter(|| {
            for ws in &sets {
                black_box(
                    Simulation::from_system(model.system.clone())
                        .horizon(t_end)
                        .plan(&opts)
                        .unwrap()
                        .solve(ws)
                        .unwrap(),
                );
            }
        })
    });
    let sim = Simulation::from_system(model.system.clone()).horizon(t_end);
    g.bench_function("plan_batch_32", |b| {
        b.iter(|| {
            let plan = sim.plan(&opts).unwrap();
            black_box(plan.solve_batch(&sets).unwrap());
        })
    });
    let plan = sim.plan(&opts).unwrap();
    g.bench_function("plan_batch_32_prefactored", |b| {
        b.iter(|| black_box(plan.solve_batch(&sets).unwrap()))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
