//! Criterion bench behind E1: adaptive vs fixed-step OPM on the
//! pulse-then-quiet workload.

use opm_bench::criterion::{criterion_group, criterion_main, Criterion};
use opm_circuits::ladder::rc_ladder;
use opm_circuits::mna::{assemble_mna, Output};
use opm_core::adaptive::AdaptiveOpmOptions;
use opm_core::{Simulation, SolveOptions};
use opm_waveform::Waveform;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let drive = Waveform::pulse(0.0, 1.0, 10e-6, 1e-6, 20e-6, 1e-6, 0.0);
    let ckt = rc_ladder(8, 1e3, 1e-9, drive);
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(9)]).unwrap();
    let t_end = 2e-3;
    let x0 = vec![0.0; model.system.order()];

    let mut g = c.benchmark_group("adaptive");
    g.sample_size(10);
    let m = 32_768;
    let u = model.inputs.bpf_matrix(m, t_end);
    g.bench_function("fixed_m32768", |b| {
        b.iter(|| {
            black_box(
                Simulation::from_system(model.system.clone())
                    .horizon(t_end)
                    .initial_state(x0.clone())
                    .plan(&SolveOptions::new().resolution(m))
                    .unwrap()
                    .solve_coeffs(&u)
                    .unwrap(),
            )
        })
    });
    g.bench_function("adaptive_tol1e-6", |b| {
        b.iter(|| {
            black_box(
                Simulation::from_system(model.system.clone())
                    .horizon(t_end)
                    .initial_state(x0.clone())
                    .plan(&SolveOptions::new().adaptive(AdaptiveOpmOptions {
                        tol: 1e-6,
                        h0: 1e-6,
                        h_min: 1e-9,
                        h_max: 1e-4,
                    }))
                    .unwrap()
                    .solve(&model.inputs)
                    .unwrap(),
            )
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
