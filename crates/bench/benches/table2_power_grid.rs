//! Criterion bench behind Table II: per-method runtimes on the power
//! grid at harness scale (same step h = 10 ps for all).

use opm_bench::criterion::{criterion_group, criterion_main, Criterion};
use opm_circuits::grid::PowerGridSpec;
use opm_circuits::mna::assemble_mna;
use opm_circuits::na::assemble_na;
use opm_core::{Simulation, SolveOptions};
use opm_transient::{backward_euler, bdf, trapezoidal};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let spec = PowerGridSpec {
        layers: 3,
        rows: 8,
        cols: 8,
        num_loads: 8,
        l_via: 2e-10,
        c_node: 2e-11,
        r_segment: 0.2,
        period: 4e-9,
        ..Default::default()
    };
    let ckt = spec.build();
    let na = assemble_na(&ckt, &[]).unwrap();
    let mna = assemble_mna(&ckt, &[]).unwrap();
    let t_end = 10e-9;
    let m = 1000;
    let x0 = vec![0.0; mna.system.order()];
    let bounds: Vec<f64> = (0..=m).map(|k| k as f64 * t_end / m as f64).collect();
    let u_dot = na.inputs.derivative_averages_on_grid(&bounds);
    let mt = na.system.to_multiterm();

    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    g.bench_function("b_euler_mna_h10ps", |b| {
        b.iter(|| {
            black_box(backward_euler(&mna.system, &mna.inputs, t_end, m, &x0, false).unwrap())
        })
    });
    g.bench_function("gear2_mna_h10ps", |b| {
        b.iter(|| black_box(bdf(&mna.system, &mna.inputs, t_end, m, 2, &x0, false).unwrap()))
    });
    g.bench_function("trapezoidal_mna_h10ps", |b| {
        b.iter(|| black_box(trapezoidal(&mna.system, &mna.inputs, t_end, m, &x0, false).unwrap()))
    });
    g.bench_function("opm_na_h10ps", |b| {
        b.iter(|| {
            black_box(
                Simulation::from_multiterm(mt.clone())
                    .horizon(t_end)
                    .plan(&SolveOptions::new().resolution(u_dot[0].len()))
                    .unwrap()
                    .solve_coeffs(black_box(&u_dot))
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
