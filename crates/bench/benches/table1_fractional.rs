//! Criterion bench behind Table I: OPM vs FFT-1 vs FFT-2 on the
//! fractional transmission line (n = 7, α = ½, T = 2.7 ns, m = 8).

use opm_bench::criterion::{criterion_group, criterion_main, Criterion};
use opm_circuits::tline::FractionalLineSpec;
use opm_core::{Simulation, SolveOptions};
use opm_fft::FftSimulator;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let model = FractionalLineSpec::default().assemble();
    let t_end = 2.7e-9;
    let m = 8;
    let u = model.inputs.bpf_matrix(m, t_end);

    let mut g = c.benchmark_group("table1");
    g.bench_function("opm_m8", |b| {
        b.iter(|| {
            black_box(
                Simulation::from_fractional(model.system.clone())
                    .horizon(t_end)
                    .plan(&SolveOptions::new().resolution(u[0].len()))
                    .unwrap()
                    .solve_coeffs(black_box(&u))
                    .unwrap(),
            )
        })
    });
    let fft1 = FftSimulator::new(8);
    g.bench_function("fft1_n8", |b| {
        b.iter(|| black_box(fft1.simulate(&model.system, &model.inputs, t_end)))
    });
    let fft2 = FftSimulator::new(100);
    g.bench_function("fft2_n100", |b| {
        b.iter(|| black_box(fft2.simulate(&model.system, &model.inputs, t_end)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_main!(benches);
