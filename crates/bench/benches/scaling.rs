//! Criterion bench behind E2: OPM cost vs interval count m (linear vs
//! fractional paths) and vs system size n.

use opm_bench::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use opm_core::{Simulation, SolveOptions};
use opm_sparse::{CooMatrix, CsrMatrix};
use opm_system::{DescriptorSystem, FractionalSystem};
use opm_waveform::{InputSet, Waveform};
use std::hint::black_box;

fn chain(n: usize) -> DescriptorSystem {
    let mut a = CooMatrix::new(n, n);
    for i in 0..n {
        a.push(i, i, -2.0);
        if i + 1 < n {
            a.push(i, i + 1, 1.0);
            a.push(i + 1, i, 1.0);
        }
    }
    let mut b = CooMatrix::new(n, 1);
    b.push(0, 0, 1.0);
    DescriptorSystem::new(CsrMatrix::identity(n), a.to_csr(), b.to_csr(), None).unwrap()
}

fn bench(c: &mut Criterion) {
    let inputs = InputSet::new(vec![Waveform::Dc(1.0)]);

    let mut g = c.benchmark_group("m_sweep_n200");
    g.sample_size(10);
    let sys = chain(200);
    let fsys = FractionalSystem::new(0.5, chain(200)).unwrap();
    for &m in &[128usize, 512, 2048] {
        let u = inputs.bpf_matrix(m, 4.0);
        g.bench_with_input(BenchmarkId::new("linear", m), &m, |b, _| {
            b.iter(|| {
                black_box(
                    Simulation::from_system(sys.clone())
                        .horizon(4.0)
                        .plan(&SolveOptions::new().resolution(u[0].len()))
                        .unwrap()
                        .solve_coeffs(&u)
                        .unwrap(),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("fractional", m), &m, |b, _| {
            b.iter(|| {
                black_box(
                    Simulation::from_fractional(fsys.clone())
                        .horizon(4.0)
                        .plan(&SolveOptions::new().resolution(u[0].len()))
                        .unwrap()
                        .solve_coeffs(&u)
                        .unwrap(),
                )
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("n_sweep_m256");
    g.sample_size(10);
    for &n in &[200usize, 800, 3200] {
        let sys = chain(n);
        let u = inputs.bpf_matrix(256, 4.0);
        g.bench_with_input(BenchmarkId::new("linear", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    Simulation::from_system(sys.clone())
                        .horizon(4.0)
                        .plan(&SolveOptions::new().resolution(u[0].len()))
                        .unwrap()
                        .solve_coeffs(&u)
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
