//! Criterion bench for the sparse substrate: LU factorization/solve and
//! SpMV on power-grid matrices, with and without fill-reducing orderings,
//! plus the orderings themselves on the 48×48 RC mesh pencil the serving
//! benchmarks factor.

use opm_bench::criterion::{criterion_group, criterion_main, Criterion};
use opm_circuits::grid::PowerGridSpec;
use opm_circuits::mna::assemble_mna;
use opm_circuits::parser::parse_netlist;
use opm_sparse::ordering::{amd, rcm};
use opm_sparse::{ShiftedPencil, SparseLu, SymbolicLu};
use std::fmt::Write as _;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let spec = PowerGridSpec {
        layers: 2,
        rows: 16,
        cols: 16,
        num_loads: 8,
        ..Default::default()
    };
    let model = assemble_mna(&spec.build(), &[]).unwrap();
    let n = model.system.order();
    // OPM pencil at h = 10 ps.
    let pencil = model
        .system
        .e()
        .lin_comb(2.0 / 10e-12, -1.0, model.system.a());
    let csc = pencil.to_csc();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();

    let mut g = c.benchmark_group("sparse");
    g.bench_function("spmv", |b| {
        b.iter(|| black_box(pencil.mul_vec(black_box(&x))))
    });
    g.bench_function("lu_natural", |b| {
        b.iter(|| black_box(SparseLu::factor(&csc, None).unwrap()))
    });
    let order_rcm = rcm(&pencil);
    g.bench_function("lu_rcm", |b| {
        b.iter(|| black_box(SparseLu::factor(&csc, Some(&order_rcm)).unwrap()))
    });
    let order_amd = amd(&pencil);
    g.bench_function("lu_amd", |b| {
        b.iter(|| black_box(SparseLu::factor(&csc, Some(&order_amd)).unwrap()))
    });
    let lu = SparseLu::factor(&csc, Some(&order_amd)).unwrap();
    g.bench_function("lu_solve", |b| {
        b.iter(|| black_box(lu.solve(black_box(&x))))
    });
    g.finish();
}

/// The 48×48 RC mesh pencil (n = 2305) at the serving benchmarks' window
/// shift: ordering cost against the symbolic LU and column solve it buys.
fn mesh(c: &mut Criterion) {
    let k = 48;
    let mut netlist = String::from("* RC mesh\nV1 n1_1 0 DC 1\n");
    let mut r = 0usize;
    for i in 1..=k {
        for j in 1..=k {
            if j < k {
                r += 1;
                let _ = writeln!(netlist, "R{r} n{i}_{j} n{i}_{} 100", j + 1);
            }
            if i < k {
                r += 1;
                let _ = writeln!(netlist, "R{r} n{i}_{j} n{}_{j} 100", i + 1);
            }
            let _ = writeln!(netlist, "C{i}_{j} n{i}_{j} 0 1n");
        }
    }
    netlist.push_str(".end\n");
    let model = assemble_mna(&parse_netlist(&netlist).unwrap().circuit, &[]).unwrap();
    let mut pencil = ShiftedPencil::new(model.system.e(), model.system.a());
    let pattern = pencil.pattern().to_csr();
    let csc = pencil.shifted(2.0 * 8.0 * 4.0 / 2e-6).clone();
    let x: Vec<f64> = (0..pattern.nrows())
        .map(|i| (i as f64 * 0.1).sin())
        .collect();

    let mut g = c.benchmark_group("mesh48");
    g.bench_function("order_rcm", |b| {
        b.iter(|| black_box(rcm(black_box(&pattern))))
    });
    g.bench_function("order_amd", |b| {
        b.iter(|| black_box(amd(black_box(&pattern))))
    });
    for (name, order) in [("rcm", rcm(&pattern)), ("amd", amd(&pattern))] {
        g.bench_function(&format!("symbolic_lu_{name}"), |b| {
            b.iter(|| black_box(SymbolicLu::factor(&csc, Some(&order)).unwrap()))
        });
        let (_, lu) = SymbolicLu::factor(&csc, Some(&order)).unwrap();
        g.bench_function(&format!("solve_{name}"), |b| {
            b.iter(|| black_box(lu.solve(black_box(&x))))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench, mesh
}
criterion_main!(benches);
