//! Integration: fill audit of the pencil ordering. Every OPM pencil
//! `σE − A` is factored under approximate minimum degree; this compares
//! nnz(L+U) under AMD and under RCM on the repo's real pencils, and ties
//! the plan's reported `FactorProfile::factor_nnz` to the AMD count.

use std::fmt::Write as _;

use opm::circuits::grid::PowerGridSpec;
use opm::circuits::ladder::rlc_ladder;
use opm::circuits::mna::{assemble_fractional_mna, assemble_mna, assemble_nonlinear_mna};
use opm::circuits::parser::parse_netlist;
use opm::prelude::*;
use opm::sparse::ordering::{amd, rcm};
use opm::sparse::{CsrMatrix, ShiftedPencil, SymbolicLu};

/// nnz(L+U) of `σE − A` under AMD and under RCM, factored the way the
/// engine factors it: union pattern, ordering of that pattern, recorded
/// symbolic analysis (structural zeros kept).
fn audit(name: &str, e: &CsrMatrix, a: &CsrMatrix, sigma: f64) -> (usize, usize) {
    let mut pencil = ShiftedPencil::new(e, a);
    let pattern = pencil.pattern().to_csr();
    let (by_amd, by_rcm) = (amd(&pattern), rcm(&pattern));
    let csc = pencil.shifted(sigma);
    let nnz = |order| SymbolicLu::factor(csc, Some(order)).unwrap().1.nnz();
    let (amd_nnz, rcm_nnz) = (nnz(&by_amd), nnz(&by_rcm));
    println!(
        "{name}: n = {}, nnz(L+U) AMD {amd_nnz}, RCM {rcm_nnz}",
        pattern.nrows()
    );
    assert!(
        amd_nnz <= rcm_nnz,
        "{name}: AMD fill {amd_nnz} exceeds RCM fill {rcm_nnz}"
    );
    (amd_nnz, rcm_nnz)
}

/// The `k×k` RC mesh the serving benchmarks use (n = k² + 1).
fn mesh_netlist(k: usize) -> String {
    let mut s = String::from("* RC mesh\nV1 n1_1 0 DC 1\n");
    let mut r = 0usize;
    for i in 1..=k {
        for j in 1..=k {
            if j < k {
                r += 1;
                let _ = writeln!(s, "R{r} n{i}_{j} n{i}_{} 100", j + 1);
            }
            if i < k {
                r += 1;
                let _ = writeln!(s, "R{r} n{i}_{j} n{}_{j} 100", i + 1);
            }
            let _ = writeln!(s, "C{i}_{j} n{i}_{j} 0 1n");
        }
    }
    s.push_str(".end\n");
    s
}

/// nnz(L+U) of the 48×48 mesh pencil under AMD.
const AMD_MESH_NNZ: usize = 62_556;

#[test]
fn rc_mesh_fill_halves_and_the_plan_reports_it() {
    let (m, t_end) = (8, 2e-6);
    let netlist = mesh_netlist(48);
    let model = assemble_mna(&parse_netlist(&netlist).unwrap().circuit, &[]).unwrap();
    let sigma = 2.0 * m as f64 / t_end;
    let (amd_nnz, rcm_nnz) = audit("48x48 RC mesh", model.system.e(), model.system.a(), sigma);
    assert_eq!(amd_nnz, AMD_MESH_NNZ);
    assert_eq!(rcm_nnz, 151_955);
    assert!(amd_nnz <= 80_000);

    // The plan's reference factorization is this one.
    let sim = Simulation::from_netlist(&netlist, &["n48_48"])
        .unwrap()
        .horizon(t_end);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    assert_eq!(plan.factor_profile().factor_nnz, amd_nnz);
}

#[test]
fn table2_grid_fill() {
    let spec = PowerGridSpec {
        layers: 3,
        rows: 8,
        cols: 8,
        num_loads: 8,
        l_via: 2e-10,
        c_node: 2e-11,
        ..Default::default()
    };
    let model = assemble_mna(&spec.build(), &[]).unwrap();
    audit(
        "Table II grid",
        model.system.e(),
        model.system.a(),
        2.0 / 10e-12,
    );
}

#[test]
fn rlc_ladder_fill() {
    let ckt = rlc_ladder(32, 1.0, 1e-3, 1e-6, Waveform::Dc(1.0));
    let model = assemble_mna(&ckt, &[]).unwrap();
    let (amd_nnz, rcm_nnz) = audit("RLC ladder", model.system.e(), model.system.a(), 2e5);
    assert_eq!(amd_nnz, rcm_nnz, "a ladder has no fill to save");
}

#[test]
fn cpe_ladder_fill() {
    let mut netlist = String::from("* R-CPE ladder\nV1 in 0 DC 1\n");
    let mut prev = "in".to_string();
    for k in 1..=64 {
        let _ = writeln!(netlist, "R{k} {prev} n{k} 1e3");
        let _ = writeln!(netlist, "P{k} n{k} 0 CPE 1e-6 0.5");
        prev = format!("n{k}");
    }
    netlist.push_str(".end\n");
    let ckt = parse_netlist(&netlist).unwrap().circuit;
    let model = assemble_fractional_mna(&ckt, 0.5, &[]).unwrap();
    let sys = model.system.system();
    let sigma = (2.0 * 64.0 / 1e-3f64).sqrt();
    let (amd_nnz, rcm_nnz) = audit("64-section R-CPE ladder", sys.e(), sys.a(), sigma);
    assert_eq!(amd_nnz, rcm_nnz, "a ladder has no fill to save");
}

#[test]
fn diode_rectifier_fill() {
    let mut netlist = String::from(
        "* rectifier into an RC ladder\nV1 in 0 SIN(0 1 1)\nR0 in a 0.1\nD1 a out 1e-14\nC0 out 0 0.2\n",
    );
    let mut prev = "out".to_string();
    for k in 1..=32 {
        let _ = writeln!(netlist, "R{k} {prev} l{k} 0.05");
        let _ = writeln!(netlist, "C{k} l{k} 0 0.01");
        prev = format!("l{k}");
    }
    netlist.push_str("RL l32 0 10\n.end\n");
    let ckt = parse_netlist(&netlist).unwrap().circuit;
    let nl = assemble_nonlinear_mna(&ckt, &[]).unwrap();
    let sys = &nl.model.system;
    audit("diode rectifier", sys.e(), sys.a(), 2.0 * 128.0 / 2.0);
}
