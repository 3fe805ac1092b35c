//! Integration: the Table II pipeline at test scale — NA vs MNA
//! formulations, OPM vs all classical baselines on the same power grid.

use opm::circuits::grid::PowerGridSpec;
use opm::circuits::mna::assemble_mna;
use opm::circuits::na::assemble_na;
use opm::core::{Simulation, SolveOptions};
use opm::transient::{backward_euler, bdf, fine_reference, trapezoidal};

fn small_grid() -> PowerGridSpec {
    PowerGridSpec {
        layers: 2,
        rows: 4,
        cols: 4,
        num_loads: 3,
        ..Default::default()
    }
}

#[test]
fn na_opm_matches_mna_trapezoidal_exactly_in_class() {
    let spec = small_grid();
    let ckt = spec.build();
    let na = assemble_na(&ckt, &[]).unwrap();
    let mna = assemble_mna(&ckt, &[]).unwrap();
    assert_eq!(na.system.order(), spec.num_nodes());
    assert_eq!(mna.system.order(), spec.num_nodes() + spec.num_vias());

    let t_end = 8e-9;
    let m = 256;
    let bounds: Vec<f64> = (0..=m).map(|k| k as f64 * t_end / m as f64).collect();
    let u_dot = na.inputs.derivative_averages_on_grid(&bounds);
    let mt = na.system.to_multiterm();
    let opm = Simulation::from_multiterm(mt.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(u_dot[0].len()))
        .unwrap()
        .solve_coeffs(&u_dot)
        .unwrap();

    let x0 = vec![0.0; mna.system.order()];
    let trap = trapezoidal(&mna.system, &mna.inputs, t_end, m, &x0, false).unwrap();

    // Node voltages agree across formulations (trapezoidal-class methods
    // on the same physics, inputs handled exactly): tight tolerance.
    for node in [0usize, 7, spec.num_nodes() - 1] {
        for j in 1..m {
            let mid = 0.5 * (trap.outputs[node][j - 1] + trap.outputs[node][j]);
            let dev = (opm.state_coeff(node, j) - mid).abs();
            assert!(dev < 1e-9, "node {node}, column {j}: deviation {dev}");
        }
    }
}

#[test]
fn table2_error_ordering_on_small_grid() {
    // b-Euler at h is the least accurate; Gear-2 and trapezoidal cluster
    // together; b-Euler at h/10 closes most of the gap — the Table II
    // pattern.
    // Slow the load edges relative to h: under-resolved edges make the
    // A-stable (not L-stable) trapezoidal rule ring at the Nyquist mode,
    // which would invert the ordering the paper observes with resolved
    // waveforms.
    // Also slow the grid's own LC resonance (1/√(LC)) to ~20 samples per
    // period: the paper's 10 ps step resolves its grid dynamics, and the
    // ordering below only holds in that resolved regime.
    let spec = PowerGridSpec {
        period: 4e-9,
        l_via: 2e-10,
        c_node: 2e-11,
        r_segment: 0.2,
        ..small_grid()
    };
    let ckt = spec.build();
    let mna = assemble_mna(&ckt, &[]).unwrap();
    let t_end = 8e-9;
    let m = 400;
    let x0 = vec![0.0; mna.system.order()];

    let reference = fine_reference(&mna.system, &mna.inputs, t_end, m, 64, &x0).unwrap();
    let probe = 0usize;

    let err = |outputs: &[Vec<f64>], stride: usize| -> f64 {
        let series = &outputs[probe];
        let mut s = 0.0;
        for j in 0..m {
            let d = series[(j + 1) * stride - 1] - reference.outputs[probe][j];
            s += d * d;
        }
        (s / m as f64).sqrt()
    };

    let be_h = backward_euler(&mna.system, &mna.inputs, t_end, m, &x0, false).unwrap();
    let be_h10 = backward_euler(&mna.system, &mna.inputs, t_end, m * 10, &x0, false).unwrap();
    let gear = bdf(&mna.system, &mna.inputs, t_end, m, 2, &x0, false).unwrap();
    let trap = trapezoidal(&mna.system, &mna.inputs, t_end, m, &x0, false).unwrap();

    let e_be = err(&be_h.outputs, 1);
    let e_be10 = err(&be_h10.outputs, 10);
    let e_gear = err(&gear.outputs, 1);
    let e_trap = err(&trap.outputs, 1);

    assert!(e_trap < e_be, "trap {e_trap} !< BE {e_be}");
    assert!(e_gear < e_be, "gear {e_gear} !< BE {e_be}");
    assert!(e_be10 < e_be, "BE(h/10) {e_be10} !< BE(h) {e_be}");
    // Step refinement helps BE substantially, though not by the clean
    // asymptotic 10× — the paper's own Table II shows the same saturation
    // (−91 dB at 10 ps vs −92 dB at 5 ps).
    assert!(
        e_be10 < 0.5 * e_be,
        "BE(h/10) should gain noticeably: {e_be10} vs {e_be}"
    );
}

#[test]
fn grid_scales_preserve_structure() {
    for (layers, rows, cols) in [(1usize, 3usize, 5usize), (2, 3, 3), (4, 2, 2)] {
        let spec = PowerGridSpec {
            layers,
            rows,
            cols,
            num_loads: 2,
            ..Default::default()
        };
        let ckt = spec.build();
        let na = assemble_na(&ckt, &[]).unwrap();
        let mna = assemble_mna(&ckt, &[]).unwrap();
        assert_eq!(na.system.order(), spec.num_nodes());
        assert_eq!(mna.system.order(), spec.num_nodes() + spec.num_vias());
    }
}
