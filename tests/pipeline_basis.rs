//! Integration: basis interchangeability and adaptive grids across the
//! full stack.

use opm::basis::adaptive::AdaptiveBpf;
use opm::basis::{Basis, BpfBasis, WalshBasis};
use opm::circuits::grid::PowerGridSpec;
use opm::circuits::ladder::rc_ladder;
use opm::circuits::mna::{assemble_mna, Output};
use opm::circuits::na::assemble_na;
use opm::circuits::tline::FractionalLineSpec;
use opm::core::adaptive::geometric_grid;
use opm::core::general_basis::GeneralBasisPlan;
use opm::core::{Problem, SolveOptions};
use opm::waveform::Waveform;

/// The Walsh-basis solve of an assembled circuit equals the BPF solve of
/// the same circuit after coefficient conversion — end to end.
#[test]
fn walsh_and_bpf_agree_on_assembled_circuit() {
    let ckt = rc_ladder(3, 1e3, 1e-9, Waveform::step(1e-7, 1.0));
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(4)]).unwrap();
    let t_end = 5e-6;
    let m = 16;
    let x0 = vec![0.0; model.system.order()];

    let wb = WalshBasis::new(m, t_end);
    // Non-BPF bases solve through the basis-generic integral-form plan.
    let walsh = GeneralBasisPlan::new(&model.system, &wb, &x0)
        .unwrap()
        .solve(&model.inputs)
        .unwrap();

    let u = model.inputs.bpf_matrix(m, t_end);
    let bpf = Problem::linear(&model.system)
        .coeffs(&u)
        .horizon(t_end)
        .initial_state(&x0)
        .solve(&SolveOptions::new())
        .unwrap();

    let out_state = 3; // node 4 voltage
    let walsh_row: Vec<f64> = (0..m).map(|j| walsh.x_coeffs.get(out_state, j)).collect();
    let as_bpf = wb.to_bpf_coeffs(&walsh_row);
    for j in 0..m {
        let dev = (as_bpf[j] - bpf.state_coeff(out_state, j)).abs();
        // The Walsh path projects inputs by quadrature rather than exact
        // averages, so roundoff-exact agreement is not expected — but the
        // solves live in the same span and must agree tightly.
        assert!(dev < 1e-6, "column {j}: {dev}");
    }
}

/// Adaptive fractional OPM on the Table I line with a geometric grid
/// stays consistent with the uniform-grid solution where they overlap.
#[test]
fn adaptive_fractional_on_tline_consistent_with_uniform() {
    let model = FractionalLineSpec::default().assemble();
    let t_end = 2.7e-9;

    let steps = geometric_grid(t_end, 24, 1.12);
    let grid = AdaptiveBpf::new(steps.clone());
    let adaptive = Problem::fractional(&model.system)
        .waveforms(&model.inputs)
        .horizon(t_end)
        .solve(&SolveOptions::new().step_grid(steps))
        .unwrap();

    let m = 256;
    let u = model.inputs.bpf_matrix(m, t_end);
    let uniform = Problem::fractional(&model.system)
        .coeffs(&u)
        .horizon(t_end)
        .solve(&SolveOptions::new())
        .unwrap();

    let peak = uniform
        .output_row(0)
        .iter()
        .fold(0.0f64, |a, &v| a.max(v.abs()));
    // Compare adaptive columns against uniform columns averaged over each
    // adaptive interval.
    for (j, w) in grid.bounds().windows(2).enumerate().skip(2) {
        let k0 = ((w[0] / t_end) * m as f64).floor() as usize;
        let k1 = (((w[1] / t_end) * m as f64).ceil() as usize).min(m);
        let avg: f64 =
            (k0..k1).map(|k| uniform.output_row(0)[k]).sum::<f64>() / (k1 - k0).max(1) as f64;
        let dev = (adaptive.output_row(0)[j] - avg).abs();
        assert!(
            dev < 0.2 * peak,
            "interval {j} [{:.2e},{:.2e}): {dev} vs peak {peak}",
            w[0],
            w[1]
        );
    }
}

/// The second-order convenience front-end reproduces the NA/MNA
/// cross-check from the grid pipeline.
#[test]
fn second_order_frontend_end_to_end() {
    let spec = PowerGridSpec {
        layers: 2,
        rows: 3,
        cols: 3,
        num_loads: 2,
        ..Default::default()
    };
    let ckt = spec.build();
    let na = assemble_na(&ckt, &[]).unwrap();
    let mna = opm::circuits::mna::assemble_mna(&ckt, &[]).unwrap();
    let t_end = 6e-9;
    let m = 192;

    let opm_run = Problem::second_order(&na.system)
        .waveforms(&na.inputs)
        .horizon(t_end)
        .solve(&SolveOptions::new().resolution(m))
        .unwrap();
    let x0 = vec![0.0; mna.system.order()];
    let trap = opm::transient::trapezoidal(&mna.system, &mna.inputs, t_end, m, &x0, false).unwrap();
    for node in 0..spec.num_nodes() {
        for j in 1..m {
            let mid = 0.5 * (trap.outputs[node][j - 1] + trap.outputs[node][j]);
            assert!(
                (opm_run.state_coeff(node, j) - mid).abs() < 1e-9,
                "node {node}, column {j}"
            );
        }
    }
}

/// BPF projection of assembled inputs equals the basis-trait projection —
/// the two projection paths (exact averages vs adaptive quadrature) agree.
#[test]
fn projection_paths_agree() {
    let w = Waveform::pulse(0.0, 1.0, 1e-7, 5e-8, 3e-7, 5e-8, 0.0);
    let m = 64;
    let t_end = 1e-6;
    let exact = w.bpf_coeffs(m, t_end);
    let basis = BpfBasis::new(m, t_end);
    let quad = basis.project(&|t| w.eval(t));
    for (j, (a, b)) in exact.iter().zip(&quad).enumerate() {
        assert!((a - b).abs() < 1e-8, "interval {j}: {a} vs {b}");
    }
}
