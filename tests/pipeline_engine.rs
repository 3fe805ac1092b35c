//! Integration: a [`Simulation`] plan fed waveforms must dispatch every
//! model class to the same numbers as the same plan fed the equivalent
//! BPF coefficients (or, for second-order models, as the hand-converted
//! multi-term plan), end to end through the facade crate.

use opm::circuits::grid::PowerGridSpec;
use opm::circuits::ladder::rc_ladder;
use opm::circuits::mna::{assemble_mna, Output};
use opm::circuits::na::assemble_na;
use opm::circuits::tline::FractionalLineSpec;
use opm::core::adaptive::AdaptiveOpmOptions;
use opm::core::{Simulation, SolveOptions};
use opm::waveform::Waveform;
use opm_oracle::kron_solve_linear;

#[test]
fn linear_problem_matches_direct_strategy_on_rc_ladder() {
    let ckt = rc_ladder(4, 1e3, 1e-9, Waveform::step(1e-7, 1.0));
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(5)]).unwrap();
    let (m, t_end) = (128, 2e-6);
    let u = model.inputs.bpf_matrix(m, t_end);
    let direct = Simulation::from_system(model.system.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(m))
        .unwrap()
        .solve_coeffs(&u)
        .unwrap();
    let engine = Simulation::from_system(model.system.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(m))
        .unwrap()
        .solve(&model.inputs)
        .unwrap();
    for j in 0..m {
        assert_eq!(
            direct.output_row(0)[j],
            engine.output_row(0)[j],
            "column {j}"
        );
    }
}

#[test]
fn rc_ladder_plan_matches_the_kron_oracle() {
    let ckt = rc_ladder(2, 1e3, 1e-9, Waveform::step(0.0, 1.0));
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(3)]).unwrap();
    let (m, t_end) = (16, 1e-6);
    let fast = Simulation::from_system(model.system.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(m))
        .unwrap()
        .solve(&model.inputs)
        .unwrap();
    let u = model.inputs.bpf_matrix(m, t_end);
    let oracle = kron_solve_linear(&model.system, &u, t_end).unwrap();
    for (j, x) in oracle.iter().enumerate() {
        assert!(
            (fast.output_row(0)[j] - model.system.output(x)[0]).abs() < 1e-9,
            "column {j}"
        );
    }
}

#[test]
fn fractional_problem_solves_the_table1_line() {
    let model = FractionalLineSpec::default().assemble();
    let (m, t_end) = (64, 2.7e-9);
    let u = model.inputs.bpf_matrix(m, t_end);
    let direct = Simulation::from_fractional(model.system.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(m))
        .unwrap()
        .solve_coeffs(&u)
        .unwrap();
    let engine = Simulation::from_fractional(model.system.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(m))
        .unwrap()
        .solve(&model.inputs)
        .unwrap();
    for j in 0..m {
        for o in 0..2 {
            assert_eq!(
                direct.output_row(o)[j],
                engine.output_row(o)[j],
                "output {o}, column {j}"
            );
        }
    }
}

#[test]
fn second_order_problem_solves_the_power_grid() {
    let spec = PowerGridSpec {
        layers: 2,
        rows: 3,
        cols: 3,
        num_loads: 2,
        ..Default::default()
    };
    let na = assemble_na(&spec.build(), &[]).unwrap();
    let (m, t_end) = (64, 5e-9);
    // The nodal form by hand: multi-term conversion fed exact `u̇`
    // interval averages.
    let bounds: Vec<f64> = (0..=m).map(|k| k as f64 * t_end / m as f64).collect();
    let u_dot = na.inputs.derivative_averages_on_grid(&bounds);
    let direct = Simulation::from_multiterm(na.system.to_multiterm())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(m))
        .unwrap()
        .solve_coeffs(&u_dot)
        .unwrap();
    let engine = Simulation::from_second_order(na.system.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(m))
        .unwrap()
        .solve(&na.inputs)
        .unwrap();
    for j in 0..m {
        for i in 0..na.system.order() {
            assert_eq!(direct.state_coeff(i, j), engine.state_coeff(i, j));
        }
    }
}

#[test]
fn adaptive_option_reuses_factorizations() {
    let ckt = rc_ladder(
        3,
        1e3,
        1e-9,
        Waveform::pulse(0.0, 1.0, 1e-5, 1e-6, 2e-5, 1e-6, 0.0).unwrap(),
    );
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(4)]).unwrap();
    let plan = Simulation::from_system(model.system.clone())
        .horizon(2e-3)
        .plan(&SolveOptions::new().adaptive(AdaptiveOpmOptions {
            tol: 1e-5,
            h0: 1e-6,
            h_min: 1e-9,
            h_max: 1e-4,
        }))
        .unwrap();
    let r = plan.solve(&model.inputs).unwrap();
    // The power-of-two step lattice bounds the factorization count far
    // below the column count.
    assert!(plan.factor_profile().cache_misses < r.num_intervals() / 2);
    // The power-of-two lattice reaches t_end to within one minimum step.
    assert!((r.bounds.last().unwrap() - 2e-3).abs() < 2e-9);
}
