//! Integration: the nonlinear Newton solve path end to end — netlist
//! with `D`/`M` cards → [`Simulation`] → [`SimPlan::solve_newton_windowed`] —
//! pinned against the dense Newton–backward-Euler reference in
//! `opm::transient::newton`, plus the factorization-economy and
//! linear-degeneration contracts, and every other solve entry point
//! serving the same nonlinear plans bit for bit.

use opm::circuits::mna::assemble_nonlinear_mna;
use opm::circuits::parser::parse_netlist;
use opm::prelude::*;
use opm::transient::newton_be_richardson;

/// Half-wave rectifier: 1 Hz sine through a series resistor and diode
/// into an RC load. Unit-scale time constants keep both solvers far
/// from any stiffness-driven error floor.
const RECTIFIER: &str = "\
* half-wave rectifier with RC load
V1 in 0 SIN(0 1 1)
R1 in a 0.1
D1 a out 1e-14
R2 out 0 10
C1 out 0 0.2
.end
";

/// Resistor-loaded square-law NMOS inverter with a small output cap,
/// driven by a slow gate ramp through the full cutoff → saturation →
/// triode excursion.
const INVERTER: &str = "\
* square-law NMOS inverter
V1 vdd 0 DC 5
V2 g 0 PULSE(0 5 0.1 0.6 0.6 0.2 2)
R1 vdd d 1k
C1 d 0 1000u
M1 d g 0 2m 1
.end
";

/// Solves `netlist` both ways — OPM Newton at resolution `m` over
/// `windows` windows, and the Richardson-extrapolated dense
/// Newton-backward-Euler reference at `refine × m` steps — and returns
/// the worst endpoint-series deviation of state `probe` (both series
/// live on instantaneous time grids, so they are directly comparable).
fn worst_endpoint_error(
    netlist: &str,
    probe: &str,
    t_end: f64,
    m: usize,
    windows: usize,
    refine: usize,
) -> f64 {
    let sim = Simulation::from_netlist(netlist, &[probe])
        .unwrap()
        .horizon(t_end);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let r = plan
        .solve_newton_windowed(sim.inputs().unwrap(), windows, &NewtonOptions::new())
        .unwrap();

    let parsed = parse_netlist(netlist).unwrap();
    let nl = assemble_nonlinear_mna(&parsed.circuit, &[]).unwrap();
    let n = nl.model.system.order();
    let mr = refine * m * windows;
    let reference = newton_be_richardson(
        &nl.model.system,
        &nl.devices,
        &nl.model.inputs,
        t_end,
        mr,
        &vec![0.0; n],
    )
    .unwrap();

    // Node indices are assigned in first-appearance order by the same
    // parser on both paths, so state `node − 1` matches exactly.
    let state = parsed.node(probe).unwrap() - 1;
    let opm_series = r.endpoint_series(state, 0.0);
    let ref_states = reference.states.as_ref().unwrap();
    let total = m * windows;
    (0..total)
        .map(|j| {
            // Reference step refine·(j+1) − 1 ends at OPM endpoint j.
            (opm_series[j] - ref_states[refine * (j + 1) - 1][state]).abs()
        })
        .fold(0.0f64, f64::max)
}

#[test]
fn rectifier_matches_newton_be_reference() {
    let err = worst_endpoint_error(RECTIFIER, "out", 2.0, 4096, 1, 8);
    assert!(err <= 1e-6, "rectifier worst endpoint error {err:.3e}");
}

#[test]
fn mosfet_inverter_matches_newton_be_reference() {
    let err = worst_endpoint_error(INVERTER, "d", 2.0, 4096, 1, 8);
    assert!(err <= 1e-6, "inverter worst endpoint error {err:.3e}");
}

#[test]
fn windowed_rectifier_costs_one_symbolic_factorization() {
    let sim = Simulation::from_netlist(RECTIFIER, &["out"])
        .unwrap()
        .horizon(2.0);
    let plan = sim.plan(&SolveOptions::new().resolution(256)).unwrap();
    let r = plan
        .solve_newton_windowed(sim.inputs().unwrap(), 8, &NewtonOptions::new())
        .unwrap();
    assert_eq!(r.num_intervals(), 8 * 256);

    let p = plan.factor_profile();
    // The whole multi-window Newton solve shares ONE symbolic analysis;
    // every iteration beyond it is a numeric-only refactorization.
    assert_eq!(p.num_symbolic, 1, "{p:?}");
    assert_eq!(p.newton_fresh_fallbacks, 0, "{p:?}");
    assert_eq!(p.newton_refactors, p.newton_iters, "{p:?}");
    assert!(
        p.newton_iters >= 8 * 256,
        "at least one iteration per column"
    );
}

#[test]
fn solve_newton_on_linear_netlists_is_bit_identical_to_solve() {
    // Fixed-seed randomized RC meshes: one-window Newton on a device-free
    // plan must *delegate* to the linear recurrence — bit-identical
    // columns, one booked iteration per column, one booked window, no
    // extra factorization.
    let mut rng = opm_rng::StdRng::seed_from_u64(0x0DE5_1A7E);
    for case in 0..8 {
        let n = 2 + (case % 3);
        let mut net = String::from("V1 in 0 SIN(0 1 1)\n");
        let mut prev = "in".to_string();
        for k in 0..n {
            let node = format!("n{k}");
            let r = 10.0_f64.powf(rng.random_range(1.0..3.0));
            let c = 10.0_f64.powf(rng.random_range(-4.0..-2.0));
            net.push_str(&format!("R{k} {prev} {node} {r:.4}\n"));
            net.push_str(&format!("C{k} {node} 0 {c:.6}\n"));
            prev = node;
        }
        net.push_str(".end\n");

        let sim = Simulation::from_netlist(&net, &[&prev])
            .unwrap()
            .horizon(1.0);
        let m = 64;
        let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
        let inputs = sim.inputs().unwrap();

        let before = plan.factor_profile();
        let linear = plan.solve(inputs).unwrap();
        let mid = plan.factor_profile();
        let newton = plan
            .solve_newton_windowed(inputs, 1, &NewtonOptions::new())
            .unwrap();
        let after = plan.factor_profile();

        for j in 0..m {
            for i in 0..linear.order() {
                assert_eq!(
                    linear.state_coeff(i, j).to_bits(),
                    newton.state_coeff(i, j).to_bits(),
                    "case {case}, state {i}, column {j}"
                );
            }
        }
        // Newton on a linear netlist converges in 1 implicit iteration
        // per column and never factors beyond what `solve` already did.
        assert_eq!(after.newton_iters - mid.newton_iters, m, "case {case}");
        assert_eq!(
            after.num_factorizations(),
            mid.num_factorizations(),
            "case {case}"
        );
        assert_eq!(after.newton_fresh_fallbacks, 0, "case {case}");
        assert_eq!(before.newton_iters, 0, "case {case}");
        // The one-window Newton solve books its window.
        assert_eq!(mid.num_windows, 0, "case {case}");
        assert_eq!(after.num_windows, 1, "case {case}");
    }
}

/// Every state coefficient, output and bound of `r`, by bit pattern.
fn result_bits(r: &OpmResult) -> Vec<u64> {
    let (columns, outputs) = (r.columns.iter().flatten(), r.outputs.iter().flatten());
    columns
        .chain(outputs)
        .chain(&r.bounds)
        .map(|v| v.to_bits())
        .collect()
}

/// Every entry point serves a nonlinear plan through the one window
/// loop: `solve_batch` and `solve_windowed_batch_opts` at 1, 2 and 4
/// threads, and the concatenated `solve_streaming` blocks with their end
/// states, equal per-stimulus `solve_newton_windowed` bit for bit — and
/// no window kernel factors anything: every numeric factorization is a
/// Newton refactor.
#[test]
fn every_entry_point_serves_nonlinear_plans() {
    let rectifier: Vec<InputSet> = [0.5, 1.0, 1.5]
        .iter()
        .map(|&ampl| InputSet::new(vec![Waveform::sine(0.0, ampl, 1.0, 0.0, 0.0)]))
        .collect();
    let gate = |vdd: f64| {
        let sim = Simulation::from_netlist(INVERTER, &["d"]).unwrap();
        let own = sim.inputs().unwrap().channels();
        assert!(matches!(own[0], Waveform::Dc(_)), "V1 is the supply");
        InputSet::new(vec![Waveform::Dc(vdd), own[1].clone()])
    };
    let inverter: Vec<InputSet> = [5.0, 4.0, 3.0].map(gate).into();
    let (m, windows) = (64, 4);
    for (netlist, probe, stimuli) in [(RECTIFIER, "out", rectifier), (INVERTER, "d", inverter)] {
        let sim = Simulation::from_netlist(netlist, &[probe])
            .unwrap()
            .horizon(2.0);
        let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
        let newton = |ws: &InputSet, w: usize| {
            plan.solve_newton_windowed(ws, w, &NewtonOptions::new())
                .unwrap()
        };
        let whole: Vec<Vec<u64>> = stimuli.iter().map(|s| result_bits(&newton(s, 1))).collect();
        let split: Vec<OpmResult> = stimuli.iter().map(|s| newton(s, windows)).collect();
        let all_bits = |rs: Vec<OpmResult>| rs.iter().map(result_bits).collect::<Vec<_>>();
        assert_eq!(all_bits(plan.solve_batch(&stimuli).unwrap()), whole);
        for threads in [1, 2, 4] {
            for (w, want) in [(1, whole.clone()), (windows, all_bits(split.clone()))] {
                let opts = WindowedOptions::new(w);
                let got = plan.solve_windowed_batch_opts(&stimuli, &opts, threads);
                assert_eq!(
                    all_bits(got.unwrap()),
                    want,
                    "{probe}, W = {w}, {threads} threads"
                );
            }
        }
        for (s, want) in stimuli.iter().zip(&split) {
            let (mut columns, mut ends) = (Vec::new(), Vec::new());
            let last = plan
                .solve_streaming(s, &WindowedOptions::new(windows), |block| {
                    columns.extend(block.result.columns);
                    ends.push(block.end_state);
                })
                .unwrap();
            assert_eq!(columns, want.columns, "{probe}: streamed columns");
            assert_eq!(ends.last(), Some(&last));
            for (w, end) in ends.iter().enumerate() {
                for (i, e) in end.iter().enumerate() {
                    let series = want.endpoint_series(i, 0.0);
                    assert_eq!(e.to_bits(), series[(w + 1) * m - 1].to_bits(), "{probe}");
                }
            }
        }
        let p = plan.factor_profile();
        assert_eq!((p.num_symbolic, p.newton_fresh_fallbacks), (1, 0), "{p:?}");
        assert_eq!(p.num_numeric, p.newton_refactors, "{p:?}");
    }
}
