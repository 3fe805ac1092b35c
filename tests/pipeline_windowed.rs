//! Integration: windowed long-horizon solving end to end through the
//! facade — windowed ≡ whole-horizon equivalence (linear, second-order,
//! and fractional with one global Caputo/GL memory), streaming-callback
//! concatenation, batch-vs-loop bit-identity, the one-factorization
//! invariant, and classical-stepper cross-checks on a 100×-horizon run.

use opm::circuits::grid::PowerGridSpec;
use opm::circuits::na::assemble_na;
use opm::transient::be::backward_euler;
use opm::transient::trap::trapezoidal;
use opm::waveform::{InputSet, Waveform};
use opm::{SimPlan, Simulation, SolveOptions, WindowedOptions};

/// 1 kΩ / 1 µF low-pass, written with the unit-suffixed SPICE values the
/// parser used to reject (`1kOhm`, `1uF`) — the satellite bugfix rides
/// through every windowed test.
const RC: &str = "V1 in 0 DC 5\nR1 in out 1kOhm\nC1 out 0 1uF\n.end";

/// Series RLC (inductor current makes the MNA system a descriptor
/// system, not a plain ODE).
const RLC: &str = "\
V1 in 0 SIN(0 1 1k)
R1 in mid 100Ohm
L1 mid out 10mH
C1 out 0 1uF
.end";

/// One scenario through [`SimPlan::solve_windowed_batch_opts`].
fn windowed_opts(plan: &SimPlan, inputs: &InputSet, opts: &WindowedOptions) -> opm::OpmResult {
    let mut out = plan
        .solve_windowed_batch_opts(std::slice::from_ref(inputs), opts, 1)
        .unwrap();
    out.pop().unwrap()
}

fn max_abs_output_delta(a: &opm::OpmResult, b: &opm::OpmResult) -> f64 {
    assert_eq!(a.outputs.len(), b.outputs.len());
    let mut worst = 0.0f64;
    for (ra, rb) in a.outputs.iter().zip(&b.outputs) {
        assert_eq!(ra.len(), rb.len(), "column counts must agree");
        for (va, vb) in ra.iter().zip(rb) {
            worst = worst.max((va - vb).abs());
        }
    }
    worst
}

/// Windowed solving at W windows × m columns must match one
/// whole-horizon plan at resolution W·m to ≤ 1e-12, through exactly
/// 1 symbolic + 1 numeric factorization.
#[test]
fn windowed_equals_whole_horizon_on_rc() {
    let (m, windows, t_end) = (32, 8, 8e-3);
    let sim = Simulation::from_netlist(RC, &["out"])
        .unwrap()
        .horizon(t_end);

    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let windowed = plan.solve_windowed(sim.inputs().unwrap(), windows).unwrap();

    let whole_plan = sim
        .plan(&SolveOptions::new().resolution(m * windows))
        .unwrap();
    let whole = whole_plan.solve(sim.inputs().unwrap()).unwrap();

    assert_eq!(windowed.num_intervals(), m * windows);
    assert_eq!(windowed.bounds, whole.bounds);
    let delta = max_abs_output_delta(&windowed, &whole);
    assert!(delta <= 1e-12, "windowed vs whole: max |Δ| = {delta:.3e}");

    // The reuse invariant: the plan's own analysis plus ONE numeric
    // refactorization at the window width serve all 8 windows.
    let p = plan.factor_profile();
    assert_eq!(
        (p.num_symbolic, p.num_numeric),
        (1, 1),
        "W windows must cost exactly 1 symbolic + 1 numeric factorization"
    );
    assert_eq!(p.num_windows, windows);

    // Solving again (same W) factors nothing further.
    plan.solve_windowed(sim.inputs().unwrap(), windows).unwrap();
    let p2 = plan.factor_profile();
    assert_eq!((p2.num_symbolic, p2.num_numeric), (1, 1));
    assert_eq!(p2.num_windows, 2 * windows);
}

#[test]
fn windowed_equals_whole_horizon_on_rlc() {
    let (m, windows, t_end) = (64, 8, 5e-3);
    let sim = Simulation::from_netlist(RLC, &["out"])
        .unwrap()
        .horizon(t_end);

    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let windowed = plan.solve_windowed(sim.inputs().unwrap(), windows).unwrap();
    let whole = sim
        .plan(&SolveOptions::new().resolution(m * windows))
        .unwrap()
        .solve(sim.inputs().unwrap())
        .unwrap();

    let delta = max_abs_output_delta(&windowed, &whole);
    assert!(delta <= 1e-9, "windowed vs whole: max |Δ| = {delta:.3e}");
    // A fresh factor of the 8-window pencil pivots unlike the plan's
    // analysis, so the window kernel is that fresh factorization, not a
    // replay: 2 symbolic, 0 numeric.
    let p = plan.factor_profile();
    assert_eq!((p.num_symbolic, p.num_numeric), (2, 0));
}

/// Streaming yields W per-window blocks with global-time bounds whose
/// concatenation is bit-identical to the one-shot windowed result —
/// while never holding more than one window's columns.
#[test]
fn streaming_concatenation_equals_windowed() {
    let (m, windows, t_end) = (32, 6, 6e-3);
    let sim = Simulation::from_netlist(RC, &["out"])
        .unwrap()
        .horizon(t_end);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let inputs = sim.inputs().unwrap();

    let windowed = plan.solve_windowed(inputs, windows).unwrap();

    let mut blocks = Vec::new();
    let final_state = plan
        .solve_streaming(inputs, &WindowedOptions::new(windows), |block| {
            blocks.push(block)
        })
        .unwrap();

    assert_eq!(blocks.len(), windows);
    let mut concat_out: Vec<f64> = Vec::new();
    let mut concat_cols: Vec<Vec<f64>> = Vec::new();
    for (w, block) in blocks.iter().enumerate() {
        assert_eq!(block.window, w);
        // Peak storage is per-window: every block carries exactly m
        // columns, however many windows the horizon spans.
        assert_eq!(block.result.num_intervals(), m);
        // Global-time bounds: window w continues exactly where w−1 ended.
        if w > 0 {
            assert_eq!(
                block.result.bounds[0],
                *blocks[w - 1].result.bounds.last().unwrap()
            );
        }
        concat_out.extend_from_slice(block.result.output_row(0));
        concat_cols.extend(block.result.columns.iter().cloned());
    }
    assert_eq!(concat_out, windowed.outputs[0], "streaming ≡ windowed");
    assert_eq!(concat_cols, windowed.columns);

    // The returned final state is the last block's end state — and the
    // polyline endpoint of the concatenated solution, state for state.
    assert_eq!(final_state, blocks.last().unwrap().end_state);
    for i in 0..windowed.order() {
        assert_eq!(
            final_state[i],
            *windowed.endpoint_series(i, 0.0).last().unwrap(),
            "state {i}"
        );
    }
}

/// Windowed batch ≡ per-scenario windowed loop, bit for bit, for every
/// thread count.
#[test]
fn windowed_batch_equals_loop_bitwise() {
    let (m, windows, t_end) = (24, 5, 5e-3);
    let sim = Simulation::from_netlist(RC, &["out"])
        .unwrap()
        .horizon(t_end);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();

    let sets: Vec<InputSet> = (0..7)
        .map(|i| {
            InputSet::new(vec![Waveform::sine(
                0.5,
                1.0 + 0.3 * i as f64,
                200.0 * (1.0 + i as f64),
                0.0,
                50.0,
            )])
        })
        .collect();

    let batch = plan
        .solve_windowed_batch_opts(&sets, &WindowedOptions::new(windows), 1)
        .unwrap();
    assert_eq!(batch.len(), sets.len());
    for (set, b) in sets.iter().zip(&batch) {
        let single = plan.solve_windowed(set, windows).unwrap();
        assert_eq!(single.columns, b.columns, "batch must equal the loop");
    }
    for threads in [1, 2, 4, 16] {
        let par = plan
            .solve_windowed_batch_opts(&sets, &WindowedOptions::new(windows), threads)
            .unwrap();
        for (a, b) in batch.iter().zip(&par) {
            assert_eq!(a.columns, b.columns, "threads={threads}");
        }
    }
    // Still one windowed factorization for the whole study.
    let p = plan.factor_profile();
    assert_eq!((p.num_symbolic, p.num_numeric), (1, 1));
}

/// Second-order (power-grid NA) plans window too: the carried trailing
/// columns restart the integer recurrence exactly.
#[test]
fn second_order_windowed_matches_whole_horizon() {
    let spec = PowerGridSpec {
        layers: 2,
        rows: 3,
        cols: 3,
        num_loads: 2,
        ..Default::default()
    };
    let na = assemble_na(&spec.build(), &[1, 4]).unwrap();
    let (m, windows, t_end) = (32, 4, 5e-9);

    let sim = Simulation::from_second_order(na.system.clone()).horizon(t_end);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let windowed = plan.solve_windowed(&na.inputs, windows).unwrap();
    let whole = sim
        .plan(&SolveOptions::new().resolution(m * windows))
        .unwrap()
        .solve(&na.inputs)
        .unwrap();

    let mut scale = 0.0f64;
    for row in &whole.outputs {
        for v in row {
            scale = scale.max(v.abs());
        }
    }
    let delta = max_abs_output_delta(&windowed, &whole);
    assert!(
        delta <= 1e-9 * scale.max(1.0),
        "second-order windowed vs whole: max |Δ| = {delta:.3e} (scale {scale:.3e})"
    );
    // One window factorization beyond the plan's own analysis.
    let p = plan.factor_profile();
    assert_eq!(p.num_symbolic + p.num_numeric, 2);
}

/// 100 Ω into a half-order constant-phase element — the fractional MNA
/// model the one global Caputo/GL memory is specified against.
const RC_CPE: &str = "V1 in 0 DC 1\nR1 in top 100\nP1 top 0 CPE 1u 0.5\n.end";

/// Windowed fractional solving runs one Caputo/GL memory over the
/// global columns of all windows: the result matches the whole-horizon
/// plan at `W·m` columns to ≤ 1e-12, through exactly 1 symbolic + 1
/// numeric factorization.
#[test]
fn fractional_windowed_equals_whole_horizon_on_rc_cpe() {
    let (m, windows, t_end) = (32, 8, 1e-6);
    let sim = Simulation::from_netlist(RC_CPE, &["top"])
        .unwrap()
        .horizon(t_end);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let windowed = plan.solve_windowed(sim.inputs().unwrap(), windows).unwrap();

    let whole = sim
        .plan(&SolveOptions::new().resolution(m * windows))
        .unwrap()
        .solve(sim.inputs().unwrap())
        .unwrap();

    assert_eq!(windowed.num_intervals(), m * windows);
    assert_eq!(windowed.bounds, whole.bounds);
    let delta = max_abs_output_delta(&windowed, &whole);
    assert!(
        delta <= 1e-12,
        "full-history windowed vs whole: max |Δ| = {delta:.3e}"
    );

    // The reuse invariant: the plan's own symbolic analysis plus ONE
    // numeric refactorization (through the fractional pencil family)
    // serve all 8 windows.
    let p = plan.factor_profile();
    assert_eq!(
        (p.num_symbolic, p.num_numeric),
        (1, 1),
        "W fractional windows must cost exactly 1 symbolic + 1 numeric"
    );
    assert_eq!(p.num_windows, windows);
}

/// Fractional streaming ≡ fractional windowed, block for block, and the
/// batch is bit-identical to the loop for every thread count — on a
/// shape whose one memory square is direct (96 columns) and on one
/// whose larger squares run by FFT (512 columns).
#[test]
fn fractional_streaming_and_batch_match_windowed() {
    let t_end = 1e-6;
    let sim = Simulation::from_netlist(RC_CPE, &["top"])
        .unwrap()
        .horizon(t_end);
    let inputs = sim.inputs().unwrap();
    let sets: Vec<InputSet> = (0..5)
        .map(|i| InputSet::new(vec![Waveform::step(0.2e-6, 1.0 + 0.4 * i as f64)]))
        .collect();
    for (m, windows) in [(16, 6), (128, 4)] {
        let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
        let opts = WindowedOptions::new(windows);
        let windowed = plan.solve_windowed(inputs, windows).unwrap();
        let mut blocks = 0;
        plan.solve_streaming(inputs, &opts, |block| {
            assert_eq!(block.window, blocks);
            assert_eq!(block.result.num_intervals(), m);
            let want = &windowed.columns[blocks * m..(blocks + 1) * m];
            assert_eq!(block.result.columns, want, "m = {m}, block {blocks}");
            blocks += 1;
        })
        .unwrap();
        assert_eq!(blocks, windows, "m = {m}");

        let looped: Vec<opm::OpmResult> = sets
            .iter()
            .map(|set| plan.solve_windowed(set, windows).unwrap())
            .collect();
        for threads in [1, 2, 4, 16] {
            let batch = plan
                .solve_windowed_batch_opts(&sets, &opts, threads)
                .unwrap();
            for (a, b) in looped.iter().zip(&batch) {
                assert_eq!(a.columns, b.columns, "m = {m}, threads = {threads}");
            }
        }
    }
}

/// An 8-scenario R–CPE ladder batch is bit-identical for every thread
/// count (small batches split evenly across workers) and to the
/// per-scenario loop.
#[test]
fn fractional_ladder_batch_is_bit_identical_across_threads() {
    let (m, windows, t_end) = (16, 6, 2e-6);
    let sections = 6;
    let mut netlist = String::from("V1 n0 0 DC 1\n");
    for s in 1..=sections {
        netlist.push_str(&format!(
            "R{s} n{} n{s} 50\nP{s} n{s} 0 CPE 1u 0.5\n",
            s - 1
        ));
    }
    netlist.push_str(".end");
    let probe = format!("n{sections}");
    let sim = Simulation::from_netlist(&netlist, &[probe.as_str()])
        .unwrap()
        .horizon(t_end);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let sets: Vec<InputSet> = (0..8)
        .map(|i| {
            InputSet::new(vec![Waveform::step(
                0.1e-6 * i as f64,
                1.0 + 0.25 * i as f64,
            )])
        })
        .collect();
    let bits = |r: &opm::OpmResult| -> Vec<u64> {
        r.columns.iter().flatten().map(|v| v.to_bits()).collect()
    };
    let opts = WindowedOptions::new(windows);
    let looped: Vec<Vec<u64>> = sets
        .iter()
        .map(|set| bits(&windowed_opts(&plan, set, &opts)))
        .collect();
    for threads in [1, 2, 3, 8] {
        let batch = plan
            .solve_windowed_batch_opts(&sets, &opts, threads)
            .unwrap();
        let got: Vec<Vec<u64>> = batch.iter().map(bits).collect();
        assert_eq!(got, looped, "threads = {threads}");
    }
    let p = plan.factor_profile();
    assert_eq!((p.num_symbolic, p.num_numeric), (1, 1));
}

/// A 100×-horizon run cross-checked against the classical steppers:
/// trapezoidal shares OPM's algebra, so the endpoint series must agree
/// to roundoff; backward Euler is first-order and must agree to its
/// truncation error.
#[test]
fn hundredfold_horizon_cross_checks_against_steppers() {
    // τ = 1 ms; a single-resolution plan would need every column upfront
    // for T = 100 ms. Windowed: 100 windows × 20 columns.
    let (m, windows, t_end) = (20, 100, 0.1);
    let mtot = m * windows;
    let sim = Simulation::from_netlist(RC, &["out"])
        .unwrap()
        .horizon(t_end);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let inputs = sim.inputs().unwrap();
    let windowed = plan.solve_windowed(inputs, windows).unwrap();
    let p = plan.factor_profile();
    assert_eq!((p.num_symbolic, p.num_numeric, p.num_windows), (1, 1, 100));

    // The same MNA system for the steppers.
    let parsed = opm::circuits::parser::parse_netlist(RC).unwrap();
    let model = opm::circuits::mna::assemble_mna(
        &parsed.circuit,
        &[opm::circuits::mna::Output::NodeVoltage(
            parsed.node("out").unwrap(),
        )],
    )
    .unwrap();
    let x0 = vec![0.0; model.system.order()];

    // Trapezoid at the same step: OPM's algebraic twin (DC input, so
    // point samples equal interval averages).
    let trap = trapezoidal(&model.system, &model.inputs, t_end, mtot, &x0, true).unwrap();
    for i in 0..windowed.order() {
        let opm_ends = windowed.endpoint_series(i, 0.0);
        let trap_ends = trap.state_row(i);
        for (k, (a, b)) in opm_ends.iter().zip(&trap_ends).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9,
                "state {i}, step {k}: OPM {a} vs trapezoid {b}"
            );
        }
    }

    // Backward Euler at the same step: first-order, so only its own
    // truncation error separates it (the signal scale is 5 V).
    let be = backward_euler(&model.system, &model.inputs, t_end, mtot, &x0, false).unwrap();
    let out = windowed.endpoint_series(1, 0.0); // node `out` is state 1
    let be_out: Vec<f64> = be.output(0).to_vec();
    let worst = out
        .iter()
        .zip(&be_out)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        worst < 0.05,
        "backward Euler must track OPM to its O(h) error (worst {worst:.3e})"
    );
    // And both settle at the 5 V DC gain.
    assert!((out.last().unwrap() - 5.0).abs() < 1e-6);
    assert!((be_out.last().unwrap() - 5.0).abs() < 1e-6);
}

/// The plan type stays ergonomic for callers that annotate it.
#[test]
fn windowed_solves_compose_with_sweeps_on_one_plan() {
    let sim = Simulation::from_netlist(RC, &["out"])
        .unwrap()
        .horizon(4e-3);
    let plan: SimPlan = sim.plan(&SolveOptions::new().resolution(16)).unwrap();
    // Whole-horizon and windowed solves interleave freely on one plan.
    let whole = plan.solve(sim.inputs().unwrap()).unwrap();
    let windowed = plan.solve_windowed(sim.inputs().unwrap(), 4).unwrap();
    assert_eq!(whole.num_intervals(), 16);
    assert_eq!(windowed.num_intervals(), 64);
    // W = 1 windowing is the plain solve, bit for bit.
    let one = plan.solve_windowed(sim.inputs().unwrap(), 1).unwrap();
    assert_eq!(one.num_intervals(), 16);
    let delta = max_abs_output_delta(&one, &whole);
    assert_eq!(delta, 0.0, "W = 1 must match the plain solve: {delta:.3e}");
    assert_eq!(bits(&one), bits(&whole));
}

/// Every solved coefficient and output of a result, as bits.
fn bits(r: &opm::OpmResult) -> Vec<u64> {
    r.columns
        .iter()
        .chain(&r.outputs)
        .flatten()
        .map(|v| v.to_bits())
        .collect()
}

/// A two-state linear ODE `ẋ = A x + B u` with two inputs.
fn two_state() -> opm::system::DescriptorSystem {
    use opm::sparse::{CooMatrix, CsrMatrix};
    let mut a = CooMatrix::new(2, 2);
    for (i, j, v) in [(0, 0, -2.0), (0, 1, 1.0), (1, 0, 0.5), (1, 1, -1.0)] {
        a.push(i, j, v);
    }
    let mut b = CooMatrix::new(2, 2);
    b.push(0, 0, 1.0);
    b.push(1, 1, 0.5);
    opm::system::DescriptorSystem::new(CsrMatrix::identity(2), a.to_csr(), b.to_csr(), None)
        .unwrap()
}

/// `W = 1` is the whole horizon on every plan kind: the uniform ones,
/// and the adaptive and step-grid plans that cannot window further. `solve` ≡ `solve_batch(..)[0]` ≡ `solve_windowed(.., 1)` ≡
/// `solve_windowed_batch_opts(.., W = 1, threads)` ≡ linear
/// `solve_newton_windowed(.., 1, ..)` ≡ `solve_coeffs` (where the
/// projection is the plain BPF matrix), bit for bit, and the uniform
/// kinds' streamed blocks concatenate to `solve_windowed`. Uniform plans
/// never cost more than their own symbolic analysis (1 symbolic + 0
/// numeric); no kind factors anything for a repeated whole-horizon
/// solve. `solve`/`solve_batch` book no window; every windowed and
/// Newton call books its `W`.
#[test]
fn whole_horizon_is_the_one_window_solve() {
    use opm::core::adaptive::{geometric_grid, AdaptiveOpmOptions};
    use opm::core::NewtonOptions;
    use opm::system::{MultiTermSystem, Term};
    let (m, t_end) = (32, 3.0);
    let two = |s: usize| {
        InputSet::new(vec![
            Waveform::sine(0.1 * s as f64, 1.0, 0.7, 0.0, 0.2),
            Waveform::pulse(0.0, 1.0 + s as f64, 0.4, 0.1, 1.0, 0.1, 0.0).unwrap(),
        ])
    };
    let one = |s: usize| InputSet::new(vec![Waveform::step(0.3 + 0.1 * s as f64, 1.0)]);
    let scalar = |v: f64| {
        let mut c = opm::sparse::CooMatrix::new(1, 1);
        c.push(0, 0, v);
        c.to_csr()
    };
    let term = |alpha: f64, v: f64| Term {
        alpha,
        matrix: scalar(v),
    };
    let mixture = MultiTermSystem::new(
        vec![term(0.0, 1.0), term(0.5, 0.5), term(1.0, 1.0)],
        scalar(1.0),
        None,
    )
    .unwrap();
    let integer = MultiTermSystem::new(
        vec![term(0.0, 1.0), term(1.0, 0.3), term(2.0, 0.05)],
        scalar(1.0),
        None,
    )
    .unwrap();
    let grid = PowerGridSpec {
        layers: 2,
        rows: 3,
        cols: 3,
        num_loads: 2,
        ..Default::default()
    };
    let na = assemble_na(&grid.build(), &[]).unwrap();
    let linear = Simulation::from_system(two_state()).horizon(t_end);
    let with_x0 = linear.clone().initial_state(vec![1.5, -0.5]);
    let cpe = Simulation::from_netlist(RC_CPE, &["top"])
        .unwrap()
        .horizon(1e-6);
    let opts = SolveOptions::new().resolution(m);
    // (case, session, options, stimulus per scenario, projection is
    // the plain BPF matrix so `solve_coeffs` can stand in for `solve`)
    type Stimulus = Box<dyn Fn(usize) -> InputSet>;
    let cases: Vec<(&str, Simulation, SolveOptions, Stimulus, bool)> = vec![
        (
            "linear, x0 != 0",
            with_x0,
            opts.clone(),
            Box::new(two),
            true,
        ),
        ("fractional", cpe.clone(), opts.clone(), Box::new(one), true),
        (
            "multi-term convolution",
            Simulation::from_multiterm(mixture).horizon(t_end),
            opts.clone(),
            Box::new(one),
            true,
        ),
        (
            "integer multi-term",
            Simulation::from_multiterm(integer).horizon(t_end),
            opts.clone(),
            Box::new(one),
            false,
        ),
        (
            "second-order",
            Simulation::from_second_order(na.system).horizon(5e-9),
            opts.clone(),
            Box::new(move |s| {
                InputSet::new(
                    (0..na.inputs.len())
                        .map(|ch| {
                            Waveform::pulse(
                                0.0,
                                1e-3 * (1 + s + ch) as f64,
                                1e-9,
                                0.2e-9,
                                1e-9,
                                0.2e-9,
                                0.0,
                            )
                            .unwrap()
                        })
                        .collect(),
                )
            }),
            false,
        ),
        (
            "adaptive",
            linear,
            SolveOptions::new().adaptive(AdaptiveOpmOptions {
                tol: 1e-3,
                h0: 1.0 / 64.0,
                ..Default::default()
            }),
            Box::new(two),
            false,
        ),
        (
            "step-grid",
            cpe,
            SolveOptions::new().step_grid(geometric_grid(1e-6, m, 1.2)),
            Box::new(one),
            false,
        ),
    ];
    let whole_horizon_kinds = ["adaptive", "step-grid"];
    for (name, sim, opts, stimulus, bpf) in &cases {
        let sets: Vec<InputSet> = (0..6).map(stimulus).collect();
        let plan = sim.plan(opts).unwrap();
        let windows_booked = || plan.factor_profile().num_windows;
        let whole = plan.solve(&sets[0]).unwrap();
        let first = plan.factor_profile();
        let batch = plan.solve_batch(&sets).unwrap();
        assert_eq!(bits(&batch[0]), bits(&whole), "{name}: batch vs single");
        assert_eq!(
            windows_booked(),
            0,
            "{name}: solve/solve_batch book no window"
        );
        let windowed = plan.solve_windowed(&sets[0], 1).unwrap();
        assert_eq!(bits(&whole), bits(&windowed), "{name}: solve vs W = 1");
        for threads in [1, 2, 4] {
            let wbatch = plan
                .solve_windowed_batch_opts(&sets, &WindowedOptions::new(1), threads)
                .unwrap();
            for (s, (b, w)) in batch.iter().zip(&wbatch).enumerate() {
                assert_eq!(
                    bits(b),
                    bits(w),
                    "{name}: batch lane {s}, {threads} threads"
                );
            }
        }
        let newton = plan
            .solve_newton_windowed(&sets[0], 1, &NewtonOptions::new())
            .unwrap();
        assert_eq!(
            bits(&newton),
            bits(&whole),
            "{name}: linear Newton at W = 1"
        );
        assert_eq!(
            windows_booked(),
            5,
            "{name}: windowed and Newton calls book W"
        );
        if *bpf {
            let u = sets[0].bpf_matrix(m, plan.horizon());
            let coeffs = plan.solve_coeffs(&u).unwrap();
            assert_eq!(bits(&coeffs), bits(&whole), "{name}: solve_coeffs vs solve");
        }
        let p = plan.factor_profile();
        assert_eq!(
            (p.num_symbolic, p.num_numeric),
            (first.num_symbolic, first.num_numeric),
            "{name}: a repeated whole-horizon solve factors nothing"
        );
        if !whole_horizon_kinds.contains(name) {
            assert_eq!(
                (p.num_symbolic, p.num_numeric),
                (1, 0),
                "{name}: the whole horizon reuses the plan's own factorization"
            );
            for windows in [1, 3] {
                let windowed = plan.solve_windowed(&sets[0], windows).unwrap();
                let mut columns = Vec::new();
                let wopts = WindowedOptions::new(windows);
                plan.solve_streaming(&sets[0], &wopts, |block| {
                    columns.extend(block.result.columns)
                })
                .unwrap();
                assert_eq!(columns, windowed.columns, "{name}: {windows} window(s)");
            }
        }
    }
}
