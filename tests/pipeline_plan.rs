//! Integration: the `Simulation`/`SimPlan` session layer end to end
//! through the facade — factor-reuse observability, batch-vs-loop
//! equivalence, and netlist-entry parity with hand-built MNA systems.

use opm::circuits::ladder::rc_ladder;
use opm::circuits::mna::{assemble_fractional_mna, assemble_mna, Output};
use opm::circuits::parser::parse_netlist;
use opm::waveform::{InputSet, Waveform};
use opm::{Problem, SimModel, Simulation, SolveOptions};

/// Factor-reuse observability: a 50-scenario batch factors the pencil
/// exactly once, where the naive loop factors 50 times.
#[test]
fn batch_of_fifty_factors_once() {
    let ckt = rc_ladder(6, 1e3, 1e-9, Waveform::step(0.0, 1.0));
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(7)]).unwrap();
    let (m, t_end) = (128, 1e-5);
    let sets: Vec<InputSet> = (0..50)
        .map(|s| {
            InputSet::new(vec![Waveform::sine(
                0.0,
                1.0 + 0.1 * s as f64,
                1e5 * (1.0 + s as f64),
                0.0,
                0.0,
            )])
        })
        .collect();

    let sim = Simulation::from_system(model.system.clone()).horizon(t_end);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let runs = plan.solve_batch(&sets).unwrap();
    assert_eq!(runs.len(), 50);
    assert_eq!(
        plan.num_factorizations(),
        1,
        "one factorization for 50 scenarios"
    );

    // The naive loop pays 50.
    let naive_factorizations: usize = sets
        .iter()
        .map(|ws| {
            Problem::linear(&model.system)
                .waveforms(ws)
                .horizon(t_end)
                .solve(&SolveOptions::new().resolution(m))
                .unwrap()
                .num_factorizations
        })
        .sum();
    assert_eq!(naive_factorizations, 50);
}

/// Batch results must match the scenario-by-scenario loop to 1e-12 on
/// every model class the block sweep covers.
#[test]
fn batch_equals_loop_to_1e12() {
    // Linear MNA ladder.
    let ckt = rc_ladder(5, 2e3, 2e-9, Waveform::step(0.0, 1.0));
    let model = assemble_mna(&ckt, &[Output::NodeVoltage(6)]).unwrap();
    let (m, t_end) = (96, 2e-5);
    let sets: Vec<InputSet> = (0..9)
        .map(|s| {
            InputSet::new(vec![Waveform::pulse(
                0.0,
                0.5 + 0.25 * s as f64,
                1e-6,
                1e-7 * (1 + s) as f64,
                5e-6,
                2e-7,
                0.0,
            )])
        })
        .collect();
    let sim = Simulation::from_system(model.system).horizon(t_end);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let batch = plan.solve_batch(&sets).unwrap();
    for (ws, b) in sets.iter().zip(&batch) {
        let single = plan.solve(ws).unwrap();
        for j in 0..m {
            assert!(
                (single.output_row(0)[j] - b.output_row(0)[j]).abs() < 1e-12,
                "linear column {j}"
            );
        }
    }

    // Fractional CPE ladder.
    let parsed = parse_netlist(
        "V1 in 0 DC 1\nR1 in a 50\nP1 a 0 CPE 2u 0.5\nR2 a b 50\nP2 b 0 CPE 1u 0.5\n.end",
    )
    .unwrap();
    let fmodel = assemble_fractional_mna(&parsed.circuit, 0.5, &[Output::NodeVoltage(2)]).unwrap();
    let fsets: Vec<InputSet> = (0..5)
        .map(|s| InputSet::new(vec![Waveform::Dc(0.5 + s as f64)]))
        .collect();
    let fsim = Simulation::from_fractional(fmodel.system).horizon(1e-4);
    let fplan = fsim.plan(&SolveOptions::new().resolution(64)).unwrap();
    let fbatch = fplan.solve_batch(&fsets).unwrap();
    for (ws, b) in fsets.iter().zip(&fbatch) {
        let single = fplan.solve(ws).unwrap();
        for j in 0..64 {
            assert!(
                (single.output_row(0)[j] - b.output_row(0)[j]).abs() < 1e-12,
                "fractional column {j}"
            );
        }
    }
    assert_eq!(fplan.num_factorizations(), 1);
}

/// The parallel batch runtime must be *bit-identical* to the serial
/// path: `solve_batch` under 1 worker vs 4 workers (the `OPM_THREADS`
/// values the CI matrix pins) has `max_abs_delta == 0` on every output
/// and state coefficient, mirroring the batch≡loop guarantee above.
#[test]
fn batch_threads_1_and_4_are_bit_identical() {
    // Second-order power grid — the heaviest block-sweep path.
    use opm::circuits::grid::PowerGridSpec;
    use opm::circuits::na::assemble_na;
    let spec = PowerGridSpec {
        layers: 2,
        rows: 4,
        cols: 4,
        num_loads: 3,
        ..Default::default()
    };
    let na = assemble_na(&spec.build(), &[1, 5]).unwrap();
    let num_loads = na.inputs.len();
    let sets: Vec<InputSet> = (0..10)
        .map(|s| {
            InputSet::new(
                (0..num_loads)
                    .map(|ch| {
                        let amp = 1e-3 * (1.0 + 0.1 * ((s + ch) % 7) as f64);
                        Waveform::pulse(0.0, amp, 1e-9, 0.2e-9, 1e-9, 0.2e-9, 0.0)
                    })
                    .collect(),
            )
        })
        .collect();
    let sim = Simulation::from_second_order(na.system).horizon(5e-9);
    let plan = sim.plan(&SolveOptions::new().resolution(64)).unwrap();
    let t1 = plan.solve_batch_with_threads(&sets, 1).unwrap();
    let t4 = plan.solve_batch_with_threads(&sets, 4).unwrap();
    let mut max_abs_delta = 0.0f64;
    for (a, b) in t1.iter().zip(&t4) {
        for (ra, rb) in a.outputs.iter().zip(&b.outputs) {
            for (va, vb) in ra.iter().zip(rb) {
                max_abs_delta = max_abs_delta.max((va - vb).abs());
            }
        }
        for j in 0..64 {
            for i in 0..a.order() {
                max_abs_delta =
                    max_abs_delta.max((a.state_coeff(i, j) - b.state_coeff(i, j)).abs());
            }
        }
    }
    assert_eq!(
        max_abs_delta, 0.0,
        "threads=1 vs threads=4 must be bit-identical"
    );

    // Fractional step-grid plan — the scenario-parallel path.
    let parsed = parse_netlist("V1 in 0 DC 1\nR1 in a 50\nP1 a 0 CPE 2u 0.5\n.end").unwrap();
    let fmodel = assemble_fractional_mna(&parsed.circuit, 0.5, &[Output::NodeVoltage(1)]).unwrap();
    let fsim = Simulation::from_fractional(fmodel.system).horizon(1e-4);
    let steps: Vec<f64> = {
        let ratio: f64 = 1.25;
        let total: f64 = (0..16).map(|j| ratio.powi(j)).sum();
        (0..16).map(|j| 1e-4 * ratio.powi(j) / total).collect()
    };
    let fplan = fsim.plan(&SolveOptions::new().step_grid(steps)).unwrap();
    let fsets: Vec<InputSet> = (0..6)
        .map(|s| InputSet::new(vec![Waveform::Dc(0.5 + s as f64)]))
        .collect();
    let f1 = fplan.solve_batch_with_threads(&fsets, 1).unwrap();
    let f4 = fplan.solve_batch_with_threads(&fsets, 4).unwrap();
    for (a, b) in f1.iter().zip(&f4) {
        for (ra, rb) in a.outputs.iter().zip(&b.outputs) {
            for (va, vb) in ra.iter().zip(rb) {
                assert_eq!(va, vb, "step-grid batch must be thread-count invariant");
            }
        }
    }
}

/// `Simulation::from_netlist` must produce the same trajectories as the
/// hand-built parse → MNA → Problem pipeline.
#[test]
fn netlist_entry_matches_hand_built_mna() {
    const NETLIST: &str = "\
* two-section RC low-pass
V1 in 0 PULSE(0 1 0 0.1u 2u 0.1u 10u)
R1 in mid 1k
C1 mid 0 1n
R2 mid out 1k
C2 out 0 1n
.end
";
    let (m, t_end) = (200, 2e-5);

    // Hand-built: parse, assemble, Problem::solve.
    let parsed = parse_netlist(NETLIST).unwrap();
    let out_node = parsed.node("out").unwrap();
    let model = assemble_mna(&parsed.circuit, &[Output::NodeVoltage(out_node)]).unwrap();
    let by_hand = Problem::linear(&model.system)
        .waveforms(&model.inputs)
        .horizon(t_end)
        .solve(&SolveOptions::new().resolution(m))
        .unwrap();

    // Session entry: one call.
    let sim = Simulation::from_netlist(NETLIST, &["out"])
        .unwrap()
        .horizon(t_end);
    let via_session = sim
        .plan(&SolveOptions::new().resolution(m))
        .unwrap()
        .solve(sim.inputs().unwrap())
        .unwrap();

    assert_eq!(sim.order(), model.system.order());
    for j in 0..m {
        assert_eq!(
            by_hand.output_row(0)[j],
            via_session.output_row(0)[j],
            "column {j}"
        );
    }
}

/// Fractional netlists (CPE elements) take the fractional formulation
/// automatically and match the hand-built fractional MNA pipeline.
#[test]
fn fractional_netlist_entry_matches_hand_built_mna() {
    const NETLIST: &str = "\
V1 in 0 DC 1
R1 in top 100
P1 top 0 CPE 1u 0.5
.end
";
    let (m, t_end) = (128, 1e-6);
    let parsed = parse_netlist(NETLIST).unwrap();
    let top = parsed.node("top").unwrap();
    let model = assemble_fractional_mna(&parsed.circuit, 0.5, &[Output::NodeVoltage(top)]).unwrap();
    let by_hand = Problem::fractional(&model.system)
        .waveforms(&model.inputs)
        .horizon(t_end)
        .solve(&SolveOptions::new().resolution(m))
        .unwrap();

    let sim = Simulation::from_netlist(NETLIST, &["top"])
        .unwrap()
        .horizon(t_end);
    assert!(matches!(sim.model(), SimModel::Fractional(_)));
    let via_session = sim
        .plan(&SolveOptions::new().resolution(m))
        .unwrap()
        .solve(sim.inputs().unwrap())
        .unwrap();
    for j in 0..m {
        assert_eq!(
            by_hand.output_row(0)[j],
            via_session.output_row(0)[j],
            "column {j}"
        );
    }
}

/// The facade error enum composes circuit and solver failures with `?`.
#[test]
fn facade_error_composes_both_layers() {
    fn pipeline(netlist: &str) -> Result<f64, opm::Error> {
        let sim = Simulation::from_netlist(netlist, &[])?.horizon(1e-5);
        let plan = sim.plan(&SolveOptions::new().resolution(32))?;
        let r = plan.solve(sim.inputs().expect("netlist sources"))?;
        Ok(r.state_coeff(0, 31))
    }
    assert!(pipeline("V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\n.end").is_ok());
    assert!(matches!(
        pipeline("XYZ this is not a netlist"),
        Err(opm::Error::Circuit(_))
    ));
}

/// Parameter sweep through a second-order power-grid plan: one
/// factorization, results ordered by parameter.
#[test]
fn power_grid_sweep_reuses_factorization() {
    use opm::circuits::grid::PowerGridSpec;
    use opm::circuits::na::assemble_na;
    let spec = PowerGridSpec {
        layers: 2,
        rows: 4,
        cols: 4,
        num_loads: 3,
        ..Default::default()
    };
    let na = assemble_na(&spec.build(), &[1]).unwrap();
    let (m, t_end) = (64, 5e-9);
    let num_loads = na.inputs.len();
    let sim = Simulation::from_second_order(na.system).horizon(t_end);
    let plan = sim.plan(&SolveOptions::new().resolution(m)).unwrap();
    let peaks = [1e-3, 2e-3, 4e-3];
    let runs = plan
        .sweep(&peaks, |&peak| {
            InputSet::new(
                (0..num_loads)
                    .map(|_| Waveform::pulse(0.0, peak, 1e-9, 0.2e-9, 1e-9, 0.2e-9, 0.0))
                    .collect(),
            )
        })
        .unwrap();
    assert_eq!(plan.num_factorizations(), 1);
    // Linear scaling in the load peak (the grid model is linear).
    for j in 8..m {
        let a = runs[0].output_row(0)[j];
        let b = runs[1].output_row(0)[j];
        assert!(
            (b - 2.0 * a).abs() < 1e-9 * a.abs().max(1e-12),
            "column {j}"
        );
    }
}

/// One solve on a shared plan, its result flattened to bit patterns.
type Job = fn(&opm::SimPlan, &InputSet) -> Vec<u64>;

fn result_bits(r: &opm::OpmResult) -> Vec<u64> {
    r.columns
        .iter()
        .flatten()
        .chain(r.outputs.iter().flatten())
        .map(|v| v.to_bits())
        .collect()
}

fn newton_job<const W: usize>(plan: &opm::SimPlan, inputs: &InputSet) -> Vec<u64> {
    let opts = opm::NewtonOptions::new();
    result_bits(&plan.solve_newton_windowed(inputs, W, &opts).unwrap())
}

fn windowed_job(plan: &opm::SimPlan, inputs: &InputSet) -> Vec<u64> {
    let sets = [inputs.clone(), inputs.clone()];
    let opts = opm::WindowedOptions::new(4);
    plan.solve_windowed_batch_opts(&sets, &opts, 2)
        .unwrap()
        .iter()
        .flat_map(result_bits)
        .collect()
}

fn streaming_job(plan: &opm::SimPlan, inputs: &InputSet) -> Vec<u64> {
    let opts = opm::WindowedOptions::new(8).history_len(64);
    let mut bits = Vec::new();
    let end = plan
        .solve_streaming_opts(inputs, &opts, |block| {
            bits.extend(result_bits(&block.result));
            bits.extend(block.end_state.iter().map(|v| v.to_bits()));
        })
        .unwrap();
    bits.extend(end.iter().map(|v| v.to_bits()));
    bits
}

/// Every counter of a profile, in a fixed order.
fn counters(p: &opm::FactorProfile) -> [usize; 8] {
    [
        p.num_symbolic,
        p.num_numeric,
        p.cache_hits,
        p.cache_misses,
        p.num_windows,
        p.newton_iters,
        p.newton_refactors,
        p.newton_fresh_fallbacks,
    ]
}

/// Runs `jobs` on three threads sharing one `Arc<SimPlan>` while a
/// fourth thread snapshots `factor_profile()` throughout (all four
/// released together by a barrier), and checks the
/// outcome against the same jobs run serially on a fresh plan: every
/// result bit-identical, and every profile counter equal to the prepare-
/// time value plus the sum of the serial runs' increments.
fn race_against_serial(netlist: &str, probe: &str, t_end: f64, m: usize, jobs: [Job; 3]) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    let sim = Simulation::from_netlist(netlist, &[probe])
        .unwrap()
        .horizon(t_end);
    let inputs = sim.inputs().unwrap();
    let opts = SolveOptions::new().resolution(m);

    let serial_plan = sim.plan(&opts).unwrap();
    let base = counters(&serial_plan.factor_profile());
    let mut expected = base;
    let mut serial = Vec::new();
    for job in jobs {
        let before = counters(&serial_plan.factor_profile());
        serial.push(job(&serial_plan, inputs));
        let after = counters(&serial_plan.factor_profile());
        for (e, (a, b)) in expected.iter_mut().zip(after.iter().zip(&before)) {
            *e += a - b;
        }
    }

    let plan = Arc::new(sim.plan(&opts).unwrap());
    assert_eq!(counters(&plan.factor_profile()), base);
    let done = AtomicBool::new(false);
    let start = Barrier::new(jobs.len() + 1);
    let concurrent = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            start.wait();
            // Counters only grow, so every snapshot dominates the last.
            let mut last = base;
            while !done.load(Ordering::Relaxed) {
                let now = counters(&plan.factor_profile());
                assert!(now.iter().zip(&last).all(|(n, l)| n >= l), "{now:?}");
                last = now;
                std::thread::yield_now();
            }
        });
        let workers: Vec<_> = jobs
            .iter()
            .map(|&job| {
                let (plan, start) = (Arc::clone(&plan), &start);
                s.spawn(move || {
                    start.wait();
                    job(&plan, inputs)
                })
            })
            .collect();
        let out: Vec<Vec<u64>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        done.store(true, Ordering::Relaxed);
        poller.join().unwrap();
        out
    });
    for (i, (c, s)) in concurrent.iter().zip(&serial).enumerate() {
        assert!(c == s, "job {i}: concurrent result differs from serial");
    }
    assert_eq!(counters(&plan.factor_profile()), expected);
}

/// A plan is immutable once built: Newton, windowed-batch and streaming
/// solves sharing one `Arc<SimPlan>` across threads never wait on each
/// other, return exactly what they return serially, and book exactly
/// the serial runs' factorization counts.
#[test]
fn concurrent_solves_on_one_plan_match_serial_bitwise() {
    const RECTIFIER: &str = "\
V1 in 0 SIN(0 1 1)
R1 in a 0.1
D1 a out 1e-14
R2 out 0 10
C1 out 0 0.2
.end";
    race_against_serial(
        RECTIFIER,
        "out",
        2.0,
        64,
        [newton_job::<8>, newton_job::<4>, newton_job::<8>],
    );
    const RC: &str = "V1 in 0 DC 5\nR1 in out 1k\nC1 out 0 1u\n.end";
    race_against_serial(
        RC,
        "out",
        8e-3,
        32,
        [windowed_job, streaming_job, windowed_job],
    );
    const R_CPE_LADDER: &str = "\
V1 in 0 DC 1
R1 in n1 100
P1 n1 0 CPE 1u 0.5
R2 n1 n2 100
P2 n2 0 CPE 1u 0.5
R3 n2 n3 100
P3 n3 0 CPE 1u 0.5
.end";
    race_against_serial(
        R_CPE_LADDER,
        "n3",
        1e-5,
        32,
        [windowed_job, streaming_job, streaming_job],
    );
}
