//! **Plan-reuse sweep benchmark** — the `SimPlan` session economy on the
//! Table II power-grid circuit: 100 load-current scenarios solved (a)
//! naively, one `Problem::solve` each (re-validate, re-order, re-factor
//! per scenario), and (b) through one `Simulation::plan` whose single
//! factorization serves the whole batch in one interleaved pass.
//!
//! On top of the plan-reuse record, two hot-path records for the
//! symbolic/numeric split and the parallel batch runtime:
//!
//! - `refactor_vs_factor` — the Table II grid's MNA pencils over a
//!   64-shift step grid: fresh per-pencil factorization (pattern
//!   rebuild + AMD + pivoted LU, the pre-split hot path) vs one
//!   `PencilFamily` (pattern/ordering/symbolic analysis paid once,
//!   numeric-only refactorization per shift).
//! - `batch_threads_{1,4}` — the 100-scenario batch swept on 1 vs 4
//!   workers (`SimPlan::solve_batch_with_threads`), with the hard
//!   requirement that the results are bit-identical.
//! - `windowed_vs_whole` — a 100τ-horizon RC ladder: one whole-horizon
//!   plan at `W·m` columns vs `SimPlan::solve_windowed` over `W`
//!   windows of `m` columns, asserting the 1-symbolic + 1-numeric
//!   factorization invariant and ≤ 1e-9 agreement, plus a 512-window
//!   streaming record at per-window resident memory.
//! - `newton/*` — the diode half-wave rectifier solved through the
//!   windowed Newton path: iteration count, numeric refactorizations
//!   per time step, and the fresh-pivoted-factor fallback count (which
//!   must be exactly 0 — every Newton iteration reuses the one recorded
//!   symbolic analysis).
//!
//! Emits `BENCH_sweep.json` (path override: `OPM_SWEEP_JSON`) with all
//! timings, the factorization counts and the speedups.
//!
//! `cargo run --release -p opm-bench --bin sweep`

use std::io::Write as _;

use opm_bench::{fmt_time, timed_best};
use opm_circuits::grid::PowerGridSpec;
use opm_circuits::mna::{assemble_mna, Output};
use opm_circuits::na::assemble_na;
use opm_core::engine::{factor_pencil, PencilFamily};
use opm_core::json::Json;
use opm_core::{NewtonOptions, Problem, Simulation, SolveOptions, WindowedOptions};
use opm_waveform::{InputSet, Waveform};

const SCENARIOS: usize = 100;
const SHIFTS: usize = 64;

/// Speedup floor from the environment, with a default for quiet
/// machines; shared CI runners relax it without touching correctness.
fn min_speedup(var: &str, default: f64) -> f64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(default)
}

/// Elementwise `max |a − b|` over two equal-length blocks.
fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn main() {
    // The Table II workload family at CI scale (same topology the table2
    // binary reproduces the paper with).
    let spec = PowerGridSpec {
        layers: 3,
        rows: 8,
        cols: 8,
        num_loads: 8,
        l_via: 2e-10,
        c_node: 2e-11,
        r_segment: 0.2,
        period: 4e-9,
        ..Default::default()
    };
    let ckt = spec.build();
    // Probe the bottom-layer corner nodes: keeps the result payload small
    // while still exercising output reconstruction.
    let probes: Vec<usize> = vec![1, spec.cols, spec.rows * spec.cols];
    let na = assemble_na(&ckt, &probes).unwrap();
    let t_end = 10e-9;
    let m = 256;
    let opts = SolveOptions::new().resolution(m);
    let num_loads = na.inputs.len();

    // 100 load patterns: every load current pulse gets a scenario-specific
    // amplitude and delay (a supply-noise corner study).
    let scenario = |s: usize| -> InputSet {
        InputSet::new(
            (0..num_loads)
                .map(|ch| {
                    let amp = 1e-3 * (1.0 + 0.05 * ((s * 7 + ch * 3) % 20) as f64);
                    let delay = 0.5e-9 + 0.02e-9 * ((s + ch) % 10) as f64;
                    Waveform::pulse(0.0, amp, delay, 0.2e-9, 1.0e-9, 0.2e-9, 4e-9)
                })
                .collect(),
        )
    };
    let sets: Vec<InputSet> = (0..SCENARIOS).map(scenario).collect();

    println!(
        "plan-reuse sweep — Table II grid {}×{}×{}: n = {} unknowns, m = {m} columns, {SCENARIOS} scenarios",
        spec.layers,
        spec.rows,
        spec.cols,
        na.system.order()
    );

    // (a) Naive: independent Problem::solve per scenario. Same rep count
    //     as the planned path below — a lopsided best-of-N would bias
    //     the min-estimator toward whichever side gets more chances.
    let (naive, naive_s) = timed_best(3, || {
        sets.iter()
            .map(|ws| {
                Problem::second_order(&na.system)
                    .waveforms(ws)
                    .horizon(t_end)
                    .solve(&opts)
                    .unwrap()
            })
            .collect::<Vec<_>>()
    });
    let naive_factorizations: usize = naive.iter().map(|r| r.num_factorizations).sum();

    // (b) Planned: factor once, sweep the batch. Pinned to one worker so
    //     sweep/speedup isolates the *reuse* economy — the threading win
    //     is measured separately by the batch_threads records below.
    let sim = Simulation::from_second_order(na.system.clone()).horizon(t_end);
    let ((plan, planned), plan_s) = timed_best(3, || {
        let plan = sim.plan(&opts).unwrap();
        let runs = plan.solve_batch_with_threads(&sets, 1).unwrap();
        (plan, runs)
    });
    let plan_factorizations = plan.num_factorizations();

    // The batch must reproduce the naive loop to roundoff.
    let mut worst = 0.0f64;
    for (a, b) in naive.iter().zip(&planned) {
        for (ra, rb) in a.outputs.iter().zip(&b.outputs) {
            for (va, vb) in ra.iter().zip(rb) {
                worst = worst.max((va - vb).abs());
            }
        }
    }
    let speedup = naive_s / plan_s;

    println!(
        "naive loop : {}  ({naive_factorizations} factorizations)",
        fmt_time(naive_s)
    );
    println!(
        "plan batch : {}  ({plan_factorizations} factorization)",
        fmt_time(plan_s)
    );
    println!("speedup    : {speedup:.2}×   max |Δ| = {worst:.2e}");

    assert_eq!(
        plan_factorizations, 1,
        "the plan must factor the pencil exactly once"
    );
    assert!(
        worst < 1e-12,
        "batch and naive results must agree to 1e-12 (got {worst:.2e})"
    );
    // Quiet machines comfortably clear 3×; shared CI runners get a
    // relaxed floor via OPM_SWEEP_MIN_SPEEDUP so noisy neighbors cannot
    // flake the build (factor count and Δ stay hard either way).
    let plan_floor = min_speedup("OPM_SWEEP_MIN_SPEEDUP", 3.0);
    assert!(
        speedup >= plan_floor,
        "plan reuse must be ≥ {plan_floor}× faster than naive re-solving (got {speedup:.2}×)"
    );

    // -- refactor_vs_factor: symbolic/numeric split on the grid's MNA
    //    pencils over a 64-shift step grid ----------------------------------
    let mna = assemble_mna(&ckt, &[Output::NodeVoltage(1)]).unwrap();
    let (e, a) = (mna.system.e(), mna.system.a());
    // Distinct shifts σ_j = 2/h_j over a geometric decade of steps —
    // exactly the pencil family a fractional step-grid plan factors.
    let sigmas: Vec<f64> = (0..SHIFTS)
        .map(|j| 2.0 / (1e-10 * 1.05f64.powi(j as i32)))
        .collect();
    // (a) Fresh path: pattern rebuild + AMD + pivoted LU per pencil (the
    //     pre-split hot path, kept verbatim as the baseline).
    let (fresh_lus, fresh_s) = timed_best(3, || {
        sigmas
            .iter()
            .map(|&s| factor_pencil(&e.lin_comb(s, -1.0, a)).unwrap())
            .collect::<Vec<_>>()
    });
    // (b) Family path. Building the family records the symbolic analysis
    //     on the first shift and the rest refactor against it (1 symbolic
    //     + 63 numeric — asserted below); the *timed* passes
    //     then refactor all 64 shifts numerically against it, so the
    //     refactor record measures pure numeric-only work on a single
    //     worker (the algorithmic split, not parallelism).
    let (family, head) = PencilFamily::new(e, a, sigmas[0]).unwrap();
    let mut family_lus = vec![head];
    family_lus.extend(family.factor_all(&sigmas[1..], 1).unwrap());
    let fam_profile = family.profile();
    let (_, refac_s) = timed_best(3, || family.factor_all(&sigmas, 1).unwrap());
    let refac_speedup = fresh_s / refac_s;
    let nn = mna.system.order();
    let probe: Vec<f64> = (0..nn).map(|i| ((i * 7 % 23) as f64) - 11.0).collect();
    let mut refac_delta = 0.0f64;
    let mut scale = 0.0f64;
    for (lf, lr) in fresh_lus.iter().zip(&family_lus) {
        let xf = lf.solve(&probe);
        let xr = lr.solve(&probe);
        for (va, vb) in xf.iter().zip(&xr) {
            refac_delta = refac_delta.max((va - vb).abs());
            scale = scale.max(va.abs());
        }
    }
    println!(
        "refactor   : fresh {} vs numeric {}  ({:.2}×, {} symbolic + {} numeric, rel Δ = {:.2e})",
        fmt_time(fresh_s),
        fmt_time(refac_s),
        refac_speedup,
        fam_profile.num_symbolic,
        fam_profile.num_numeric,
        refac_delta / scale
    );
    assert_eq!(
        (fam_profile.num_symbolic, fam_profile.num_numeric),
        (1, SHIFTS - 1),
        "the family must analyze once and refactor the rest"
    );
    assert!(
        refac_delta <= 1e-9 * scale,
        "refactored and fresh factors must solve identically (rel Δ = {:.2e})",
        refac_delta / scale
    );
    let refac_floor = min_speedup("OPM_REFACTOR_MIN_SPEEDUP", 2.0);
    assert!(
        refac_speedup >= refac_floor,
        "numeric refactorization must be ≥ {refac_floor}× faster than fresh \
         factorization (got {refac_speedup:.2}×)"
    );

    // -- batch_threads_{1,4}: the parallel batch runtime -------------------
    let (t1_runs, t1_s) = timed_best(3, || plan.solve_batch_with_threads(&sets, 1).unwrap());
    let (t4_runs, t4_s) = timed_best(3, || plan.solve_batch_with_threads(&sets, 4).unwrap());
    let mut thread_delta = 0.0f64;
    for (ra, rb) in t1_runs.iter().zip(&t4_runs) {
        for (oa, ob) in ra.outputs.iter().zip(&rb.outputs) {
            for (va, vb) in oa.iter().zip(ob) {
                thread_delta = thread_delta.max((va - vb).abs());
            }
        }
    }
    let thread_speedup = t1_s / t4_s;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "threads    : 1 worker {} vs 4 workers {}  ({thread_speedup:.2}× on {cores} core(s), max |Δ| = {thread_delta:.2e})",
        fmt_time(t1_s),
        fmt_time(t4_s),
    );
    assert_eq!(
        thread_delta, 0.0,
        "the parallel batch must be bit-identical to the serial path"
    );
    // The thread-scaling floor depends on the hardware this runs on: a
    // single-core box cannot speed anything up, so the default floor
    // only bites where parallel wins are physically possible.
    let thread_floor = min_speedup(
        "OPM_THREADS_MIN_SPEEDUP",
        if cores >= 4 {
            1.5
        } else if cores >= 2 {
            1.05
        } else {
            0.0
        },
    );
    assert!(
        thread_speedup >= thread_floor,
        "4 workers must be ≥ {thread_floor}× faster than 1 on this {cores}-core \
         machine (got {thread_speedup:.2}×)"
    );
    // On a single core a "speedup" ratio is pure scheduler noise: the
    // JSON records `null` (plus `cores_available` so the reader can see
    // why) instead of publishing a sub-1.0 ratio as if it were a
    // regression. Multi-core machines record the real ratio.
    let thread_speedup_json = if cores >= 2 {
        Json::Num(thread_speedup)
    } else {
        Json::Null
    };

    // -- scaling/workers_{1,2,4}: the multi-core scaling curve -------------
    // Reuses the 1- and 4-worker batch timings above and adds the 2-worker
    // point; per-worker lane chunks are panel-aligned (56/44 lanes at
    // width 2), so the 2-worker ceiling on this batch is 100/56 ≈ 1.79×.
    // The in-binary floor (default 1.5× at ≥ 2 cores; OPM_SCALING_MIN_SPEEDUP
    // overrides) is the nightly ≥2-core scaling gate.
    let (t2_runs, t2_s) = timed_best(3, || plan.solve_batch_with_threads(&sets, 2).unwrap());
    let mut scaling_delta = 0.0f64;
    for (ra, rb) in t1_runs.iter().zip(&t2_runs) {
        for (oa, ob) in ra.outputs.iter().zip(&rb.outputs) {
            for (va, vb) in oa.iter().zip(ob) {
                scaling_delta = scaling_delta.max((va - vb).abs());
            }
        }
    }
    assert_eq!(
        scaling_delta, 0.0,
        "the 2-worker batch must be bit-identical to the serial path"
    );
    let (scale2, scale4) = (t1_s / t2_s, t1_s / t4_s);
    println!(
        "scaling    : 1w {} | 2w {} ({scale2:.2}×) | 4w {} ({scale4:.2}×) on {cores} core(s)",
        fmt_time(t1_s),
        fmt_time(t2_s),
        fmt_time(t4_s),
    );
    let (scale2_json, scale4_json) = if cores >= 2 {
        (Json::Num(scale2), Json::Num(scale4))
    } else {
        (Json::Null, Json::Null)
    };
    if cores >= 2 {
        let scaling_floor = min_speedup("OPM_SCALING_MIN_SPEEDUP", 1.5);
        assert!(
            scale2 >= scaling_floor,
            "2 workers must be ≥ {scaling_floor}× faster than 1 on this {cores}-core \
             machine (got {scale2:.2}×)"
        );
    }

    // -- kernel/*: single-thread panel vs scalar microkernels --------------
    // In-process best-of-N A/B of every lane-elementwise hot kernel
    // against its public scalar reference, on the Table II grid pencil at
    // the plan batch's lane count (the `sweep/plan_batch_100` hot path).
    // Bit-identity (max |Δ| == 0, not a tolerance) is a hard gate; the
    // triangular-solve speedup carries the acceptance floor (default
    // 1.5×, OPM_KERNEL_MIN_SPEEDUP overrides), skipped when
    // OPM_NO_PANEL=1 routes both sides to the same scalar code.
    let klanes = SCENARIOS;
    let kpencil = e.lin_comb(sigmas[0], -1.0, a);
    let klu = factor_pencil(&kpencil).unwrap();
    let kb: Vec<f64> = (0..nn * klanes)
        .map(|i| ((i * 7 % 101) as f64 * 0.13).sin())
        .collect();
    let mut kxs = vec![0.0; nn * klanes];
    let mut kxp = vec![0.0; nn * klanes];
    let (_, ksolve_scalar_s) =
        timed_best(40, || klu.solve_block_into_scalar(&kb, &mut kxs, klanes));
    let (_, ksolve_panel_s) = timed_best(40, || klu.solve_block_into(&kb, &mut kxp, klanes));
    let mut kdelta = max_abs_delta(&kxs, &kxp);
    let mut kys = vec![0.0; nn * klanes];
    let mut kyp = vec![0.0; nn * klanes];
    let (_, kspmm_scalar_s) =
        timed_best(100, || kpencil.mul_block_into_scalar(&kb, &mut kys, klanes));
    let (_, kspmm_panel_s) = timed_best(100, || kpencil.mul_block_into(&kb, &mut kyp, klanes));
    kdelta = kdelta.max(max_abs_delta(&kys, &kyp));
    let kdepth = 96;
    let kweights: Vec<f64> = (0..=kdepth + 1)
        .map(|k| (-0.85f64).powi(k as i32))
        .collect();
    let ktail: Vec<Vec<f64>> = (0..kdepth)
        .map(|d| {
            (0..nn * klanes)
                .map(|i| ((d * 31 + i) as f64 * 0.01).sin())
                .collect()
        })
        .collect();
    let mut khs = kb.clone();
    let mut khp = kb.clone();
    let (_, khist_scalar_s) = timed_best(12, || {
        opm_fracnum::history::history_convolution_into_scalar(&kweights, 0, &ktail, &mut khs)
    });
    let (_, khist_panel_s) = timed_best(12, || {
        opm_fracnum::history::history_convolution_into(&kweights, 0, &ktail, &mut khp)
    });
    kdelta = kdelta.max(max_abs_delta(&khs, &khp));
    let ksolve_speedup = ksolve_scalar_s / ksolve_panel_s;
    let kspmm_speedup = kspmm_scalar_s / kspmm_panel_s;
    let khist_speedup = khist_scalar_s / khist_panel_s;
    let panels_enabled = opm_linalg::panel::lane_panels_enabled();
    println!(
        "kernels    : solve {} / {} ({ksolve_speedup:.2}×) | spmm {} / {} ({kspmm_speedup:.2}×) | \
         history {} / {} ({khist_speedup:.2}×)  scalar/panel, max |Δ| = {kdelta:.2e}",
        fmt_time(ksolve_scalar_s),
        fmt_time(ksolve_panel_s),
        fmt_time(kspmm_scalar_s),
        fmt_time(kspmm_panel_s),
        fmt_time(khist_scalar_s),
        fmt_time(khist_panel_s),
    );
    assert_eq!(
        kdelta, 0.0,
        "panel kernels must be bit-identical to their scalar references \
         (max |Δ| = {kdelta:e})"
    );
    if panels_enabled {
        let kernel_floor = min_speedup("OPM_KERNEL_MIN_SPEEDUP", 1.5);
        assert!(
            ksolve_speedup >= kernel_floor,
            "the panel block triangular solve must be ≥ {kernel_floor}× the scalar \
             reference at {klanes} lanes (got {ksolve_speedup:.2}×)"
        );
    }

    // -- windowed_vs_whole: long-horizon windowed solving ------------------
    // A 100τ horizon on an RC ladder: one whole-horizon plan at W·m
    // columns vs W windows of m columns through ONE window
    // refactorization (the PR's long-horizon invariant).
    let (wm, ww) = (256, 64);
    let lad = opm_circuits::ladder::rc_ladder(8, 1e3, 1e-9, Waveform::step(0.0, 1.0));
    let lmodel = assemble_mna(&lad, &[Output::NodeVoltage(9)]).unwrap();
    let lt_end = 1e-4; // stage τ = 1 µs
    let lsim = Simulation::from_system(lmodel.system.clone()).horizon(lt_end);
    // Both sides time pure solves at equal column count: plans are built
    // (and the window kernel factored, by a warm-up call) outside the
    // timed closures.
    let whole_plan = lsim.plan(&SolveOptions::new().resolution(wm * ww)).unwrap();
    let (whole_run, whole_s) = timed_best(3, || whole_plan.solve(&lmodel.inputs).unwrap());
    let wplan = lsim.plan(&SolveOptions::new().resolution(wm)).unwrap();
    wplan.solve_windowed(&lmodel.inputs, ww).unwrap(); // warm the window kernel
    let wprofile = wplan.factor_profile();
    let (win_run, win_s) = timed_best(3, || wplan.solve_windowed(&lmodel.inputs, ww).unwrap());
    let mut win_delta = 0.0f64;
    for (ra, rb) in whole_run.outputs.iter().zip(&win_run.outputs) {
        for (va, vb) in ra.iter().zip(rb) {
            win_delta = win_delta.max((va - vb).abs());
        }
    }
    let win_speedup = whole_s / win_s;
    println!(
        "windowed   : whole {} ({} cols) vs {ww} windows {}  ({win_speedup:.2}×, {} symbolic + {} numeric, max |Δ| = {win_delta:.2e})",
        fmt_time(whole_s),
        wm * ww,
        fmt_time(win_s),
        wprofile.num_symbolic,
        wprofile.num_numeric,
    );
    assert_eq!(
        (wprofile.num_symbolic, wprofile.num_numeric),
        (1, 1),
        "W windows must cost exactly 1 symbolic + 1 numeric factorization"
    );
    assert!(
        win_delta <= 1e-9,
        "windowed and whole-horizon solutions must agree to 1e-9 (got {win_delta:.2e})"
    );
    // Streaming far past the whole-horizon regime: 512 windows
    // (131072 columns) at per-window resident memory.
    let w_long = 512;
    let (long_windows, long_s) = timed_best(1, || {
        let mut count = 0usize;
        wplan
            .solve_streaming(&lmodel.inputs, w_long, |_| count += 1)
            .unwrap();
        count
    });
    println!(
        "streaming  : {long_windows} windows ({} cols) in {}  (per-window resident memory)",
        wm * w_long,
        fmt_time(long_s)
    );
    assert_eq!(long_windows, w_long);

    // -- windowed_fractional: Caputo/GL history carried across windows -----
    // An RC + constant-phase-element netlist (fractional MNA, α = ½)
    // driven by a tiny early bump plus a late main step: the windowed
    // solve carries the fractional memory of every previous window, so
    // full history matches the whole-horizon plan to roundoff, and the
    // short-memory truncation (which drops the quiescent early history)
    // stays within its documented bound.
    let (fm, fw) = (64, 16);
    let ft_end = 1e-6;
    let fsim = Simulation::from_netlist(
        "V1 in 0 DC 1\nR1 in top 100\nP1 top 0 CPE 1u 0.5\n.end",
        &["top"],
    )
    .unwrap()
    .horizon(ft_end);
    let t_on = 0.55 * ft_end;
    let fstim = InputSet::new(vec![Waveform::pwl(vec![
        (0.0, 0.0),
        (0.05 * ft_end, 0.0),
        (0.08 * ft_end, 1e-5),
        (0.12 * ft_end, 1e-5),
        (0.15 * ft_end, 0.0),
        (t_on, 0.0),
        (t_on + 0.02 * ft_end, 1.0),
        (ft_end, 1.0),
    ])
    .unwrap()]);
    let fwhole_plan = fsim.plan(&SolveOptions::new().resolution(fm * fw)).unwrap();
    let (fwhole_run, fwhole_s) = timed_best(3, || fwhole_plan.solve(&fstim).unwrap());
    let fplan = fsim.plan(&SolveOptions::new().resolution(fm)).unwrap();
    fplan.solve_windowed(&fstim, fw).unwrap(); // warm the window kernel
    let fprofile = fplan.factor_profile();
    let (ffull_run, ffull_s) = timed_best(3, || fplan.solve_windowed(&fstim, fw).unwrap());
    let mut ffull_delta = 0.0f64;
    for (ra, rb) in fwhole_run.outputs.iter().zip(&ffull_run.outputs) {
        for (va, vb) in ra.iter().zip(rb) {
            ffull_delta = ffull_delta.max((va - vb).abs());
        }
    }
    let ffull_speedup = fwhole_s / ffull_s;
    // Short memory: an 8-window (512-column) tail covering the active
    // late history, dropping the quiescent early windows.
    let fopts = WindowedOptions::new(fw).history_len(8 * fm);
    let (ftrunc_run, ftrunc_s) =
        timed_best(3, || fplan.solve_windowed_opts(&fstim, &fopts).unwrap());
    let mut ftrunc_delta = 0.0f64;
    for (ra, rb) in fwhole_run.outputs.iter().zip(&ftrunc_run.outputs) {
        for (va, vb) in ra.iter().zip(rb) {
            ftrunc_delta = ftrunc_delta.max((va - vb).abs());
        }
    }
    println!(
        "frac wins  : whole {} ({} cols) vs {fw} windows {} ({ffull_speedup:.2}×, {} symbolic + {} numeric, max |Δ| = {ffull_delta:.2e}); truncated tail {} (max |Δ| = {ftrunc_delta:.2e})",
        fmt_time(fwhole_s),
        fm * fw,
        fmt_time(ffull_s),
        fprofile.num_symbolic,
        fprofile.num_numeric,
        fmt_time(ftrunc_s),
    );
    assert_eq!(
        (fprofile.num_symbolic, fprofile.num_numeric),
        (1, 1),
        "W fractional windows must cost exactly 1 symbolic + 1 numeric factorization"
    );
    assert!(
        ffull_delta <= 1e-9,
        "full-history windowed fractional must match whole-horizon to 1e-9 (got {ffull_delta:.2e})"
    );
    assert!(
        ftrunc_delta <= 1e-6,
        "truncated-history windowed fractional must stay within 1e-6 (got {ftrunc_delta:.2e})"
    );

    // Nightly-only long-horizon fractional run (OPM_SWEEP_LONG=1): a
    // 100-window horizon that is deliberately too slow for per-PR CI.
    let long_frac = if std::env::var("OPM_SWEEP_LONG").is_ok_and(|v| v == "1") {
        let wlong = 100;
        let lsim = Simulation::from_netlist(
            "V1 in 0 DC 1\nR1 in top 100\nP1 top 0 CPE 1u 0.5\n.end",
            &["top"],
        )
        .unwrap()
        .horizon(100.0 * ft_end);
        let lplan = lsim.plan(&SolveOptions::new().resolution(fm)).unwrap();
        let lopts = WindowedOptions::new(wlong).history_len(8 * fm);
        let (lrun, lsec) = timed_best(1, || {
            lplan
                .solve_windowed_opts(lsim.inputs().unwrap(), &lopts)
                .unwrap()
        });
        println!(
            "frac long  : {wlong} windows ({} cols) in {} (truncated 8-window tail)",
            fm * wlong,
            fmt_time(lsec)
        );
        assert!(lrun.output_row(0).iter().all(|v| v.is_finite()));
        Some((
            format!("windowed_fractional/long_{wlong}x{fm}"),
            lsec,
            wlong,
            fm * wlong,
        ))
    } else {
        None
    };

    // -- newton: nonlinear rectifier on the Newton-over-refactor path ------
    // The diode half-wave rectifier from the pipeline acceptance tests,
    // solved over 8 windows. Every Newton iteration re-stamps the diode
    // companion model and refactors *numerically* against the single
    // recorded symbolic analysis; falling back to a fresh pivoted factor
    // is a pattern-degradation escape hatch that must never fire here.
    let (nm, nw) = (256, 8);
    let nsim = Simulation::from_netlist(
        "V1 in 0 SIN(0 1 1)\nR1 in a 0.1\nD1 a out 1e-14\nR2 out 0 10\nC1 out 0 0.2\n.end",
        &["out"],
    )
    .unwrap()
    .horizon(2.0);
    let nplan = nsim.plan(&SolveOptions::new().resolution(nm)).unwrap();
    let nstim = nsim.inputs().unwrap();
    let nopts = NewtonOptions::new();
    // One accounting solve on the fresh plan: the profile after it holds
    // the per-solve iteration/refactorization counts undiluted.
    let nrun = nplan.solve_newton_windowed(nstim, nw, &nopts).unwrap();
    let nprofile = nplan.factor_profile();
    assert!(nrun.output_row(0).iter().all(|v| v.is_finite()));
    assert_eq!(
        nprofile.num_symbolic, 1,
        "a W-window Newton solve must cost exactly 1 symbolic factorization"
    );
    assert_eq!(
        nprofile.newton_fresh_fallbacks, 0,
        "the rectifier must never abandon the recorded symbolic pattern"
    );
    assert_eq!(
        nprofile.newton_refactors, nprofile.newton_iters,
        "every Newton iteration is exactly one numeric refactorization"
    );
    let (_, newton_s) = timed_best(3, || {
        nplan.solve_newton_windowed(nstim, nw, &nopts).unwrap()
    });
    let newton_refactors_per_step = nprofile.newton_refactors as f64 / (nm * nw) as f64;
    println!(
        "newton     : rectifier {nw}×{nm} in {} — {} iters ({newton_refactors_per_step:.2} numeric refactors/step, {} symbolic, {} fresh fallbacks)",
        fmt_time(newton_s),
        nprofile.newton_iters,
        nprofile.num_symbolic,
        nprofile.newton_fresh_fallbacks,
    );

    let path = std::env::var("OPM_SWEEP_JSON").unwrap_or_else(|_| "BENCH_sweep.json".into());
    let note = format!(
        "Table II power grid (NA model, n = {n}, m = {m}). sweep/*: 100-scenario load sweep, \
         independent Problem::solve per scenario vs one Simulation::plan + SimPlan::solve_batch. \
         refactor/*: {SHIFTS} step-grid pencils of the grid's MNA form (n = {nn}), fresh per-pencil \
         factorization vs pure numeric refactorization against a prerecorded PencilFamily analysis. \
         batch_threads_*/scaling/*: the same 100-scenario batch on 1/2/4 workers ({cores} core(s) \
         available; bit-identical results enforced; speedup ratios are null on single-core machines \
         where they would be scheduler noise). kernel/*: best-of-N panel-vs-scalar A/B of the \
         lane-elementwise hot kernels (block triangular solve, SpMM, history convolution) on the \
         grid pencil at the plan batch's {SCENARIOS}-lane width; panel_vs_scalar_max_abs_delta == 0 \
         is a hard bit-identity gate. windowed/*: 100-tau RC-ladder horizon, whole-horizon plan \
         vs SimPlan::solve_windowed over {ww} windows (1 symbolic + 1 numeric factorization, \
         <= 1e-9 delta asserted) plus a {w_long}-window streaming run at per-window memory. \
         windowed_fractional/*: RC+CPE netlist (fractional MNA, alpha = 0.5), whole-horizon vs \
         {fw} windows with carried Caputo/GL history (full history <= 1e-9, 1 symbolic + 1 numeric) \
         and an 8-window short-memory tail (<= 1e-6 on quiescent-early-history stimulus). \
         newton/*: diode half-wave rectifier through SimPlan::solve_newton_windowed over 8 windows \
         of 256 columns — total Newton iterations (ceiling-classed: a regenerated run may not need \
         more), numeric refactorizations per time step (ceiling-classed), and the fresh-pivoted- \
         factor fallback count, hard-gated at exactly 0 (every iteration must reuse the single \
         recorded symbolic analysis). \
         CI gate: ci/compare_bench.py diffs a regenerated run against this committed file. \
         Regenerate: cargo run --release -p opm-bench --bin sweep",
        n = na.system.order(),
    );
    let int = |v: usize| Json::Int(v as i64);
    let rec = |id: String, fields: Vec<(&str, Json)>| {
        let mut entries = vec![("id".to_string(), Json::str(id))];
        entries.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        Json::Obj(entries)
    };
    let mut records = vec![
        rec(
            "sweep/naive_loop_100".into(),
            vec![
                ("seconds", Json::Num(naive_s)),
                ("num_factorizations", int(naive_factorizations)),
            ],
        ),
        rec(
            "sweep/plan_batch_100".into(),
            vec![
                ("seconds", Json::Num(plan_s)),
                ("num_factorizations", int(plan_factorizations)),
            ],
        ),
        rec("sweep/speedup".into(), vec![("value", Json::Num(speedup))]),
        rec(
            "sweep/max_abs_delta".into(),
            vec![("value", Json::Num(worst))],
        ),
        rec(
            format!("refactor/fresh_factor_{SHIFTS}"),
            vec![
                ("seconds", Json::Num(fresh_s)),
                ("num_symbolic", int(SHIFTS)),
                ("num_numeric", int(0)),
            ],
        ),
        rec(
            format!("refactor/numeric_refactor_{SHIFTS}"),
            vec![
                ("seconds", Json::Num(refac_s)),
                ("num_symbolic", int(0)),
                ("num_numeric", int(SHIFTS)),
            ],
        ),
        rec(
            "refactor_vs_factor".into(),
            vec![("value", Json::Num(refac_speedup))],
        ),
        rec(
            "batch_threads_1".into(),
            vec![("seconds", Json::Num(t1_s)), ("threads", int(1))],
        ),
        rec(
            "batch_threads_4".into(),
            vec![
                ("seconds", Json::Num(t4_s)),
                ("threads", int(4)),
                ("cores_available", int(cores)),
            ],
        ),
        rec(
            "batch_threads_speedup".into(),
            vec![
                ("value", thread_speedup_json),
                ("cores_available", int(cores)),
            ],
        ),
        rec(
            "batch_threads_max_abs_delta".into(),
            vec![("value", Json::Num(thread_delta))],
        ),
        rec(
            "scaling/workers_1".into(),
            vec![
                ("seconds", Json::Num(t1_s)),
                ("workers", int(1)),
                ("cores_available", int(cores)),
            ],
        ),
        rec(
            "scaling/workers_2".into(),
            vec![
                ("seconds", Json::Num(t2_s)),
                ("workers", int(2)),
                ("cores_available", int(cores)),
            ],
        ),
        rec(
            "scaling/workers_4".into(),
            vec![
                ("seconds", Json::Num(t4_s)),
                ("workers", int(4)),
                ("cores_available", int(cores)),
            ],
        ),
        rec(
            "scaling/speedup_2".into(),
            vec![("value", scale2_json), ("cores_available", int(cores))],
        ),
        rec(
            "scaling/speedup_4".into(),
            vec![("value", scale4_json), ("cores_available", int(cores))],
        ),
        rec(
            "kernel/solve_block_scalar".into(),
            vec![
                ("seconds", Json::Num(ksolve_scalar_s)),
                ("lanes", int(klanes)),
            ],
        ),
        rec(
            "kernel/solve_block_panel".into(),
            vec![
                ("seconds", Json::Num(ksolve_panel_s)),
                ("lanes", int(klanes)),
            ],
        ),
        rec(
            "kernel/solve_block_speedup".into(),
            vec![
                ("value", Json::Num(ksolve_speedup)),
                ("panels_enabled", Json::Bool(panels_enabled)),
            ],
        ),
        rec(
            "kernel/spmm_scalar".into(),
            vec![
                ("seconds", Json::Num(kspmm_scalar_s)),
                ("lanes", int(klanes)),
            ],
        ),
        rec(
            "kernel/spmm_panel".into(),
            vec![
                ("seconds", Json::Num(kspmm_panel_s)),
                ("lanes", int(klanes)),
            ],
        ),
        rec(
            "kernel/spmm_speedup".into(),
            vec![
                ("value", Json::Num(kspmm_speedup)),
                ("panels_enabled", Json::Bool(panels_enabled)),
            ],
        ),
        rec(
            "kernel/history_scalar".into(),
            vec![
                ("seconds", Json::Num(khist_scalar_s)),
                ("lanes", int(klanes)),
                ("depth", int(kdepth)),
            ],
        ),
        rec(
            "kernel/history_panel".into(),
            vec![
                ("seconds", Json::Num(khist_panel_s)),
                ("lanes", int(klanes)),
                ("depth", int(kdepth)),
            ],
        ),
        rec(
            "kernel/history_speedup".into(),
            vec![
                ("value", Json::Num(khist_speedup)),
                ("panels_enabled", Json::Bool(panels_enabled)),
            ],
        ),
        rec(
            "kernel/panel_vs_scalar_max_abs_delta".into(),
            vec![("value", Json::Num(kdelta))],
        ),
        rec(
            "windowed/whole_horizon".into(),
            vec![("seconds", Json::Num(whole_s)), ("columns", int(wm * ww))],
        ),
        rec(
            format!("windowed/windows_{ww}x{wm}"),
            vec![
                ("seconds", Json::Num(win_s)),
                ("windows", int(ww)),
                ("num_symbolic", int(wprofile.num_symbolic)),
                ("num_numeric", int(wprofile.num_numeric)),
            ],
        ),
        rec(
            "windowed_vs_whole".into(),
            vec![("value", Json::Num(win_speedup))],
        ),
        rec(
            "windowed_max_abs_delta".into(),
            vec![("value", Json::Num(win_delta))],
        ),
        rec(
            format!("windowed/stream_{w_long}x{wm}"),
            vec![
                ("seconds", Json::Num(long_s)),
                ("windows", int(w_long)),
                ("columns", int(wm * w_long)),
            ],
        ),
        rec(
            "windowed_fractional/whole_horizon".into(),
            vec![("seconds", Json::Num(fwhole_s)), ("columns", int(fm * fw))],
        ),
        rec(
            format!("windowed_fractional/windows_{fw}x{fm}"),
            vec![
                ("seconds", Json::Num(ffull_s)),
                ("windows", int(fw)),
                ("num_symbolic", int(fprofile.num_symbolic)),
                ("num_numeric", int(fprofile.num_numeric)),
            ],
        ),
        rec(
            "windowed_fractional_vs_whole".into(),
            vec![("value", Json::Num(ffull_speedup))],
        ),
        rec(
            "windowed_fractional_max_abs_delta".into(),
            vec![("value", Json::Num(ffull_delta))],
        ),
        rec(
            format!("windowed_fractional/truncated_hist{}", 8 * fm),
            vec![
                ("seconds", Json::Num(ftrunc_s)),
                ("windows", int(fw)),
                ("history_len", int(8 * fm)),
            ],
        ),
        rec(
            "windowed_fractional_truncated_max_abs_delta".into(),
            vec![("value", Json::Num(ftrunc_delta))],
        ),
        rec(
            "newton/rectifier_iters".into(),
            vec![
                ("value", int(nprofile.newton_iters)),
                ("class", Json::str("ceiling")),
                ("seconds", Json::Num(newton_s)),
                ("windows", int(nw)),
                ("columns", int(nm * nw)),
                ("num_symbolic", int(nprofile.num_symbolic)),
            ],
        ),
        rec(
            "newton/refactors_per_step".into(),
            vec![
                ("value", Json::Num(newton_refactors_per_step)),
                ("class", Json::str("ceiling")),
                ("columns", int(nm * nw)),
            ],
        ),
        rec(
            "newton/fresh_factor_fallbacks".into(),
            vec![("value", int(nprofile.newton_fresh_fallbacks))],
        ),
    ];
    if let Some((id, lsec, lwindows, lcols)) = long_frac {
        records.push(rec(
            id,
            vec![
                ("seconds", Json::Num(lsec)),
                ("windows", int(lwindows)),
                ("columns", int(lcols)),
            ],
        ));
    }
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("opm-bench-sweep/v6")),
        ("note".into(), Json::str(note)),
        ("records".into(), Json::Arr(records)),
    ]);
    let mut f = std::fs::File::create(&path).expect("create BENCH_sweep.json");
    f.write_all(format!("{doc}\n").as_bytes())
        .expect("write BENCH_sweep.json");
    println!("wrote {path}");
}
