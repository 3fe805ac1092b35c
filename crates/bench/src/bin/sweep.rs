//! **Plan-reuse sweep benchmark** — the `SimPlan` session economy on the
//! Table II power-grid circuit: 100 load-current scenarios solved (a)
//! naively, a fresh `Simulation::plan` + solve each (re-validate,
//! re-order, re-factor per scenario), and (b) through one plan whose single
//! factorization serves the whole batch in one interleaved pass.
//!
//! On top of the plan-reuse record, hot-path records for the
//! symbolic/numeric split, the parallel batch runtime and the long-horizon
//! paths:
//!
//! - `refactor_vs_factor` — the Table II grid's MNA pencils over a
//!   64-shift step grid: fresh per-pencil factorization (pattern
//!   rebuild + AMD + pivoted LU, the pre-split hot path) vs one
//!   `PencilFamily` (pattern/ordering/symbolic analysis paid once,
//!   numeric-only refactorization per shift).
//! - `batch_threads_*` and `scaling/*` — the 100-scenario batch swept on
//!   1, 2 and 4 workers (`SimPlan::solve_windowed_batch_opts` at one
//!   window), with the max |Δ| against the serial path.
//! - `kernel/*` — the lane-panel kernels against their scalar references.
//! - `windowed*` — a 100τ-horizon RC ladder and an RC + CPE netlist: one
//!   whole-horizon plan at `W·m` columns vs `SimPlan::solve_windowed`
//!   over `W` windows of `m` columns, plus a 512-window streaming run.
//! - `newton/*` — the diode half-wave rectifier solved through the
//!   windowed Newton path: iteration count, numeric refactorizations
//!   per time step, and the fresh-pivoted-factor fallback count.
//!
//! Emits `BENCH_sweep.json` (path override: `OPM_SWEEP_JSON`;
//! `OPM_SWEEP_LONG=1` adds the 100-window fractional run). The binary
//! only measures: it writes every record, each with the bound it must
//! meet (`min`/`max`, one value per profile where contexts differ, or a
//! `class` against the committed run), and exits 0.
//! `ci/compare_bench.py --profile {local,pr,nightly}` judges the run.
//!
//! `cargo run --release -p opm-bench --bin sweep`

use opm_bench::{fmt_time, timed_best};
use opm_circuits::grid::PowerGridSpec;
use opm_circuits::mna::{assemble_mna, Output};
use opm_circuits::na::assemble_na;
use opm_core::engine::{factor_pencil, PencilFamily};
use opm_core::json::Json;
use opm_core::{NewtonOptions, OpmResult, Simulation, SolveOptions, WindowedOptions};
use opm_waveform::{InputSet, Waveform};

const SCENARIOS: usize = 100;
const SHIFTS: usize = 64;

/// One bench record: its id, then its fields in order.
fn rec(id: impl Into<String>, fields: Vec<(&str, Json)>) -> Json {
    let mut entries = vec![("id".to_string(), Json::str(id))];
    entries.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(entries)
}

/// A bound that differs by gate profile; a profile left out is
/// unbounded there.
fn per_profile(bounds: &[(&str, f64)]) -> Json {
    Json::Obj(
        bounds
            .iter()
            .map(|&(p, v)| (p.to_string(), Json::Num(v)))
            .collect(),
    )
}

fn int(v: usize) -> Json {
    Json::Int(v as i64)
}

fn flag(b: bool) -> Json {
    Json::Int(i64::from(b))
}

/// Elementwise `max |a − b|` over two equal-length blocks.
fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// `max |Δ|` over every output row of two runs.
fn run_delta(a: &OpmResult, b: &OpmResult) -> f64 {
    a.outputs
        .iter()
        .zip(&b.outputs)
        .map(|(x, y)| max_abs_delta(x, y))
        .fold(0.0, f64::max)
}

/// `max |Δ|` over two batches of runs, scenario by scenario.
fn batch_delta(a: &[OpmResult], b: &[OpmResult]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| run_delta(x, y))
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

    // (a) Naive: a fresh plan per scenario (model clone, validation,
    //     ordering and factorization every time). Same rep count as the
    //     planned path below — a lopsided best-of-N would bias the
    //     min-estimator toward whichever side gets more chances.
    let (naive, naive_s) = timed_best(3, || {
        sets.iter()
            .map(|ws| {
                Simulation::from_second_order(na.system.clone())
                    .horizon(t_end)
                    .plan(&opts)
                    .unwrap()
                    .solve(ws)
                    .unwrap()
            })
            .collect::<Vec<_>>()
    });
    let naive_factorizations: usize = naive.iter().map(|r| r.num_factorizations).sum();

    // (b) Planned: factor once, sweep the batch. Pinned to one worker so
    //     sweep/speedup isolates the *reuse* economy — the threading win
    //     is measured separately by the batch_threads records below.
    let sim = Simulation::from_second_order(na.system.clone()).horizon(t_end);
    let whole = WindowedOptions::new(1);
    let ((plan, planned), plan_s) = timed_best(3, || {
        let plan = sim.plan(&opts).unwrap();
        let runs = plan.solve_windowed_batch_opts(&sets, &whole, 1).unwrap();
        (plan, runs)
    });
    let plan_factorizations = plan.factor_profile().num_factorizations();
    // The batch must reproduce the naive loop bit for bit.
    let worst = batch_delta(&naive, &planned);
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
    let mut records = vec![
        rec(
            "sweep/naive_loop_100",
            vec![
                ("seconds", Json::Num(naive_s)),
                ("num_factorizations", int(naive_factorizations)),
            ],
        ),
        rec(
            "sweep/plan_batch_100",
            vec![
                ("seconds", Json::Num(plan_s)),
                ("num_factorizations", int(plan_factorizations)),
            ],
        ),
        // Quiet machines clear 3×; shared runners get a relaxed floor.
        rec(
            "sweep/speedup",
            vec![
                ("value", Json::Num(speedup)),
                (
                    "min",
                    per_profile(&[("local", 3.0), ("pr", 1.5), ("nightly", 1.5)]),
                ),
            ],
        ),
        rec(
            "sweep/max_abs_delta",
            vec![("value", Json::Num(worst)), ("max", Json::Num(0.0))],
        ),
    ];

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
    //     + 63 numeric, recorded below); the *timed* passes then refactor
    //     all 64 shifts numerically against it, so the refactor record
    //     measures pure numeric-only work on a single worker (the
    //     algorithmic split, not parallelism).
    let weights: Vec<[f64; 2]> = sigmas.iter().map(|&s| [s, -1.0]).collect();
    let (family, head) = PencilFamily::new(&[e, a], &weights[0]).unwrap();
    let mut family_lus = vec![head];
    family_lus.extend(family.factor_all(&weights[1..], 1).unwrap());
    let fam_profile = family.profile();
    let (_, refac_s) = timed_best(3, || family.factor_all(&weights, 1).unwrap());
    let refac_speedup = fresh_s / refac_s;
    let nn = mna.system.order();
    let probe: Vec<f64> = (0..nn).map(|i| ((i * 7 % 23) as f64) - 11.0).collect();
    let mut refac_delta = 0.0f64;
    let mut scale = 0.0f64;
    for (lf, lr) in fresh_lus.iter().zip(&family_lus) {
        let xf = lf.solve(&probe);
        refac_delta = refac_delta.max(max_abs_delta(&xf, &lr.solve(&probe)));
        scale = xf.iter().fold(scale, |s, v| s.max(v.abs()));
    }
    let refac_rel_delta = refac_delta / scale;
    println!(
        "refactor   : fresh {} vs numeric {}  ({:.2}×, {} symbolic + {} numeric, rel Δ = {refac_rel_delta:.2e})",
        fmt_time(fresh_s),
        fmt_time(refac_s),
        refac_speedup,
        fam_profile.num_symbolic,
        fam_profile.num_numeric,
    );
    records.extend([
        rec(
            format!("refactor/fresh_factor_{SHIFTS}"),
            vec![
                ("seconds", Json::Num(fresh_s)),
                ("num_factorizations", int(fresh_lus.len())),
            ],
        ),
        // Counts: the family build's profile (analyze once, refactor the rest).
        rec(
            format!("refactor/numeric_refactor_{SHIFTS}"),
            vec![
                ("seconds", Json::Num(refac_s)),
                ("num_symbolic", int(fam_profile.num_symbolic)),
                ("num_numeric", int(fam_profile.num_numeric)),
            ],
        ),
        rec(
            "refactor_vs_factor",
            vec![
                ("value", Json::Num(refac_speedup)),
                (
                    "min",
                    per_profile(&[("local", 2.0), ("pr", 1.3), ("nightly", 1.3)]),
                ),
            ],
        ),
        rec(
            "refactor/max_rel_delta",
            vec![
                ("value", Json::Num(refac_rel_delta)),
                ("max", Json::Num(1e-9)),
            ],
        ),
    ]);

    // -- batch_threads_{1,4} and scaling/workers_{1,2,4}: the parallel
    //    batch runtime and its multi-core scaling curve ---------------------
    // Per-worker lane chunks are panel-aligned (56/44 lanes at width 2), so
    // the 2-worker ceiling on this batch is 100/56 ≈ 1.79×.
    let threaded = |t| plan.solve_windowed_batch_opts(&sets, &whole, t).unwrap();
    let (t1_runs, t1_s) = timed_best(3, || threaded(1));
    let (t2_runs, t2_s) = timed_best(3, || threaded(2));
    let (t4_runs, t4_s) = timed_best(3, || threaded(4));
    let thread_delta = batch_delta(&t1_runs, &t4_runs);
    let scaling_delta = batch_delta(&t1_runs, &t2_runs);
    let (scale2, scale4) = (t1_s / t2_s, t1_s / t4_s);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "threads    : 1w {} | 2w {} ({scale2:.2}×) | 4w {} ({scale4:.2}×) on {cores} core(s), \
         max |Δ| = {thread_delta:.2e} / {scaling_delta:.2e}",
        fmt_time(t1_s),
        fmt_time(t2_s),
        fmt_time(t4_s),
    );
    // On a single core a "speedup" ratio is pure scheduler noise: the
    // JSON records `null` (plus `cores_available` so the reader can see
    // why) instead of publishing a sub-1.0 ratio as if it were a
    // regression. The floors follow the host: a single core cannot speed
    // anything up, so locally they only bite where parallel wins are
    // physically possible, while the nightly run exists to measure the
    // curve and fails on a single core.
    let ratio = |r: f64| if cores >= 2 { Json::Num(r) } else { Json::Null };
    let thread_floor = match cores {
        1 => per_profile(&[("pr", 1.05), ("nightly", 1.05)]),
        2 | 3 => per_profile(&[("local", 1.05), ("pr", 1.05), ("nightly", 1.05)]),
        _ => per_profile(&[("local", 1.5), ("pr", 1.05), ("nightly", 1.05)]),
    };
    let scaling_floor = if cores >= 2 {
        per_profile(&[("local", 1.5), ("pr", 1.1), ("nightly", 1.5)])
    } else {
        per_profile(&[("nightly", 1.5)])
    };
    records.extend([
        rec(
            "batch_threads_1",
            vec![("seconds", Json::Num(t1_s)), ("threads", int(1))],
        ),
        rec(
            "batch_threads_4",
            vec![
                ("seconds", Json::Num(t4_s)),
                ("threads", int(4)),
                ("cores_available", int(cores)),
            ],
        ),
        rec(
            "batch_threads_speedup",
            vec![
                ("value", ratio(scale4)),
                ("min", thread_floor),
                ("cores_available", int(cores)),
            ],
        ),
        rec(
            "batch_threads_max_abs_delta",
            vec![("value", Json::Num(thread_delta)), ("max", Json::Num(0.0))],
        ),
    ]);
    for (w, s) in [(1, t1_s), (2, t2_s), (4, t4_s)] {
        records.push(rec(
            format!("scaling/workers_{w}"),
            vec![
                ("seconds", Json::Num(s)),
                ("workers", int(w)),
                ("cores_available", int(cores)),
            ],
        ));
    }
    records.extend([
        rec(
            "scaling/speedup_2",
            vec![
                ("value", ratio(scale2)),
                ("min", scaling_floor),
                ("cores_available", int(cores)),
            ],
        ),
        rec(
            "scaling/speedup_4",
            vec![("value", ratio(scale4)), ("cores_available", int(cores))],
        ),
        rec(
            "scaling/max_abs_delta",
            vec![("value", Json::Num(scaling_delta)), ("max", Json::Num(0.0))],
        ),
    ]);

    // -- kernel/*: single-thread panel vs scalar microkernels --------------
    // In-process best-of-N A/B of every lane-elementwise hot kernel
    // against its public scalar reference, on the Table II grid pencil at
    // the plan batch's lane count (the `sweep/plan_batch_100` hot path).
    // Bit-identity is exact (max |Δ| == 0, not a tolerance); the
    // triangular-solve speedup carries the acceptance floor.
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
    // The windowed form: a window's carried term for every column at
    // once (Toeplitz block × tail) vs one scalar pass per column.
    let kwindow = 16;
    let kbweights: Vec<f64> = (0..=kdepth + kwindow)
        .map(|k| (-0.85f64).powi(k as i32))
        .collect();
    let mut kbs = vec![kb.clone(); kwindow];
    let mut kbp = kbs.clone();
    let (_, kblock_scalar_s) = timed_best(3, || {
        for (j, col) in kbs.iter_mut().enumerate() {
            opm_fracnum::history::history_convolution_into_scalar(&kbweights, j, &ktail, col);
        }
    });
    let (_, kblock_panel_s) = timed_best(3, || {
        opm_fracnum::history::history_block_into(&kbweights, &ktail, &mut kbp)
    });
    for (cs, cp) in kbs.iter().zip(&kbp) {
        kdelta = kdelta.max(max_abs_delta(cs, cp));
    }
    let lanes = || vec![("lanes", int(klanes))];
    let deep = || vec![("lanes", int(klanes)), ("depth", int(kdepth))];
    let mut block = deep();
    block.push(("columns", int(kwindow)));
    let solve_floor = per_profile(&[("local", 1.5), ("pr", 1.2), ("nightly", 1.5)]);
    let kernels = [
        (
            "solve_block",
            ksolve_scalar_s,
            ksolve_panel_s,
            lanes(),
            Some(solve_floor),
        ),
        ("spmm", kspmm_scalar_s, kspmm_panel_s, lanes(), None),
        ("history", khist_scalar_s, khist_panel_s, deep(), None),
        (
            "history_block",
            kblock_scalar_s,
            kblock_panel_s,
            block,
            None,
        ),
    ];
    let summary: Vec<String> = kernels
        .iter()
        .map(|(name, ss, ps, ..)| {
            format!(
                "{name} {} / {} ({:.2}×)",
                fmt_time(*ss),
                fmt_time(*ps),
                ss / ps
            )
        })
        .collect();
    println!(
        "kernels    : {}  scalar/panel, max |Δ| = {kdelta:.2e}",
        summary.join(" | ")
    );
    for (name, scalar_s, panel_s, shape, floor) in kernels {
        for (side, s) in [("scalar", scalar_s), ("panel", panel_s)] {
            let mut fields = vec![("seconds", Json::Num(s))];
            fields.extend(shape.iter().cloned());
            records.push(rec(format!("kernel/{name}_{side}"), fields));
        }
        let mut speedup = vec![("value", Json::Num(scalar_s / panel_s))];
        speedup.extend(floor.map(|f| ("min", f)));
        records.push(rec(format!("kernel/{name}_speedup"), speedup));
    }
    records.push(rec(
        "kernel/panel_vs_scalar_max_abs_delta",
        vec![("value", Json::Num(kdelta)), ("max", Json::Num(0.0))],
    ));

    // -- windowed_vs_whole: long-horizon windowed solving ------------------
    // A 100τ horizon on an RC ladder: one whole-horizon plan at W·m
    // columns vs W windows of m columns through ONE window
    // refactorization (1 symbolic + 1 numeric factorization).
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
    let win_delta = run_delta(&whole_run, &win_run);
    let win_speedup = whole_s / win_s;
    println!(
        "windowed   : whole {} ({} cols) vs {ww} windows {}  ({win_speedup:.2}×, {} symbolic + {} numeric, max |Δ| = {win_delta:.2e})",
        fmt_time(whole_s),
        wm * ww,
        fmt_time(win_s),
        wprofile.num_symbolic,
        wprofile.num_numeric,
    );
    // Streaming far past the whole-horizon regime: 512 windows
    // (131072 columns) at per-window resident memory.
    let w_long = 512;
    let long_opts = WindowedOptions::new(w_long);
    let (long_windows, long_s) = timed_best(1, || {
        let mut count = 0usize;
        wplan
            .solve_streaming(&lmodel.inputs, &long_opts, |_| count += 1)
            .unwrap();
        count
    });
    println!(
        "streaming  : {long_windows} windows ({} cols) in {}  (per-window resident memory)",
        wm * long_windows,
        fmt_time(long_s)
    );
    records.extend([
        rec(
            "windowed/whole_horizon",
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
        rec("windowed_vs_whole", vec![("value", Json::Num(win_speedup))]),
        rec(
            "windowed_max_abs_delta",
            vec![("value", Json::Num(win_delta)), ("max", Json::Num(1e-9))],
        ),
        rec(
            format!("windowed/stream_{w_long}x{wm}"),
            vec![
                ("seconds", Json::Num(long_s)),
                ("windows", int(long_windows)),
                ("columns", int(wm * long_windows)),
            ],
        ),
    ]);

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
    let ffull_delta = run_delta(&fwhole_run, &ffull_run);
    let ffull_speedup = fwhole_s / ffull_s;
    // Short memory: an 8-window (512-column) tail covering the active
    // late history, dropping the quiescent early windows.
    let fopts = WindowedOptions::new(fw).history_len(8 * fm);
    let fstims = std::slice::from_ref(&fstim);
    let (ftrunc_run, ftrunc_s) = timed_best(3, || {
        fplan
            .solve_windowed_batch_opts(fstims, &fopts, 1)
            .unwrap()
            .remove(0)
    });
    let ftrunc_delta = run_delta(&fwhole_run, &ftrunc_run);
    println!(
        "frac wins  : whole {} ({} cols) vs {fw} windows {} ({ffull_speedup:.2}×, {} symbolic + {} numeric, max |Δ| = {ffull_delta:.2e}); truncated tail {} (max |Δ| = {ftrunc_delta:.2e})",
        fmt_time(fwhole_s),
        fm * fw,
        fmt_time(ffull_s),
        fprofile.num_symbolic,
        fprofile.num_numeric,
        fmt_time(ftrunc_s),
    );
    records.extend([
        rec(
            "windowed_fractional/whole_horizon",
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
            "windowed_fractional_vs_whole",
            vec![("value", Json::Num(ffull_speedup))],
        ),
        rec(
            "windowed_fractional_max_abs_delta",
            vec![("value", Json::Num(ffull_delta)), ("max", Json::Num(1e-9))],
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
            "windowed_fractional_truncated_max_abs_delta",
            vec![("value", Json::Num(ftrunc_delta)), ("max", Json::Num(1e-6))],
        ),
    ]);

    // Nightly-only long-horizon fractional run (OPM_SWEEP_LONG=1): a
    // 100-window horizon that is deliberately too slow for per-PR CI.
    if std::env::var("OPM_SWEEP_LONG").is_ok_and(|v| v == "1") {
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
            let stims = std::slice::from_ref(lsim.inputs().unwrap());
            lplan
                .solve_windowed_batch_opts(stims, &lopts, 1)
                .unwrap()
                .remove(0)
        });
        println!(
            "frac long  : {wlong} windows ({} cols) in {} (truncated 8-window tail)",
            fm * wlong,
            fmt_time(lsec)
        );
        records.extend([
            rec(
                format!("windowed_fractional/long_{wlong}x{fm}"),
                vec![
                    ("seconds", Json::Num(lsec)),
                    ("windows", int(wlong)),
                    ("columns", int(fm * wlong)),
                ],
            ),
            rec(
                "windowed_fractional/long_finite",
                vec![
                    (
                        "value",
                        flag(lrun.output_row(0).iter().all(|v| v.is_finite())),
                    ),
                    ("min", Json::Int(1)),
                ],
            ),
        ]);
    }

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
    records.extend([
        // Ceiling-classed: a regenerated run may not need more iterations.
        rec(
            "newton/rectifier_iters",
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
            "newton/refactors_per_step",
            vec![
                ("value", Json::Num(newton_refactors_per_step)),
                ("class", Json::str("ceiling")),
                ("columns", int(nm * nw)),
            ],
        ),
        // Every Newton iteration is exactly one numeric refactorization.
        rec(
            "newton/refactors_minus_iters",
            vec![
                (
                    "value",
                    Json::Int(nprofile.newton_refactors as i64 - nprofile.newton_iters as i64),
                ),
                ("min", Json::Int(0)),
                ("max", Json::Int(0)),
            ],
        ),
        rec(
            "newton/fresh_factor_fallbacks",
            vec![
                ("value", int(nprofile.newton_fresh_fallbacks)),
                ("max", Json::Int(0)),
            ],
        ),
        rec(
            "newton/rectifier_finite",
            vec![
                (
                    "value",
                    flag(nrun.output_row(0).iter().all(|v| v.is_finite())),
                ),
                ("min", Json::Int(1)),
            ],
        ),
    ]);

    let path = std::env::var("OPM_SWEEP_JSON").unwrap_or_else(|_| "BENCH_sweep.json".into());
    let note = format!(
        "Table II power grid (NA model, n = {n}, m = {m}). sweep/*: 100-scenario load sweep, \
         a fresh Simulation::plan + solve per scenario vs one plan + SimPlan::solve_batch. \
         refactor/*: {SHIFTS} step-grid pencils of the grid's MNA form (n = {nn}), fresh per-pencil \
         factorization vs pure numeric refactorization against a prerecorded PencilFamily analysis \
         (counts: the family build's profile). batch_threads_*/scaling/*: the same 100-scenario \
         batch on 1/2/4 workers ({cores} core(s) available; speedup ratios are null on single-core \
         machines where they would be scheduler noise). kernel/*: best-of-N panel-vs-scalar A/B of \
         the lane-elementwise hot kernels (block triangular solve, SpMM, history convolution and \
         its {kwindow}-column windowed block) on the grid pencil at the plan batch's \
         {SCENARIOS}-lane width. windowed/*: 100-tau RC-ladder horizon, whole-horizon plan vs \
         SimPlan::solve_windowed over {ww} windows plus a {w_long}-window streaming run at \
         per-window memory. windowed_fractional/*: RC+CPE netlist (fractional MNA, alpha = 0.5), \
         whole-horizon vs {fw} windows with carried Caputo/GL history and an 8-window short-memory \
         tail (quiescent-early-history stimulus). newton/*: diode half-wave rectifier through \
         SimPlan::solve_newton_windowed over {nw} windows of {nm} columns. Each record carries its \
         own bound (min/max per profile, or a class against the committed run); \
         ci/compare_bench.py --profile local|pr|nightly judges a regenerated run against this \
         file. Regenerate: cargo run --release -p opm-bench --bin sweep",
        n = na.system.order(),
    );
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("opm-bench-sweep/v7")),
        ("note".into(), Json::str(note)),
        ("records".into(), Json::Arr(records)),
    ]);
    std::fs::write(&path, format!("{doc}\n")).expect("write BENCH_sweep.json");
    println!("wrote {path}");
}
