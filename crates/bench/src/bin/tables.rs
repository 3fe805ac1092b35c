//! **The paper's Tables I and II as gated records.**
//!
//! - **Table I** — fractional transmission line (n = 7, α = ½, 2 ports),
//!   T = 2.7 ns, m = 8: OPM vs FFT-1 (8 points) vs FFT-2 (100 points),
//!   with the paper's Eq. (30) error of each FFT run *with respect to
//!   OPM* (its own normalization — OPM's row shows "−").
//! - **Table II** — 3-D power grid: backward Euler (h, h/2, h/10), Gear-2
//!   and trapezoidal on the first-order MNA model vs OPM on the
//!   second-order NA model. The paper's grid has 75 K (NA) / 110 K (MNA)
//!   unknowns; `OPM_SCALE=n` grows this one (`OPM_SCALE=4` ≈ 18 K/29 K).
//!   Errors are RMS vs a 32× fine-step reference, in dB relative to the
//!   signal RMS — the analogue of the paper's "average relative error".
//!
//! Every method gets a record with its best-of-N `seconds` and `err_db`.
//! The shapes are records with bounds: err(FFT-2) < err(FFT-1), finer
//! backward Euler improves and backward Euler is the worst 10 ps method
//! (`max: 0` differences in dB, every profile), and OPM < FFT-1 < FFT-2
//! in time (two ratios, `min: 1` under `local` only: the three take
//! microseconds and a shared runner's noise can decide their order;
//! every setup is built before the timed rounds). No
//! bound is set against the paper's absolute dB figures: its setups
//! differ from these. The binary writes every record and exits 0 whether
//! or not a shape holds; `ci/compare_bench.py` judges the run.
//!
//! `cargo run --release -p opm-bench --bin tables [-- --json PATH]`

use std::ops::Range;

use opm_bench::{env_scale, fmt_time, per_profile, rec, row, rule, timed, Cli};
use opm_circuits::grid::PowerGridSpec;
use opm_circuits::mna::assemble_mna;
use opm_circuits::na::assemble_na;
use opm_circuits::tline::FractionalLineSpec;
use opm_core::json::Json;
use opm_core::metrics::relative_error_db_multi;
use opm_core::{Simulation, SolveOptions};
use opm_fft::FftSimulator;
use opm_transient::{backward_euler, bdf, fine_reference, trapezoidal};

/// Timing rounds: every round runs each method once, back to back, so a
/// slow phase of the host hits all of them alike; each method reports
/// its best round.
const ROUNDS: usize = 5;

/// Best-of-[`ROUNDS`] seconds of each of `n` methods in interleaved
/// rounds; `run(i)` runs method `i` and keeps its result.
fn interleaved_best(n: usize, mut run: impl FnMut(usize)) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; n];
    for _ in 0..ROUNDS {
        for (i, b) in best.iter_mut().enumerate() {
            let ((), s) = timed(|| run(i));
            *b = b.min(s);
        }
    }
    best
}

/// A method's record: best-of-N seconds and its error in dB (`None`:
/// the method is the reference).
fn method(id: &str, seconds: f64, err_db: Option<f64>) -> Json {
    let err_db = err_db.map_or(Json::Null, Json::Num);
    rec(
        id,
        vec![("seconds", Json::Num(seconds)), ("err_db", err_db)],
    )
}

/// A shape criterion `value ≤ 0` on every profile.
fn at_most_zero(id: &str, value: f64) -> Json {
    rec(id, vec![("value", Json::Num(value)), ("max", Json::Int(0))])
}

/// A shape criterion `value ≥ 1` on a developer's machine only.
fn at_least_one_locally(id: &str, value: f64) -> Json {
    let min = per_profile(&[("local", 1.0)]);
    rec(id, vec![("value", Json::Num(value)), ("min", min)])
}

/// RMS of `f(p, j)` over every probe `p` and column `j` in `cols`.
fn rms(probes: &[usize], cols: Range<usize>, f: impl Fn(usize, usize) -> f64) -> f64 {
    let (mut s, mut count) = (0.0, 0usize);
    for &p in probes {
        for j in cols.clone() {
            let d = f(p, j);
            s += d * d;
            count += 1;
        }
    }
    (s / count as f64).sqrt()
}

/// Table I: the fractional line, OPM vs two FFT baselines.
fn table1() -> Vec<Json> {
    let model = FractionalLineSpec::default().assemble();
    let (t_end, m) = (2.7e-9, 8);
    println!(
        "Table I — fractional line: n = {}, α = {}, p = q = {}, T = {t_end:.1e} s, m = {m}\n",
        model.system.order(),
        model.system.alpha(),
        model.system.num_inputs(),
    );

    // Each timed run repeats a microsecond-scale solve REPS times. Every
    // row's setup — the OPM plan and both FFT simulators — is built once,
    // outside the rounds, so the three rows time the same boundary.
    const REPS: usize = 200;
    let u = model.inputs.bpf_matrix(m, t_end);
    let plan = Simulation::from_fractional(model.system.clone())
        .horizon(t_end)
        .plan(&SolveOptions::new().resolution(m))
        .unwrap();
    let fft_sims = [FftSimulator::new(8), FftSimulator::new(100)];
    let (mut opm, mut fft) = (None, [None, None]);
    let best = interleaved_best(3, |i| {
        for _ in 0..REPS {
            if i == 0 {
                opm = Some(plan.solve_coeffs(&u).unwrap());
            } else {
                fft[i - 1] = Some(fft_sims[i - 1].simulate(&model.system, &model.inputs, t_end));
            }
        }
    });
    let secs: Vec<f64> = best.iter().map(|s| s / REPS as f64).collect();
    let opm = opm.unwrap();
    let opm_out: Vec<Vec<f64>> = (0..2).map(|o| opm.output_row(o).to_vec()).collect();
    // Each FFT waveform on OPM's midpoints, for the Eq. (30) comparison.
    let errs: Vec<f64> = fft
        .iter()
        .map(|res| {
            let res = res.as_ref().unwrap();
            let on_grid: Vec<Vec<f64>> = (0..2)
                .map(|o| {
                    let mids = opm.midpoints().into_iter();
                    mids.map(|t| res.interpolate_output(o, t)).collect()
                })
                .collect();
            relative_error_db_multi(&on_grid, &opm_out)
        })
        .collect();
    let rows = [
        ("FFT-1", secs[1], Some(errs[0])),
        ("FFT-2", secs[2], Some(errs[1])),
        ("OPM", secs[0], None),
    ];

    let widths = [8usize, 14, 18];
    let header = ["Method", "CPU time", "Rel. error (dB)"];
    row(&header.map(String::from), &widths);
    rule(&widths);
    for (name, s, err) in rows {
        let err = err.map_or("-".into(), |e| format!("{e:.1}"));
        row(&[name.into(), fmt_time(s), err], &widths);
    }
    println!(
        "\npaper reported: FFT-1 6.09 ms / −29.2 dB · FFT-2 40.7 ms / −46.5 dB · OPM 3.56 ms\n"
    );

    let mut records: Vec<Json> = rows
        .iter()
        .map(|&(name, s, err)| method(&format!("table1/{name}"), s, err))
        .collect();
    records.extend([
        at_most_zero("table1/err_fft2_minus_fft1_db", errs[1] - errs[0]),
        at_least_one_locally("table1/fft1_over_opm_seconds", secs[1] / secs[0]),
        at_least_one_locally("table1/fft2_over_fft1_seconds", secs[2] / secs[1]),
    ]);
    records
}

/// Table II: the power grid at `scale`, five MNA integrators vs OPM on
/// the second-order NA model.
fn table2(scale: usize) -> Vec<Json> {
    let spec = PowerGridSpec {
        layers: 3,
        rows: 8 * scale,
        cols: 8 * scale,
        num_loads: 8 * scale,
        // Resolved-dynamics regime: the error ordering of the paper
        // presumes the 10 ps step resolves the grid's LC modes.
        l_via: 2e-10,
        c_node: 2e-11,
        r_segment: 0.2,
        period: 4e-9,
        ..Default::default()
    };
    let ckt = spec.build();
    let na = assemble_na(&ckt, &[]).unwrap();
    let mna = assemble_mna(&ckt, &[]).unwrap();
    let t_end = 10e-9;
    let m = 1000; // h = 10 ps, the paper's base step
    println!(
        "Table II — power grid {}×{}×{}: NA n = {}, MNA n = {} (paper: 75 K / 110 K), T = 10 ns\n",
        spec.layers,
        spec.rows,
        spec.cols,
        na.system.order(),
        mna.system.order()
    );

    // Reference: fine trapezoidal on the MNA model, probed at every
    // bottom-layer node (where the loads switch).
    let x0 = vec![0.0; mna.system.order()];
    let reference = fine_reference(&mna.system, &mna.inputs, t_end, m, 32, &x0).unwrap();
    let refs = &reference.outputs;
    let probes: Vec<usize> = (0..spec.rows * spec.cols).collect();
    let signal_rms = rms(&probes, 0..refs[0].len(), |p, j| refs[p][j]);
    let db = |err_rms: f64| 20.0 * (err_rms / signal_rms).log10();

    // (id, label, steps, stride onto the 10 ps grid)
    let steppers = [
        ("b_euler_10ps", "b-Euler", m, 1usize),
        ("b_euler_5ps", "b-Euler", 2 * m, 2),
        ("b_euler_1ps", "b-Euler", 10 * m, 10),
        ("gear2_10ps", "Gear", m, 1),
        ("trapezoidal_10ps", "Trapezoidal", m, 1),
    ];
    // OPM on the second-order NA model (input = J̇ via exact averages).
    let bounds: Vec<f64> = (0..=m).map(|k| k as f64 * t_end / m as f64).collect();
    let u_dot = na.inputs.derivative_averages_on_grid(&bounds);
    let mt = na.system.to_multiterm();
    let (sys, inputs) = (&mna.system, &mna.inputs);
    let mut outputs = vec![Vec::new(); steppers.len()];
    let mut opm = None;
    let best = interleaved_best(steppers.len() + 1, |i| match steppers.get(i) {
        Some(&(id, _, mm, _)) => {
            let run = match id {
                "gear2_10ps" => bdf(sys, inputs, t_end, mm, 2, &x0, false),
                "trapezoidal_10ps" => trapezoidal(sys, inputs, t_end, mm, &x0, false),
                _ => backward_euler(sys, inputs, t_end, mm, &x0, false),
            };
            outputs[i] = run.unwrap().outputs;
        }
        None => {
            let plan = Simulation::from_multiterm(mt.clone())
                .horizon(t_end)
                .plan(&SolveOptions::new().resolution(u_dot[0].len()));
            opm = Some(plan.unwrap().solve_coeffs(&u_dot).unwrap());
        }
    });
    let opm = opm.unwrap();

    // Endpoint-sampled steppers against the reference; OPM's columns are
    // interval averages, against the reference's midpoint averages.
    let mut rows: Vec<(&str, &str, usize, f64, f64)> = steppers
        .iter()
        .zip(&outputs)
        .zip(&best)
        .map(|((&(id, label, mm, stride), out), &s)| {
            let err = rms(&probes, 0..m, |p, j| {
                out[p][(j + 1) * stride - 1] - refs[p][j]
            });
            (id, label, 10 * m / mm, s, db(err))
        })
        .collect();
    let opm_err = rms(&probes, 1..m, |p, j| {
        opm.state_coeff(p, j) - 0.5 * (refs[p][j - 1] + refs[p][j])
    });
    rows.push(("opm_na_10ps", "OPM", 10, best[steppers.len()], db(opm_err)));

    let widths = [12usize, 10, 12, 20];
    let header = ["Method", "Step", "Runtime", "Avg rel. err (dB)"];
    row(&header.map(String::from), &widths);
    rule(&widths);
    for &(_, label, ps, s, err) in &rows {
        let cells = [
            label.into(),
            format!("{ps} ps"),
            fmt_time(s),
            format!("{err:.0}"),
        ];
        row(&cells, &widths);
    }
    println!("\npaper reported (75 K/110 K nodes, CPU seconds):");
    println!("  b-Euler 10 ps 334.7 s / −91 dB · 5 ps 691.7 s / −92 dB · 1 ps 3198 s / −127 dB");
    println!(
        "  Gear 10 ps 359.1 s / −134 dB · Trapezoidal 10 ps 347.2 s / −137 dB · OPM 10 ps 314.6 s\n"
    );

    let err = |id: &str| rows.iter().find(|r| r.0 == id).unwrap().4;
    let mut records: Vec<Json> = rows
        .iter()
        .map(|&(id, _, _, s, e)| method(&format!("table2/{id}"), s, Some(e)))
        .collect();
    // Finer backward Euler improves; backward Euler is the worst 10 ps
    // method.
    for (finer, coarser) in [("5ps", "10ps"), ("1ps", "5ps")] {
        records.push(at_most_zero(
            &format!("table2/err_b_euler_{finer}_minus_{coarser}_db"),
            err(&format!("b_euler_{finer}")) - err(&format!("b_euler_{coarser}")),
        ));
    }
    for other in ["gear2_10ps", "trapezoidal_10ps", "opm_na_10ps"] {
        records.push(at_most_zero(
            &format!("table2/err_{other}_minus_b_euler_10ps_db"),
            err(other) - err("b_euler_10ps"),
        ));
    }
    records
}

fn main() {
    let cli = Cli::parse("BENCH_tables.json", None);
    let scale = env_scale();
    let mut records = table1();
    records.extend(table2(scale));

    println!("shape records (ci/compare_bench.py judges their bounds):");
    for r in &records {
        let id = r.get("id").and_then(Json::as_str);
        if let (Some(id), Some(v)) = (id, r.get("value").and_then(Json::as_f64)) {
            println!("  {id} = {v:.3}");
        }
    }
    let note = format!(
        "The paper's Tables I and II (OPM_SCALE = {scale}). table1/*: fractional transmission \
         line (n = 7, alpha = 1/2, T = 2.7 ns, m = 8), OPM vs FFT-1 (8 points) vs FFT-2 (100 \
         points); seconds per solve (each setup built before the rounds; OPM times \
         solve_coeffs on one plan), best of {ROUNDS} interleaved rounds of 200 solves; err_db \
         is the paper's Eq. (30) error of each FFT run against OPM. table2/*: 3-layer power grid \
         ({r}x{r}, {r} loads), backward Euler at 10/5/1 ps, Gear-2 and trapezoidal on the MNA \
         model and OPM on the second-order NA model at 10 ps, T = 10 ns; seconds best of \
         {ROUNDS} interleaved rounds; err_db is the RMS error against a 32x fine-step \
         trapezoidal reference relative to the signal RMS. Shapes: dB differences with max 0 on \
         every profile, and the Table I time order as two ratios with min 1 under local only. \
         No bound is set against the paper's absolute figures. ci/compare_bench.py judges a \
         regenerated run against this file. Regenerate: cargo run --release -p opm-bench --bin \
         tables",
        r = 8 * scale,
    );
    opm_bench::write(&cli.json, "opm-bench-tables/v1", &note, records);
}
