//! Output correctness: daemon responses against in-process solves of the
//! same body, and one independent oracle per workload.

use opm_circuits::mna::assemble_nonlinear_mna;
use opm_circuits::parser::parse_netlist;
use opm_core::json::Json;
use opm_core::{NewtonOptions, OpmResult, SimPlan, SolveOptions, WindowedOptions};
use opm_serve::api::{result_json, SimRequest};
use opm_transient::newton_be_richardson;
use opm_waveform::InputSet;

use crate::gen::{Kind, Workload};

/// Largest deviation the windowed-vs-whole-horizon oracle accepts (the
/// bound the `sweep` bin pins for both linear and fractional plans).
pub const WINDOWED_TOL: f64 = 1e-9;
/// Largest endpoint deviation of the diode workload's OPM Newton solve
/// from the Newton–backward-Euler Richardson reference at twice its
/// step count.
pub const NEWTON_TOL: f64 = 1e-4;

/// Runs `f`, turning a panic into an error so one bad check is counted
/// instead of ending the run before its metrics are written.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err("panicked".into()))
}

/// Solves `stimuli` on `plan` exactly as the daemon's `POST /solve`
/// handler does.
pub fn solve(
    plan: &SimPlan,
    windows: Option<usize>,
    stimuli: &[InputSet],
) -> Result<Vec<OpmResult>, String> {
    let results = if plan.has_nonlinear() {
        let windows = windows.unwrap_or(1);
        stimuli
            .iter()
            .map(|ws| plan.solve_newton_windowed(ws, windows, &NewtonOptions::new()))
            .collect::<Result<Vec<_>, _>>()
    } else {
        match windows {
            Some(w) => plan.solve_windowed_batch_opts(
                stimuli,
                &WindowedOptions::new(w),
                opm_par::default_threads(),
            ),
            None => plan.solve_batch(stimuli),
        }
    };
    results.map_err(|e| e.to_string())
}

/// The `results` array of a response document, as the daemon encodes it.
pub fn results_text(results: &[OpmResult]) -> String {
    Json::Arr(results.iter().map(result_json).collect()).to_string()
}

/// The expected `results` text of `body`, from a fresh in-process plan.
pub fn reference(body: &str) -> Result<String, String> {
    let parsed = SimRequest::parse(body.as_bytes()).map_err(|e| e.msg)?;
    let stimuli = parsed.stimuli().map_err(|e| e.msg)?;
    let plan = parsed.sim.plan(&parsed.opts).map_err(|e| e.to_string())?;
    solve(&plan, parsed.windows, &stimuli).map(|r| results_text(&r))
}

/// Splits a `/solve` response body into (cache hit?, `results` text).
pub fn split_response(body: &str) -> Option<(bool, &str)> {
    let hit = if body.starts_with(r#"{"cache": "hit""#) {
        true
    } else if body.starts_with(r#"{"cache": "miss""#) {
        false
    } else {
        return None;
    };
    let at = body.rfind(r#", "results": "#)?;
    let rest = &body[at + r#", "results": "#.len()..];
    Some((hit, rest.strip_suffix('}')?))
}

/// Checks a `/solve` response body for request `k`: the intended cache
/// hit/miss and, for pool bodies, results byte-identical to
/// `expected[pool index]`. Returns the `results` text (`mesh_cold`
/// bodies never repeat, so the caller checks theirs later).
pub fn reply<'b>(
    w: &Workload,
    expected: &[String],
    k: usize,
    body: &'b str,
) -> Result<&'b str, String> {
    let (hit, results) =
        split_response(body).ok_or_else(|| format!("request {k}: malformed reply"))?;
    if hit != w.kind.expects_hit() {
        return Err(format!("request {k}: unexpected cache hit={hit}"));
    }
    match w.pool_index(k).map(|i| expected.get(i).map(String::as_str)) {
        Some(want) if want != Some(results) => {
            Err(format!("request {k}: results differ from the reference"))
        }
        _ => Ok(results),
    }
}

/// Runs the workload's independent oracle once and returns the observed
/// deviation, or why it could not run.
pub fn oracle(w: &Workload) -> Result<(f64, f64), String> {
    let body = w.primers.first().ok_or("workload has no primer body")?;
    let parsed = SimRequest::parse(body.as_bytes()).map_err(|e| e.msg)?;
    let shape = w.kind.shape();
    let plan = parsed.sim.plan(&parsed.opts).map_err(|e| e.to_string())?;
    let stimuli = parsed.stimuli().map_err(|e| e.msg)?;
    let first = stimuli.first().ok_or("body has no stimulus")?;
    match w.kind {
        Kind::MeshWarm | Kind::MeshCold | Kind::CpeHistory => {
            // Windowed (W windows of m columns) against one whole-horizon
            // plan at W·m columns.
            let windowed = plan
                .solve_windowed(first, shape.windows)
                .map_err(|e| e.to_string())?;
            let whole_plan = parsed
                .sim
                .plan(&SolveOptions::new().resolution(shape.columns()))
                .map_err(|e| e.to_string())?;
            let whole = whole_plan.solve(first).map_err(|e| e.to_string())?;
            Ok((max_dev(&windowed.outputs, &whole.outputs), WINDOWED_TOL))
        }
        Kind::DiodeNewton => {
            let opm = plan
                .solve_newton_windowed(first, shape.windows, &NewtonOptions::new())
                .map_err(|e| e.to_string())?;
            let netlist = Json::parse(body)
                .ok()
                .and_then(|d| d.get("netlist").and_then(Json::as_str).map(str::to_owned))
                .ok_or("body has no netlist")?;
            let probe = "l32";
            let ckt = parse_netlist(&netlist).map_err(|e| e.to_string())?;
            let nl = assemble_nonlinear_mna(&ckt.circuit, &[]).map_err(|e| e.to_string())?;
            let n = nl.model.system.order();
            let refine = 2;
            let total = shape.columns();
            let be = newton_be_richardson(
                &nl.model.system,
                &nl.devices,
                &nl.model.inputs,
                parsed.sim.t_end(),
                refine * total,
                &vec![0.0; n],
            )
            .map_err(|e| e.to_string())?;
            let state = ckt.node(probe).ok_or("probe node missing")? - 1;
            let series = opm.endpoint_series(state, 0.0);
            let states = be.states.as_ref().ok_or("reference kept no states")?;
            let dev = (0..total)
                .map(|j| abs_dev(series[j], states[refine * (j + 1) - 1][state]))
                .fold(0.0f64, f64::max);
            Ok((dev, NEWTON_TOL))
        }
    }
}

fn max_dev(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(ra, rb)| {
            if ra.len() != rb.len() {
                return f64::INFINITY;
            }
            ra.iter()
                .zip(rb)
                .map(|(&x, &y)| abs_dev(x, y))
                .fold(0.0f64, f64::max)
        })
        .fold(0.0f64, f64::max)
}

/// `|x − y|`, with a NaN on either side reading as an infinite deviation.
fn abs_dev(x: f64, y: f64) -> f64 {
    let d = (x - y).abs();
    if d.is_nan() {
        f64::INFINITY
    } else {
        d
    }
}
