//! The daemon's JSON dialect: request bodies → sessions, results →
//! response documents.
//!
//! A request describes the *plan inputs* (model, horizon, options) and
//! the *stimuli* separately, mirroring the session API's split: the
//! plan inputs form the cache key, the stimuli are free to vary per
//! request without costing a factorization.
//!
//! ```json
//! {
//!   "netlist": "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1u\n.end",
//!   "probes": ["out"],
//!   "horizon": 5e-3,
//!   "options": {"resolution": 256},
//!   "scenarios": [[{"kind": "sine", "ampl": 1.0, "freq": 1e3}]]
//! }
//! ```
//!
//! `options` holds at most `resolution` (uniform columns) and
//! `step_grid` (explicit fractional steps); the model picks the sweep,
//! and any other member is a 400.
//!
//! Instead of a netlist, a raw descriptor model can be posted as
//! sparse triplets (`"model": {"n": …, "inputs": …, "e": [[i,j,v],…],
//! "a": …, "b": …, "c": …, "alpha": …}`); `"alpha"` makes it
//! fractional. Omitting `"scenarios"` for a netlist uses the netlist's
//! own sources.

use opm_core::json::Json;
use opm_core::{OpmResult, Simulation, SolveOptions};
use opm_sparse::{CooMatrix, CsrMatrix};
use opm_system::{DescriptorSystem, FractionalSystem};
use opm_waveform::{InputSet, Waveform};

/// A request failure, carrying the HTTP status it maps onto.
#[derive(Debug)]
pub struct ApiError {
    /// 400 for anything wrong with the document, 500 for solver bugs.
    pub status: u16,
    /// Human-readable cause, echoed in the JSON error body.
    pub msg: String,
}

impl ApiError {
    /// A 400 with the given cause.
    pub fn bad(msg: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            msg: msg.into(),
        }
    }
}

/// A parsed `/solve`, `/sweep` or `/stream` request.
pub struct SimRequest {
    /// The session the plan is (or was) built from.
    pub sim: Simulation,
    /// Plan options — part of the cache key.
    pub opts: SolveOptions,
    /// Explicit stimuli; empty means "use the netlist's sources".
    pub scenarios: Vec<InputSet>,
    /// Window count for `/stream` (and optionally windowed `/solve`).
    pub windows: Option<usize>,
    /// Drive levels for `/sweep`.
    pub levels: Option<Vec<f64>>,
}

impl SimRequest {
    /// Parses a request body.
    ///
    /// # Errors
    /// [`ApiError`] (status 400) naming the offending field.
    pub fn parse(body: &[u8]) -> Result<SimRequest, ApiError> {
        SimRequest::from_doc(&parse_doc(body)?)
    }

    /// The request a parsed document describes: the plan inputs
    /// (`horizon`, `netlist` with `probes` or `model`, `x0`, `options`),
    /// then `scenarios`, `windows` and `levels`, failing on the first bad
    /// member in that order.
    ///
    /// # Errors
    /// [`ApiError`] (status 400) naming the offending field.
    pub fn from_doc(doc: &Json) -> Result<SimRequest, ApiError> {
        let (sim, opts) = plan_inputs(doc)?;
        Ok(SimRequest {
            sim,
            opts,
            scenarios: scenarios(doc)?,
            windows: windows(doc)?,
            levels: levels(doc)?,
        })
    }

    /// The stimuli to run: explicit scenarios, or the netlist's own
    /// sources when none were posted.
    ///
    /// # Errors
    /// 400 when neither is available.
    pub fn stimuli(&self) -> Result<Vec<InputSet>, ApiError> {
        stimuli(self.scenarios.clone(), self.sim.inputs())
    }
}

/// The document members [`plan_inputs`] reads: everything the
/// [`Simulation`] and its [`SolveOptions`] are built from.
pub(crate) const PLAN_MEMBERS: [&str; 6] =
    ["netlist", "model", "probes", "horizon", "x0", "options"];

/// Parses a request body into its JSON document.
///
/// # Errors
/// 400 when the body is not UTF-8 or not JSON.
pub(crate) fn parse_doc(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body).map_err(|_| ApiError::bad("request body is not UTF-8"))?;
    Json::parse(text).map_err(|e| ApiError::bad(e.to_string()))
}

/// The session and plan options a document's [`PLAN_MEMBERS`] describe:
/// `horizon`, then `netlist` (with `probes`) or `model`, then `x0` and
/// `options`, failing on the first bad member in that order.
///
/// # Errors
/// [`ApiError`] (status 400) naming the offending field.
pub(crate) fn plan_inputs(doc: &Json) -> Result<(Simulation, SolveOptions), ApiError> {
    let horizon = doc
        .get("horizon")
        .and_then(Json::as_f64)
        .ok_or_else(|| ApiError::bad("`horizon` (a number) is required"))?;

    let mut sim = match (doc.get("netlist"), doc.get("model")) {
        (Some(netlist), None) => {
            let text = netlist
                .as_str()
                .ok_or_else(|| ApiError::bad("`netlist` must be a string"))?;
            let probes: Vec<&str> = match doc.get("probes") {
                Some(p) => p
                    .as_array()
                    .ok_or_else(|| ApiError::bad("`probes` must be an array"))?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .ok_or_else(|| ApiError::bad("`probes` entries must be strings"))
                    })
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            };
            Simulation::from_netlist(text, &probes).map_err(|e| ApiError::bad(e.to_string()))?
        }
        (None, Some(model)) => parse_model(model)?,
        _ => {
            return Err(ApiError::bad(
                "exactly one of `netlist` or `model` is required",
            ))
        }
    };
    sim = sim.horizon(horizon);

    if let Some(x0) = doc.get("x0") {
        sim = sim.initial_state(parse_f64_array(x0, "x0")?);
    }

    let opts = match doc.get("options") {
        Some(o) => parse_options(o)?,
        None => SolveOptions::new(),
    };
    Ok((sim, opts))
}

/// The document's explicit stimuli (`scenarios`; empty when absent).
///
/// # Errors
/// 400 naming the bad scenario or waveform field.
pub(crate) fn scenarios(doc: &Json) -> Result<Vec<InputSet>, ApiError> {
    match doc.get("scenarios") {
        Some(s) => s
            .as_array()
            .ok_or_else(|| ApiError::bad("`scenarios` must be an array"))?
            .iter()
            .map(parse_scenario)
            .collect(),
        None => Ok(Vec::new()),
    }
}

/// The document's window count (`windows`), if any.
///
/// # Errors
/// 400 unless it is a positive integer.
pub(crate) fn windows(doc: &Json) -> Result<Option<usize>, ApiError> {
    doc.get("windows")
        .map(|w| {
            w.as_usize()
                .filter(|&w| w > 0)
                .ok_or_else(|| ApiError::bad("`windows` must be a positive integer"))
        })
        .transpose()
}

/// The document's drive levels (`levels`), if any.
///
/// # Errors
/// 400 unless it is an array of numbers.
pub(crate) fn levels(doc: &Json) -> Result<Option<Vec<f64>>, ApiError> {
    doc.get("levels")
        .map(|l| parse_f64_array(l, "levels"))
        .transpose()
}

/// The stimuli to run: `scenarios`, or the netlist's `own` sources when
/// none were posted.
///
/// # Errors
/// 400 when neither is available.
pub(crate) fn stimuli(
    scenarios: Vec<InputSet>,
    own: Option<&InputSet>,
) -> Result<Vec<InputSet>, ApiError> {
    if !scenarios.is_empty() {
        return Ok(scenarios);
    }
    match own {
        Some(u) => Ok(vec![u.clone()]),
        None => Err(ApiError::bad(
            "`scenarios` is required when the model is not a netlist",
        )),
    }
}

fn parse_f64_array(v: &Json, field: &str) -> Result<Vec<f64>, ApiError> {
    v.as_array()
        .ok_or_else(|| ApiError::bad(format!("`{field}` must be an array of numbers")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| ApiError::bad(format!("`{field}` entries must be numbers")))
        })
        .collect()
}

fn parse_triplets(
    v: &Json,
    nrows: usize,
    ncols: usize,
    field: &str,
) -> Result<CsrMatrix, ApiError> {
    let rows = v.as_array().ok_or_else(|| {
        ApiError::bad(format!("`{field}` must be an array of [i, j, v] triplets"))
    })?;
    let mut coo = CooMatrix::new(nrows, ncols);
    for t in rows {
        let t = t
            .as_array()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| ApiError::bad(format!("`{field}` entries must be [i, j, v]")))?;
        let i = t[0]
            .as_usize()
            .filter(|&i| i < nrows)
            .ok_or_else(|| ApiError::bad(format!("`{field}` row index out of range")))?;
        let j = t[1]
            .as_usize()
            .filter(|&j| j < ncols)
            .ok_or_else(|| ApiError::bad(format!("`{field}` column index out of range")))?;
        let val = t[2]
            .as_f64()
            .ok_or_else(|| ApiError::bad(format!("`{field}` value must be a number")))?;
        coo.push(i, j, val);
    }
    Ok(coo.to_csr())
}

/// A raw descriptor model. Every posted dimension is bounded by what the
/// body holds before anything is sized from it, so no count can ask the
/// allocator for more than the body backs: `n` by the stored `e` and `a`
/// entries (a pencil with fewer entries than rows is structurally
/// singular), `outputs` by `n` plus the stored `c` entries.
fn parse_model(model: &Json) -> Result<Simulation, ApiError> {
    let stored = |name: &str| {
        model
            .get(name)
            .and_then(Json::as_array)
            .map_or(0, <[_]>::len)
    };
    let n = model
        .get("n")
        .and_then(Json::as_usize)
        .filter(|&n| n > 0)
        .ok_or_else(|| ApiError::bad("`model.n` (state dimension) is required"))?;
    if n > stored("e") + stored("a") {
        return Err(ApiError::bad(format!(
            "`model.n` is {n}, more than the {} entries of `model.e` and `model.a`: \
             the pencil would be singular",
            stored("e") + stored("a")
        )));
    }
    let p = model
        .get("inputs")
        .and_then(Json::as_usize)
        .filter(|&p| p > 0)
        .ok_or_else(|| ApiError::bad("`model.inputs` (input count) is required"))?;
    let e = parse_triplets(
        model
            .get("e")
            .ok_or_else(|| ApiError::bad("`model.e` is required"))?,
        n,
        n,
        "model.e",
    )?;
    let a = parse_triplets(
        model
            .get("a")
            .ok_or_else(|| ApiError::bad("`model.a` is required"))?,
        n,
        n,
        "model.a",
    )?;
    let b = parse_triplets(
        model
            .get("b")
            .ok_or_else(|| ApiError::bad("`model.b` is required"))?,
        n,
        p,
        "model.b",
    )?;
    let c = match model.get("c") {
        Some(c) => {
            let q = model
                .get("outputs")
                .and_then(Json::as_usize)
                .filter(|&q| q > 0)
                .ok_or_else(|| ApiError::bad("`model.outputs` is required alongside `model.c`"))?;
            if q > n + stored("c") {
                return Err(ApiError::bad(format!(
                    "`model.outputs` is {q}, more than `model.n` plus the entries of `model.c`"
                )));
            }
            Some(parse_triplets(c, q, n, "model.c")?)
        }
        None => None,
    };
    let sys = DescriptorSystem::new(e, a, b, c).map_err(|e| ApiError::bad(e.to_string()))?;
    match model.get("alpha") {
        Some(alpha) => {
            let alpha = alpha
                .as_f64()
                .ok_or_else(|| ApiError::bad("`model.alpha` must be a number"))?;
            let fsys =
                FractionalSystem::new(alpha, sys).map_err(|e| ApiError::bad(e.to_string()))?;
            Ok(Simulation::from_fractional(fsys))
        }
        None => Ok(Simulation::from_system(sys)),
    }
}

/// The plan options: an object whose only members are `resolution` and
/// `step_grid` (the model picks the sweep). Any other member is a 400
/// naming it, so a misspelt or retired option is never silently dropped.
fn parse_options(o: &Json) -> Result<SolveOptions, ApiError> {
    let members = o
        .entries()
        .ok_or_else(|| ApiError::bad("`options` must be an object"))?;
    if let Some((name, _)) = members
        .iter()
        .find(|(name, _)| name != "resolution" && name != "step_grid")
    {
        return Err(ApiError::bad(format!(
            "unknown member `options.{name}`: the options are `resolution` and `step_grid`"
        )));
    }
    let mut opts = SolveOptions::new();
    if let Some(m) = o.get("resolution") {
        opts = opts.resolution(
            m.as_usize()
                .filter(|&m| m > 0)
                .ok_or_else(|| ApiError::bad("`options.resolution` must be a positive integer"))?,
        );
    }
    if let Some(grid) = o.get("step_grid") {
        opts = opts.step_grid(parse_f64_array(grid, "options.step_grid")?);
    }
    Ok(opts)
}

fn field(w: &Json, name: &str) -> Result<f64, ApiError> {
    w.get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| ApiError::bad(format!("waveform field `{name}` must be a number")))
}

fn field_or(w: &Json, name: &str, default: f64) -> Result<f64, ApiError> {
    match w.get(name) {
        Some(v) => v
            .as_f64()
            .ok_or_else(|| ApiError::bad(format!("waveform field `{name}` must be a number"))),
        None => Ok(default),
    }
}

fn parse_waveform(w: &Json) -> Result<Waveform, ApiError> {
    let kind = w
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad("each waveform needs a string `kind`"))?;
    match kind {
        "dc" => Ok(Waveform::Dc(field(w, "value")?)),
        "step" => Ok(Waveform::step(field_or(w, "t0", 0.0)?, field(w, "level")?)),
        "ramp" => Ok(Waveform::Ramp {
            slope: field(w, "slope")?,
        }),
        "pulse" => Waveform::pulse(
            field(w, "v1")?,
            field(w, "v2")?,
            field_or(w, "delay", 0.0)?,
            field(w, "rise")?,
            field(w, "width")?,
            field(w, "fall")?,
            field_or(w, "period", 0.0)?,
        )
        .map_err(|e| ApiError::bad(e.to_string())),
        "sine" => Ok(Waveform::sine(
            field_or(w, "offset", 0.0)?,
            field(w, "ampl")?,
            field(w, "freq")?,
            field_or(w, "delay", 0.0)?,
            field_or(w, "damp", 0.0)?,
        )),
        "exp" => Waveform::exp(
            field(w, "v1")?,
            field(w, "v2")?,
            field_or(w, "td1", 0.0)?,
            field(w, "tau1")?,
            field(w, "td2")?,
            field(w, "tau2")?,
        )
        .map_err(|e| ApiError::bad(e.to_string())),
        "pwl" => {
            let pts = w
                .get("points")
                .and_then(Json::as_array)
                .ok_or_else(|| ApiError::bad("`points` (an array of [t, v]) is required"))?;
            let points: Vec<(f64, f64)> = pts
                .iter()
                .map(|p| {
                    let p = p
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| ApiError::bad("pwl points must be [t, v] pairs"))?;
                    Ok((
                        p[0].as_f64()
                            .ok_or_else(|| ApiError::bad("pwl times must be numbers"))?,
                        p[1].as_f64()
                            .ok_or_else(|| ApiError::bad("pwl values must be numbers"))?,
                    ))
                })
                .collect::<Result<_, ApiError>>()?;
            Waveform::pwl(points).map_err(|e| ApiError::bad(e.to_string()))
        }
        other => Err(ApiError::bad(format!("unknown waveform kind `{other}`"))),
    }
}

fn parse_scenario(s: &Json) -> Result<InputSet, ApiError> {
    // A scenario is a waveform list, optionally wrapped in
    // `{"waveforms": […]}`.
    let list = match s.get("waveforms") {
        Some(w) => w,
        None => s,
    };
    let waveforms = list
        .as_array()
        .ok_or_else(|| ApiError::bad("each scenario must be an array of waveforms"))?;
    Ok(InputSet::new(
        waveforms
            .iter()
            .map(parse_waveform)
            .collect::<Result<_, _>>()?,
    ))
}

/// One solved result as a response document: interval bounds plus the
/// output rows (state rows when the model has no `C`).
pub fn result_json(r: &OpmResult) -> Json {
    Json::Obj(vec![
        ("bounds".into(), Json::num_arr(&r.bounds)),
        (
            "outputs".into(),
            Json::Arr(r.outputs.iter().map(|row| Json::num_arr(row)).collect()),
        ),
    ])
}

/// The uniform error body: `{"error": …}`.
pub fn error_json(msg: &str) -> String {
    Json::Obj(vec![("error".into(), Json::str(msg))]).to_string()
}
