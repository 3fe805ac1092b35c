//! The traced run: the daemon's `POST /solve` composition replayed
//! in-process through each layer's public functions, with a span around
//! every call, plus a "shadow" pass that re-runs the calls a session
//! solve makes internally (ordering, LU, column kernels, projection,
//! history) on the same request so their share becomes visible.

use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use opm_basis::bpf::BpfBasis;
use opm_circuits::mna::Output;
use opm_circuits::parser::parse_netlist;
use opm_core::cache::{plan_key, PlanKey};
use opm_core::json::Json;
use opm_core::{FactorProfile, PlanCache, SimModel, Simulation};
use opm_fracnum::history::{history_convolution_into, HistoryTail};
use opm_serve::api::{result_json, SimRequest};
use opm_sparse::lu::LuOptions;
use opm_sparse::ordering::rcm;
use opm_sparse::{ShiftedPencil, SparseLu, SymbolicLu};

use crate::check::{self, solve};
use crate::gen::{Kind, Workload};
use crate::trace::{Span, Tracer};
use crate::CLIENTS;

/// What one in-process request produced.
struct Served {
    key: PlanKey,
    profile: FactorProfile,
    doc: String,
}

/// One request through the daemon's `/solve` handler composition:
/// `SimRequest::parse` → `plan_key` → `PlanCache::get_or_intern`
/// (→ `Simulation::plan` on a miss) → `SimPlan::solve_*` → JSON encode.
fn serve(tr: &mut Tracer, cache: &PlanCache, body: &str, req: u64) -> Result<Served, String> {
    tr.span("serve.request", req, 0, |tr, root| {
        let (parsed, stimuli) = tr.span("api.request", req, root, |_, _| {
            let parsed = SimRequest::parse(body.as_bytes()).map_err(|e| e.msg)?;
            let stimuli = parsed.stimuli().map_err(|e| e.msg)?;
            Ok::<_, String>((parsed, stimuli))
        })?;
        let key = tr.span("cache.key", req, root, |_, _| {
            plan_key(&parsed.sim, &parsed.opts)
        });
        let (plan, hit) = tr
            .span("cache.lookup", req, root, |tr, id| {
                cache.get_or_intern(key, || {
                    tr.span("session.plan", req, id, |_, _| {
                        parsed.sim.plan(&parsed.opts)
                    })
                })
            })
            .map_err(|e| e.to_string())?;
        let results = tr.span("session.solve", req, root, |_, _| {
            solve(&plan, parsed.windows, &stimuli)
        })?;
        let doc = tr.span("json.encode", req, root, |_, _| {
            Json::Obj(vec![
                ("cache".into(), Json::str(if hit { "hit" } else { "miss" })),
                ("profile".into(), plan.factor_profile().to_json()),
                (
                    "results".into(),
                    Json::Arr(results.iter().map(result_json).collect()),
                ),
            ])
            .to_string()
        });
        Ok(Served {
            key,
            profile: plan.factor_profile(),
            doc,
        })
    })
}

/// Outcome of one closed-loop in-process pass.
#[derive(Default)]
pub struct Pass {
    /// Latencies of the traced (even) requests.
    pub latencies_ms: Vec<f64>,
    /// Latencies of the untraced (odd) requests.
    pub untraced_ms: Vec<f64>,
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub attempted: usize,
    pub failed: usize,
    pub hits: u64,
    pub misses: u64,
    /// Factorization work the pass caused, summed over every plan.
    pub work: FactorProfile,
    pub request_bytes: usize,
    pub response_bytes: usize,
    pub errors: Vec<String>,
}

/// Replays timed requests `0..n` of `w` on `CLIENTS` threads against a
/// fresh plan cache primed like the daemon's. Even-numbered requests are
/// traced and odd ones are not, so both halves run under the same load
/// and their latency difference is the tracing overhead.
/// `expected[i]` is pool body `i`'s `results` text.
pub fn pass(w: &Workload, expected: &[String], n: usize, epoch: Instant) -> Pass {
    let cache = PlanCache::new(crate::CACHE_CAPACITY);
    let mut out = Pass::default();
    for body in &w.primers {
        let mut tr = Tracer::new(false, epoch, 0);
        if let Err(e) = serve(&mut tr, &cache, body, 0) {
            out.failed += 1;
            out.errors.push(format!("priming: {e}"));
        }
    }
    let start: HashMap<PlanKey, FactorProfile> = cache
        .plans()
        .into_iter()
        .map(|(k, p)| (k, p.factor_profile()))
        .collect();
    let stats0 = cache.stats();

    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let threads: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (cache, next) = (&cache, &next);
                s.spawn(move || {
                    let mut tr = Tracer::new(false, epoch, t as u64 + 1);
                    let mut mine = Pass::default();
                    let mut end: HashMap<PlanKey, FactorProfile> = HashMap::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        mine.attempted += 1;
                        let Some(body) = w.body(k) else {
                            mine.failed += 1;
                            mine.errors.push(format!("request {k}: no body generated"));
                            continue;
                        };
                        tr.on = k % 2 == 0;
                        let began = Instant::now();
                        let served = catch_unwind(AssertUnwindSafe(|| {
                            serve(&mut tr, cache, &body, k as u64 + 1)
                        }))
                        .unwrap_or_else(|_| Err("panicked".into()));
                        let ms = began.elapsed().as_secs_f64() * 1e3;
                        if tr.on {
                            mine.latencies_ms.push(ms);
                        } else {
                            mine.untraced_ms.push(ms);
                        }
                        mine.request_bytes += body.len();
                        match served {
                            Ok(s) => {
                                match check::reply(w, expected, k, &s.doc) {
                                    Ok(results) => mine.response_bytes += results.len(),
                                    Err(e) => {
                                        mine.failed += 1;
                                        mine.errors.push(e);
                                    }
                                }
                                let slot = end.entry(s.key).or_default();
                                *slot = max_profile(slot, &s.profile);
                            }
                            Err(e) => {
                                mine.failed += 1;
                                mine.errors.push(format!("request {k}: {e}"));
                            }
                        }
                    }
                    (mine, end, tr.spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    out.wall_s = t0.elapsed().as_secs_f64();

    let mut end: HashMap<PlanKey, FactorProfile> = HashMap::new();
    for joined in threads {
        let Ok((mine, ends, spans)) = joined else {
            out.failed += 1;
            out.errors.push("a replay thread panicked".into());
            continue;
        };
        out.latencies_ms.extend(mine.latencies_ms);
        out.untraced_ms.extend(mine.untraced_ms);
        out.attempted += mine.attempted;
        out.failed += mine.failed;
        out.request_bytes += mine.request_bytes;
        out.response_bytes += mine.response_bytes;
        out.errors.extend(mine.errors);
        out.spans.extend(spans);
        for (k, p) in ends {
            let slot = end.entry(k).or_default();
            *slot = max_profile(slot, &p);
        }
    }
    let stats = cache.stats();
    out.hits = stats.hits - stats0.hits;
    out.misses = stats.misses - stats0.misses;
    for (k, p) in &end {
        let before = start.get(k).copied().unwrap_or_default();
        out.work.num_symbolic += p.num_symbolic - before.num_symbolic;
        out.work.num_numeric += p.num_numeric - before.num_numeric;
        out.work.num_windows += p.num_windows - before.num_windows;
        out.work.newton_iters += p.newton_iters - before.newton_iters;
        out.work.newton_refactors += p.newton_refactors - before.newton_refactors;
        out.work.newton_fresh_fallbacks += p.newton_fresh_fallbacks - before.newton_fresh_fallbacks;
    }
    out
}

/// Counters are monotone, so the field-wise max over snapshots is the
/// latest state.
fn max_profile(a: &FactorProfile, b: &FactorProfile) -> FactorProfile {
    FactorProfile {
        num_symbolic: a.num_symbolic.max(b.num_symbolic),
        num_numeric: a.num_numeric.max(b.num_numeric),
        num_windows: a.num_windows.max(b.num_windows),
        newton_iters: a.newton_iters.max(b.newton_iters),
        newton_refactors: a.newton_refactors.max(b.newton_refactors),
        newton_fresh_fallbacks: a.newton_fresh_fallbacks.max(b.newton_fresh_fallbacks),
        ..*b
    }
}

/// Computed counts from one shadow replay.
#[derive(Default)]
pub struct Shadow {
    /// nnz(L+U) of the request's window factorization.
    pub lu_nnz: usize,
    /// Multiply-adds of the fractional history convolution per request.
    pub history_macs: u64,
}

/// Re-runs, on one request, the layer calls a daemon request makes
/// inside `SimRequest::parse`, `Simulation::plan` and the session solve:
/// JSON parse, netlist parse, MNA assembly; a whole plan build (what a
/// miss pays); RCM ordering, symbolic LU at the plan's shift, numeric
/// refactor at the window shift; the column kernels at the request's
/// lane width; BPF projection per window; and (fractional models) the
/// full-history convolution of every column.
pub fn shadow(tr: &mut Tracer, kind: Kind, body: &str, req: u64) -> Result<Shadow, String> {
    let shape = kind.shape();
    let (m, windows, lanes) = (shape.m, shape.windows, shape.scenarios);
    tr.span("shadow", req, 0, |tr, root| {
        let doc = tr
            .span("json.parse", req, root, |_, _| Json::parse(body))
            .map_err(|e| e.to_string())?;
        let netlist = doc
            .get("netlist")
            .and_then(Json::as_str)
            .ok_or("body has no netlist")?;
        let probes: Vec<&str> = doc
            .get("probes")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default();
        let parsed = tr
            .span("circuits.parse", req, root, |_, _| parse_netlist(netlist))
            .map_err(|e| e.to_string())?;
        let outputs = probes
            .iter()
            .map(|p| {
                parsed
                    .node(p)
                    .map(Output::NodeVoltage)
                    .ok_or_else(|| format!("unknown probe `{p}`"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let sim = tr
            .span("circuits.assemble", req, root, |_, _| {
                Simulation::from_circuit(&parsed.circuit, &outputs)
            })
            .map_err(|e| e.to_string())?;
        let request = SimRequest::parse(body.as_bytes()).map_err(|e| e.msg)?;
        let stimuli = request.stimuli().map_err(|e| e.msg)?;
        tr.span("session.plan", req, root, |_, _| {
            request.sim.plan(&request.opts)
        })
        .map_err(|e| e.to_string())?;
        let t_end = request.sim.t_end();
        let width = t_end / windows as f64;

        // The pencil σ·E − A and the two shifts the plan kind factors:
        // the whole-horizon plan shift and the window shift.
        let (sys, sigma_plan, sigma_window, alpha) = match sim.model() {
            SimModel::Linear(sys) => (
                sys,
                2.0 * m as f64 / t_end,
                2.0 * (m * windows) as f64 / t_end,
                None,
            ),
            SimModel::Fractional(f) => (
                f.system(),
                BpfBasis::new(m, t_end).frac_diff_coeffs_n(f.alpha(), m)[0],
                BpfBasis::new(m, width).frac_diff_coeffs_n(f.alpha(), m * windows)[0],
                Some(f.alpha()),
            ),
            _ => return Err("unexpected model kind".into()),
        };
        let mut pencil = ShiftedPencil::new(sys.e(), sys.a());
        let order = tr.span("sparse.order", req, root, |_, _| {
            rcm(&pencil.pattern().to_csr())
        });
        let (symbolic, _) = tr
            .span("sparse.symbolic", req, root, |_, _| {
                SymbolicLu::factor_with(
                    pencil.shifted(sigma_plan),
                    Some(&order),
                    LuOptions::default(),
                )
            })
            .map_err(|e| e.to_string())?;
        let lu = tr
            .span("session.window_factor", req, root, |tr, id| {
                let mut values = Vec::new();
                pencil.shift_values(sigma_window, &mut values);
                tr.span("sparse.numeric", req, id, |_, _| {
                    SparseLu::refactor(&symbolic, &values)
                })
            })
            .map_err(|e| e.to_string())?;

        let n = sys.order();
        let columns = shape.columns();
        let rhs: Vec<f64> = (0..n * lanes).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut x = vec![0.0; n * lanes];
        tr.span("sparse.solve", req, root, |_, _| {
            for _ in 0..columns {
                lu.solve_block_into(black_box(&rhs), &mut x, lanes);
                black_box(&mut x);
            }
        });
        let mut y = vec![0.0; n * lanes];
        tr.span("sparse.spmm", req, root, |_, _| {
            for _ in 0..columns {
                sys.e().mul_block_into(black_box(&x), &mut y, lanes);
                black_box(&mut y);
            }
        });
        tr.span("basis.project", req, root, |_, _| {
            for w in 0..windows {
                for set in &stimuli {
                    black_box(set.bpf_matrix_window(m, w as f64 * width, width));
                }
            }
        });
        let history_macs = match alpha {
            Some(alpha) => tr.span("fracnum.history", req, root, |_, _| {
                history_replay(alpha, m, windows, width, n * lanes)
            }),
            None => 0,
        };
        Ok(Shadow {
            lu_nnz: lu.nnz(),
            history_macs,
        })
    })
}

/// The history-convolution calls of a full-history windowed fractional
/// sweep: column `j` of window `w` convolves the weights against all
/// `w·m` retained columns of `len` entries each. Returns the
/// multiply-adds performed.
fn history_replay(alpha: f64, m: usize, windows: usize, width: f64, len: usize) -> u64 {
    let rho = BpfBasis::new(m, width).frac_diff_coeffs_n(alpha, m * windows);
    let block: Vec<Vec<f64>> = (0..m).map(|j| vec![1.0 / (j + 1) as f64; len]).collect();
    let mut tail = HistoryTail::new(None);
    let mut conv = vec![0.0; len];
    let mut macs = 0u64;
    for _ in 0..windows {
        for j in 0..m {
            history_convolution_into(&rho, j, tail.columns(), &mut conv);
            macs += (tail.len() * len) as u64;
        }
        black_box(&mut conv);
        tail.extend(block.iter().cloned());
    }
    macs
}
