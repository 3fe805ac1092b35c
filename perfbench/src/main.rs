//! **Serving benchmark.** Starts an in-process `opm-serve` daemon and
//! drives it over loopback sockets as a closed loop of one client
//! connection, on one of four seeded workloads (see `README.md`):
//!
//! ```text
//! env GLIBC_TUNABLES=glibc.malloc.arena_max=2:glibc.malloc.mmap_threshold=131072 \
//!     cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mesh_warm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` additionally
//! replays the requests in-process with a span around every layer call
//! and reports per-layer metrics instead (spans are written to
//! `.perfbench/`). `--workload all` runs every workload in turn. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod check;
mod gen;
mod load;
mod replay;
mod trace;

use std::time::Instant;

use opm_core::json::Json;
use opm_serve::{client, ServerConfig};

use gen::{Kind, Workload};
use trace::Tracer;

/// Client connections of the closed loop (and threads of the traced
/// replay). One, so the daemon's request thread has a core to itself on
/// the 2-core machine the benchmark was sized on and the other core
/// absorbs the client, the kernel and the host's noise; with two, every
/// stall of either core landed in the latency tail.
pub const CLIENTS: usize = 1;
/// Threads of the in-process reference solves (set-up and the deferred
/// `mesh_cold` checks), outside the timed loop.
const CHECK_THREADS: usize = 2;
/// The daemon's plan-cache capacity (its default).
pub const CACHE_CAPACITY: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Time slices of the timed loop the latency quantiles are taken over: as
/// many as hold this many requests each, within `SLICES`.
const SLICE_REQUESTS: usize = 20;
const SLICES: std::ops::RangeInclusive<usize> = 4..=20;
/// Quantile over the time slices of the per-slice latency a run reports
/// (rates use `1 - QUIET`): a tenth of the slices read better, the rest
/// worse.
const QUIET: f64 = 0.1;

const USAGE: &str =
    "usage: opm-perfbench --workload <mesh_warm|mesh_cold|cpe_history|diode_newton|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))
    }
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20.0f64, false);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = value(&flag, &v)?,
            "--seconds" => seconds = value(&flag, &v)?,
            "--trace" => trace = value::<u8>(&flag, &v)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// An exact count (printed as an integer when whole).
    count: bool,
}

/// Everything one workload run produced.
struct Report {
    kind: Kind,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    fn absorb(&mut self, attempted: usize, failed: usize, errors: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(errors.into_iter().take(room));
    }

    fn time(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            count: false,
        });
    }

    fn count(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            count: true,
        });
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let kinds: Vec<Kind> = if args.workload == "all" {
        Kind::ALL.to_vec()
    } else {
        match Kind::parse(&args.workload) {
            Some(k) => vec![k],
            None => {
                eprintln!("unknown workload `{}`\n{USAGE}", args.workload);
                std::process::exit(2);
            }
        }
    };
    let reports: Vec<Report> = kinds.into_iter().map(|k| run(k, &args)).collect();

    let single = reports.len() == 1;
    let mut metrics = Vec::new();
    for r in &reports {
        print_report(r);
        for m in &r.metrics {
            let name = if single {
                m.name.to_string()
            } else {
                format!("{}.{}", r.kind.name(), m.name)
            };
            let value = if m.count && m.value.fract() == 0.0 && m.value.abs() < 9e15 {
                Json::Int(m.value as i64)
            } else {
                Json::Num(m.value)
            };
            metrics.push((
                name,
                Json::Obj(vec![
                    ("value".into(), value),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            ));
        }
    }
    let attempted: usize = reports.iter().map(|r| r.attempted).sum();
    let failed: usize = reports.iter().map(|r| r.failed).sum();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Int(attempted.max(1) as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{line}");
}

fn print_report(r: &Report) {
    println!("== {} ==", r.kind.name());
    for m in &r.metrics {
        println!("  {:<26} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for n in &r.notes {
        println!("  {n}");
    }
    let rate = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "  error_rate {rate} ({} failed of {} attempted)",
        r.failed, r.attempted
    );
    for e in &r.errors {
        println!("  error: {e}");
    }
}

/// Sets up, measures and checks one workload. Failures are counted, never
/// fatal: every metric is reported whatever went wrong.
fn run(kind: Kind, args: &Args) -> Report {
    let epoch = Instant::now();
    let mut rep = Report {
        kind,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        notes: Vec::new(),
        metrics: Vec::new(),
    };

    // -- set-up: daemon spawn + input generation + expected results +
    //    cache priming, timed SETUP_REPEATS times; the last daemon serves
    //    the timed loop.
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let server = match opm_serve::spawn(ServerConfig {
            cache_capacity: CACHE_CAPACITY,
            ..ServerConfig::default()
        }) {
            Ok(s) => s,
            Err(e) => {
                rep.fail(format!("daemon spawn: {e}"));
                continue;
            }
        };
        let w = Workload::generate(kind, args.seed);
        // Expected results: in-process solves of every pool body.
        let expected: Vec<String> = opm_par::par_map(CHECK_THREADS, w.pool(), |b| {
            check::guarded(|| check::reference(b))
        })
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|e| {
                rep.fail(format!("reference solve: {e}"));
                String::new()
            })
        })
        .collect();
        for body in &w.primers {
            rep.attempted += 1;
            match client::post(server.addr(), "/solve", body) {
                Ok(r)
                    if r.status == 200
                        && check::split_response(&r.body).is_some_and(|(hit, _)| !hit) => {}
                Ok(r) => rep.fail(format!("priming: status {} / not a miss", r.status)),
                Err(e) => rep.fail(format!("priming: {e}")),
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((old, _, _)) = live.replace((server, w, expected)) {
            old.shutdown();
        }
    }
    let Some((server, w, expected)) = live else {
        fill_missing(&mut rep, args.trace);
        return rep;
    };

    // -- timed closed loop --------------------------------------------------
    let mut load = load::closed_loop(server.addr(), &w, &expected, args.seconds);
    let peak_rss = peak_rss_mb();
    let ok = load.attempted - load.failed;
    // Throughput and latency quantiles are taken per time slice, and the
    // run reports the quieter slices' figure: the shared host slows the
    // whole machine by up to 1.6x for seconds at a time (every layer of a
    // request at once, on either core), and only ever adds time.
    let slices = (load.latencies_ms.len() / SLICE_REQUESTS).clamp(*SLICES.start(), *SLICES.end());
    let sliced = |q| percentile(&load.sliced(args.seconds, slices, q), QUIET);
    let (p50, p90) = (sliced(0.5), sliced(0.9));
    let throughput = percentile(&load.sliced_rates(args.seconds, slices), 1.0 - QUIET);
    rep.absorb(
        load.attempted,
        load.failed,
        std::mem::take(&mut load.errors),
    );

    // mesh_cold bodies never repeat: check each reply against an
    // in-process solve now, outside the timed region.
    let mismatches = opm_par::par_map(CHECK_THREADS, &load.deferred, |(k, got)| {
        let body = w.body(*k).ok_or("no body")?;
        match check::guarded(|| check::reference(&body)) {
            Ok(want) if &want == got => Ok(()),
            Ok(_) => Err(format!("request {k}: results differ from the reference")),
            Err(e) => Err(format!("request {k}: reference solve: {e}")),
        }
    });
    for m in mismatches {
        if let Err(e) = m {
            rep.fail(e);
        }
    }

    // -- independent oracle, once ------------------------------------------
    rep.attempted += 1;
    match check::guarded(|| check::oracle(&w)) {
        Ok((dev, tol)) if dev <= tol => rep
            .notes
            .push(format!("oracle deviation {dev:.3e} <= {tol:.0e}")),
        Ok((dev, tol)) => rep.fail(format!("oracle deviation {dev:.3e} > {tol:.0e}")),
        Err(e) => rep.fail(format!("oracle: {e}")),
    }
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.1}", percentile(&load.latencies_ms, d as f64 / 10.0)))
        .collect();
    rep.notes
        .push(format!("latency deciles (ms): {}", deciles.join(" ")));
    rep.notes.push(format!(
        "{} requests ({} ok) in {:.3} s on {CLIENTS} connections; {} latency samples",
        load.attempted,
        ok,
        load.wall_s,
        load.latencies_ms.len()
    ));

    if args.trace {
        traced(&mut rep, &w, &expected, (p50, p90), epoch, args.seed);
    } else {
        rep.time("throughput_rps", throughput, "1/s");
        rep.time("latency_p50_ms", p50, "ms");
        rep.time("setup_s", median(&setup_s), "s");
        rep.time("peak_rss_mb", peak_rss, "MB");
    }
    let drain = server.shutdown();
    if !drain.drained {
        rep.fail("daemon did not drain".into());
    }
    rep
}

/// Request ids of shadow replays start above this (pass requests are
/// numbered from 1).
const SHADOW_IDS: u64 = 1 << 32;

/// In-process requests per traced pass, and shadow replays per run.
fn trace_budget(kind: Kind) -> (usize, usize) {
    match kind {
        Kind::MeshWarm => (160, 4),
        Kind::MeshCold => (48, 4),
        Kind::CpeHistory => (32, 2),
        Kind::DiodeNewton => (160, 4),
    }
}

/// The traced run: the same requests replayed in-process (every other
/// one traced), then the shadow replays; derives the per-layer metrics.
fn traced(
    rep: &mut Report,
    w: &Workload,
    expected: &[String],
    (untraced_p50, untraced_p90): (f64, f64),
    epoch: Instant,
    seed: u64,
) {
    let kind = w.kind;
    let shape = kind.shape();
    let (n, shadows) = trace_budget(kind);
    let on = replay::pass(w, expected, n, epoch);
    rep.absorb(on.attempted, on.failed, on.errors.clone());

    let mut tr = Tracer::new(true, epoch, CLIENTS as u64 + 1);
    let mut shadow = replay::Shadow::default();
    for k in 0..shadows {
        rep.attempted += 1;
        let Some(body) = w.body(k) else {
            rep.fail(format!("shadow {k}: no body"));
            continue;
        };
        match check::guarded(|| replay::shadow(&mut tr, kind, &body, SHADOW_IDS + 1 + k as u64)) {
            Ok(s) => shadow = s,
            Err(e) => rep.fail(format!("shadow {k}: {e}")),
        }
    }
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("{}-seed{seed}.spans.tsv", kind.name()));
    let all: Vec<trace::Span> = on.spans.iter().chain(&tr.spans).cloned().collect();
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace::to_tsv(&all))) {
        Ok(()) => rep
            .notes
            .push(format!("{} spans written to {}", all.len(), path.display())),
        Err(e) => rep.notes.push(format!("could not write spans: {e}")),
    }

    let pass_layers = trace::layer_self_ms(&on.spans);
    let shadow_layers = trace::layer_self_ms(&tr.spans);
    let requests = on.attempted.max(1) as f64;
    let traced_requests = on.latencies_ms.len().max(1) as f64;
    // Critical-path layers: median self time where the layer ran, times
    // the share of traced requests it ran in.
    let amortized = |name: &str| {
        pass_layers
            .get(name)
            .map(|v| {
                median(&v.values().copied().collect::<Vec<_>>()) * v.len() as f64 / traced_requests
            })
            .unwrap_or(0.0)
    };
    // Shadow layers: median self time over the shadow replays (per call,
    // so per miss for the plan-building ones).
    let shadow_ms = |name: &str| {
        shadow_layers
            .get(name)
            .map(|v| median(&v.values().copied().collect::<Vec<_>>()))
            .unwrap_or(0.0)
    };
    let traced_p50 = percentile(&on.latencies_ms, 0.5);
    let in_process_p50 = median(&trace::durations_ms(&on.spans, "serve.request"));
    let columns = shape.columns() as f64;
    let newton = kind == Kind::DiodeNewton;

    rep.time("json.parse_ms", shadow_ms("json.parse"), "ms");
    rep.time("json.encode_ms", amortized("json.encode"), "ms");
    rep.time("api.request_ms", amortized("api.request"), "ms");
    rep.time("circuits.parse_ms", shadow_ms("circuits.parse"), "ms");
    rep.time("circuits.assemble_ms", shadow_ms("circuits.assemble"), "ms");
    rep.time("cache.key_ms", amortized("cache.key"), "ms");
    rep.time("cache.lookup_ms", amortized("cache.lookup"), "ms");
    rep.count("cache.hits", on.hits as f64, "count");
    rep.count("cache.misses", on.misses as f64, "count");
    rep.count(
        "cache.hit_ratio",
        on.hits as f64 / (on.hits + on.misses).max(1) as f64,
        "ratio",
    );
    rep.time("session.plan_ms", shadow_ms("session.plan"), "ms");
    rep.time(
        "session.window_factor_ms",
        median(&trace::durations_ms(&tr.spans, "session.window_factor")),
        "ms",
    );
    rep.time("session.solve_ms", amortized("session.solve"), "ms");
    rep.count("session.columns", columns * shape.scenarios as f64, "count");
    rep.count("session.num_symbolic", on.work.num_symbolic as f64, "count");
    rep.count("session.num_numeric", on.work.num_numeric as f64, "count");
    rep.count("session.num_windows", on.work.num_windows as f64, "count");
    rep.time("sparse.order_ms", shadow_ms("sparse.order"), "ms");
    rep.time("sparse.symbolic_ms", shadow_ms("sparse.symbolic"), "ms");
    rep.time("sparse.numeric_ms", shadow_ms("sparse.numeric"), "ms");
    rep.count("sparse.lu_nnz", shadow.lu_nnz as f64, "count");
    rep.time(
        "sparse.solve_col_us",
        shadow_ms("sparse.solve") * 1e3 / columns,
        "us",
    );
    rep.time(
        "sparse.spmm_col_us",
        shadow_ms("sparse.spmm") * 1e3 / columns,
        "us",
    );
    rep.time("fracnum.history_ms", shadow_ms("fracnum.history"), "ms");
    rep.count("fracnum.history_macs", shadow.history_macs as f64, "count");
    rep.time("basis.project_ms", shadow_ms("basis.project"), "ms");
    rep.count(
        "newton.iters",
        on.work.newton_iters as f64 / requests,
        "count",
    );
    rep.count(
        "newton.iters_per_step",
        on.work.newton_iters as f64 / (requests * columns),
        "ratio",
    );
    rep.count(
        "newton.refactors",
        on.work.newton_refactors as f64 / requests,
        "count",
    );
    rep.count(
        "newton.fresh_fallbacks",
        on.work.newton_fresh_fallbacks as f64,
        "count",
    );
    rep.time(
        "newton.refactor_us",
        if newton {
            shadow_ms("sparse.numeric") * 1e3
        } else {
            0.0
        },
        "us",
    );
    rep.count(
        "serve.request_bytes",
        on.request_bytes as f64 / requests,
        "B",
    );
    rep.count(
        "serve.response_bytes",
        on.response_bytes as f64 / requests,
        "B",
    );
    rep.time("serve.untraced_p50_ms", untraced_p50, "ms");
    rep.time("serve.untraced_p90_ms", untraced_p90, "ms");
    rep.time("serve.overhead_ms", untraced_p50 - in_process_p50, "ms");
    rep.time("trace.latency_p50_ms", traced_p50, "ms");
    rep.time(
        "trace.latency_p90_ms",
        percentile(&on.latencies_ms, 0.9),
        "ms",
    );
    rep.time(
        "trace.throughput_rps",
        (on.attempted - on.failed) as f64 / on.wall_s,
        "1/s",
    );
    rep.time(
        "trace.overhead_ms",
        traced_p50 - percentile(&on.untraced_ms, 0.5),
        "ms",
    );
    rep.count("trace.requests", traced_requests, "count");
}

/// Reports zeros for every metric when set-up never produced a daemon
/// (the run has already counted the failure).
fn fill_missing(rep: &mut Report, trace: bool) {
    if trace {
        rep.notes
            .push("no daemon: per-layer metrics not measured".into());
    } else {
        for (name, unit) in [
            ("throughput_rps", "1/s"),
            ("latency_p50_ms", "ms"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
        ] {
            rep.time(name, 0.0, unit);
        }
    }
}

/// Linear-interpolated quantile `q` of `v` (0 when empty).
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The process's resident-set high-water mark (Linux `VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
