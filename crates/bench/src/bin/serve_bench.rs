//! **Serve-load benchmark** — the daemon's plan-cache economy under
//! sustained traffic.
//!
//! Boots an in-process `opm-serve` daemon, then drives it over real
//! sockets from concurrent client threads (`opm-par` fan-out):
//!
//! - **cold phase** — every request carries a structurally *distinct*
//!   RC-mesh netlist (one extra bridging resistor per variant, at its
//!   own position), so each misses both cache tiers and pays netlist
//!   assembly + AMD + symbolic + numeric factorization + solve.
//! - **warm phase** — every request repeats one pinned request, so each
//!   is a pre-key hit and a plan hit: JSON parse + pure solve against the
//!   interned `Arc<SimPlan>`, shared concurrently across client threads,
//!   with no netlist parse, MNA assembly or structural hash.
//! - **pattern phase** — one client alternates a fresh structurally
//!   distinct miss with a value-only variant of the pinned netlist (one
//!   segment resistance perturbed). The variant misses the plan tier
//!   but hits the pattern tier: its build neither re-orders nor
//!   re-analyses, its 4-window kernel replays the pinned analysis
//!   numerically, and its results must equal a fresh in-process plan's
//!   bit for bit. The
//!   pattern/cold speedup is the ratio of the two sides' median
//!   latencies, so host drift lands on both.
//!
//! Emits `BENCH_serve.json` (path override: `--json PATH`) through the
//! shared record writer and exits 0 once it could measure, whatever the
//! daemon answered: a reply that is not a usable 200 is counted into
//! `serve/failed_replies` (which must be 0) and the records it would
//! have fed read `null`. Each record carries its own bound: warm-vs-cold results
//! bit-identical, every warm request a pre-key hit, no warm miss, warm
//! throughput ≥ 2× cold (1.3× on shared CI runners), hit rate ≥ 0.75,
//! the pinned plan's profile at
//! exactly 1 symbolic + 1 numeric factorization (count drift against the
//! committed run) and its fill at most the committed fill; every pattern
//! request a pattern hit, bit-identical to a fresh plan, with no
//! symbolic factorization in its plan profile (count drift), and faster
//! than a cold miss. `ci/compare_bench.py --profile {local,pr}` judges the run.
//!
//! `cargo run --release -p opm-bench --bin serve_bench [-- --json PATH]`

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

use opm_bench::{max_abs_delta, per_profile, rec, Cli};
use opm_core::json::Json;
use opm_core::WindowedOptions;
use opm_serve::api::SimRequest;
use opm_serve::{client, spawn, ServerConfig};

const COLD_REQUESTS: usize = 6;
const WARM_REQUESTS: usize = 42;
const PATTERN_REQUESTS: usize = 6;
const MESH: usize = 48; // MESH×MESH RC mesh → fill-heavy 2D factorization
const RESOLUTION: usize = 8;
const WINDOWS: usize = 4;

/// An `MESH×MESH` resistor mesh with a capacitor at every node — 2D
/// sparsity, so the LU pays real fill and a cache hit skips real work.
/// The mesh is driven at its corner by a DC source.
#[derive(Clone, Copy)]
enum Variant {
    /// The pinned netlist.
    Pinned,
    /// The pinned netlist plus one diagonal bridging resistor from node
    /// `(k, k)`: a new sparsity pattern per `k`.
    Bridged(usize),
    /// The pinned netlist with its first segment resistance perturbed:
    /// value-only, the pinned sparsity pattern.
    Valued(usize),
}

fn mesh_netlist(variant: Variant) -> String {
    let mut s = String::from("* RC mesh\nV1 n1_1 0 DC 1\n");
    let mut r = 0usize;
    for i in 1..=MESH {
        for j in 1..=MESH {
            if j < MESH {
                r += 1;
                let ohms = match variant {
                    Variant::Valued(k) if r == 1 => 100.0 + 0.5 * k as f64,
                    _ => 100.0,
                };
                let _ = writeln!(s, "R{r} n{i}_{j} n{i}_{} {ohms}", j + 1);
            }
            if i < MESH {
                r += 1;
                let _ = writeln!(s, "R{r} n{i}_{j} n{}_{j} 100", i + 1);
            }
            let _ = writeln!(s, "C{i}_{j} n{i}_{j} 0 1n");
        }
    }
    if let Variant::Bridged(k) = variant {
        let _ = writeln!(s, "RB n{k}_{k} n{}_{} 100", k + 1, k + 1);
    }
    s.push_str(".end\n");
    s
}

fn body(variant: Variant) -> String {
    let corner = format!("n{MESH}_{MESH}");
    format!(
        r#"{{"netlist": {netlist:?}, "probes": [{corner:?}], "horizon": 2e-6,
            "options": {{"resolution": {RESOLUTION}}}, "windows": {WINDOWS},
            "scenarios": [[{{"kind": "pulse", "v1": 0.0, "v2": 1.0, "delay": 1e-8,
                             "rise": 1e-8, "width": 5e-7, "fall": 1e-8, "period": 0.0}}]]}}"#,
        netlist = mesh_netlist(variant),
    )
}

/// The probe outputs a fresh in-process plan gives for `body`, solved
/// as the daemon solves a windowed request.
fn fresh_outputs(body: &str) -> Vec<f64> {
    let parsed = SimRequest::parse(body.as_bytes()).expect("bench body parses");
    let stimuli = parsed.stimuli().expect("bench body has scenarios");
    let plan = parsed.sim.plan(&parsed.opts).expect("fresh plan");
    let results = plan
        .solve_windowed_batch_opts(&stimuli, &WindowedOptions::new(WINDOWS), 1)
        .expect("fresh solve");
    results[0].output_row(0).to_vec()
}

/// The median of `xs` (upper median for an even count); `NaN` when
/// empty (written as `null`, which fails any bound).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(f64::NAN)
}

/// The first probe's samples of the first scenario in a `/solve` reply.
fn outputs_of(doc: &Json) -> Option<Vec<f64>> {
    let results = doc.get("results")?.as_array()?;
    let outputs = results.first()?.get("outputs")?.as_array()?;
    outputs
        .first()?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// The JSON body of a 200 reply to `path` (a `/solve` when `body` is
/// given, else a `GET`); `None` for any other reply or none at all,
/// which the bench counts into `serve/failed_replies`.
fn request(addr: SocketAddr, path: &str, body: Option<&str>) -> Option<Json> {
    let reply = match body {
        Some(b) => client::post(addr, path, b),
        None => client::get(addr, path),
    };
    match reply {
        Ok(r) if r.status == 200 => r.json().ok(),
        Ok(r) => {
            let head: String = r.body.chars().take(200).collect();
            eprintln!("{path}: status {}: {head}", r.status);
            None
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            None
        }
    }
}

/// Posts `body` to `/solve`: the reply and its outputs, unless the
/// reply is not a 200 carrying results.
fn solve(addr: SocketAddr, body: &str) -> Option<(Json, Vec<f64>)> {
    let doc = request(addr, "/solve", Some(body))?;
    let outputs = outputs_of(&doc)?;
    Some((doc, outputs))
}

/// The number at `path` inside `doc`.
fn number(doc: Option<&Json>, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(doc?, |d, key| d.get(key))?.as_f64()
}

/// A value read off a reply, for the console.
fn show(v: Option<f64>) -> String {
    v.map_or("null".into(), |x| format!("{x:.3}"))
}

/// A count read off a reply, `null` when the reply lacks it.
fn count(v: Option<f64>) -> Json {
    v.map_or(Json::Null, |x| Json::Int(x as i64))
}

/// A number read off a reply, `null` when the reply lacks it.
fn num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

fn main() {
    let cli = Cli::parse("BENCH_serve.json", None);
    let server = spawn(ServerConfig::default()).expect("bind daemon");
    let addr = server.addr();
    let threads = opm_par::default_threads().min(4);
    println!(
        "serve bench — {MESH}×{MESH} RC mesh, m = {RESOLUTION}, {WINDOWS} windows, \
         {threads} client thread(s) against {addr}"
    );
    // Replies that were not a usable 200, over every phase.
    let mut failed = 0usize;

    // Reference response for the pinned request (variant 0) — this also
    // seeds the cache entry the warm phase hits, and *is* the cold-path
    // sample for the bit-identity gate.
    let pinned = body(Variant::Pinned);
    let cold_outputs = match solve(addr, &pinned) {
        Some((_, outputs)) => outputs,
        None => {
            failed += 1;
            Vec::new()
        }
    };

    // -- cold phase: distinct patterns, every request a miss at both tiers -
    let cold_bodies: Vec<String> = (1..=COLD_REQUESTS)
        .map(|k| body(Variant::Bridged(k)))
        .collect();
    let cold_started = Instant::now();
    let cold_replies = opm_par::par_map(threads, &cold_bodies, |b| solve(addr, b).is_some());
    let cold_s = cold_started.elapsed().as_secs_f64();
    failed += cold_replies.iter().filter(|ok| !**ok).count();
    let cold_sps = COLD_REQUESTS as f64 / cold_s;

    // -- warm phase: the pinned request, every request a hit ---------------
    let warm_bodies: Vec<String> = (0..WARM_REQUESTS).map(|_| pinned.clone()).collect();
    let warm_started = Instant::now();
    let warm_replies = opm_par::par_map(threads, &warm_bodies, |b| {
        solve(addr, b).map(|(doc, outputs)| {
            let hit = doc.get("cache").and_then(Json::as_str) == Some("hit");
            (outputs, hit)
        })
    });
    let warm_s = warm_started.elapsed().as_secs_f64();
    failed += warm_replies.iter().filter(|r| r.is_none()).count();
    let warm_sps = WARM_REQUESTS as f64 / warm_s;
    let warm_misses = warm_replies
        .iter()
        .flatten()
        .filter(|(_, hit)| !hit)
        .count();
    // A failed reply is infinitely far from the cold reference.
    let warm_delta = warm_replies
        .iter()
        .map(|r| {
            r.as_ref()
                .map_or(f64::INFINITY, |(w, _)| max_abs_delta(w, &cold_outputs))
        })
        .fold(0.0, f64::max);

    let mdoc = request(addr, "/metrics", None);
    failed += usize::from(mdoc.is_none());
    let stat = |key: &str| number(mdoc.as_ref(), &["plan_cache", key]);
    let (hits, misses) = (stat("hits"), stat("misses"));
    // Every cold-phase body is new, so these are the warm phase's.
    let warm_prekey_hits = stat("prekey_hits");
    let hit_rate = hits.zip(misses).map(|(h, m)| h / (h + m));

    // The pinned plan is the most recently used: N requests, 1 symbolic
    // + 1 numeric factorization total.
    let profile = mdoc
        .as_ref()
        .and_then(|d| d.get("plans")?.as_array()?.first()?.get("profile"))
        .cloned();
    let factor = |key: &str| number(profile.as_ref(), &[key]);
    let (num_symbolic, num_numeric) = (factor("num_symbolic"), factor("num_numeric"));
    let factor_nnz = factor("factor_nnz");
    let kernel_bytes = factor("kernel_bytes");
    let pattern_hits_before = stat("pattern_hits");

    // -- pattern phase: value-only variants, plan misses, pattern hits -----
    // One client, each pattern request right after a fresh structurally
    // distinct miss, so host drift hits both sides of the comparison.
    let mut cold_ms = Vec::with_capacity(PATTERN_REQUESTS);
    let mut pattern_ms = Vec::with_capacity(PATTERN_REQUESTS);
    let mut pattern_replies = Vec::with_capacity(PATTERN_REQUESTS);
    let pattern_bodies: Vec<String> = (1..=PATTERN_REQUESTS)
        .map(|k| body(Variant::Valued(k)))
        .collect();
    for (k, pattern_body) in (1..=PATTERN_REQUESTS).zip(&pattern_bodies) {
        let cold_body = body(Variant::Bridged(COLD_REQUESTS + k));
        let started = Instant::now();
        let cold = solve(addr, &cold_body);
        cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
        failed += usize::from(cold.is_none());

        let started = Instant::now();
        let reply = solve(addr, pattern_body);
        pattern_ms.push(started.elapsed().as_secs_f64() * 1e3);
        failed += usize::from(reply.is_none());
        pattern_replies.push(reply);
    }
    let pattern_s = pattern_ms.iter().sum::<f64>() / 1e3;
    let pattern_sps = PATTERN_REQUESTS as f64 / pattern_s;
    // A failed reply is infinitely far from the fresh plan's results.
    let pattern_delta = pattern_replies
        .iter()
        .zip(&pattern_bodies)
        .map(|(r, b)| {
            r.as_ref().map_or(f64::INFINITY, |(_, got)| {
                max_abs_delta(got, &fresh_outputs(b))
            })
        })
        .fold(0.0, f64::max);
    // Factorizations the phase's builds booked, summed over its plans.
    let booked = |key: &str| -> Option<f64> {
        let docs = pattern_replies
            .iter()
            .map(|r| r.as_ref().map(|(doc, _)| doc));
        docs.map(|doc| number(doc, &["profile", key])).sum()
    };
    let (pattern_symbolic, pattern_numeric) = (booked("num_symbolic"), booked("num_numeric"));
    let mdoc = request(addr, "/metrics", None);
    failed += usize::from(mdoc.is_none());
    let pattern_hits = number(mdoc.as_ref(), &["plan_cache", "pattern_hits"])
        .zip(pattern_hits_before)
        .map(|(after, before)| after - before);

    let speedup = warm_sps / cold_sps;
    let pattern_speedup = median(&mut cold_ms) / median(&mut pattern_ms);
    println!("cold : {COLD_REQUESTS} misses in {cold_s:.3}s  ({cold_sps:.1} scenarios/s)");
    println!("warm : {WARM_REQUESTS} hits   in {warm_s:.3}s  ({warm_sps:.1} scenarios/s)");
    println!(
        "pattern: {PATTERN_REQUESTS} pattern hits in {pattern_s:.3}s  ({pattern_sps:.1} scenarios/s), \
         median {:.1} ms vs {:.1} ms for the paired misses",
        median(&mut pattern_ms),
        median(&mut cold_ms)
    );
    println!(
        "warm/cold {speedup:.2}×   hit rate {}   warm misses {warm_misses}   \
         warm pre-key hits {}   max |Δ| = {warm_delta:e}   \
         profile {} symbolic + {} numeric, nnz(L+U) {}, kernel bytes {}",
        show(hit_rate),
        show(warm_prekey_hits),
        show(num_symbolic),
        show(num_numeric),
        show(factor_nnz),
        show(kernel_bytes),
    );
    println!(
        "pattern/cold {pattern_speedup:.2}×   pattern hits {}   max |Δ| vs fresh = \
         {pattern_delta:e}   builds {} symbolic + {} numeric",
        show(pattern_hits),
        show(pattern_symbolic),
        show(pattern_numeric),
    );
    println!("failed replies {failed}");

    server.shutdown();

    // -- artifact ----------------------------------------------------------
    let note = format!(
        "opm-serve load generator: {MESH}x{MESH} RC-mesh netlist (2D fill-heavy LU), \
         m = {RESOLUTION}, {WINDOWS}-window solves, {threads} concurrent client thread(s) \
         over real sockets against an in-process daemon. serve/cold_*: {COLD_REQUESTS} \
         structurally distinct variants (one extra bridging resistor each), every request \
         a miss at both cache tiers (assembly + AMD + symbolic + numeric factorization + \
         solve). serve/warm_*: {WARM_REQUESTS} repeats of one pinned request, every one a \
         pre-key hit and a plan hit (JSON parse + solve against the interned Arc<SimPlan>: \
         no netlist parse, assembly or structural hash, zero factorizations — the per-plan \
         profile reads 1 symbolic + 1 numeric total). serve/hit_rate, \
         serve/warm_prekey_hits and serve/plan_profile are read before \
         the pattern phase. serve/pattern_*: one client alternates {PATTERN_REQUESTS} more \
         structurally distinct misses with {PATTERN_REQUESTS} value-only variants of the \
         pinned request (one resistance perturbed), each a plan miss and a pattern hit whose \
         build factors nothing and whose 4-window kernel replays the pinned analysis \
         numerically, with results bit-identical to a fresh in-process plan; \
         serve/pattern_plan_profile sums the phase's plan profiles (each 0 symbolic + 1 \
         numeric: the 4-window kernel's exact replay), and \
         serve/pattern_vs_cold_speedup is the paired misses' median latency over the \
         variants'. serve/lu_nnz is \
         the pinned plan's nnz(L+U) and serve/kernel_bytes the heap bytes of its built \
         window kernels (W = 1 from the recording and W = {WINDOWS}; values and pivots, \
         the pattern they share with the analysis not counted). serve/failed_replies counts the replies over every \
         phase that were not a usable 200. Each record carries its own bound; \
         ci/compare_bench.py --profile local|pr judges a regenerated run against this file. \
         Regenerate: cargo run --release -p opm-bench --bin serve_bench"
    );
    let speedup_floor = per_profile(&[("local", 2.0), ("pr", 1.3)]);
    // Six runs on a 2-vCPU host measured pattern/cold at 1.42–1.92×;
    // the floors sit under the slowest of them.
    let pattern_speedup_floor = per_profile(&[("local", 1.3), ("pr", 1.2)]);
    let records = vec![
        rec(
            format!("serve/cold_requests_{COLD_REQUESTS}"),
            vec![
                ("seconds", Json::Num(cold_s)),
                ("scenarios_per_sec", Json::Num(cold_sps)),
            ],
        ),
        rec(
            format!("serve/warm_requests_{WARM_REQUESTS}"),
            vec![
                ("seconds", Json::Num(warm_s)),
                ("scenarios_per_sec", Json::Num(warm_sps)),
            ],
        ),
        rec(
            format!("serve/pattern_requests_{PATTERN_REQUESTS}"),
            vec![
                ("seconds", Json::Num(pattern_s)),
                ("scenarios_per_sec", Json::Num(pattern_sps)),
            ],
        ),
        rec(
            "serve/warm_vs_cold_speedup",
            vec![("value", Json::Num(speedup)), ("min", speedup_floor)],
        ),
        rec(
            "serve/warm_vs_cold_max_abs_delta",
            vec![("value", Json::Num(warm_delta)), ("max", Json::Num(0.0))],
        ),
        rec(
            "serve/warm_misses",
            vec![
                ("value", Json::Int(warm_misses as i64)),
                ("max", Json::Int(0)),
            ],
        ),
        rec(
            "serve/warm_prekey_hits",
            vec![
                ("value", count(warm_prekey_hits)),
                ("min", Json::Int(WARM_REQUESTS as i64)),
            ],
        ),
        rec(
            "serve/hit_rate",
            vec![
                ("value", num(hit_rate)),
                ("min", Json::Num(0.75)),
                ("hits", num(hits)),
                ("misses", num(misses)),
            ],
        ),
        rec(
            "serve/plan_profile",
            vec![
                ("num_symbolic", count(num_symbolic)),
                ("num_numeric", count(num_numeric)),
                ("windows", Json::Int(WINDOWS as i64)),
                ("profile", profile.unwrap_or(Json::Null)),
            ],
        ),
        rec(
            "serve/pattern_hits",
            vec![
                ("value", num(pattern_hits)),
                ("min", Json::Int(PATTERN_REQUESTS as i64)),
            ],
        ),
        rec(
            "serve/pattern_vs_fresh_max_abs_delta",
            vec![("value", Json::Num(pattern_delta)), ("max", Json::Num(0.0))],
        ),
        rec(
            "serve/pattern_plan_profile",
            vec![
                ("num_symbolic", count(pattern_symbolic)),
                ("num_numeric", count(pattern_numeric)),
            ],
        ),
        rec(
            "serve/pattern_vs_cold_speedup",
            vec![
                ("value", Json::Num(pattern_speedup)),
                ("min", pattern_speedup_floor),
            ],
        ),
        // The fill may only shrink.
        rec(
            "serve/lu_nnz",
            vec![
                ("value", count(factor_nnz)),
                ("class", Json::str("ceiling")),
            ],
        ),
        // So may the factors' bytes.
        rec(
            "serve/kernel_bytes",
            vec![
                ("value", count(kernel_bytes)),
                ("class", Json::str("ceiling")),
            ],
        ),
        // Every request above must be answered with a usable 200.
        rec(
            "serve/failed_replies",
            vec![("value", Json::Int(failed as i64)), ("max", Json::Int(0))],
        ),
    ];
    opm_bench::write(&cli.json, "opm-bench-serve/v2", &note, records);
}
