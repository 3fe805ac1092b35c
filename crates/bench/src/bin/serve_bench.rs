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
//!   but hits the pattern tier: its build replays the pinned analysis
//!   numerically instead of re-ordering and re-analysing, and its
//!   results must equal a fresh in-process plan's bit for bit. The
//!   pattern/cold speedup is the ratio of the two sides' median
//!   latencies, so host drift lands on both.
//!
//! Emits `BENCH_serve.json` (path override: `OPM_SERVE_JSON`) through
//! the shared `opm_core::json` serializer and exits 0 once it could
//! measure. Each record carries its own bound: warm-vs-cold results
//! bit-identical, every warm request a pre-key hit, no warm miss, warm
//! throughput ≥ 2× cold (1.3× on shared CI runners), hit rate ≥ 0.75,
//! the pinned plan's profile at
//! exactly 1 symbolic + 1 numeric factorization (count drift against the
//! committed run) and its fill at most the committed fill; every pattern
//! request a pattern hit, bit-identical to a fresh plan, with no
//! symbolic factorization in its plan profile (count drift), and faster
//! than a cold miss. `ci/compare_bench.py --profile {local,pr}` judges the run.
//!
//! `cargo run --release -p opm-bench --bin serve_bench`

use std::fmt::Write as _;
use std::time::Instant;

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

/// One bench record: its id, then its fields in order.
fn rec(id: impl Into<String>, fields: Vec<(&str, Json)>) -> Json {
    let mut entries = vec![("id".to_string(), Json::str(id))];
    entries.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(entries)
}

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

/// The median of `xs` (upper median for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The largest `|a − b|` over two output series; infinite when their
/// shapes differ (written as `null`, which fails any bound).
fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn outputs_of(body: &str) -> Vec<f64> {
    let doc = Json::parse(body).expect("response must be JSON");
    doc.get("results")
        .expect("results")
        .as_array()
        .expect("results array")[0]
        .get("outputs")
        .expect("outputs")
        .as_array()
        .expect("outputs array")[0]
        .as_array()
        .expect("output row")
        .iter()
        .map(|v| v.as_f64().expect("numeric sample"))
        .collect()
}

fn main() {
    let server = spawn(ServerConfig::default()).expect("bind daemon");
    let addr = server.addr();
    let threads = opm_par::default_threads().min(4);
    println!(
        "serve bench — {MESH}×{MESH} RC mesh, m = {RESOLUTION}, {WINDOWS} windows, \
         {threads} client thread(s) against {addr}"
    );

    // Reference response for the pinned request (variant 0) — this also
    // seeds the cache entry the warm phase hits, and *is* the cold-path
    // sample for the bit-identity gate.
    let pinned = body(Variant::Pinned);
    let cold_reference = client::post(addr, "/solve", &pinned).expect("pinned request");
    assert_eq!(cold_reference.status, 200, "{}", cold_reference.body);
    let cold_outputs = outputs_of(&cold_reference.body);

    // -- cold phase: distinct patterns, every request a miss at both tiers -
    let cold_bodies: Vec<String> = (1..=COLD_REQUESTS)
        .map(|k| body(Variant::Bridged(k)))
        .collect();
    let cold_started = Instant::now();
    let cold_replies = opm_par::par_map(threads, &cold_bodies, |b| {
        client::post(addr, "/solve", b)
            .expect("cold request")
            .status
    });
    let cold_s = cold_started.elapsed().as_secs_f64();
    assert!(cold_replies.iter().all(|&s| s == 200));
    let cold_sps = COLD_REQUESTS as f64 / cold_s;

    // -- warm phase: the pinned request, every request a hit ---------------
    let warm_bodies: Vec<String> = (0..WARM_REQUESTS).map(|_| pinned.clone()).collect();
    let warm_started = Instant::now();
    let warm_replies = opm_par::par_map(threads, &warm_bodies, |b| {
        let r = client::post(addr, "/solve", b).expect("warm request");
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = Json::parse(&r.body).expect("warm response JSON");
        let hit = doc.get("cache").and_then(Json::as_str) == Some("hit");
        (outputs_of(&r.body), hit)
    });
    let warm_s = warm_started.elapsed().as_secs_f64();
    let warm_sps = WARM_REQUESTS as f64 / warm_s;
    let warm_misses = warm_replies.iter().filter(|(_, hit)| !hit).count();
    let warm_delta = warm_replies
        .iter()
        .map(|(w, _)| max_abs_delta(w, &cold_outputs))
        .fold(0.0, f64::max);

    let metrics = client::get(addr, "/metrics").expect("metrics");
    let mdoc = metrics.json().expect("metrics JSON");
    let stats = mdoc.get("plan_cache").expect("plan_cache");
    let hits = stats.get("hits").unwrap().as_f64().unwrap();
    let misses = stats.get("misses").unwrap().as_f64().unwrap();
    // Every cold-phase body is new, so these are the warm phase's.
    let warm_prekey_hits = stats.get("prekey_hits").unwrap().as_usize().unwrap();
    let hit_rate = hits / (hits + misses);

    // The pinned plan is the most recently used: N requests, 1 symbolic
    // + 1 numeric factorization total.
    let plans = mdoc.get("plans").unwrap().as_array().unwrap();
    let profile = plans[0].get("profile").unwrap().clone();
    let num_symbolic = profile.get("num_symbolic").unwrap().as_usize().unwrap();
    let num_numeric = profile.get("num_numeric").unwrap().as_usize().unwrap();
    let factor_nnz = profile.get("factor_nnz").unwrap().as_usize().unwrap();
    let pattern_hits_before = stats.get("pattern_hits").unwrap().as_f64().unwrap();

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
        let r = client::post(addr, "/solve", &cold_body).expect("paired cold request");
        cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.status, 200, "{}", r.body);

        let started = Instant::now();
        let r = client::post(addr, "/solve", pattern_body).expect("pattern request");
        pattern_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = Json::parse(&r.body).expect("pattern response JSON");
        let profile = doc.get("profile").expect("profile");
        let count = |k: &str| profile.get(k).and_then(Json::as_usize).expect("count");
        pattern_replies.push((
            outputs_of(&r.body),
            count("num_symbolic"),
            count("num_numeric"),
        ));
    }
    let pattern_s = pattern_ms.iter().sum::<f64>() / 1e3;
    let pattern_sps = PATTERN_REQUESTS as f64 / pattern_s;
    let pattern_delta = pattern_replies
        .iter()
        .zip(&pattern_bodies)
        .map(|((got, _, _), b)| max_abs_delta(got, &fresh_outputs(b)))
        .fold(0.0, f64::max);
    // Factorizations the phase's builds booked, summed over its plans.
    let pattern_symbolic: usize = pattern_replies.iter().map(|r| r.1).sum();
    let pattern_numeric: usize = pattern_replies.iter().map(|r| r.2).sum();
    let mdoc = client::get(addr, "/metrics")
        .expect("metrics")
        .json()
        .expect("metrics JSON");
    let pattern_hits = mdoc
        .get("plan_cache")
        .and_then(|c| c.get("pattern_hits"))
        .and_then(Json::as_f64)
        .expect("pattern_hits")
        - pattern_hits_before;

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
        "warm/cold {speedup:.2}×   hit rate {hit_rate:.3}   warm misses {warm_misses}   \
         warm pre-key hits {warm_prekey_hits}   \
         max |Δ| = {warm_delta:e}   profile {num_symbolic} symbolic + {num_numeric} numeric, nnz(L+U) {factor_nnz}"
    );
    println!(
        "pattern/cold {pattern_speedup:.2}×   pattern hits {pattern_hits}   max |Δ| vs fresh = \
         {pattern_delta:e}   builds {pattern_symbolic} symbolic + {pattern_numeric} numeric"
    );

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
         build replays the pinned analysis numerically, with results bit-identical to a \
         fresh in-process plan; serve/pattern_plan_profile sums the phase's plan profiles \
         (each 0 symbolic + 2 numeric: the replay and the 4-window refactor), and \
         serve/pattern_vs_cold_speedup is the paired misses' median latency over the \
         variants'. serve/lu_nnz is \
         the pinned plan's nnz(L+U). Each record carries its own bound; \
         ci/compare_bench.py --profile local|pr judges a regenerated run against this file. \
         Regenerate: cargo run --release -p opm-bench --bin serve_bench"
    );
    let speedup_floor = Json::Obj(vec![
        ("local".into(), Json::Num(2.0)),
        ("pr".into(), Json::Num(1.3)),
    ]);
    // Six runs on a 2-vCPU host measured pattern/cold at 1.42–1.92×;
    // the floors sit under the slowest of them.
    let pattern_speedup_floor = Json::Obj(vec![
        ("local".into(), Json::Num(1.3)),
        ("pr".into(), Json::Num(1.2)),
    ]);
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
                ("value", Json::Int(warm_prekey_hits as i64)),
                ("min", Json::Int(WARM_REQUESTS as i64)),
            ],
        ),
        rec(
            "serve/hit_rate",
            vec![
                ("value", Json::Num(hit_rate)),
                ("min", Json::Num(0.75)),
                ("hits", Json::Num(hits)),
                ("misses", Json::Num(misses)),
            ],
        ),
        rec(
            "serve/plan_profile",
            vec![
                ("num_symbolic", Json::Int(num_symbolic as i64)),
                ("num_numeric", Json::Int(num_numeric as i64)),
                ("windows", Json::Int(WINDOWS as i64)),
                ("profile", profile),
            ],
        ),
        rec(
            "serve/pattern_hits",
            vec![
                ("value", Json::Num(pattern_hits)),
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
                ("num_symbolic", Json::Int(pattern_symbolic as i64)),
                ("num_numeric", Json::Int(pattern_numeric as i64)),
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
                ("value", Json::Int(factor_nnz as i64)),
                ("class", Json::str("ceiling")),
            ],
        ),
    ];
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("opm-bench-serve/v2")),
        ("note".into(), Json::str(note)),
        ("records".into(), Json::Arr(records)),
    ]);

    let path = std::env::var("OPM_SERVE_JSON").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&path, format!("{doc}\n")).expect("write BENCH_serve.json");
    println!("wrote {path}");
}
