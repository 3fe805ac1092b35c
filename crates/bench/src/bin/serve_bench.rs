//! **Serve-load benchmark** — the daemon's plan-cache economy under
//! sustained traffic.
//!
//! Boots an in-process `opm-serve` daemon, then drives it over real
//! sockets from concurrent client threads (`opm-par` fan-out):
//!
//! - **cold phase** — every request carries a structurally *distinct*
//!   RC-mesh netlist (one segment resistance perturbed per variant), so
//!   each is a cache miss paying netlist assembly + symbolic + numeric
//!   factorization + solve.
//! - **warm phase** — every request repeats one pinned netlist, so each
//!   is a cache hit: assembly + pure solve against the interned
//!   `Arc<SimPlan>`, shared concurrently across client threads.
//!
//! Emits `BENCH_serve.json` (path override: `OPM_SERVE_JSON`) through
//! the shared `opm_core::json` serializer and exits 0 once it could
//! measure. Each record carries its own bound: warm-vs-cold results
//! bit-identical, no warm miss, warm throughput ≥ 2× cold (1.3× on
//! shared CI runners), hit rate ≥ 0.75, the pinned plan's profile at
//! exactly 1 symbolic + 1 numeric factorization (count drift against the
//! committed run) and its fill at most the committed fill.
//! `ci/compare_bench.py --profile {local,pr}` judges the run.
//!
//! `cargo run --release -p opm-bench --bin serve_bench`

use std::fmt::Write as _;
use std::time::Instant;

use opm_core::json::Json;
use opm_serve::{client, spawn, ServerConfig};

const COLD_REQUESTS: usize = 6;
const WARM_REQUESTS: usize = 42;
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
/// `variant` perturbs one segment resistance: same pattern, different
/// values → a different structural key by construction.
fn mesh_netlist(variant: usize) -> String {
    let mut s = String::from("* RC mesh\nV1 n1_1 0 DC 1\n");
    let mut r = 0usize;
    for i in 1..=MESH {
        for j in 1..=MESH {
            if j < MESH {
                r += 1;
                // The first segment carries the variant: value-only
                // perturbation, identical sparsity pattern (variant 0
                // *is* the pinned netlist).
                let ohms = if r == 1 {
                    100.0 + 0.5 * variant as f64
                } else {
                    100.0
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
    s.push_str(".end\n");
    s
}

fn body(variant: usize) -> String {
    let corner = format!("n{MESH}_{MESH}");
    format!(
        r#"{{"netlist": {netlist:?}, "probes": [{corner:?}], "horizon": 2e-6,
            "options": {{"resolution": {RESOLUTION}}}, "windows": {WINDOWS},
            "scenarios": [[{{"kind": "pulse", "v1": 0.0, "v2": 1.0, "delay": 1e-8,
                             "rise": 1e-8, "width": 5e-7, "fall": 1e-8, "period": 0.0}}]]}}"#,
        netlist = mesh_netlist(variant),
    )
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
    let pinned = body(0);
    let cold_reference = client::post(addr, "/solve", &pinned).expect("pinned request");
    assert_eq!(cold_reference.status, 200, "{}", cold_reference.body);
    let cold_outputs = outputs_of(&cold_reference.body);

    // -- cold phase: distinct variants, every request a miss ---------------
    let cold_bodies: Vec<String> = (1..=COLD_REQUESTS).map(body).collect();
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
    // A reply of the wrong shape cannot match: its delta is infinite
    // (written as `null`, which fails the record's bound).
    let max_abs_delta = warm_replies
        .iter()
        .map(|(w, _)| {
            if w.len() != cold_outputs.len() {
                return f64::INFINITY;
            }
            w.iter()
                .zip(&cold_outputs)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
        })
        .fold(0.0, f64::max);

    let metrics = client::get(addr, "/metrics").expect("metrics");
    let mdoc = metrics.json().expect("metrics JSON");
    let stats = mdoc.get("plan_cache").expect("plan_cache");
    let hits = stats.get("hits").unwrap().as_f64().unwrap();
    let misses = stats.get("misses").unwrap().as_f64().unwrap();
    let hit_rate = hits / (hits + misses);

    // The pinned plan is the most recently used: N requests, 1 symbolic
    // + 1 numeric factorization total.
    let plans = mdoc.get("plans").unwrap().as_array().unwrap();
    let profile = plans[0].get("profile").unwrap().clone();
    let num_symbolic = profile.get("num_symbolic").unwrap().as_usize().unwrap();
    let num_numeric = profile.get("num_numeric").unwrap().as_usize().unwrap();
    let factor_nnz = profile.get("factor_nnz").unwrap().as_usize().unwrap();

    let speedup = warm_sps / cold_sps;
    println!("cold : {COLD_REQUESTS} misses in {cold_s:.3}s  ({cold_sps:.1} scenarios/s)");
    println!("warm : {WARM_REQUESTS} hits   in {warm_s:.3}s  ({warm_sps:.1} scenarios/s)");
    println!(
        "warm/cold {speedup:.2}×   hit rate {hit_rate:.3}   warm misses {warm_misses}   \
         max |Δ| = {max_abs_delta:e}   profile {num_symbolic} symbolic + {num_numeric} numeric, nnz(L+U) {factor_nnz}"
    );

    server.shutdown();

    // -- artifact ----------------------------------------------------------
    let note = format!(
        "opm-serve load generator: {MESH}x{MESH} RC-mesh netlist (2D fill-heavy LU), \
         m = {RESOLUTION}, {WINDOWS}-window solves, {threads} concurrent client thread(s) \
         over real sockets against an in-process daemon. serve/cold_*: {COLD_REQUESTS} \
         structurally distinct variants, every request a plan-cache miss (assembly + \
         symbolic + numeric factorization + solve). serve/warm_*: {WARM_REQUESTS} repeats \
         of one pinned request, every one a hit (the interned Arc<SimPlan>, zero \
         factorizations — the per-plan profile reads 1 symbolic + 1 numeric total). \
         serve/lu_nnz is the pinned plan's nnz(L+U). Each record carries its own bound; \
         ci/compare_bench.py --profile local|pr judges a regenerated run against this file. \
         Regenerate: cargo run --release -p opm-bench --bin serve_bench"
    );
    let speedup_floor = Json::Obj(vec![
        ("local".into(), Json::Num(2.0)),
        ("pr".into(), Json::Num(1.3)),
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
            "serve/warm_vs_cold_speedup",
            vec![("value", Json::Num(speedup)), ("min", speedup_floor)],
        ),
        rec(
            "serve/warm_vs_cold_max_abs_delta",
            vec![("value", Json::Num(max_abs_delta)), ("max", Json::Num(0.0))],
        ),
        rec(
            "serve/warm_misses",
            vec![
                ("value", Json::Int(warm_misses as i64)),
                ("max", Json::Int(0)),
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
