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
//! Hard gates at generation time:
//!
//! - warm-vs-cold results bit-identical (`max_abs_delta == 0` — a hit
//!   reuses the *same* factorization);
//! - the pinned plan's profile reads exactly 1 symbolic + 1 numeric
//!   factorization after all N warm requests (windowed solves);
//! - warm throughput ≥ `OPM_SERVE_MIN_SPEEDUP`× cold (default 2.0);
//! - `/metrics` hit rate ≥ `OPM_SERVE_MIN_HIT_RATE` (default 0.75).
//!
//! Emits `BENCH_serve.json` (path override: `OPM_SERVE_JSON`) through
//! the shared `opm_core::json` serializer, gated in CI by
//! `ci/compare_bench.py` exactly like the sweep.
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

fn floor_env(var: &str, default: f64) -> f64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(default)
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
        assert_eq!(
            doc.get("cache").and_then(Json::as_str),
            Some("hit"),
            "warm requests must hit"
        );
        outputs_of(&r.body)
    });
    let warm_s = warm_started.elapsed().as_secs_f64();
    let warm_sps = WARM_REQUESTS as f64 / warm_s;

    // -- gates -------------------------------------------------------------
    let mut max_abs_delta = 0.0f64;
    for w in &warm_replies {
        assert_eq!(w.len(), cold_outputs.len());
        for (a, b) in w.iter().zip(&cold_outputs) {
            max_abs_delta = max_abs_delta.max((a - b).abs());
        }
    }

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
        "warm/cold {speedup:.2}×   hit rate {hit_rate:.3}   max |Δ| = {max_abs_delta:e}   \
         profile {num_symbolic} symbolic + {num_numeric} numeric, nnz(L+U) {factor_nnz}"
    );

    assert_eq!(
        max_abs_delta, 0.0,
        "a cache hit must reproduce the cold result bit-for-bit"
    );
    assert_eq!(
        (num_symbolic, num_numeric),
        (1, 1),
        "{} requests on the pinned plan must cost exactly 1 symbolic + 1 numeric",
        WARM_REQUESTS + 1
    );
    let min_speedup = floor_env("OPM_SERVE_MIN_SPEEDUP", 2.0);
    assert!(
        speedup >= min_speedup,
        "warm-cache throughput must be ≥ {min_speedup}× cold (got {speedup:.2}×)"
    );
    let min_hit_rate = floor_env("OPM_SERVE_MIN_HIT_RATE", 0.75);
    assert!(
        hit_rate >= min_hit_rate,
        "hit rate must be ≥ {min_hit_rate} (got {hit_rate:.3})"
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
         factorizations — the per-plan profile reads 1 symbolic + 1 numeric total, \
         asserted). serve/lu_nnz is the pinned plan's nnz(L+U), gated as a ceiling: \
         the fill may only shrink. warm_vs_cold_max_abs_delta == 0 is a hard \
         bit-identity gate; the \
         hit-rate floor and speedup floor are asserted at generation time \
         (OPM_SERVE_MIN_SPEEDUP / OPM_SERVE_MIN_HIT_RATE). CI gate: ci/compare_bench.py \
         diffs a regenerated run against this committed file. Regenerate: \
         cargo run --release -p opm-bench --bin serve_bench"
    );
    let rec = |pairs: Vec<(String, Json)>| Json::Obj(pairs);
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("opm-bench-serve/v1")),
        ("note".into(), Json::str(note)),
        (
            "records".into(),
            Json::Arr(vec![
                rec(vec![
                    (
                        "id".into(),
                        Json::str(format!("serve/cold_requests_{COLD_REQUESTS}")),
                    ),
                    ("seconds".into(), Json::Num(cold_s)),
                    ("scenarios_per_sec".into(), Json::Num(cold_sps)),
                ]),
                rec(vec![
                    (
                        "id".into(),
                        Json::str(format!("serve/warm_requests_{WARM_REQUESTS}")),
                    ),
                    ("seconds".into(), Json::Num(warm_s)),
                    ("scenarios_per_sec".into(), Json::Num(warm_sps)),
                ]),
                rec(vec![
                    ("id".into(), Json::str("serve/warm_vs_cold_speedup")),
                    ("value".into(), Json::Num(speedup)),
                ]),
                rec(vec![
                    ("id".into(), Json::str("serve/warm_vs_cold_max_abs_delta")),
                    ("value".into(), Json::Num(max_abs_delta)),
                ]),
                rec(vec![
                    ("id".into(), Json::str("serve/hit_rate")),
                    ("value".into(), Json::Num(hit_rate)),
                    ("hits".into(), Json::Num(hits)),
                    ("misses".into(), Json::Num(misses)),
                ]),
                rec(vec![
                    ("id".into(), Json::str("serve/plan_profile")),
                    ("num_symbolic".into(), Json::Int(num_symbolic as i64)),
                    ("num_numeric".into(), Json::Int(num_numeric as i64)),
                    ("windows".into(), Json::Int(WINDOWS as i64)),
                    ("profile".into(), profile),
                ]),
                rec(vec![
                    ("id".into(), Json::str("serve/lu_nnz")),
                    ("value".into(), Json::Int(factor_nnz as i64)),
                    ("class".into(), Json::str("ceiling")),
                ]),
            ]),
        ),
    ]);

    let path = std::env::var("OPM_SERVE_JSON").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&path, format!("{doc}\n")).expect("write BENCH_serve.json");
    println!("wrote {path}");
}
