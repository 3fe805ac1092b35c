//! Chaos harness: drives the fault-injection layer (`X-Fault` headers,
//! honored because the server is spawned with `fault_injection: true`)
//! *interleaved with healthy traffic*, and asserts the two invariants
//! that make the daemon fault-tolerant rather than merely lucky:
//!
//! 1. **Zero healthy-request failures.** Every healthy request — racing
//!    against injected build panics, deadline-busting solves, and
//!    mid-stream socket drops — answers 200 with results bit-identical
//!    to an in-process reference solve.
//! 2. **Exact accounting.** `/metrics` reports *exactly* the injected
//!    fault counts (nothing detected that wasn't injected, nothing
//!    injected that went undetected), and `shutdown()` drains with no
//!    thread leak.

use std::time::Duration;

use opm_core::json::Json;
use opm_core::{Simulation, SolveOptions};
use opm_serve::client::{Client, ClientConfig};
use opm_serve::{client, spawn, ServerConfig};

const NETLIST: &str = "* RC low-pass\nV1 in 0 DC 5\nR1 in out 1k\nC1 out 0 1u\n.end";

/// Injected faults per kind; `/metrics` must report these exactly.
const PANICS: usize = 3;
const SLOW: usize = 3;
const DROPS: usize = 3;

fn healthy_body() -> String {
    format!(
        r#"{{"netlist": {NETLIST:?}, "probes": ["out"], "horizon": 5e-3,
            "options": {{"resolution": 128}}, "windows": 4,
            "scenarios": [[{{"kind": "step", "level": 5.0}}]]}}"#
    )
}

/// A body with a horizon no other request uses, so its plan key is
/// fresh and the injected build panic actually reaches the build
/// closure (a cached plan would serve from the cache without building).
fn unique_key_body(i: usize) -> String {
    let horizon = 1e-3 * (i + 11) as f64;
    format!(
        r#"{{"netlist": {NETLIST:?}, "probes": ["out"], "horizon": {horizon},
            "options": {{"resolution": 128}}, "windows": 4,
            "scenarios": [[{{"kind": "step", "level": 5.0}}]]}}"#
    )
}

fn outputs_of(result: &Json) -> Vec<f64> {
    result.get("outputs").unwrap().as_array().unwrap()[0]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect()
}

fn one_shot(addr: std::net::SocketAddr) -> Client {
    Client::with_config(
        addr,
        ClientConfig {
            retries: 0,
            ..ClientConfig::default()
        },
    )
}

#[test]
fn chaos_faults_never_touch_healthy_traffic() {
    let server = spawn(ServerConfig {
        fault_injection: true,
        compute_deadline: Some(Duration::from_secs(2)),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let body = healthy_body();

    // In-process reference for the bit-identity check.
    let sim = Simulation::from_netlist(NETLIST, &["out"])
        .unwrap()
        .horizon(5e-3);
    let plan = sim.plan(&SolveOptions::new().resolution(128)).unwrap();
    let want: Vec<f64> = plan
        .solve_windowed(
            &opm_waveform::InputSet::new(vec![opm_waveform::Waveform::step(0.0, 5.0)]),
            4,
        )
        .unwrap()
        .output_row(0)
        .to_vec();

    // Healthy traffic retries transport noise and 503s; fault traffic
    // is one-shot so every injected fault fires exactly once.
    let healthy = Client::with_config(
        addr,
        ClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(20),
            ..ClientConfig::default()
        },
    );

    std::thread::scope(|s| {
        let mut healthy_handles = Vec::new();
        for _ in 0..4 {
            let healthy = &healthy;
            let body = &body;
            healthy_handles.push(s.spawn(move || {
                (0..6)
                    .map(|_| healthy.post("/solve", body).unwrap())
                    .collect::<Vec<_>>()
            }));
        }

        let mut panic_handles = Vec::new();
        for i in 0..PANICS {
            panic_handles.push(s.spawn(move || {
                one_shot(addr)
                    .request(
                        "POST",
                        "/solve",
                        Some(&unique_key_body(i)),
                        &[("X-Fault", "build-panic")],
                    )
                    .unwrap()
            }));
        }

        let mut slow_handles = Vec::new();
        for _ in 0..SLOW {
            let body = &body;
            slow_handles.push(s.spawn(move || {
                one_shot(addr)
                    .request(
                        "POST",
                        "/solve",
                        Some(body),
                        &[("X-Fault", "slow-solve=3000")],
                    )
                    .unwrap()
            }));
        }

        let mut drop_handles = Vec::new();
        for _ in 0..DROPS {
            let body = &body;
            drop_handles.push(s.spawn(move || {
                one_shot(addr).request(
                    "POST",
                    "/stream",
                    Some(body),
                    &[("X-Fault", "drop-stream=1")],
                )
            }));
        }

        // Invariant 1: every healthy request succeeded, bit-identically.
        for h in healthy_handles {
            for r in h.join().unwrap() {
                assert_eq!(r.status, 200, "healthy request failed: {}", r.body);
                let doc = r.json().unwrap();
                let got = outputs_of(&doc.get("results").unwrap().as_array().unwrap()[0]);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "healthy result drifted under chaos"
                    );
                }
            }
        }

        // Injected build panics answer 500 (isolated, not fatal).
        for h in panic_handles {
            let r = h.join().unwrap();
            assert_eq!(r.status, 500, "{}", r.body);
        }

        // Deadline-busting solves answer 503 naming the deadline.
        for h in slow_handles {
            let r = h.join().unwrap();
            assert_eq!(r.status, 503, "{}", r.body);
            assert!(r.body.contains("deadline"), "{}", r.body);
            assert_eq!(r.header("retry-after"), Some("1"));
        }

        // Dropped streams truncate: the client sees broken framing,
        // never a clean end-of-stream.
        for h in drop_handles {
            let r = h.join().unwrap();
            assert!(r.is_err(), "dropped stream decoded cleanly: {r:?}");
        }
    });

    // Invariant 2: exact accounting in /metrics.
    let doc = client::get(addr, "/metrics").unwrap().json().unwrap();
    let robustness = doc.get("robustness").unwrap();
    let faults = robustness.get("faults").unwrap();
    assert_eq!(faults.get("build_panics").unwrap().as_usize(), Some(PANICS));
    assert_eq!(faults.get("slow_solves").unwrap().as_usize(), Some(SLOW));
    assert_eq!(
        faults.get("dropped_streams").unwrap().as_usize(),
        Some(DROPS)
    );
    assert_eq!(robustness.get("panics").unwrap().as_usize(), Some(PANICS));
    assert_eq!(robustness.get("timeouts").unwrap().as_usize(), Some(SLOW));
    assert_eq!(
        robustness.get("rejected_overload").unwrap().as_usize(),
        Some(0)
    );
    // The gauge counts the /metrics request reporting it.
    assert_eq!(robustness.get("in_flight").unwrap().as_usize(), Some(1));

    // Healthy traffic still cost one factorization total: 1 miss for
    // the shared healthy key (panicked builds cache nothing).
    let solve = doc.get("requests").unwrap().get("solve").unwrap();
    assert_eq!(solve.get("count").unwrap().as_usize(), Some(24));

    // No thread leak: the drain completes with nothing abandoned.
    let drain = server.shutdown();
    assert!(drain.drained, "shutdown failed to drain in-flight requests");
    assert_eq!(drain.abandoned, 0, "worker threads leaked past drain");
}

/// A panic mid-solve on a cached plan fails only its own request: the
/// plan is immutable, so the next request on the same key answers 200
/// with a body bit-identical to a server that never saw the panic, and
/// `/metrics` accounts for exactly the one injected panic.
#[test]
fn solve_panic_leaves_the_cached_plan_serving() {
    let config = || ServerConfig {
        fault_injection: true,
        ..ServerConfig::default()
    };
    let clean = spawn(config()).unwrap();
    let chaos = spawn(config()).unwrap();
    let body = healthy_body();

    // Prime the key on both servers (a miss each).
    for server in [&clean, &chaos] {
        let r = client::post(server.addr(), "/stream", &body).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }

    // The injected panic fires on the cache hit, inside the window sink
    // after the first window went out: the client sees a stream that was
    // cut mid-body, never a clean end-of-stream.
    let r = one_shot(chaos.addr()).request(
        "POST",
        "/stream",
        Some(&body),
        &[("X-Fault", "solve-panic")],
    );
    assert!(
        !matches!(&r, Ok(resp) if resp.status == 200 && resp.body.contains("\"done\"")),
        "panicked stream decoded cleanly: {r:?}"
    );

    // The next request on the same key is served from the same plan: a
    // complete stream (the status line goes out before the solve, so
    // completeness is the final `done` line after all four windows),
    // bit-identical to the clean server's.
    let got = client::post(chaos.addr(), "/stream", &body).unwrap();
    let want = client::post(clean.addr(), "/stream", &body).unwrap();
    assert_eq!(got.status, 200, "{}", got.body);
    let lines: Vec<Json> = got.body.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 5, "four windows + done: {}", got.body);
    assert_eq!(lines[4].get("done").unwrap().as_bool(), Some(true));
    assert_eq!(
        got.body, want.body,
        "post-panic body drifted from a clean run"
    );

    let doc = client::get(chaos.addr(), "/metrics")
        .unwrap()
        .json()
        .unwrap();
    let robustness = doc.get("robustness").unwrap();
    assert_eq!(robustness.get("panics").unwrap().as_usize(), Some(1));
    let faults = robustness.get("faults").unwrap();
    assert_eq!(faults.get("solve_panics").unwrap().as_usize(), Some(1));
    assert_eq!(faults.get("build_panics").unwrap().as_usize(), Some(0));
    assert_eq!(faults.get("slow_solves").unwrap().as_usize(), Some(0));
    assert_eq!(faults.get("dropped_streams").unwrap().as_usize(), Some(0));
    let cache = doc.get("plan_cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_usize(), Some(1));

    for server in [clean, chaos] {
        let drain = server.shutdown();
        assert!(drain.drained && drain.abandoned == 0);
    }
}
