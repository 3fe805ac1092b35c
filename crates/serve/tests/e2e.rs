//! End-to-end daemon tests over real sockets: round-trips against a
//! pinned netlist, cache-hit semantics visible in `/metrics`, streaming
//! ≡ whole-solve identity, and the HTTP error paths.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use opm_core::json::Json;
use opm_core::{Simulation, SolveOptions, WindowedOptions};
use opm_serve::api::{self, SimRequest};
use opm_serve::client::{Client, ClientConfig};
use opm_serve::{client, spawn, ServerConfig};

/// The pinned circuit every test speaks: the facade's 1 kΩ / 1 µF
/// low-pass.
const NETLIST: &str = "* RC low-pass\nV1 in 0 DC 5\nR1 in out 1k\nC1 out 0 1u\n.end";

fn solve_body() -> String {
    format!(
        r#"{{"netlist": {netlist:?}, "probes": ["out"], "horizon": 5e-3,
            "options": {{"resolution": 128}},
            "scenarios": [[{{"kind": "step", "level": 5.0}}]]}}"#,
        netlist = NETLIST
    )
}

/// The `"results": [...]` member a fresh in-process plan gives for a
/// `/solve` body, solved the way the daemon solves it — the reply must
/// end with exactly this text.
fn fresh_results_member(body: &str) -> String {
    let parsed = SimRequest::parse(body.as_bytes()).unwrap();
    let stimuli = parsed.stimuli().unwrap();
    let plan = parsed.sim.plan(&parsed.opts).unwrap();
    let windows = parsed.windows.unwrap_or(1);
    let results = plan
        .solve_windowed_batch_opts(&stimuli, &WindowedOptions::new(windows), 1)
        .unwrap();
    let doc = Json::Obj(vec![(
        "results".into(),
        Json::Arr(results.iter().map(api::result_json).collect()),
    )])
    .to_string();
    doc[1..doc.len() - 1].to_string()
}

/// Posts `body` and checks the reply is a plan-cache miss whose results
/// are byte-identical to a fresh in-process plan's; returns the reply.
fn post_fresh_miss(addr: std::net::SocketAddr, body: &str) -> Json {
    let r = client::post(addr, "/solve", body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(
        r.body
            .ends_with(&format!("{}}}", fresh_results_member(body))),
        "reply results differ from a fresh in-process plan"
    );
    let doc = r.json().unwrap();
    assert_eq!(doc.get("cache").unwrap().as_str(), Some("miss"));
    doc
}

fn outputs_of(result: &Json) -> Vec<f64> {
    result.get("outputs").unwrap().as_array().unwrap()[0]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect()
}

/// `/solve` round-trips: the wire result equals an in-process solve
/// bit-for-bit ({:e} floats are shortest-round-trip), and the second
/// identical request is a hit.
#[test]
fn solve_round_trip_and_cache_hit() {
    let server = spawn(ServerConfig::default()).unwrap();
    let body = solve_body();

    let cold = client::post(server.addr(), "/solve", &body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    let cold_doc = cold.json().unwrap();
    assert_eq!(cold_doc.get("cache").unwrap().as_str(), Some("miss"));

    let warm = client::post(server.addr(), "/solve", &body).unwrap();
    let warm_doc = warm.json().unwrap();
    assert_eq!(warm_doc.get("cache").unwrap().as_str(), Some("hit"));

    // Reference solve in-process.
    let sim = Simulation::from_netlist(NETLIST, &["out"])
        .unwrap()
        .horizon(5e-3);
    let plan = sim.plan(&SolveOptions::new().resolution(128)).unwrap();
    let want = plan
        .solve(&opm_waveform::InputSet::new(vec![
            opm_waveform::Waveform::step(0.0, 5.0),
        ]))
        .unwrap();

    for doc in [&cold_doc, &warm_doc] {
        let got = outputs_of(&doc.get("results").unwrap().as_array().unwrap()[0]);
        assert_eq!(got.len(), 128);
        for (g, w) in got.iter().zip(want.output_row(0)) {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "wire result must be bit-identical"
            );
        }
    }
    server.shutdown();
}

/// N identical requests cost one factorization total, visible in
/// `/metrics` — even when the N requests race from 4 threads.
#[test]
fn n_requests_one_factorization() {
    let server = spawn(ServerConfig::default()).unwrap();
    let body = format!(
        r#"{{"netlist": {NETLIST:?}, "probes": ["out"], "horizon": 5e-3,
            "options": {{"resolution": 128}}, "windows": 4,
            "scenarios": [[{{"kind": "step", "level": 5.0}}]]}}"#
    );

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..2 {
                    let r = client::post(server.addr(), "/solve", &body).unwrap();
                    assert_eq!(r.status, 200, "{}", r.body);
                }
            });
        }
    });

    let metrics = client::get(server.addr(), "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let doc = metrics.json().unwrap();
    let cache = doc.get("plan_cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_usize(), Some(1));
    assert_eq!(cache.get("hits").unwrap().as_usize(), Some(7));

    // 8 windowed solve requests, 1 symbolic + 1 numeric factorization.
    let plans = doc.get("plans").unwrap().as_array().unwrap();
    assert_eq!(plans.len(), 1);
    let profile = plans[0].get("profile").unwrap();
    let member = |k: &str| profile.get(k).unwrap().as_usize().unwrap();
    assert_eq!(member("num_symbolic"), 1);
    assert_eq!(member("num_numeric"), 1);
    // Two kernels, the recording's (W = 1) and W = 4, on one pattern:
    // 8 bytes per stored entry each.
    assert_eq!(member("kernel_bytes"), 2 * 8 * member("factor_nnz"));

    let solve = doc.get("requests").unwrap().get("solve").unwrap();
    assert_eq!(solve.get("count").unwrap().as_usize(), Some(8));
    server.shutdown();
}

/// `/sweep` solves one scenario per drive level against one plan.
#[test]
fn sweep_round_trip() {
    let server = spawn(ServerConfig::default()).unwrap();
    let body = format!(
        r#"{{"netlist": {NETLIST:?}, "probes": ["out"], "horizon": 5e-3,
            "options": {{"resolution": 128}}, "levels": [1.0, 2.0, 4.0]}}"#
    );
    let r = client::post(server.addr(), "/sweep", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = r.json().unwrap();
    let results = doc.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    // DC drives settle monotonically with the level.
    let finals: Vec<f64> = results
        .iter()
        .map(|r| *outputs_of(r).last().unwrap())
        .collect();
    assert!(finals[0] < finals[1] && finals[1] < finals[2]);
    server.shutdown();
}

/// `/sweep` honours `windows`: its `results` member is byte-identical to
/// `/solve` of the same DC drives over the same windows.
#[test]
fn windowed_sweep_equals_windowed_solve_of_its_dc_drives() {
    let server = spawn(ServerConfig::default()).unwrap();
    let body = |extra: &str| {
        format!(
            r#"{{"netlist": {NETLIST:?}, "probes": ["out"], "horizon": 5e-3,
                "options": {{"resolution": 128}}, "windows": 4{extra}}}"#
        )
    };
    let results = |path: &str, body: &str| {
        let r = client::post(server.addr(), path, body).unwrap();
        assert_eq!(r.status, 200, "{path}: {}", r.body);
        let at = r.body.find(r#""results":"#).expect("a results member");
        r.body[at..].to_string()
    };
    let swept = results("/sweep", &body(r#", "levels": [2.0, 5.0]"#));
    let solved = results(
        "/solve",
        &body(
            r#", "scenarios": [[{"kind": "dc", "value": 2.0}],
                               [{"kind": "dc", "value": 5.0}]]"#,
        ),
    );
    assert_eq!(swept, solved, "/sweep at W = 4 ≡ /solve at W = 4");
    server.shutdown();
}

/// Streaming NDJSON: concatenating the window blocks reproduces the
/// whole windowed solve bit-for-bit, and the final line carries the
/// plan profile.
#[test]
fn streaming_concat_equals_whole_solve() {
    let server = spawn(ServerConfig::default()).unwrap();
    let windows = 4;
    let stream_body = format!(
        r#"{{"netlist": {NETLIST:?}, "probes": ["out"], "horizon": 5e-3,
            "options": {{"resolution": 128}}, "windows": {windows},
            "scenarios": [[{{"kind": "step", "level": 5.0}}]]}}"#
    );
    let r = client::post(server.addr(), "/stream", &stream_body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    let lines: Vec<Json> = r.body.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), windows + 1, "one line per window + done");

    let mut concat: Vec<f64> = Vec::new();
    for (w, line) in lines[..windows].iter().enumerate() {
        assert_eq!(line.get("window").unwrap().as_usize(), Some(w));
        concat.extend(outputs_of(line.get("result").unwrap()));
    }
    let done = &lines[windows];
    assert_eq!(done.get("done").unwrap().as_bool(), Some(true));
    assert!(done.get("final_state").is_some());

    // The same request through /solve (windowed batch path).
    let whole = client::post(server.addr(), "/solve", &stream_body).unwrap();
    let whole_doc = whole.json().unwrap();
    let whole_out = outputs_of(&whole_doc.get("results").unwrap().as_array().unwrap()[0]);
    assert_eq!(concat.len(), whole_out.len());
    for (c, w) in concat.iter().zip(&whole_out) {
        assert_eq!(c.to_bits(), w.to_bits(), "stream concat ≡ whole solve");
    }
    server.shutdown();
}

/// A `/stream` request the plan refuses is a plain 400 with a JSON
/// `error` that speaks HTTP, not library API: the chunked 200 goes out
/// only with the first window block. The daemon keeps serving.
#[test]
fn stream_rejections_are_plain_400s() {
    let server = spawn(ServerConfig::default()).unwrap();
    let step = r#"[{"kind": "step", "level": 1.0}]"#;
    let two_steps = r#"[{"kind": "step", "level": 1.0}, {"kind": "step", "level": 2.0}]"#;
    let body = |netlist: &str, probe: &str, horizon: f64, options: &str, scenario: &str| {
        format!(
            r#"{{"netlist": {netlist:?}, "probes": [{probe:?}], "horizon": {horizon:e},
                "options": {options}, "windows": 4, "scenarios": [{scenario}]}}"#
        )
    };
    let cpe = "V1 in 0 DC 1\nR1 in top 100\nP1 top 0 CPE 1u 0.5\n.end";
    let m32 = r#"{"resolution": 32}"#;
    let cases = [
        // A fractional step grid has no window blocks to stream.
        body(cpe, "top", 1e-6, r#"{"step_grid": [4e-7, 6e-7]}"#, step),
        // Two channels for a one-source netlist.
        body(NETLIST, "out", 5e-3, m32, two_steps),
    ];
    for stream_body in &cases {
        let r = client::post(server.addr(), "/stream", stream_body).unwrap();
        assert_eq!(r.status, 400, "{stream_body}\n→ {}", r.body);
        let doc = r.json().unwrap();
        let error = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(!error.contains("SimPlan"), "{error}");
        let r = client::post(server.addr(), "/solve", &solve_body()).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    server.shutdown();
}

/// A diode netlist is served by every endpoint: `/stream`'s blocks
/// concatenate to `/solve`'s windowed result, and `/sweep` at the
/// source's level equals `/solve` of that DC drive, bit for bit.
#[test]
fn nonlinear_netlists_stream_and_sweep() {
    let server = spawn(ServerConfig::default()).unwrap();
    let diode = "* rectifier\nV1 in 0 SIN(0 1 1)\nR1 in a 0.1\nD1 a out 1e-14\nR2 out 0 10\n\
                 C1 out 0 0.2\n.end\n";
    let body = |extra: &str| {
        format!(
            r#"{{"netlist": {diode:?}, "probes": ["out"], "horizon": 1.0,
                "options": {{"resolution": 32}}{extra}}}"#
        )
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let windowed = body(r#", "windows": 3"#);
    let r = client::post(server.addr(), "/stream", &windowed).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let lines: Vec<Json> = r.body.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 4, "three window blocks and the done line");
    let streamed: Vec<f64> = lines[..3]
        .iter()
        .flat_map(|l| outputs_of(l.get("result").unwrap()))
        .collect();
    let solved = client::post(server.addr(), "/solve", &windowed).unwrap();
    assert_eq!(solved.status, 200, "{}", solved.body);
    let want = format!("{}}}", fresh_results_member(&windowed));
    assert!(
        solved.body.ends_with(&want),
        "/solve ≡ a fresh in-process plan"
    );
    let solved = outputs_of(
        &solved
            .json()
            .unwrap()
            .get("results")
            .unwrap()
            .as_array()
            .unwrap()[0],
    );
    assert_eq!(bits(&streamed), bits(&solved), "stream concat ≡ /solve");

    let dc = body(r#", "scenarios": [[{"kind": "dc", "value": 0.5}]]"#);
    let solved = client::post(server.addr(), "/solve", &dc).unwrap();
    assert_eq!(solved.status, 200, "{}", solved.body);
    let swept = client::post(server.addr(), "/sweep", &body(r#", "levels": [0.5, 0.9]"#)).unwrap();
    assert_eq!(swept.status, 200, "{}", swept.body);
    let (solved, swept) = (solved.json().unwrap(), swept.json().unwrap());
    let first = |doc: &Json| outputs_of(&doc.get("results").unwrap().as_array().unwrap()[0]);
    assert_eq!(
        bits(&first(&swept)),
        bits(&first(&solved)),
        "/sweep ≡ /solve"
    );
    assert_eq!(swept.get("results").unwrap().as_array().unwrap().len(), 2);
    server.shutdown();
}

/// A posted `model` whose dimensions exceed what its triplets back is a
/// 400 naming the member — never an allocation that aborts the daemon —
/// and the daemon serves the next request.
#[test]
fn oversized_model_dimensions_are_400s() {
    let server = spawn(ServerConfig::default()).unwrap();
    let model = |dims: &str| {
        format!(
            r#"{{"model": {{{dims}, "e": [[0, 0, 1.0]], "a": [[0, 0, -1.0]],
                 "b": [[0, 0, 1.0]], "c": [[0, 0, 1.0]]}},
                 "horizon": 1.0, "options": {{"resolution": 16}},
                 "scenarios": [[{{"kind": "dc", "value": 1.0}}]]}}"#
        )
    };
    for (dims, member) in [
        (
            r#""n": 1000000000000, "inputs": 1, "outputs": 1"#,
            "model.n",
        ),
        (
            r#""n": 1, "inputs": 1, "outputs": 1000000000000"#,
            "model.outputs",
        ),
    ] {
        let r = client::post(server.addr(), "/solve", &model(dims)).unwrap();
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains(member), "{}", r.body);
    }
    let r = client::post(
        server.addr(),
        "/solve",
        &model(r#""n": 1, "inputs": 1, "outputs": 1"#),
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    post_fresh(server.addr(), &solve_body(), "miss");
    server.shutdown();
}

/// The HTTP error paths answer with proper status codes and a JSON
/// `error` body.
#[test]
fn error_paths() {
    let server = spawn(ServerConfig {
        max_body: 512,
        ..ServerConfig::default()
    })
    .unwrap();

    // Malformed JSON → 400.
    let r = client::post(server.addr(), "/solve", "{not json").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.json().unwrap().get("error").is_some());

    // Valid JSON, bad request → 400 naming the field.
    let r = client::post(server.addr(), "/solve", r#"{"horizon": 1.0}"#).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("netlist"), "{}", r.body);

    // Unknown endpoint → 404; wrong method → 405.
    let r = client::post(server.addr(), "/nope", "{}").unwrap();
    assert_eq!(r.status, 404);
    let r = client::get(server.addr(), "/solve").unwrap();
    assert_eq!(r.status, 405);

    // Oversized body → 413.
    let big = format!(r#"{{"pad": "{}"}}"#, "x".repeat(1024));
    let r = client::post(server.addr(), "/solve", &big).unwrap();
    assert_eq!(r.status, 413);

    // POST without Content-Length → 411 (raw socket; the client helper
    // always sends one).
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"POST /solve HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 411"), "{reply}");

    server.shutdown();
}

/// A slowloris client — drip-feeds a partial request line and stalls —
/// hits the socket read timeout and gets a 408, counted in `/metrics`.
#[test]
fn slowloris_times_out_with_408() {
    let server = spawn(ServerConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    })
    .unwrap();

    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"POST /sol").unwrap(); // …and never finish the line
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");

    let doc = client::get(server.addr(), "/metrics")
        .unwrap()
        .json()
        .unwrap();
    let robustness = doc.get("robustness").unwrap();
    assert_eq!(robustness.get("timeouts").unwrap().as_usize(), Some(1));
    server.shutdown();
}

/// Header floods — too many header lines, or one line that blows the
/// byte budget — are rejected with 431 instead of buffered without
/// bound.
#[test]
fn header_floods_are_rejected_with_431() {
    let server = spawn(ServerConfig::default()).unwrap();

    // More header lines than the cap (default 64).
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut req = String::from("GET /metrics HTTP/1.1\r\nHost: x\r\n");
    for i in 0..80 {
        req.push_str(&format!("X-Pad-{i}: x\r\n"));
    }
    req.push_str("\r\n");
    raw.write_all(req.as_bytes()).unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");

    // One header line larger than the total byte budget (default
    // 16 KiB); the server stops reading at the budget, not at the
    // attacker's pleasure.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let giant = format!(
        "GET /metrics HTTP/1.1\r\nHost: x\r\nX-Big: {}\r\n\r\n",
        "x".repeat(17 << 10)
    );
    let _ = raw.write_all(giant.as_bytes()); // server may close mid-write
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");

    server.shutdown();
}

/// A client that vanishes mid-`/stream` must not take the daemon with
/// it: the next request succeeds and no panic is recorded.
#[test]
fn midstream_disconnect_leaves_server_healthy() {
    let server = spawn(ServerConfig::default()).unwrap();
    let body = format!(
        r#"{{"netlist": {NETLIST:?}, "probes": ["out"], "horizon": 5e-3,
            "options": {{"resolution": 128}}, "windows": 4,
            "scenarios": [[{{"kind": "step", "level": 5.0}}]]}}"#
    );

    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let head = format!(
        "POST /stream HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    raw.write_all(head.as_bytes()).unwrap();
    raw.write_all(body.as_bytes()).unwrap();
    // Read just the start of the status line, then slam the door while
    // the server is still streaming chunks.
    let mut first = [0u8; 16];
    raw.read_exact(&mut first).unwrap();
    assert_eq!(&first[..8], b"HTTP/1.1");
    drop(raw);

    // The daemon keeps serving, and the disconnect was not a panic.
    let r = client::post(server.addr(), "/solve", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = client::get(server.addr(), "/metrics")
        .unwrap()
        .json()
        .unwrap();
    let robustness = doc.get("robustness").unwrap();
    assert_eq!(robustness.get("panics").unwrap().as_usize(), Some(0));
    let drain = server.shutdown();
    assert!(drain.drained);
}

/// A burst past the connection cap is answered 503 + `Retry-After`
/// while the admitted requests run to successful completion.
#[test]
fn burst_past_connection_cap_gets_503() {
    let server = spawn(ServerConfig {
        max_connections: 2,
        fault_injection: true,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let body = solve_body();

    std::thread::scope(|s| {
        // Two slow requests occupy both slots…
        let occupants: Vec<_> = (0..2)
            .map(|_| {
                let body = &body;
                s.spawn(move || {
                    let one_shot = Client::with_config(
                        addr,
                        ClientConfig {
                            retries: 0,
                            ..ClientConfig::default()
                        },
                    );
                    one_shot
                        .request(
                            "POST",
                            "/solve",
                            Some(body),
                            &[("X-Fault", "slow-solve=1500")],
                        )
                        .unwrap()
                })
            })
            .collect();

        // …wait until both are admitted, then burst past the cap.
        let started = std::time::Instant::now();
        while server.in_flight() < 2 {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "slow occupants were never admitted"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        for _ in 0..3 {
            let r = client::post(addr, "/solve", &body).unwrap();
            assert_eq!(r.status, 503, "{}", r.body);
            assert_eq!(r.header("retry-after"), Some("1"));
        }

        // The admitted requests were not harmed by the burst.
        for h in occupants {
            let r = h.join().unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
        }
    });

    let doc = client::get(addr, "/metrics").unwrap().json().unwrap();
    let robustness = doc.get("robustness").unwrap();
    assert_eq!(
        robustness.get("rejected_overload").unwrap().as_usize(),
        Some(3)
    );
    let drain = server.shutdown();
    assert!(drain.drained && drain.abandoned == 0);
}

/// A raw-triplet model request (no netlist) solves and hits like any
/// other.
#[test]
fn raw_model_entry() {
    let server = spawn(ServerConfig::default()).unwrap();
    // ẋ = −x + u, y = x.
    let body = r#"{
        "model": {"n": 1, "inputs": 1, "outputs": 1,
                  "e": [[0, 0, 1.0]], "a": [[0, 0, -1.0]],
                  "b": [[0, 0, 1.0]], "c": [[0, 0, 1.0]]},
        "horizon": 1.0, "options": {"resolution": 256},
        "scenarios": [[{"kind": "dc", "value": 1.0}]]
    }"#;
    let r = client::post(server.addr(), "/solve", body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = r.json().unwrap();
    let out = outputs_of(&doc.get("results").unwrap().as_array().unwrap()[0]);
    // Step response of a unit lag: 1 − e^{−t} at the last midpoint.
    let t = 1.0 - 0.5 / out.len() as f64;
    let want = 1.0 - (-t).exp();
    assert!((out.last().unwrap() - want).abs() < 1e-2);

    // A model request without scenarios has no fallback stimulus → 400.
    let r = client::post(
        server.addr(),
        "/solve",
        r#"{"model": {"n": 1, "inputs": 1, "e": [[0,0,1.0]], "a": [[0,0,-1.0]],
             "b": [[0,0,1.0]]}, "horizon": 1.0, "options": {"resolution": 64}}"#,
    )
    .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("scenarios"), "{}", r.body);
    server.shutdown();
}

/// Two rectifier netlists that differ only in the diode's `Is` are two
/// plans: both requests miss, and each reply is its own netlist's fresh
/// solve — never the other diode's.
#[test]
fn device_parameters_key_their_own_plans() {
    let server = spawn(ServerConfig::default()).unwrap();
    let body = |is: &str| {
        let netlist = format!(
            "* rectifier\nV1 in 0 SIN(0 1 1)\nR1 in a 0.1\nD1 a out {is}\nR2 out 0 10\n\
             C1 out 0 0.2\n.end\n"
        );
        format!(
            r#"{{"netlist": {netlist:?}, "probes": ["out"], "horizon": 1.0,
                "options": {{"resolution": 64}}, "windows": 2}}"#
        )
    };
    let (weak, strong) = (body("1e-14"), body("1e-9"));
    let a = post_fresh_miss(server.addr(), &weak);
    let b = post_fresh_miss(server.addr(), &strong);
    assert_ne!(
        a.get("results").unwrap().to_string(),
        b.get("results").unwrap().to_string(),
        "the diodes differ, so must the waveforms"
    );
    let doc = client::get(server.addr(), "/metrics")
        .unwrap()
        .json()
        .unwrap();
    let cache = doc.get("plan_cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_usize(), Some(2));
    assert_eq!(cache.get("hits").unwrap().as_usize(), Some(0));
    server.shutdown();
}

/// A one-resistor variant of a primed netlist misses the plan tier but
/// hits the pattern tier: its build books 0 symbolic + 1 numeric
/// factorizations, its results are byte-identical to a fresh plan's, and
/// `/metrics` counts one pattern hit.
#[test]
fn value_variant_is_a_pattern_hit() {
    let server = spawn(ServerConfig::default()).unwrap();
    let body = |ohms: &str| {
        let netlist = format!("* RC low-pass\nV1 in 0 DC 5\nR1 in out {ohms}\nC1 out 0 1u\n.end");
        format!(
            r#"{{"netlist": {netlist:?}, "probes": ["out"], "horizon": 5e-3,
                "options": {{"resolution": 128}},
                "scenarios": [[{{"kind": "step", "level": 5.0}}]]}}"#
        )
    };
    let member = |doc: &Json, k: &str| {
        let p = doc.get("profile").unwrap();
        p.get(k).unwrap().as_usize().unwrap()
    };
    let primer = post_fresh_miss(server.addr(), &body("1k"));
    assert_eq!(member(&primer, "num_symbolic"), 1);
    let variant = post_fresh_miss(server.addr(), &body("2.2k"));
    assert_eq!(member(&variant, "num_symbolic"), 0);
    assert_eq!(member(&variant, "num_numeric"), 1);
    // Each plan holds one kernel, its values on the shared pattern.
    for doc in [&primer, &variant] {
        assert_eq!(member(doc, "kernel_bytes"), 8 * member(doc, "factor_nnz"));
    }

    let doc = client::get(server.addr(), "/metrics")
        .unwrap()
        .json()
        .unwrap();
    let cache = doc.get("plan_cache").unwrap();
    let count = |k: &str| cache.get(k).unwrap().as_usize().unwrap();
    assert_eq!((count("misses"), count("hits")), (2, 0));
    assert_eq!(
        (
            count("pattern_hits"),
            count("pattern_misses"),
            count("pattern_fallbacks")
        ),
        (1, 1, 0)
    );
    server.shutdown();
}

/// A singular raw-model body on a pattern the daemon has analysed
/// builds its plan without factoring and fails at its first solve —
/// with the status and body a fresh daemon answers from its failed plan
/// build — and the next healthy body on the pattern is served.
#[test]
fn singular_pattern_hit_fails_as_on_a_fresh_daemon() {
    // σE − A over a full 2×2 pattern; (1, 1, −1, −1) makes every row
    // of both matrices equal, so the pencil is singular at every σ.
    let body = |e01: f64, a01: f64| {
        format!(
            r#"{{"model": {{"n": 2, "inputs": 1,
                 "e": [[0, 0, 1.0], [0, 1, {e01:e}], [1, 0, {e01:e}], [1, 1, 1.0]],
                 "a": [[0, 0, -1.0], [0, 1, {a01:e}], [1, 0, {a01:e}], [1, 1, -1.0]],
                 "b": [[0, 0, 1.0]]}},
                "horizon": 1.0, "options": {{"resolution": 32}},
                "scenarios": [[{{"kind": "dc", "value": 1.0}}]]}}"#
        )
    };
    let singular = body(1.0, -1.0);
    let fresh = spawn(ServerConfig::default()).unwrap();
    let want = client::post(fresh.addr(), "/solve", &singular).unwrap();
    fresh.shutdown();
    assert_eq!(want.status, 400, "{}", want.body);
    assert!(want.body.contains("singular"), "{}", want.body);

    let server = spawn(ServerConfig::default()).unwrap();
    post_fresh_miss(server.addr(), &body(0.5, 0.1));
    let got = client::post(server.addr(), "/solve", &singular).unwrap();
    assert_eq!((got.status, &got.body), (want.status, &want.body));
    let names = ["pattern_hits", "pattern_misses"];
    assert_eq!(cache_counts(server.addr(), &names), vec![1, 1]);
    post_fresh_miss(server.addr(), &body(0.25, 0.2));
    server.shutdown();
}

/// The `plan_cache` counters of a `/metrics` snapshot.
fn cache_counts(addr: std::net::SocketAddr, names: &[&str]) -> Vec<usize> {
    let doc = client::get(addr, "/metrics").unwrap().json().unwrap();
    let cache = doc.get("plan_cache").unwrap();
    names
        .iter()
        .map(|k| cache.get(k).and_then(Json::as_usize).unwrap())
        .collect()
}

/// Posts `body` and checks the reply's `"cache"` field and that its
/// results are byte-identical to a fresh in-process plan's.
fn post_fresh(addr: std::net::SocketAddr, body: &str, cache: &str) {
    let r = client::post(addr, "/solve", body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(
        r.body.starts_with(&format!(r#"{{"cache": "{cache}""#)),
        "expected a plan {cache}: {}",
        &r.body[..40]
    );
    assert!(
        r.body
            .ends_with(&format!("{}}}", fresh_results_member(body))),
        "reply results differ from a fresh in-process plan"
    );
}

/// Two netlists that differ only in whitespace are two pre-keys but one
/// plan: the second is a pre-key miss and a plan hit. Repeating either
/// is a pre-key hit.
#[test]
fn whitespace_variants_are_two_prekeys_one_plan() {
    let server = spawn(ServerConfig::default()).unwrap();
    let body = |netlist: &str| {
        format!(
            r#"{{"netlist": {netlist:?}, "probes": ["out"], "horizon": 5e-3,
                "options": {{"resolution": 128}},
                "scenarios": [[{{"kind": "step", "level": 5.0}}]]}}"#
        )
    };
    let (tight, loose) = (
        body(NETLIST),
        body("* RC low-pass\nV1 in 0 DC 5\nR1  in out   1k\n\nC1 out 0 1u\n.end\n"),
    );
    post_fresh(server.addr(), &tight, "miss");
    post_fresh(server.addr(), &loose, "hit");
    post_fresh(server.addr(), &loose, "hit");
    let names = ["misses", "hits", "prekey_misses", "prekey_hits"];
    assert_eq!(cache_counts(server.addr(), &names), [1, 2, 2, 1]);
    server.shutdown();
}

/// `x0: [-0.0]` and `x0: [0.0]` are equal as JSON values but distinct
/// plan inputs: two pre-keys, two plans, each reply its own fresh solve.
#[test]
fn signed_zero_x0_keys_distinct_prekeys() {
    let server = spawn(ServerConfig::default()).unwrap();
    let body = |x0: &str| {
        format!(
            r#"{{"model": {{"n": 1, "inputs": 1, "e": [[0, 0, 1.0]], "a": [[0, 0, -1.0]],
                            "b": [[0, 0, 1.0]]}},
                "horizon": 1.0, "x0": [{x0}], "options": {{"resolution": 32}},
                "scenarios": [[{{"kind": "dc", "value": 1.0}}]]}}"#
        )
    };
    post_fresh(server.addr(), &body("0.0"), "miss");
    post_fresh(server.addr(), &body("-0.0"), "miss");
    post_fresh(server.addr(), &body("-0.0"), "hit");
    let names = ["misses", "hits", "prekey_misses", "prekey_hits"];
    assert_eq!(cache_counts(server.addr(), &names), [2, 1, 2, 1]);
    server.shutdown();
}

/// Rectifier bodies that differ only in their `SIN` source share one
/// plan, and without `scenarios` each reply is driven by its own
/// netlist's source — on a pre-key miss and on a pre-key hit alike.
#[test]
fn diode_bodies_answer_from_their_own_sources() {
    let server = spawn(ServerConfig::default()).unwrap();
    let bodies: Vec<String> = ["0.8", "1", "1.2"]
        .iter()
        .map(|ampl| {
            let netlist = format!(
                "* rectifier\nV1 in 0 SIN(0 {ampl} 1)\nR1 in a 0.1\nD1 a out 1e-14\n\
                 R2 out 0 10\nC1 out 0 0.2\n.end\n"
            );
            format!(
                r#"{{"netlist": {netlist:?}, "probes": ["out"], "horizon": 1.0,
                    "options": {{"resolution": 64}}, "windows": 2}}"#
            )
        })
        .collect();
    post_fresh(server.addr(), &bodies[0], "miss");
    for body in bodies[1..].iter().chain(&bodies) {
        post_fresh(server.addr(), body, "hit");
    }
    let names = ["misses", "hits", "prekey_misses", "prekey_hits"];
    assert_eq!(cache_counts(server.addr(), &names), [1, 5, 3, 3]);
    server.shutdown();
}

/// A plan evicted while its pre-key entry lives is rebuilt under the
/// same key, once for racing requests, and answers bit-identically.
///
/// With capacity 2: A and B fill both tiers; a `/sweep` of A without
/// `levels` touches A's pre-key entry but fails before its plan, so C
/// evicts pre-key B and plan A.
#[test]
fn evicted_plan_under_live_prekey_rebuilds_once() {
    let server = spawn(ServerConfig {
        cache_capacity: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let body = |horizon: &str| {
        format!(
            r#"{{"netlist": {NETLIST:?}, "probes": ["out"], "horizon": {horizon},
                "options": {{"resolution": 64}}, "windows": 2,
                "scenarios": [[{{"kind": "step", "level": 5.0}}]]}}"#
        )
    };
    let (a, b, c) = (body("5e-3"), body("6e-3"), body("7e-3"));
    post_fresh(addr, &a, "miss");
    post_fresh(addr, &b, "miss");
    let r = client::post(addr, "/sweep", &a).unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    post_fresh(addr, &c, "miss");
    let names = [
        "misses",
        "hits",
        "evictions",
        "prekey_misses",
        "prekey_hits",
    ];
    assert_eq!(cache_counts(addr, &names), [3, 0, 1, 3, 1]);

    let want = format!("{}}}", fresh_results_member(&a));
    let replies: Vec<String> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..4)
            .map(|_| s.spawn(|| client::post(addr, "/solve", &a).unwrap()))
            .collect();
        racers
            .into_iter()
            .map(|h| {
                let r = h.join().unwrap();
                assert_eq!(r.status, 200, "{}", r.body);
                assert!(r.body.ends_with(&want), "rebuilt plan drifted");
                r.body
            })
            .collect()
    });
    let rebuilt = replies
        .iter()
        .filter(|r| r.starts_with(r#"{"cache": "miss""#))
        .count();
    assert_eq!(rebuilt, 1, "racers on an evicted plan rebuild it once");
    assert_eq!(cache_counts(addr, &names), [4, 3, 2, 3, 5]);
    post_fresh(addr, &a, "hit");
    server.shutdown();
}

/// A request that would abort the process on allocation — a resolution
/// or window count whose columns or memory kernel no allocator can meet
/// — is a 400, on linear, fractional and Newton plans alike, and the
/// daemon serves the next request.
#[test]
fn oversized_solves_are_refused_not_fatal() {
    let server = spawn(ServerConfig::default()).unwrap();
    let rc = "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1u\n.end";
    let cpe = "V1 in 0 DC 1\nR1 in out 1k\nP1 out 0 CPE 1e-6 0.5\n.end";
    let diode = "V1 in 0 SIN(0 1 1)\nR1 in a 0.1\nD1 a out 1e-14\nR2 out 0 10\nC1 out 0 0.2\n.end";
    let huge = 10_000_000_000u64;
    for (netlist, resolution, windows) in [
        (rc, huge, 1),
        (rc, 64, huge),
        (cpe, huge, 1),
        (cpe, 64, huge),
        (diode, huge, 1),
    ] {
        let body = format!(
            r#"{{"netlist": {netlist:?}, "probes": ["out"], "horizon": 1e-3,
                "options": {{"resolution": {resolution}}}, "windows": {windows}}}"#
        );
        let r = client::post(server.addr(), "/solve", &body).unwrap();
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("cannot be allocated"), "{}", r.body);
    }
    post_fresh(server.addr(), &solve_body(), "miss");
    server.shutdown();
}

/// `options` is an object whose only members are `resolution` and
/// `step_grid`: anything else — a misspelt option, the retired
/// `method`, a non-object — is a 400 naming it, never a request solved
/// with defaults. The daemon serves the next request.
#[test]
fn unknown_options_members_are_400s() {
    let server = spawn(ServerConfig::default()).unwrap();
    for (options, needle) in [
        (
            r#"{"resolution": 32, "method": "kronecker"}"#,
            "`options.method`",
        ),
        (
            r#"{"resolution": 32, "adaptive": {"tol": 1e-3}}"#,
            "`options.adaptive`",
        ),
        (
            r#"{"resolution": 32, "Resolution": 64}"#,
            "`options.Resolution`",
        ),
        ("5", "`options` must be an object"),
        ("[32]", "`options` must be an object"),
    ] {
        let body = format!(
            r#"{{"netlist": {NETLIST:?}, "probes": ["out"], "horizon": 5e-3,
                "options": {options}}}"#
        );
        let r = client::post(server.addr(), "/solve", &body).unwrap();
        assert_eq!(r.status, 400, "{options}\n→ {}", r.body);
        assert!(r.body.contains(needle), "{}", r.body);
    }
    post_fresh(server.addr(), &solve_body(), "miss");
    server.shutdown();
}

/// A step grid that sums to the horizon but holds a step that is not
/// positive and finite is a 400 naming the step, not a planner panic:
/// `robustness.panics` stays 0 and the daemon serves the next request.
#[test]
fn non_positive_grid_steps_are_400s() {
    let server = spawn(ServerConfig::default()).unwrap();
    let cpe = "V1 in 0 DC 1\nR1 in top 100\nP1 top 0 CPE 1u 0.5\n.end";
    for (grid, needle) in [
        ("[5e-7, -1e-7, 6e-7]", "step 1"),
        ("[5e-7, 0, 5e-7]", "step 1"),
    ] {
        let body = format!(
            r#"{{"netlist": {cpe:?}, "probes": ["top"], "horizon": 1e-6,
                "options": {{"step_grid": {grid}}}}}"#
        );
        let r = client::post(server.addr(), "/solve", &body).unwrap();
        assert_eq!(r.status, 400, "{grid}\n→ {}", r.body);
        assert!(r.body.contains(needle), "{}", r.body);
    }
    let doc = client::get(server.addr(), "/metrics")
        .unwrap()
        .json()
        .unwrap();
    let robustness = doc.get("robustness").unwrap();
    assert_eq!(robustness.get("panics").unwrap().as_usize(), Some(0));
    post_fresh(server.addr(), &solve_body(), "miss");
    server.shutdown();
}

/// A netlist value that overflows once scaled (`1.7e308k`) is a 400
/// naming the value, not a plan in which the resistor is silently an
/// open circuit; a PULSE shape the waveform refuses is a 400 too, not a
/// panic; the daemon serves the next request.
#[test]
fn overflowing_netlist_values_are_400s() {
    let server = spawn(ServerConfig::default()).unwrap();
    for (netlist, needle) in [
        (
            "V1 in 0 DC 5\nR1 in out 1.7e308k\nC1 out 0 1u\n.end",
            "bad value '1.7e308k'",
        ),
        (
            "V1 in 0 PULSE(0 1 0 0 1m 0 0)\nR1 in out 1k\nC1 out 0 1u\n.end",
            "PULSE rise and fall must be positive",
        ),
    ] {
        let body = format!(
            r#"{{"netlist": {netlist:?}, "probes": ["out"], "horizon": 5e-3,
                "options": {{"resolution": 16}}}}"#
        );
        let r = client::post(server.addr(), "/solve", &body).unwrap();
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains(needle), "{}", r.body);
    }
    post_fresh(server.addr(), &solve_body(), "miss");
    server.shutdown();
}

/// A JSON PULSE or EXP shape the waveform refuses is a 400 carrying the
/// waveform's own message, not a panic; the daemon serves the next
/// request.
#[test]
fn refused_json_waveform_shapes_are_400s() {
    let server = spawn(ServerConfig::default()).unwrap();
    for (waveform, needle) in [
        (
            r#"{"kind": "pulse", "v1": 0, "v2": 1, "rise": 0, "width": 1e-3, "fall": 1e-4}"#,
            "PULSE rise and fall must be positive",
        ),
        (
            r#"{"kind": "exp", "v1": 0, "v2": 1, "td1": 2e-3, "tau1": 1e-4, "td2": 1e-3, "tau2": 1e-4}"#,
            "EXP decay must start after the rise",
        ),
    ] {
        let body = format!(
            r#"{{"netlist": {NETLIST:?}, "probes": ["out"], "horizon": 5e-3,
                "options": {{"resolution": 16}}, "scenarios": [[{waveform}]]}}"#
        );
        let r = client::post(server.addr(), "/solve", &body).unwrap();
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains(needle), "{}", r.body);
    }
    post_fresh(server.addr(), &solve_body(), "miss");
    server.shutdown();
}

/// Whole-horizon solves poll the compute deadline inside their sweep:
/// a `/solve` without `windows` and a `/sweep` on a 64-section R–CPE
/// ladder at 32,768 columns and 32 scenarios — a sweep of several
/// seconds — get a 503 soon after a 50 ms deadline, `/metrics` counts
/// both timeouts, and the next request is served.
#[test]
fn whole_horizon_solves_honor_the_compute_deadline() {
    let server = spawn(ServerConfig {
        compute_deadline: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut netlist = String::from("* R-CPE ladder\nV1 in 0 DC 1\n");
    let mut prev = "in".to_string();
    for k in 1..=64 {
        netlist.push_str(&format!("R{k} {prev} n{k} 100\nP{k} n{k} 0 CPE 1e-6 0.5\n"));
        prev = format!("n{k}");
    }
    netlist.push_str(".end\n");
    let levels: Vec<String> = (0..32)
        .map(|i| format!("{}", 1.0 + 0.1 * i as f64))
        .collect();
    let plan = format!(
        r#""netlist": {netlist:?}, "probes": ["n64"], "horizon": 1e-3,
            "options": {{"resolution": 32768}}"#
    );
    let scenarios: Vec<String> = levels
        .iter()
        .map(|v| format!(r#"[{{"kind": "step", "level": {v}}}]"#))
        .collect();
    for (path, body) in [
        (
            "/solve",
            format!(r#"{{{plan}, "scenarios": [{}]}}"#, scenarios.join(", ")),
        ),
        (
            "/sweep",
            format!(r#"{{{plan}, "levels": [{}]}}"#, levels.join(", ")),
        ),
    ] {
        let started = Instant::now();
        let r = client::post(server.addr(), path, &body).unwrap();
        let took = started.elapsed();
        assert_eq!(r.status, 503, "{path}: {}", r.body);
        assert!(r.body.contains("compute deadline"), "{}", r.body);
        assert!(
            took < Duration::from_millis(1500),
            "{path}: 503 after {took:?}"
        );
    }
    let doc = client::get(server.addr(), "/metrics")
        .unwrap()
        .json()
        .unwrap();
    let robustness = doc.get("robustness").unwrap();
    assert_eq!(robustness.get("timeouts").unwrap().as_usize(), Some(2));
    post_fresh(server.addr(), &solve_body(), "miss");
    server.shutdown();
}
