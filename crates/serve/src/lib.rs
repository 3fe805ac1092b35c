//! **opm-serve** — a multi-tenant simulation daemon over the session
//! API, with a keyed [`PlanCache`] so repeated plan requests skip
//! symbolic *and* numeric factorization entirely.
//!
//! Hermetic and std-only: the HTTP/1.1 framing ([`http`]) and the JSON
//! dialect ([`api`], backed by [`opm_core::json`]) are in-tree, in the
//! spirit of the workspace's `opm-rng` stand-in for `rand`. Endpoints:
//!
//! | Endpoint | Body | Response |
//! |---|---|---|
//! | `POST /solve` | model/netlist + scenario batch | results per scenario |
//! | `POST /sweep` | model/netlist + `levels` | one result per drive level |
//! | `POST /stream` | model/netlist + `windows` | chunked NDJSON, one line per window block |
//! | `GET /metrics` | — | cache counters, per-plan profiles, latencies, robustness counters |
//!
//! Every endpoint serves every netlist, diodes and MOSFETs included: the
//! plan picks how a column is solved (block solve or Newton iteration),
//! and `/sweep` is `/solve` with DC-level stimuli and the `levels`
//! echoed.
//!
//! Every request that needs a plan goes through one shared
//! [`PlanCache`] keyed by [`opm_core::cache::plan_key`]; a repeated
//! identical request is a **hit** — pure solve work against the interned
//! `Arc<SimPlan>`, concurrently with every other connection (plans are
//! `Sync`; batch solves fan out over `opm-par` worker threads
//! internally). In front of it sits a request-level **pre-key** tier
//! keyed by the posted plan-input members themselves (`netlist` or
//! `model`, `probes`, `horizon`, `x0`, `options`), so a request that
//! repeats them skips netlist parse, MNA assembly and the structural
//! hash too: its hit, confirmed bit for bit, goes straight to the plan
//! under the stored key (see the `prekey` module; `/metrics` counts it
//! in `plan_cache.prekey_hits`/`prekey_misses`). The `"cache"` field
//! and `plan_cache.hits`/`misses` still describe the plan tier: every
//! request that reaches it is exactly one plan hit or miss. `/metrics`
//! exposes the per-plan
//! [`opm_core::FactorProfile`], so N identical solve requests visibly
//! cost 1 symbolic + 1 numeric factorization total. A miss that only
//! changes values on a pattern the cache has analysed — one resistor
//! edited — still answers `"cache": "miss"`, but its build shares the
//! interned analysis and factors nothing, its window kernel replaying
//! that analysis (0 symbolic + 1 numeric), bit-identical to a fresh
//! plan; `/metrics` counts those under `plan_cache.pattern_hits`.
//!
//! # Fault tolerance
//!
//! The daemon assumes clients and solves will misbehave and degrades
//! per-request, never per-process:
//!
//! - **Deadlines.** Socket reads/writes carry OS timeouts
//!   ([`ServerConfig::read_timeout`] / [`ServerConfig::write_timeout`];
//!   a drip-feeding client gets 408), and
//!   [`ServerConfig::compute_deadline`] arms a cooperative
//!   [`CancelToken`] per request — every solve polls it (every 64
//!   columns of a uniform sweep, whole-horizon or windowed, every
//!   step-grid column and every Newton iteration) and bails with 503
//!   instead of pinning a thread.
//! - **Backpressure.** At most [`ServerConfig::max_connections`]
//!   requests run at once; beyond that the accept loop answers
//!   503 + `Retry-After` immediately instead of spawning an unbounded
//!   thread herd. [`Server::shutdown`] stops accepting, then drains
//!   in-flight requests up to a deadline and reports [`DrainStats`].
//! - **Panic isolation.** Each connection runs under `catch_unwind`: a
//!   panicking handler answers 500, bumps the `panics` counter, and
//!   the daemon keeps serving. The plan cache recovers from poisoned
//!   locks, per-key build latches keep one request's build panic from
//!   corrupting any other key, and a cached plan holds no lock at all
//!   (it is immutable once built), so a panic mid-solve leaves the plan
//!   serving the next request on its key unchanged.
//! - **Fault injection.** With [`ServerConfig::fault_injection`] on
//!   (tests only), the [`fault`] module turns `X-Fault` request
//!   headers into deterministic build panics, mid-solve panics, slow
//!   solves, and mid-stream socket drops — the chaos harness in
//!   `tests/chaos.rs` drives these against healthy traffic.
//!
//! ```no_run
//! let server = opm_serve::spawn(opm_serve::ServerConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! // … point clients at it …
//! let drain = server.shutdown();
//! assert!(drain.drained);
//! ```

// No unsafe anywhere in this crate; the only unsafe in the workspace
// is the audited AVX panel dispatch in opm-{core,sparse,fracnum}.
#![forbid(unsafe_code)]

pub mod api;
pub mod client;
pub mod fault;
pub mod http;
mod prekey;

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use opm_core::cache::{plan_key, PlanKey};
use opm_core::json::Json;
use opm_core::{CancelToken, OpmError, PlanCache, SimPlan, WindowedOptions};
use opm_waveform::{InputSet, Waveform};

use api::{error_json, ApiError, SimRequest};
use fault::{FaultSpec, FaultStats};
use http::{ChunkedWriter, Limits, Request};
use prekey::{Lookup, PreEntry, PreKeyTier};

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Plans interned at once (LRU beyond this).
    pub cache_capacity: usize,
    /// Request-body cap in bytes; beyond it the daemon answers 413.
    pub max_body: usize,
    /// Most header lines per request; beyond it the daemon answers 431.
    pub max_headers: usize,
    /// Byte budget for request line + headers; beyond it → 431.
    pub max_header_bytes: usize,
    /// OS-level socket read timeout; an expired read answers 408.
    /// `None` disables the timeout (not recommended outside tests).
    pub read_timeout: Option<Duration>,
    /// OS-level socket write timeout; an expired write drops the
    /// connection.
    pub write_timeout: Option<Duration>,
    /// Per-request compute budget, enforced cooperatively inside every
    /// solve (see [`CancelToken`]) → 503 when exceeded. `None` means no
    /// compute deadline.
    pub compute_deadline: Option<Duration>,
    /// Concurrent-request cap; excess connections get an immediate
    /// 503 + `Retry-After` instead of a thread.
    pub max_connections: usize,
    /// How long [`Server::shutdown`] waits for in-flight requests.
    pub drain_timeout: Duration,
    /// Honor `X-Fault` request headers (see [`fault`]). Keep `false`
    /// outside chaos tests: when `false` the header is ignored and the
    /// injection hooks are never consulted.
    pub fault_injection: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            cache_capacity: 32,
            max_body: 8 << 20,
            max_headers: 64,
            max_header_bytes: 16 << 10,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            compute_deadline: None,
            max_connections: 256,
            drain_timeout: Duration::from_secs(5),
            fault_injection: false,
        }
    }
}

/// Poison-recovering lock: a panic in one connection thread (isolated
/// by `catch_unwind`, but it may have held a lock) must not wedge the
/// daemon's shared counters.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Request-latency counters (microseconds), one instance per endpoint.
#[derive(Debug, Default)]
struct Latency {
    count: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Latency {
    fn record(&self, micros: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    fn to_json(&self) -> Json {
        let count = self.count.load(Ordering::Relaxed);
        let total = self.total_micros.load(Ordering::Relaxed);
        Json::Obj(vec![
            ("count".into(), Json::Int(count as i64)),
            ("total_micros".into(), Json::Int(total as i64)),
            (
                "max_micros".into(),
                Json::Int(self.max_micros.load(Ordering::Relaxed) as i64),
            ),
            (
                "mean_micros".into(),
                Json::Num(if count == 0 {
                    0.0
                } else {
                    total as f64 / count as f64
                }),
            ),
        ])
    }
}

/// State shared by every connection thread.
struct ServerState {
    cache: PlanCache,
    prekeys: PreKeyTier,
    limits: Limits,
    compute_deadline: Option<Duration>,
    fault_injection: bool,
    max_connections: usize,
    solve: Latency,
    sweep: Latency,
    stream: Latency,
    metrics: Latency,
    errors: AtomicU64,
    panics: AtomicU64,
    timeouts: AtomicU64,
    rejected_overload: AtomicU64,
    faults: FaultStats,
    /// Admission-controlled concurrent-request gauge; the condvar
    /// signals `shutdown` when it returns to zero.
    in_flight: Mutex<usize>,
    idle: Condvar,
}

/// Holds one slot of the connection-count budget; releasing it on drop
/// (even on panic) is what keeps the gauge honest and lets `shutdown`
/// observe the drain.
struct ConnGuard {
    state: Arc<ServerState>,
}

impl ConnGuard {
    fn try_acquire(state: &Arc<ServerState>) -> Option<ConnGuard> {
        let mut n = lock(&state.in_flight);
        if *n >= state.max_connections {
            return None;
        }
        *n += 1;
        Some(ConnGuard {
            state: Arc::clone(state),
        })
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut n = lock(&self.state.in_flight);
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.state.idle.notify_all();
        }
    }
}

/// What [`Server::shutdown`] observed while draining.
#[derive(Clone, Copy, Debug)]
pub struct DrainStats {
    /// Every in-flight request finished within the drain deadline.
    pub drained: bool,
    /// Worker threads still running when the deadline hit; they are
    /// detached, not killed (cooperative deadlines reclaim them).
    pub abandoned: usize,
}

/// A running daemon; dropping it (or calling [`Server::shutdown`])
/// stops the accept loop.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    state: Arc<ServerState>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    drain_timeout: Duration,
}

/// Binds and starts serving on a background accept loop,
/// thread-per-connection behind a connection-count admission gate.
///
/// # Errors
/// I/O errors from binding the listener.
pub fn spawn(config: ServerConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let state = Arc::new(ServerState {
        cache: PlanCache::new(config.cache_capacity),
        prekeys: PreKeyTier::new(config.cache_capacity),
        limits: Limits {
            max_body: config.max_body,
            max_headers: config.max_headers,
            max_header_bytes: config.max_header_bytes,
        },
        compute_deadline: config.compute_deadline,
        fault_injection: config.fault_injection,
        max_connections: config.max_connections,
        solve: Latency::default(),
        sweep: Latency::default(),
        stream: Latency::default(),
        metrics: Latency::default(),
        errors: AtomicU64::new(0),
        panics: AtomicU64::new(0),
        timeouts: AtomicU64::new(0),
        rejected_overload: AtomicU64::new(0),
        faults: FaultStats::default(),
        in_flight: Mutex::new(0),
        idle: Condvar::new(),
    });
    let workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_stop = Arc::clone(&stop);
    let accept_state = Arc::clone(&state);
    let accept_workers = Arc::clone(&workers);
    let (read_timeout, write_timeout) = (config.read_timeout, config.write_timeout);
    let accept_thread = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = conn else { continue };
            let _ = stream.set_read_timeout(read_timeout);
            let _ = stream.set_write_timeout(write_timeout);
            let Some(guard) = ConnGuard::try_acquire(&accept_state) else {
                accept_state
                    .rejected_overload
                    .fetch_add(1, Ordering::Relaxed);
                // Rejections get a throwaway thread (never the accept
                // loop, never a gauge slot): its lifetime is hard-capped
                // by the drain timeout inside, so overload cannot grow
                // an unbounded herd out of it.
                std::thread::spawn(move || reject_overloaded(&mut stream));
                continue;
            };
            let state = Arc::clone(&accept_state);
            let handle = std::thread::spawn(move || {
                let _guard = guard; // released last, even on panic
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| handle_connection(&mut stream, &state)));
                if outcome.is_err() {
                    state.panics.fetch_add(1, Ordering::Relaxed);
                    state.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = http::write_response(
                        &mut stream,
                        500,
                        "application/json",
                        error_json(
                            "internal panic while serving the request; the daemon is still up",
                        )
                        .as_bytes(),
                    );
                }
            });
            let mut workers = lock(&accept_workers);
            workers.retain(|h| !h.is_finished());
            workers.push(handle);
        }
    });

    Ok(Server {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        state,
        workers,
        drain_timeout: config.drain_timeout,
    })
}

impl Server {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests currently being served (the admission gauge).
    pub fn in_flight(&self) -> usize {
        *lock(&self.state.in_flight)
    }

    /// Graceful shutdown: stops accepting, then waits up to the
    /// configured [`ServerConfig::drain_timeout`] for in-flight
    /// requests to finish. Finished worker threads are joined; any
    /// stragglers are detached and reported in [`DrainStats`].
    pub fn shutdown(self) -> DrainStats {
        let deadline = self.drain_timeout;
        self.shutdown_within(deadline)
    }

    /// [`Server::shutdown`] with an explicit drain deadline.
    pub fn shutdown_within(mut self, drain_timeout: Duration) -> DrainStats {
        self.stop_accepting();
        let deadline = Instant::now() + drain_timeout;
        let mut n = lock(&self.state.in_flight);
        while *n > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _) = self
                .state
                .idle
                .wait_timeout(n, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            n = g;
        }
        let drained = *n == 0;
        drop(n);
        let mut abandoned = 0usize;
        for h in lock(&self.workers).drain(..) {
            // After the gauge hit zero every worker is past its
            // response epilogue; join() only waits out thread teardown.
            if drained || h.is_finished() {
                let _ = h.join();
            } else {
                abandoned += 1;
            }
        }
        DrainStats { drained, abandoned }
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accepting();
        }
    }
}

/// Answers an over-cap connection with 503 + `Retry-After`, then
/// drains the socket briefly. The drain matters: closing with the
/// client's (unread) request still in the receive buffer makes TCP
/// reset the connection, destroying the 503 before the client reads
/// it. Reading until the client hangs up — bounded by a short timeout
/// and a byte budget — lets the reply land as a clean FIN instead.
fn reject_overloaded(stream: &mut TcpStream) {
    let _ = http::write_response_with(
        stream,
        503,
        "application/json",
        &[("Retry-After", "1".to_string())],
        error_json("server is at its connection limit; retry shortly").as_bytes(),
    );
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 4096];
    let mut budget = 64 * 1024usize;
    while budget > 0 {
        match std::io::Read::read(stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Per-request context: which fault (if any) this request opted into,
/// and the compute-deadline token armed when the request was admitted.
struct RequestCtx<'s> {
    state: &'s ServerState,
    fault: Option<FaultSpec>,
    cancel: Option<CancelToken>,
}

impl RequestCtx<'_> {
    fn windowed_opts(&self, windows: usize) -> WindowedOptions {
        let mut opts = WindowedOptions::new(windows);
        if let Some(token) = &self.cancel {
            opts = opts.cancel_token(token.clone());
        }
        opts
    }

    /// Checks the deadline once the plan is ready (after plan build and
    /// injected sleeps), before any solve starts; the solves then poll
    /// the same token themselves.
    fn check_deadline(&self) -> Result<(), OpmError> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// The plan for a request body, through the pre-key tier: a
    /// confirmed pre-key hit reads only the stimulus members and looks
    /// the plan up under the entry's key; anything else runs the full
    /// path. `check` sees the request's [`Drive`] before any plan is
    /// looked up, so error replies take precedence as they always did.
    fn plan<T>(
        &self,
        body: &[u8],
        check: impl Fn(Drive<'_>) -> Result<T, ApiError>,
    ) -> Result<Planned<T>, Reply> {
        let mut doc = api::parse_doc(body)?;
        match self
            .state
            .prekeys
            .lookup(&mut doc, |doc| self.plan_parsed(doc, &check))?
        {
            Lookup::Built(planned) => Ok(planned),
            Lookup::Hit(entry) => {
                let checked = check(Drive {
                    scenarios: api::scenarios(&doc)?,
                    windows: api::windows(&doc)?,
                    levels: api::levels(&doc)?,
                    own: entry.inputs.as_ref(),
                    num_inputs: entry.num_inputs,
                })?;
                // Evicted under a live entry: rebuilt under the same key.
                let (plan, hit) = self.intern(entry.plan_key, || {
                    let (sim, opts) =
                        api::plan_inputs(&doc).map_err(|e| OpmError::BadArguments(e.msg))?;
                    self.state.cache.plan(&sim, &opts)
                })?;
                Ok((plan, hit, checked))
            }
            Lookup::Slow => self.plan_parsed(&doc, &check).map(|(_, planned)| planned),
        }
    }

    /// The full path: parse every member, `check` the drive, then the
    /// plan by its structural key. Also returns the pre-key entry the
    /// document's plan inputs map to.
    fn plan_parsed<T>(
        &self,
        doc: &Json,
        check: impl Fn(Drive<'_>) -> Result<T, ApiError>,
    ) -> Result<(PreEntry, Planned<T>), Reply> {
        let SimRequest {
            sim,
            opts,
            scenarios,
            windows,
            levels,
        } = SimRequest::from_doc(doc)?;
        let num_inputs = sim.model().num_inputs();
        let checked = check(Drive {
            scenarios,
            windows,
            levels,
            own: sim.inputs(),
            num_inputs,
        })?;
        let key = plan_key(&sim, &opts);
        let (plan, hit) = self.intern(key, || self.state.cache.plan(&sim, &opts))?;
        let entry = PreEntry::new(key, sim.inputs().cloned(), num_inputs);
        Ok((entry, (plan, hit, checked)))
    }

    /// Plan-cache lookup with the build-panic injection point: the panic
    /// fires *inside* the build closure, exactly where a real
    /// factorization bug would, so it exercises both tiers' latch
    /// resolution and poison recovery — not a mock of them.
    fn intern(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<SimPlan, OpmError>,
    ) -> Result<(Arc<SimPlan>, bool), OpmError> {
        let inject = matches!(self.fault, Some(FaultSpec::BuildPanic));
        self.state.cache.get_or_intern(key, || {
            if inject {
                self.state
                    .faults
                    .build_panics
                    .fetch_add(1, Ordering::Relaxed);
                panic!("injected plan-build panic (X-Fault: build-panic)");
            }
            build()
        })
    }

    fn apply_slow_solve(&self) {
        if let Some(FaultSpec::SlowSolve(d)) = self.fault {
            self.state
                .faults
                .slow_solves
                .fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(d);
        }
    }
}

/// A request's plan, whether it was a plan-cache hit, and what its
/// handler's check returned.
type Planned<T> = (Arc<SimPlan>, bool, T);

/// The stimulus side of a request: what a handler checks before its
/// plan is looked up.
struct Drive<'a> {
    scenarios: Vec<InputSet>,
    windows: Option<usize>,
    levels: Option<Vec<f64>>,
    /// The netlist's own sources.
    own: Option<&'a InputSet>,
    /// The model's input count.
    num_inputs: usize,
}

impl Drive<'_> {
    fn stimuli(self) -> Result<Vec<InputSet>, ApiError> {
        api::stimuli(self.scenarios, self.own)
    }
}

fn handle_connection(stream: &mut TcpStream, state: &ServerState) {
    let req = match http::read_request(stream, &state.limits) {
        Ok(req) => req,
        Err(e) => {
            let (status, msg) = if e.is_timeout() {
                state.timeouts.fetch_add(1, Ordering::Relaxed);
                (408, "timed out waiting for the request")
            } else {
                match e {
                    http::RecvError::Io(_) => return, // peer went away; nothing to answer
                    http::RecvError::Malformed(m) => (400, m),
                    http::RecvError::LengthRequired => (411, "Content-Length is required"),
                    http::RecvError::TooLarge => (413, "request body exceeds the server cap"),
                    http::RecvError::HeadersTooLarge => {
                        (431, "request headers exceed the server caps")
                    }
                }
            };
            state.errors.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_response(
                stream,
                status,
                "application/json",
                error_json(msg).as_bytes(),
            );
            return;
        }
    };

    let ctx = RequestCtx {
        state,
        fault: if state.fault_injection {
            req.fault.as_deref().and_then(FaultSpec::parse)
        } else {
            None
        },
        cancel: state.compute_deadline.map(CancelToken::with_deadline),
    };

    match route(stream, &req, &ctx) {
        Ok(()) => {}
        Err(reply) => {
            if reply.timed_out {
                state.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            state.errors.fetch_add(1, Ordering::Relaxed);
            let extra: Vec<(&str, String)> = match reply.retry_after_secs {
                Some(s) => vec![("Retry-After", s.to_string())],
                None => Vec::new(),
            };
            let _ = http::write_response_with(
                stream,
                reply.status,
                "application/json",
                &extra,
                reply.body.as_bytes(),
            );
        }
    }
}

/// An error reply yet to be written.
#[derive(Clone)]
struct Reply {
    status: u16,
    body: String,
    retry_after_secs: Option<u32>,
    timed_out: bool,
}

impl Reply {
    fn new(status: u16, body: String) -> Self {
        Reply {
            status,
            body,
            retry_after_secs: None,
            timed_out: false,
        }
    }
}

impl From<ApiError> for Reply {
    fn from(e: ApiError) -> Self {
        Reply::new(e.status, error_json(&e.msg))
    }
}

impl From<OpmError> for Reply {
    fn from(e: OpmError) -> Self {
        match e {
            // The solve was sound but blew its compute budget: that is
            // the server's load problem, not the caller's model → 503,
            // and worth retrying later.
            OpmError::Cancelled(msg) => Reply {
                status: 503,
                body: error_json(&format!("compute deadline exceeded: {msg}")),
                retry_after_secs: Some(1),
                timed_out: true,
            },
            // The request was well-formed and the solver ran, but the
            // Newton iteration would not converge on this circuit at
            // these tolerances — a semantic problem with the submitted
            // model, not a malformed request and not a server fault
            // → 422, no retry hint (retrying the same model cannot
            // help).
            OpmError::Nonconvergence {
                iterations,
                residual,
                context,
            } => Reply::new(
                422,
                error_json(&format!(
                    "newton iteration did not converge after {iterations} iterations \
                     (residual {residual:.3e}, {context})"
                )),
            ),
            // Every other solver rejection is the caller's fault (bad
            // model, bad options) → 400.
            e => Reply::new(400, error_json(&e.to_string())),
        }
    }
}

fn route(stream: &mut TcpStream, req: &Request, ctx: &RequestCtx<'_>) -> Result<(), Reply> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/solve") => handle_solve(stream, req, ctx),
        ("POST", "/sweep") => handle_sweep(stream, req, ctx),
        ("POST", "/stream") => handle_stream(stream, req, ctx),
        ("GET", "/metrics") => handle_metrics(stream, ctx.state),
        (_, "/solve" | "/sweep" | "/stream" | "/metrics") => Err(Reply::new(
            405,
            error_json("method not allowed for this endpoint"),
        )),
        _ => Err(Reply::new(404, error_json("no such endpoint"))),
    }
}

/// Latency counters are recorded **before** the final bytes go out, so
/// a client that has read its response is guaranteed to see its own
/// request in a subsequent `/metrics` — only *successful* requests are
/// timed; failures land in the `errors` counter instead.
struct Timer<'l> {
    latency: &'l Latency,
    started: Instant,
}

impl Timer<'_> {
    fn start(latency: &Latency) -> Timer<'_> {
        Timer {
            latency,
            started: Instant::now(),
        }
    }

    fn record(self) {
        self.latency
            .record(self.started.elapsed().as_micros() as u64);
    }
}

fn plan_header(cache_hit: bool, plan: &SimPlan) -> Vec<(String, Json)> {
    vec![
        (
            "cache".into(),
            Json::str(if cache_hit { "hit" } else { "miss" }),
        ),
        ("profile".into(), plan.factor_profile().to_json()),
    ]
}

fn handle_solve(stream: &mut TcpStream, req: &Request, ctx: &RequestCtx<'_>) -> Result<(), Reply> {
    let timer = Timer::start(&ctx.state.solve);
    let planned = ctx.plan(&req.body, |d| {
        let windows = d.windows.unwrap_or(1);
        Ok((d.stimuli()?, windows, None))
    })?;
    solve_reply(stream, ctx, timer, planned)
}

fn handle_sweep(stream: &mut TcpStream, req: &Request, ctx: &RequestCtx<'_>) -> Result<(), Reply> {
    let timer = Timer::start(&ctx.state.sweep);
    let planned = ctx.plan(&req.body, |d| {
        let levels = d.levels.ok_or_else(|| {
            ApiError::bad("`levels` (an array of numbers) is required for /sweep")
        })?;
        let dc = |&v: &f64| InputSet::new(vec![Waveform::Dc(v); d.num_inputs]);
        let windows = d.windows.unwrap_or(1);
        Ok((levels.iter().map(dc).collect(), windows, Some(levels)))
    })?;
    solve_reply(stream, ctx, timer, planned)
}

/// What `/solve` and `/sweep` share once the plan is ready: solve the
/// stimuli over their windows and answer with the plan header, the
/// echoed `levels` of a sweep and one result per stimulus.
fn solve_reply(
    stream: &mut TcpStream,
    ctx: &RequestCtx<'_>,
    timer: Timer<'_>,
    (plan, hit, (stimuli, windows, levels)): Planned<(Vec<InputSet>, usize, Option<Vec<f64>>)>,
) -> Result<(), Reply> {
    ctx.apply_slow_solve();
    ctx.check_deadline()?;
    let results = plan.solve_windowed_batch_opts(
        &stimuli,
        &ctx.windowed_opts(windows),
        opm_par::default_threads(),
    )?;
    let mut doc = plan_header(hit, &plan);
    if let Some(levels) = levels {
        doc.push(("levels".into(), Json::num_arr(&levels)));
    }
    doc.push((
        "results".into(),
        Json::Arr(results.iter().map(api::result_json).collect()),
    ));
    let body = Json::Obj(doc).to_string();
    timer.record();
    http::write_response(stream, 200, "application/json", body.as_bytes()).map_err(io_reply)?;
    Ok(())
}

fn handle_stream(stream: &mut TcpStream, req: &Request, ctx: &RequestCtx<'_>) -> Result<(), Reply> {
    let timer = Timer::start(&ctx.state.stream);
    let (plan, hit, (windows, inputs)) = ctx.plan(&req.body, |d| {
        let windows = d.windows.ok_or_else(|| {
            ApiError::bad("`windows` (a positive integer) is required for /stream")
        })?;
        match <[InputSet; 1]>::try_from(d.stimuli()?) {
            Ok([inputs]) => Ok((windows, inputs)),
            Err(_) => Err(ApiError::bad("/stream takes exactly one scenario")),
        }
    })?;
    ctx.apply_slow_solve();
    ctx.check_deadline()?;

    let drop_after = match ctx.fault {
        Some(FaultSpec::DropStream { after_chunks }) => Some(after_chunks),
        _ => None,
    };
    // A second handle to the same socket, so the injected mid-stream
    // drop can hard-close it while `ChunkedWriter` borrows `stream`.
    let raw = match drop_after {
        Some(_) => Some(stream.try_clone().map_err(io_reply)?),
        None => None,
    };

    // The status line goes out with the first window block, once the
    // plan has accepted the request: a rejection before it is a plain
    // error reply. Each block is flushed as its chunk the moment it is
    // solved.
    let mut socket = Some(stream);
    let mut writer: Option<ChunkedWriter<'_>> = None;
    let mut sink_err: Option<std::io::Error> = None;
    let mut chunks_sent = 0usize;
    let mut dropped = false;
    let solve_panic = hit && matches!(ctx.fault, Some(FaultSpec::SolvePanic));
    let streamed = plan.solve_streaming(&inputs, &ctx.windowed_opts(windows), |block| {
        if sink_err.is_some() || dropped {
            return;
        }
        if solve_panic && chunks_sent >= 1 {
            ctx.state
                .faults
                .solve_panics
                .fetch_add(1, Ordering::Relaxed);
            panic!("injected mid-solve panic (X-Fault: solve-panic)");
        }
        if drop_after.is_some_and(|n| chunks_sent >= n) {
            ctx.state
                .faults
                .dropped_streams
                .fetch_add(1, Ordering::Relaxed);
            if let Some(raw) = &raw {
                let _ = raw.shutdown(Shutdown::Both);
            }
            dropped = true;
            return;
        }
        let mut line = Json::Obj(vec![
            ("window".into(), Json::Int(block.window as i64)),
            ("result".into(), api::result_json(&block.result)),
            ("end_state".into(), Json::num_arr(&block.end_state)),
        ])
        .to_string();
        line.push('\n');
        let sent = match writer.as_mut() {
            Some(w) => w.chunk(line.as_bytes()),
            None => {
                let socket = socket
                    .take()
                    .expect("only the first block starts the writer");
                ChunkedWriter::start(socket, 200, "application/x-ndjson")
                    .and_then(|w| writer.insert(w).chunk(line.as_bytes()))
            }
        };
        match sent {
            Ok(()) => chunks_sent += 1,
            Err(e) => sink_err = Some(e),
        }
    });
    let final_state = match (streamed, writer.is_some()) {
        (Ok(s), _) => s,
        // Nothing on the wire yet: a plain error reply.
        (Err(e), false) => return Err(e.into()),
        (Err(e), true) => {
            // The 200 status line is already on the wire, so the only
            // honest signal is a truncated chunked body. Count it and
            // close.
            if matches!(e, OpmError::Cancelled(_)) {
                ctx.state.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            ctx.state.errors.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
    };
    let Some(mut writer) = writer else {
        return Ok(()); // cut before the first block went out
    };
    if dropped || sink_err.is_some() {
        return Ok(()); // stream was cut (by fault or peer); nothing left to say
    }
    let mut doc = plan_header(hit, &plan);
    doc.push(("done".into(), Json::Bool(true)));
    doc.push(("final_state".into(), Json::num_arr(&final_state)));
    let mut line = Json::Obj(doc).to_string();
    line.push('\n');
    writer.chunk(line.as_bytes()).map_err(io_reply)?;
    timer.record();
    writer.finish().map_err(io_reply)?;
    Ok(())
}

fn handle_metrics(stream: &mut TcpStream, state: &ServerState) -> Result<(), Reply> {
    let timer = Timer::start(&state.metrics);
    let plans = state
        .cache
        .plans()
        .into_iter()
        .map(|((k0, k1), plan)| {
            Json::Obj(vec![
                ("key".into(), Json::str(format!("{k0:016x}{k1:016x}"))),
                ("strategy".into(), Json::str(plan.strategy_name())),
                ("resolution".into(), Json::Int(plan.resolution() as i64)),
                ("order".into(), Json::Int(plan.order() as i64)),
                ("profile".into(), plan.factor_profile().to_json()),
            ])
        })
        .collect();
    let mut plan_cache = state.cache.stats_json();
    if let Json::Obj(fields) = &mut plan_cache {
        let (hits, misses) = state.prekeys.counts();
        fields.extend([
            ("prekey_hits".into(), Json::Int(hits as i64)),
            ("prekey_misses".into(), Json::Int(misses as i64)),
        ]);
    }
    let doc = Json::Obj(vec![
        ("plan_cache".into(), plan_cache),
        ("plans".into(), Json::Arr(plans)),
        (
            "requests".into(),
            Json::Obj(vec![
                ("solve".into(), state.solve.to_json()),
                ("sweep".into(), state.sweep.to_json()),
                ("stream".into(), state.stream.to_json()),
                ("metrics".into(), state.metrics.to_json()),
                (
                    "errors".into(),
                    Json::Int(state.errors.load(Ordering::Relaxed) as i64),
                ),
            ]),
        ),
        (
            "robustness".into(),
            Json::Obj(vec![
                // Gauge includes the /metrics request reporting it, so
                // an otherwise-idle server reads 1 here.
                (
                    "in_flight".into(),
                    Json::Int(*lock(&state.in_flight) as i64),
                ),
                (
                    "panics".into(),
                    Json::Int(state.panics.load(Ordering::Relaxed) as i64),
                ),
                (
                    "timeouts".into(),
                    Json::Int(state.timeouts.load(Ordering::Relaxed) as i64),
                ),
                (
                    "rejected_overload".into(),
                    Json::Int(state.rejected_overload.load(Ordering::Relaxed) as i64),
                ),
                ("faults".into(), state.faults.to_json()),
            ]),
        ),
    ]);
    timer.record();
    http::write_response(stream, 200, "application/json", doc.to_string().as_bytes())
        .map_err(io_reply)?;
    // Belt and braces: some clients half-close early; make sure the
    // payload is on the wire before the thread exits.
    let _ = stream.flush();
    Ok(())
}

fn io_reply(_: std::io::Error) -> Reply {
    // The socket is gone; the reply cannot be delivered anyway.
    Reply::new(500, String::new())
}
