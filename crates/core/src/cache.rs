//! A keyed LRU cache of factored plans, shared across requests.
//!
//! A [`crate::SimPlan`] is the expensive, stimulus-independent artifact
//! of the session API: one symbolic + one numeric factorization serves
//! any number of scenarios, windows, and horizons. [`PlanCache`] interns
//! plans behind `Arc` so that a *repeated* plan request — same model,
//! same options, same horizon — skips symbolic **and** numeric work
//! entirely and goes straight to solves. This is the heart of the
//! `opm-serve` daemon, and equally usable by a CLI that replays
//! netlists.
//!
//! # The cache key
//!
//! Entries are keyed by a 128-bit structural hash
//! ([`plan_key`], a [`WordHash`] fed one word per count, index and
//! value) covering everything [`Simulation::plan`] consumes:
//!
//! - the model **pattern** (variant, dimensions, row structure, column
//!   indices) and its **values** (every `f64` hashed by bit pattern),
//! - the nonlinear **devices** (kind, terminals and every parameter by
//!   bit pattern — a diode's `Is` is as much the plan as a resistor),
//! - the [`SolveOptions`] (resolution, adaptive parameters, step grid),
//! - the horizon `t_end` and initial state `x0`.
//!
//! Hashing values (not just the sparsity pattern) means a value-only
//! edit — say, bumping one resistor — is a **miss** by construction:
//! the plan's factors are the factors of other numbers. Two requests
//! collide only if every bit above agrees, in which case sharing the
//! plan is exactly right.
//!
//! # The pattern tier
//!
//! A value-only miss still shares most of its work with plans already
//! built: the AMD ordering and the symbolic LU depend on the pencil's
//! sparsity pattern alone. Under the plans sits a second, values-free
//! tier, the pattern cache, keyed by the factored pencil's CSC pattern
//! (`colptr`/`rowind` hashed word by word, confirmed by comparing the
//! arrays on a hit) and mapping to one shared analysis — ordering plus
//! [`opm_sparse::SymbolicLu`]. A plan build that finds its pattern
//! there skips AMD and the symbolic factorization, and a uniform linear
//! or multi-term plan factors nothing: each window kernel, on first
//! use, replays the analysis with
//! [`opm_sparse::SparseLu::refactor_exact`], whose pivot rule accepts
//! only where a fresh factorization would pivot the same way, and where
//! it refuses factors fresh under the cached ordering (AMD is a pure
//! function of the pattern). Nonlinear, adaptive and step-grid plans
//! replay the same way at build. The contract is **bit-identity**: a
//! plan built through the tier equals [`Simulation::plan`] bit for bit.
//! A replay books 1 numeric factorization, a refused one 1 symbolic.
//! Plan hits never compute the pattern key, and the tier holds as many
//! patterns as the plan tier holds plans ([`PatternStats`]).
//!
//! # The request pre-key (in `opm-serve`)
//!
//! [`plan_key`] needs an assembled [`Simulation`], so a server that
//! computed it per request would pay netlist parse, MNA assembly and
//! this hash of every matrix value on every hit. The `opm-serve` daemon
//! puts a request-level tier in front of this cache: a [`WordHash`] of
//! the posted plan-input members maps to the [`PlanKey`] they built, a
//! hit is confirmed by bit-exact equality of the members and goes
//! straight to [`PlanCache::get_or_intern`] under the stored key, whose
//! build closure — the full parse and [`PlanCache::plan`] — then runs
//! only if the plan was evicted. The structural key stays the source of truth:
//! every request is still exactly one plan hit or miss here.
//!
//! # Concurrency & the single-factorization invariant
//!
//! Lookups and insertions go through one short-lived mutex; **plans are
//! built on a per-key latch outside it**. A cold request claims its key
//! by inserting a building placeholder, releases the global lock, and
//! factors the plan; requests racing on the *same* key wait on that
//! latch and receive the finished `Arc` — exactly one builds the plan
//! (and each window kernel, on the plan's own latch) and the other N−1
//! become hits. Requests for *other* keys are untouched: one
//! pathological model that takes seconds (or panics) mid-build can no
//! longer stall hits on every other plan, which is what a multi-tenant
//! server needs to stay live.
//!
//! # Fault tolerance
//!
//! Every internal lock recovers from poisoning
//! ([`std::sync::PoisonError::into_inner`] — the guarded state is a
//! plain LRU list, always structurally valid), and a build that
//! **panics** unwinds cleanly: the placeholder is removed, latch
//! waiters receive an error, the panic resumes on the builder's thread,
//! and the next request for that key simply rebuilds. A build that
//! returns `Err` behaves the same — failures are never cached.
//!
//! # Eviction
//!
//! Least-recently-used, over a fixed capacity set at construction. The
//! cache stores `Arc`s, so evicting a plan mid-flight is safe — in-use
//! plans are freed when their last request completes. In-progress
//! builds are never evicted (the cache may transiently hold more than
//! `capacity` entries while builds race; it settles back under the cap
//! as they publish).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::engine::{PatternAnalysis, SolveOptions};
use crate::json::Json;
use crate::session::{SimModel, SimPlan, Simulation};
use crate::OpmError;
use opm_circuits::nonlinear::DeviceModel;
use opm_sparse::{CscMatrix, CsrMatrix, SparseLu};
use opm_system::DescriptorSystem;

/// The 128-bit structural hash a plan is interned under.
pub type PlanKey = (u64, u64);

/// Computes the structural hash of everything a plan depends on.
///
/// Exposed so tests (and cache-aware tooling) can check when two
/// sessions would share a cached plan without building one.
pub fn plan_key(sim: &Simulation, opts: &SolveOptions) -> PlanKey {
    let mut h = WordHash::default();
    hash_model(&mut h, sim.model());
    hash_devices(&mut h, sim.devices());
    hash_options(&mut h, opts);
    h.f64(sim.t_end());
    match sim.x0() {
        Some(x0) => {
            h.word(1);
            h.f64_slice(x0);
        }
        None => h.word(0),
    }
    h.finish()
}

/// The structural key's vocabulary over [`WordHash`]: every count, tag,
/// index and `f64` bit pattern is one word.
impl WordHash {
    fn usize(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn f64_slice(&mut self, xs: &[f64]) {
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }

    fn csr(&mut self, m: &CsrMatrix) {
        self.usize(m.nrows());
        self.usize(m.ncols());
        for i in 0..m.nrows() {
            // Row-length delimiters keep (col, val) runs from aliasing
            // across row boundaries.
            self.usize(m.row(i).count());
            for (col, val) in m.row(i) {
                self.usize(col);
                self.f64(val);
            }
        }
    }

    fn opt_csr(&mut self, m: Option<&CsrMatrix>) {
        match m {
            Some(m) => {
                self.word(1);
                self.csr(m);
            }
            None => self.word(0),
        }
    }

    fn descriptor(&mut self, sys: &DescriptorSystem) {
        self.csr(sys.e());
        self.csr(sys.a());
        self.csr(sys.b());
        self.opt_csr(sys.c());
    }
}

fn hash_model(h: &mut WordHash, model: &SimModel) {
    match model {
        SimModel::Linear(sys) => {
            h.word(1);
            h.descriptor(sys);
        }
        SimModel::Fractional(fsys) => {
            h.word(2);
            h.f64(fsys.alpha());
            h.descriptor(fsys.system());
        }
        SimModel::MultiTerm(mt) => {
            h.word(3);
            h.usize(mt.terms().len());
            for term in mt.terms() {
                h.f64(term.alpha);
                h.csr(&term.matrix);
            }
            h.csr(mt.b());
            h.opt_csr(mt.c());
        }
        SimModel::SecondOrder(so) => {
            h.word(4);
            h.csr(so.m2());
            h.csr(so.m1());
            h.csr(so.m0());
            h.csr(so.b());
            h.opt_csr(so.c());
        }
    }
}

fn hash_devices(h: &mut WordHash, devices: &[DeviceModel]) {
    h.usize(devices.len());
    for device in devices {
        match device {
            DeviceModel::Diode(d) => {
                h.word(1);
                h.usize(d.anode);
                h.usize(d.cathode);
                h.f64(d.is_sat);
                h.f64(d.vt);
            }
            DeviceModel::Mosfet(m) => {
                h.word(2);
                h.usize(m.drain);
                h.usize(m.gate);
                h.usize(m.source);
                h.f64(m.kp);
                h.f64(m.vth);
            }
        }
    }
}

fn hash_options(h: &mut WordHash, opts: &SolveOptions) {
    match opts.resolution {
        Some(m) => {
            h.word(1);
            h.usize(m);
        }
        None => h.word(0),
    }
    match &opts.adaptive {
        Some(a) => {
            h.word(1);
            h.f64(a.tol);
            h.f64(a.h0);
            h.f64(a.h_min);
            h.f64(a.h_max);
        }
        None => h.word(0),
    }
    match &opts.step_grid {
        Some(steps) => {
            h.word(1);
            h.f64_slice(steps);
        }
        None => h.word(0),
    }
}

pub use crate::gate::CacheStats;

use crate::gate::GateCache;
use crate::sync::StdSync;

/// The 128-bit hash a pattern analysis is interned under.
type PatternKey = (u64, u64);

/// A 128-bit hash fed a whole word at a time: two multiplicative
/// streams, one multiply per word each. It keys the pattern tier and
/// `opm-serve`'s request pre-key, whose hits are confirmed against the
/// stored value (a collision costs nothing but a miss), and the
/// structural [`plan_key`], whose hits are not: there two distinct
/// requests share a plan only if all 128 bits collide, which is out of
/// reach by accident at any realistic cache size. It is not a
/// cryptographic hash, so it does not stand against keys forged to
/// collide.
#[derive(Clone, Copy, Debug)]
pub struct WordHash {
    a: u64,
    b: u64,
}

impl Default for WordHash {
    fn default() -> Self {
        WordHash {
            a: 0xcbf29ce484222325,
            b: 0x9e3779b97f4a7c15,
        }
    }
}

impl WordHash {
    /// Feeds one word.
    pub fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x100000001b3);
        self.b = (self.b.rotate_left(23) ^ w).wrapping_mul(0xff51afd7ed558ccd);
    }

    /// Feeds a byte string: its length, then its bytes eight to a word
    /// (little-endian, the last word zero-padded).
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }

    /// The two streams' states.
    pub fn finish(self) -> (u64, u64) {
        (self.a, self.b)
    }
}

/// Hashes a CSC pattern word by word: dimensions, `colptr`, `rowind`.
/// A hit is confirmed against the stored arrays.
fn pattern_key(csc: &CscMatrix) -> PatternKey {
    let mut h = WordHash::default();
    let words = [csc.nrows(), csc.ncols()];
    for &w in words.iter().chain(csc.colptr()).chain(csc.rowind()) {
        h.word(w as u64);
    }
    h.finish()
}

/// Counters of the pattern tier, snapshotted by
/// [`PlanCache::pattern_stats`]. Every analysis a plan build asks the
/// tier for is exactly one of the three.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatternStats {
    /// Builds that took an interned analysis (replayed exactly by the
    /// kinds that replay at build: 1 numeric factorization).
    pub hits: u64,
    /// Builds that recorded a fresh analysis: AMD + symbolic LU.
    pub misses: u64,
    /// Builds replaying at build whose values a fresh factorization
    /// would pivot differently: a fresh symbolic LU under the interned
    /// ordering. A window kernel's refusal is booked in its plan only.
    pub fallbacks: u64,
}

/// The values-free tier under [`PlanCache`]: one shared
/// [`PatternAnalysis`] per sparsity pattern, built on the same
/// single-flight [`GateCache`] as the plans (see the module docs).
pub(crate) struct PatternCache {
    gate: GateCache<PatternKey, Arc<PatternAnalysis>, OpmError, StdSync>,
    hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
}

impl PatternCache {
    fn new(capacity: usize) -> Self {
        PatternCache {
            gate: GateCache::new(capacity, || {
                OpmError::BadArguments("pattern analysis panicked in another request".into())
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// The analysis of `csc`'s pattern — interned, or recorded (and
    /// interned) on a miss — with `csc`'s factor, bit-identical to a
    /// fresh [`PatternAnalysis::record`], unless an interned one is not
    /// to `replay`; and whether the analysis was recorded here.
    ///
    /// # Errors
    /// [`OpmError::SingularPencil`] when a factorization of `csc` fails.
    pub(crate) fn factor(
        &self,
        csc: &CscMatrix,
        replay: bool,
    ) -> Result<(Arc<PatternAnalysis>, Option<SparseLu>, bool), OpmError> {
        let mut built_here = false;
        let looked_up = self.gate.get_or_build_with(pattern_key(csc), || {
            built_here = true;
            PatternAnalysis::record(csc).map(|(analysis, lu)| (Arc::new(analysis), lu))
        });
        let entry = match looked_up {
            Ok((entry, Some(lu))) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok((entry, Some(lu), true));
            }
            Ok((entry, None)) if entry.has_pattern(csc) => entry,
            Err(e) if built_here => return Err(e),
            // A hash collision, or a build this request waited on that
            // failed on *its* values: analyse these values, uninterned.
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let (analysis, lu) = PatternAnalysis::record(csc)?;
                return Ok((Arc::new(analysis), Some(lu), true));
            }
        };
        let replayed = replay.then(|| SparseLu::refactor_exact(entry.symbolic(), csc.values()));
        match replayed.transpose() {
            Ok(lu) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok((entry, lu, false))
            }
            Err(_) => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                let (analysis, lu) = PatternAnalysis::record_with(csc, entry.order().clone())?;
                Ok((Arc::new(analysis), Some(lu), true))
            }
        }
    }

    fn stats(&self) -> PatternStats {
        PatternStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// An LRU cache of factored plans keyed by [`plan_key`], over a
/// values-free tier of pattern analyses (see the module docs).
///
/// The claim / build / publish / latch protocol lives in the generic
/// [`GateCache`] (shared with `opm-verify`, which model-checks it under
/// a deterministic scheduler); this wrapper binds it to
/// `PlanKey -> Arc<SimPlan>` and owns the plan-specific keying.
pub struct PlanCache {
    gate: GateCache<PlanKey, Arc<SimPlan>, OpmError, StdSync>,
    patterns: PatternCache,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("len", &s.len)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("patterns", &self.pattern_stats())
            .finish()
    }
}

impl PlanCache {
    /// A cache that interns at most `capacity` plans (minimum 1), and
    /// as many pattern analyses.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            gate: GateCache::new(capacity, || {
                OpmError::BadArguments(
                    "plan build panicked; the panicking request reports it".into(),
                )
            }),
            patterns: PatternCache::new(capacity),
        }
    }

    /// The interned plan for `(sim, opts)`, factoring one on a miss.
    ///
    /// On a hit no factorization work happens at all — the returned
    /// `Arc` is ready to `solve`/`solve_batch`/`solve_streaming` concurrently
    /// with every other holder. Cold builds run on a per-key latch so
    /// racing identical requests factor exactly once without blocking
    /// requests for other keys (see the module docs).
    ///
    /// # Errors
    /// Whatever [`Simulation::plan`] would return for the same inputs;
    /// failures are not cached.
    pub fn get_or_plan(
        &self,
        sim: &Simulation,
        opts: &SolveOptions,
    ) -> Result<Arc<SimPlan>, OpmError> {
        self.get_or_plan_traced(sim, opts).map(|(plan, _)| plan)
    }

    /// [`PlanCache::get_or_plan`], also reporting whether this call was
    /// a hit — what a server echoes back per response.
    ///
    /// # Errors
    /// As [`PlanCache::get_or_plan`].
    pub fn get_or_plan_traced(
        &self,
        sim: &Simulation,
        opts: &SolveOptions,
    ) -> Result<(Arc<SimPlan>, bool), OpmError> {
        self.get_or_intern(plan_key(sim, opts), || self.plan(sim, opts))
    }

    /// Builds a plan for `(sim, opts)` through the pattern tier, without
    /// interning it — the build a [`PlanCache::get_or_intern`] closure
    /// runs on a miss. The plan equals [`Simulation::plan`] bit for bit;
    /// on a pattern the tier has analysed it skips AMD and the symbolic
    /// factorization (see the module docs).
    ///
    /// # Errors
    /// As [`Simulation::plan`].
    pub fn plan(&self, sim: &Simulation, opts: &SolveOptions) -> Result<SimPlan, OpmError> {
        sim.plan_in(opts, Some(&self.patterns))
    }

    /// The interned plan for `key`, running `build` on a miss — the
    /// generalized entry point behind [`PlanCache::get_or_plan_traced`].
    /// Exposed so servers can wrap the build (fault injection, tracing)
    /// and tests can drive the cache with arbitrary closures.
    ///
    /// Exactly one racer per key runs `build`; same-key racers block on
    /// the key's latch and come back as hits. If `build` returns `Err`
    /// nothing is cached and every waiter receives a clone of the
    /// error. If `build` **panics**, the placeholder is removed, the
    /// waiters receive an error, and the panic resumes on this thread —
    /// the cache itself stays fully usable.
    ///
    /// # Errors
    /// Whatever `build` returns; failures are not cached.
    pub fn get_or_intern(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<SimPlan, OpmError>,
    ) -> Result<(Arc<SimPlan>, bool), OpmError> {
        self.gate.get_or_build(key, || build().map(Arc::new))
    }

    /// Counter snapshot for `/metrics` and the bench gates.
    pub fn stats(&self) -> CacheStats {
        self.gate.stats()
    }

    /// Pattern-tier counter snapshot.
    pub fn pattern_stats(&self) -> PatternStats {
        self.patterns.stats()
    }

    /// The `/metrics` representation: the plan tier's [`CacheStats`]
    /// plus the [`PatternStats`] `pattern_hits`, `pattern_misses` and
    /// `pattern_fallbacks`.
    pub fn stats_json(&self) -> Json {
        let p = self.pattern_stats();
        let mut doc = self.stats().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.extend([
                ("pattern_hits".into(), Json::Int(p.hits as i64)),
                ("pattern_misses".into(), Json::Int(p.misses as i64)),
                ("pattern_fallbacks".into(), Json::Int(p.fallbacks as i64)),
            ]);
        }
        doc
    }

    /// Number of interned (finished) plans.
    pub fn len(&self) -> usize {
        self.gate.len()
    }

    /// Whether the cache holds no finished plans.
    pub fn is_empty(&self) -> bool {
        self.gate.is_empty()
    }

    /// Drops every interned plan and pattern analysis (counters are
    /// kept; in-flight builds complete and hand their plan to their
    /// waiters, uncached).
    pub fn clear(&self) {
        self.gate.clear();
        self.patterns.gate.clear();
    }

    /// The interned plans, most recently used first — what a `/metrics`
    /// endpoint walks to report per-plan [`crate::FactorProfile`]s.
    /// In-flight builds are not listed.
    pub fn plans(&self) -> Vec<(PlanKey, Arc<SimPlan>)> {
        self.gate.values()
    }

    /// The interned plans' keys, most recently used first. Test hook
    /// for asserting eviction order.
    pub fn keys_by_recency(&self) -> Vec<PlanKey> {
        self.plans().into_iter().map(|(k, _)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_sparse::CooMatrix;

    /// A 1×1 plan (ẋ = −x + u) built fresh per call.
    fn tiny_plan(resolution: usize) -> Result<SimPlan, OpmError> {
        let mut a = CooMatrix::new(1, 1);
        a.push(0, 0, -1.0);
        let mut b = CooMatrix::new(1, 1);
        b.push(0, 0, 1.0);
        let sys =
            DescriptorSystem::new(CsrMatrix::identity(1), a.to_csr(), b.to_csr(), None).unwrap();
        Simulation::from_system(sys)
            .horizon(1.0)
            .plan(&SolveOptions::new().resolution(resolution))
    }

    /// A panicking build closure leaves the cache fully usable: the
    /// placeholder is gone, counters are sane, and the next request for
    /// the same key rebuilds as a plain miss.
    #[test]
    fn panicking_build_leaves_cache_usable() {
        let cache = PlanCache::new(4);
        let key = (1, 2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_intern(key, || panic!("injected build panic"));
        }));
        assert!(panicked.is_err(), "the build panic must propagate");

        let stats = cache.stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (0, 0, 1));

        // Same key again: a clean rebuild, then a hit.
        let (plan, hit) = cache.get_or_intern(key, || tiny_plan(16)).unwrap();
        assert!(!hit);
        let (again, hit) = cache.get_or_intern(key, || unreachable!()).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&plan, &again));
        let stats = cache.stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (1, 1, 2));
    }

    /// A build returning `Err` is not cached and does not poison
    /// anything; waiters and later requests see a clean cache.
    #[test]
    fn failed_build_is_not_cached() {
        let cache = PlanCache::new(4);
        let key = (3, 4);
        let err = cache
            .get_or_intern(key, || Err(OpmError::BadArguments("no such model".into())))
            .unwrap_err();
        assert!(matches!(err, OpmError::BadArguments(_)));
        assert_eq!(cache.len(), 0);
        let (_, hit) = cache.get_or_intern(key, || tiny_plan(16)).unwrap();
        assert!(!hit);
    }

    /// N racers on one cold key: exactly one build, N−1 waiters that
    /// come back as hits on the same `Arc`.
    #[test]
    fn racing_requests_build_once() {
        let cache = PlanCache::new(4);
        let key = (5, 6);
        let builds = std::sync::atomic::AtomicU64::new(0);
        let plans: Vec<(Arc<SimPlan>, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        cache
                            .get_or_intern(key, || {
                                builds.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                                // Hold the build long enough that the
                                // racers genuinely arrive mid-build.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                tiny_plan(16)
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(plans.iter().filter(|(_, hit)| !hit).count(), 1);
        for (plan, _) in &plans {
            assert!(Arc::ptr_eq(plan, &plans[0].0));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (7, 1));
    }

    /// A slow build on one key must not stall a request for another key
    /// — the per-key latch replaces the old build-under-global-lock.
    #[test]
    fn slow_build_does_not_block_other_keys() {
        let cache = Arc::new(PlanCache::new(4));
        let entered = Arc::new(std::sync::Barrier::new(2));
        let slow = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                cache
                    .get_or_intern((7, 8), || {
                        entered.wait(); // the slow build is now in flight
                        std::thread::sleep(std::time::Duration::from_secs(2));
                        tiny_plan(16)
                    })
                    .unwrap()
            })
        };
        entered.wait();
        let start = std::time::Instant::now();
        let (_, hit) = cache.get_or_intern((9, 10), || tiny_plan(32)).unwrap();
        assert!(!hit);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "an unrelated key waited on the slow build: {:?}",
            start.elapsed()
        );
        slow.join().unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    /// A half-wave rectifier whose diode has saturation current `is`.
    fn rectifier(is: &str) -> Simulation {
        let netlist = format!(
            "* rectifier\nV1 in 0 SIN(0 1 1)\nR1 in a 0.1\nD1 a out {is}\nR2 out 0 10\n\
             C1 out 0 0.2\n.end\n"
        );
        Simulation::from_netlist(&netlist, &["out"])
            .unwrap()
            .horizon(1.0)
    }

    /// Netlists that differ only in a device parameter key different
    /// plans: each carries its own diode, never the other's.
    #[test]
    fn device_parameters_are_part_of_the_key() {
        let opts = SolveOptions::new().resolution(32);
        let (weak, strong) = (rectifier("1e-14"), rectifier("1e-9"));
        assert_ne!(plan_key(&weak, &opts), plan_key(&strong, &opts));
        assert_eq!(plan_key(&weak, &opts), plan_key(&rectifier("1e-14"), &opts));

        let cache = PlanCache::new(4);
        let a = cache.get_or_plan(&weak, &opts).unwrap();
        let b = cache.get_or_plan(&strong, &opts).unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(a.devices(), weak.devices());
        assert_eq!(b.devices(), strong.devices());
    }

    /// The key reads every value's sign and every row boundary: one
    /// flipped sign, or the same column/value run split across the rows
    /// differently, keys a different plan.
    #[test]
    fn key_sees_signs_and_row_boundaries() {
        let opts = SolveOptions::new().resolution(8);
        let key = |entries: &[(usize, usize, f64)]| {
            let mut a = CooMatrix::new(2, 2);
            for &(i, j, v) in entries {
                a.push(i, j, v);
            }
            let mut b = CooMatrix::new(2, 1);
            b.push(0, 0, 1.0);
            let sys = DescriptorSystem::new(CsrMatrix::identity(2), a.to_csr(), b.to_csr(), None)
                .unwrap();
            plan_key(&Simulation::from_system(sys).horizon(1.0), &opts)
        };
        let base = key(&[(0, 0, -1.0), (1, 1, -2.0)]);
        assert_eq!(base, key(&[(0, 0, -1.0), (1, 1, -2.0)]));
        assert_ne!(base, key(&[(0, 0, -1.0), (1, 1, 2.0)]));
        // Rows [(0, −1)], [(1, −2)] against [(0, −1), (1, −2)], []: the
        // same (column, value) run, the boundary moved.
        assert_ne!(base, key(&[(0, 0, -1.0), (0, 1, -2.0)]));
    }

    /// Racing misses of two plans on one pencil pattern record exactly
    /// one analysis, whichever build gets there first: one records it,
    /// the other replays it (the model checker's `pattern_tier` model
    /// covers every interleaving of the two gates).
    #[test]
    fn racing_value_misses_record_one_analysis() {
        let cache = PlanCache::new(4);
        let opts = SolveOptions::new().resolution(32);
        let start = std::sync::Barrier::new(2);
        let mut profiles: Vec<(usize, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = ["1e-14", "2e-14"]
                .map(|is| {
                    let (cache, opts, start) = (&cache, &opts, &start);
                    s.spawn(move || {
                        let sim = rectifier(is);
                        start.wait();
                        let p = cache.get_or_plan(&sim, opts).unwrap();
                        let p = p.factor_profile();
                        (p.num_symbolic, p.num_numeric)
                    })
                })
                .into_iter()
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        profiles.sort_unstable();
        assert_eq!(profiles, vec![(0, 1), (1, 0)]);
        let want = PatternStats {
            hits: 1,
            misses: 1,
            fallbacks: 0,
        };
        assert_eq!(cache.pattern_stats(), want);
    }

    /// Eviction only considers finished plans and keeps the cache at
    /// capacity once builds publish.
    #[test]
    fn lru_eviction_over_capacity() {
        let cache = PlanCache::new(2);
        for k in 0..3u64 {
            let _ = cache
                .get_or_intern((k, k), || tiny_plan(16 + k as usize))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!((stats.len, stats.evictions), (2, 1));
        // (0,0) was least recently used and must be gone.
        assert!(!cache.keys_by_recency().contains(&(0, 0)));
    }
}
