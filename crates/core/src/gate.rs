//! Keyed single-flight build coordination with LRU retention, generic
//! over sync primitives.
//!
//! [`GateCache`] is the concurrency skeleton of the plan cache
//! ([`crate::cache::PlanCache`] instantiates it with
//! `K = PlanKey, V = Arc<SimPlan>` on [`crate::sync::StdSync`]): a keyed map where a
//! cold key is **claimed** by the first requester, **built** outside
//! the map lock, and **published** once — same-key racers park on the
//! key's [`Latch`] and receive the finished value, so N racing
//! requests cost exactly one build. Because every synchronization step
//! goes through the [`MonitorFamily`] abstraction, `opm-verify`
//! instantiates this *same* code on its deterministic-scheduler shims
//! and exhaustively explores the interleavings of claim / build /
//! publish / resolve / wait, checking:
//!
//! - **single build** — for any schedule, exactly one racer runs the
//!   build closure; every other same-key racer observes the same value;
//! - **no lost wakeup** — a racer that decided to wait always wakes,
//!   whether the build resolves before or after it sleeps;
//! - **panic containment** — a panicking build removes its placeholder,
//!   resolves every waiter with an error, and re-raises only on the
//!   builder's thread; the cache stays fully usable.
//!
//! The protocol (and its LRU/bookkeeping details) are ported verbatim
//! from the PR 7/8 `PlanCache`; see [`crate::cache`] for the
//! plan-level semantics (keying, eviction policy, fault tolerance).

use std::sync::Arc;

use crate::json::Json;
use crate::latch::Latch;
use crate::sync::{Monitor, MonitorFamily};

/// Aggregate counters, snapshotted by [`GateCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served by an interned value.
    pub hits: u64,
    /// Requests that had to build a new value.
    pub misses: u64,
    /// Values dropped to make room.
    pub evictions: u64,
    /// Values currently interned.
    pub len: usize,
    /// Maximum number of interned values.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of requests that were hits (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The `/metrics` representation.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("hits".into(), Json::Int(self.hits as i64)),
            ("misses".into(), Json::Int(self.misses as i64)),
            ("evictions".into(), Json::Int(self.evictions as i64)),
            ("len".into(), Json::Int(self.len as i64)),
            ("capacity".into(), Json::Int(self.capacity as i64)),
            ("hit_rate".into(), Json::Num(self.hit_rate())),
        ])
    }
}

/// The latch a key's in-flight build resolves: the built value, or the
/// build's error (cloned to every waiter).
type BuildLatch<V, E, F> = Latch<Result<V, E>, F>;

enum Slot<V, E, F>
where
    V: Clone + Send + 'static,
    E: Clone + Send + 'static,
    F: MonitorFamily,
{
    /// A finished, interned value.
    Ready(V),
    /// A build in flight; same-key requests wait on the latch.
    Building(Arc<BuildLatch<V, E, F>>),
}

struct Entry<K, V, E, F>
where
    V: Clone + Send + 'static,
    E: Clone + Send + 'static,
    F: MonitorFamily,
{
    key: K,
    slot: Slot<V, E, F>,
    last_used: u64,
}

struct Inner<K, V, E, F>
where
    V: Clone + Send + 'static,
    E: Clone + Send + 'static,
    F: MonitorFamily,
{
    entries: Vec<Entry<K, V, E, F>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A keyed LRU cache where cold keys are built exactly once per miss,
/// no matter how many requests race.
///
/// `panic_error` supplies the error handed to same-key waiters when a
/// build panics (the panic itself resumes on the builder's thread).
pub struct GateCache<K, V, E, F>
where
    K: Copy + Eq + Send + 'static,
    V: Clone + Send + 'static,
    E: Clone + Send + 'static,
    F: MonitorFamily,
{
    inner: F::Monitor<Inner<K, V, E, F>>,
    capacity: usize,
    panic_error: fn() -> E,
}

impl<K, V, E, F> GateCache<K, V, E, F>
where
    K: Copy + Eq + Send + 'static,
    V: Clone + Send + 'static,
    E: Clone + Send + 'static,
    F: MonitorFamily,
{
    /// A cache that interns at most `capacity` values (minimum 1).
    pub fn new(capacity: usize, panic_error: fn() -> E) -> Self {
        GateCache {
            inner: F::monitor(Inner {
                entries: Vec::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
            panic_error,
        }
    }

    /// The interned value for `key`, running `build` on a miss; the
    /// `bool` reports whether this call was a hit.
    ///
    /// Exactly one racer per key runs `build`; same-key racers block on
    /// the key's latch and come back as hits. If `build` returns `Err`
    /// nothing is cached and every waiter receives a clone of the
    /// error. If `build` **panics**, the placeholder is removed, the
    /// waiters receive `panic_error()`, and the panic resumes on this
    /// thread — the cache itself stays fully usable.
    ///
    /// # Errors
    /// Whatever `build` returns; failures are not cached.
    pub fn get_or_build(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        self.get_or_build_with(key, || build().map(|v| (v, ())))
            .map(|(v, built)| (v, built.is_none()))
    }

    /// [`GateCache::get_or_build`] for a build that also produces
    /// something only its own caller needs: on a miss `build` returns
    /// the value to intern plus that by-product, and this call returns
    /// `Some(by-product)`; hits and same-key waiters get `None`. A
    /// two-level cache uses it to hand the builder the work it did on
    /// the way to the shared value.
    ///
    /// # Errors
    /// As [`GateCache::get_or_build`].
    pub fn get_or_build_with<T>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<(V, T), E>,
    ) -> Result<(V, Option<T>), E> {
        enum Claim<V, E, F>
        where
            V: Clone + Send + 'static,
            E: Clone + Send + 'static,
            F: MonitorFamily,
        {
            Hit(V),
            Wait(Arc<BuildLatch<V, E, F>>),
            Build(Arc<BuildLatch<V, E, F>>),
        }
        let claim = self.inner.with(|inner| {
            inner.tick += 1;
            let tick = inner.tick;
            match inner.entries.iter_mut().find(|e| e.key == key) {
                Some(e) => {
                    e.last_used = tick;
                    match &e.slot {
                        Slot::Ready(v) => {
                            inner.hits += 1;
                            Claim::Hit(v.clone())
                        }
                        Slot::Building(latch) => Claim::<V, E, F>::Wait(Arc::clone(latch)),
                    }
                }
                None => {
                    let latch = Arc::new(BuildLatch::<V, E, F>::new());
                    inner.entries.push(Entry {
                        key,
                        slot: Slot::Building(Arc::clone(&latch)),
                        last_used: tick,
                    });
                    inner.misses += 1;
                    Claim::Build(latch)
                }
            }
        });
        match claim {
            Claim::Hit(v) => Ok((v, None)),
            Claim::Wait(latch) => {
                let v = latch.wait()?;
                self.inner.with(|inner| inner.hits += 1);
                Ok((v, None))
            }
            Claim::Build(latch) => {
                let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build));
                let (outcome, extra, panic_payload) = match built {
                    Ok(Ok((v, t))) => (Ok(v), Some(t), None),
                    Ok(Err(e)) => (Err(e), None, None),
                    Err(payload) => (Err((self.panic_error)()), None, Some(payload)),
                };
                self.publish(key, &outcome);
                latch.resolve(outcome.clone());
                if let Some(payload) = panic_payload {
                    std::panic::resume_unwind(payload);
                }
                outcome.map(|v| (v, extra))
            }
        }
    }

    /// Swaps the key's building placeholder for the build's outcome:
    /// `Ok` publishes the value (then trims over-capacity LRU entries),
    /// `Err` removes the placeholder so the next request rebuilds.
    fn publish(&self, key: K, outcome: &Result<V, E>) {
        self.inner.with(|inner| {
            // `clear()` may have dropped the placeholder mid-build; the
            // result is still handed to this request and the latch
            // waiters, it just is not interned.
            let idx = inner.entries.iter().position(|e| e.key == key);
            match (outcome, idx) {
                (Ok(v), Some(i)) => {
                    inner.entries[i].slot = Slot::Ready(v.clone());
                    while inner.entries.len() > self.capacity {
                        let lru = inner
                            .entries
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| e.key != key && matches!(e.slot, Slot::Ready(_)))
                            .min_by_key(|(_, e)| e.last_used)
                            .map(|(i, _)| i);
                        // Only finished values are evictable; in-flight
                        // builds stay (they trim themselves on publish).
                        let Some(lru) = lru else { break };
                        inner.entries.swap_remove(lru);
                        inner.evictions += 1;
                    }
                }
                (Err(_), Some(i)) => {
                    inner.entries.swap_remove(i);
                }
                (_, None) => {}
            }
        });
    }

    /// Counter snapshot for `/metrics` and the bench gates.
    pub fn stats(&self) -> CacheStats {
        self.inner.with(|inner| CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner
                .entries
                .iter()
                .filter(|e| matches!(e.slot, Slot::Ready(_)))
                .count(),
            capacity: self.capacity,
        })
    }

    /// Number of interned (finished) values.
    pub fn len(&self) -> usize {
        self.stats().len
    }

    /// Whether the cache holds no finished values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every interned value (counters are kept; in-flight builds
    /// complete and hand their value to their waiters, uncached).
    pub fn clear(&self) {
        self.inner.with(|inner| inner.entries.clear());
    }

    /// The interned values, most recently used first. In-flight builds
    /// are not listed.
    pub fn values(&self) -> Vec<(K, V)> {
        self.inner.with(|inner| {
            let mut keyed: Vec<(u64, K, V)> = inner
                .entries
                .iter()
                .filter_map(|e| match &e.slot {
                    Slot::Ready(v) => Some((e.last_used, e.key, v.clone())),
                    Slot::Building(_) => None,
                })
                .collect();
            keyed.sort_by_key(|x| std::cmp::Reverse(x.0));
            keyed.into_iter().map(|(_, k, v)| (k, v)).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::StdSync;

    type TestCache = GateCache<u64, u64, String, StdSync>;

    fn cache(capacity: usize) -> TestCache {
        GateCache::new(capacity, || "build panicked".to_string())
    }

    #[test]
    fn builds_once_then_hits() {
        let c = cache(4);
        let (v, hit) = c.get_or_build(1, || Ok(10)).unwrap();
        assert_eq!((v, hit), (10, false));
        let (v, hit) = c.get_or_build(1, || unreachable!()).unwrap();
        assert_eq!((v, hit), (10, true));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn error_is_not_cached() {
        let c = cache(4);
        let err = c.get_or_build(1, || Err("nope".to_string())).unwrap_err();
        assert_eq!(err, "nope");
        assert_eq!(c.len(), 0);
        let (_, hit) = c.get_or_build(1, || Ok(7)).unwrap();
        assert!(!hit);
    }

    #[test]
    fn panicking_build_leaves_cache_usable() {
        let c = cache(4);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = c.get_or_build(1, || panic!("injected"));
        }));
        assert!(panicked.is_err());
        assert_eq!(c.len(), 0);
        let (v, hit) = c.get_or_build(1, || Ok(3)).unwrap();
        assert_eq!((v, hit), (3, false));
    }

    #[test]
    fn lru_eviction_keeps_capacity() {
        let c = cache(2);
        for k in 0..3 {
            let _ = c.get_or_build(k, || Ok(k * 10)).unwrap();
        }
        let s = c.stats();
        assert_eq!((s.len, s.evictions), (2, 1));
        let keys: Vec<u64> = c.values().into_iter().map(|(k, _)| k).collect();
        assert!(!keys.contains(&0), "LRU key 0 must be evicted: {keys:?}");
    }
}
