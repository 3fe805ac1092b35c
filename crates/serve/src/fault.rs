//! Deterministic fault injection for chaos-testing the daemon.
//!
//! A request opts into a fault by sending an `X-Fault` header; the
//! server *honors* the header only when it was spawned with
//! `ServerConfig::fault_injection = true`, so release deployments pay
//! nothing and cannot be tripped by hostile clients. Keeping the
//! trigger on the request (rather than a random server-side
//! probability) makes chaos runs deterministic: the test knows exactly
//! which requests fault, so it can assert *exact* injected-fault
//! counts in `/metrics` and bit-identical results on every healthy
//! request interleaved with the faults.
//!
//! Recognized header values:
//!
//! | `X-Fault`         | Effect                                                  |
//! |-------------------|---------------------------------------------------------|
//! | `build-panic`     | panics inside the plan-build closure (cache miss only)  |
//! | `solve-panic`     | panics inside a `/stream` solve after its first window (cache hit only) |
//! | `slow-solve=MS`   | sleeps `MS` ms before solving (trips compute deadlines) |
//! | `drop-stream=N`   | hard-closes the socket after `N` streamed chunks        |

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use opm_core::json::Json;

/// One parsed `X-Fault` directive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// Panic inside the plan-build closure. Only fires on a cache
    /// miss — a plan already interned serves from cache without ever
    /// entering the build path — so chaos tests vary the netlist (or
    /// solve options) to guarantee a fresh key.
    BuildPanic,
    /// Panic inside a `/stream` solve on a cached plan, in the window
    /// sink after the first window has gone out — mid-way through
    /// `SimPlan::solve_streaming`, where a real solver bug would
    /// unwind. Only fires on a cache hit, so the plan the panic unwinds
    /// through is the one the next request on that key is served from.
    SolvePanic,
    /// Sleep this long before solving, simulating a solve that blows
    /// its compute budget.
    SlowSolve(Duration),
    /// Hard-close the client socket after this many streamed chunks,
    /// simulating a mid-stream network partition.
    DropStream {
        /// Chunks delivered before the socket is shut down.
        after_chunks: usize,
    },
}

impl FaultSpec {
    /// Parses an `X-Fault` header value; unknown directives are
    /// ignored (`None`) rather than rejected, so typos in a chaos
    /// driver degrade to healthy traffic instead of 400s.
    pub fn parse(header: &str) -> Option<FaultSpec> {
        let h = header.trim();
        if h == "build-panic" {
            return Some(FaultSpec::BuildPanic);
        }
        if h == "solve-panic" {
            return Some(FaultSpec::SolvePanic);
        }
        if let Some(ms) = h.strip_prefix("slow-solve=") {
            return ms
                .parse()
                .ok()
                .map(|ms| FaultSpec::SlowSolve(Duration::from_millis(ms)));
        }
        if let Some(n) = h.strip_prefix("drop-stream=") {
            return n
                .parse()
                .ok()
                .map(|n| FaultSpec::DropStream { after_chunks: n });
        }
        None
    }
}

/// Counters for faults actually fired, reported under
/// `robustness.faults` in `/metrics` so a chaos run can assert the
/// exact number it injected.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Injected plan-build panics that actually fired.
    pub build_panics: AtomicU64,
    /// Injected mid-solve panics that actually fired.
    pub solve_panics: AtomicU64,
    /// Injected pre-solve sleeps that actually fired.
    pub slow_solves: AtomicU64,
    /// Streams hard-closed mid-flight by injection.
    pub dropped_streams: AtomicU64,
}

impl FaultStats {
    /// JSON object for the `/metrics` report.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "build_panics".into(),
                Json::Int(self.build_panics.load(Ordering::Relaxed) as i64),
            ),
            (
                "solve_panics".into(),
                Json::Int(self.solve_panics.load(Ordering::Relaxed) as i64),
            ),
            (
                "slow_solves".into(),
                Json::Int(self.slow_solves.load(Ordering::Relaxed) as i64),
            ),
            (
                "dropped_streams".into(),
                Json::Int(self.dropped_streams.load(Ordering::Relaxed) as i64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_known_directives() {
        assert_eq!(FaultSpec::parse("build-panic"), Some(FaultSpec::BuildPanic));
        assert_eq!(FaultSpec::parse("solve-panic"), Some(FaultSpec::SolvePanic));
        assert_eq!(
            FaultSpec::parse(" slow-solve=250 "),
            Some(FaultSpec::SlowSolve(Duration::from_millis(250)))
        );
        assert_eq!(
            FaultSpec::parse("drop-stream=3"),
            Some(FaultSpec::DropStream { after_chunks: 3 })
        );
    }

    #[test]
    fn unknown_directives_degrade_to_none() {
        assert_eq!(FaultSpec::parse("drop-stream"), None);
        assert_eq!(FaultSpec::parse("slow-solve=abc"), None);
        assert_eq!(FaultSpec::parse("explode"), None);
        assert_eq!(FaultSpec::parse(""), None);
    }
}
