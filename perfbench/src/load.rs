//! The untraced closed loop: `CLIENTS` connection(s), each sending its next
//! request only after the previous reply, against the daemon over
//! loopback sockets.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use opm_serve::client;

use crate::check;
use crate::gen::Workload;
use crate::CLIENTS;

/// What the closed loop observed.
#[derive(Default)]
pub struct Load {
    /// Client-observed latency of every completed request.
    pub latencies_ms: Vec<f64>,
    /// When each of those requests completed, in seconds from the start.
    pub done_s: Vec<f64>,
    /// From the first send to the last reply.
    pub wall_s: f64,
    pub attempted: usize,
    pub failed: usize,
    /// `(request, results text)` of `mesh_cold` replies, checked against
    /// in-process solves after the timed region.
    pub deferred: Vec<(usize, String)>,
    pub errors: Vec<String>,
}

/// Runs the closed loop for `seconds`. Every reply is checked for status
/// 200, the intended cache hit/miss and (pool bodies) results that are
/// byte-identical to `expected[pool index]`.
pub fn closed_loop(addr: SocketAddr, w: &Workload, expected: &[String], seconds: f64) -> Load {
    let next = AtomicUsize::new(0);
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let threads: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Load::default();
                    while t0.elapsed() < budget {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        mine.attempted += 1;
                        let Some(body) = w.body(k) else {
                            mine.failed += 1;
                            mine.errors.push(format!("request {k}: no body generated"));
                            continue;
                        };
                        let began = Instant::now();
                        let reply = client::post(addr, "/solve", &body);
                        mine.latencies_ms.push(began.elapsed().as_secs_f64() * 1e3);
                        mine.done_s.push(t0.elapsed().as_secs_f64());
                        if let Err(e) = check_reply(w, expected, k, reply, &mut mine.deferred) {
                            mine.failed += 1;
                            mine.errors.push(e);
                        }
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = Load {
        wall_s: t0.elapsed().as_secs_f64(),
        ..Load::default()
    };
    for joined in threads {
        let Ok(mine) = joined else {
            out.failed += 1;
            out.errors.push("a client thread panicked".into());
            continue;
        };
        out.latencies_ms.extend(mine.latencies_ms);
        out.done_s.extend(mine.done_s);
        out.attempted += mine.attempted;
        out.failed += mine.failed;
        out.deferred.extend(mine.deferred);
        out.errors.extend(mine.errors);
    }
    out
}

fn check_reply(
    w: &Workload,
    expected: &[String],
    k: usize,
    reply: std::io::Result<client::Response>,
    deferred: &mut Vec<(usize, String)>,
) -> Result<(), String> {
    let reply = reply.map_err(|e| format!("request {k}: {e}"))?;
    if reply.status != 200 {
        return Err(format!("request {k}: status {}", reply.status));
    }
    let results = check::reply(w, expected, k, &reply.body)?;
    if w.pool_index(k).is_none() {
        deferred.push((k, results.to_string()));
    }
    Ok(())
}

impl Load {
    /// `(completion time, latency)` of the requests of each of `slices`
    /// equal time slices of a `seconds`-long run (requests still in flight
    /// at the deadline count in the last slice).
    fn by_slice(&self, seconds: f64, slices: usize) -> Vec<Vec<(f64, f64)>> {
        let mut by_slice = vec![Vec::new(); slices];
        for (&ms, &done) in self.latencies_ms.iter().zip(&self.done_s) {
            let i = ((done * slices as f64 / seconds) as usize).min(slices - 1);
            by_slice[i].push((done, ms));
        }
        by_slice
    }

    /// Latency quantile `q` of each non-empty time slice.
    pub fn sliced(&self, seconds: f64, slices: usize, q: f64) -> Vec<f64> {
        self.by_slice(seconds, slices)
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| crate::percentile(&v.iter().map(|&(_, ms)| ms).collect::<Vec<_>>(), q))
            .collect()
    }

    /// Successful requests per second of each time slice with at least two
    /// completions: completions after the slice's first, over the time
    /// from its first to its last.
    pub fn sliced_rates(&self, seconds: f64, slices: usize) -> Vec<f64> {
        let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.by_slice(seconds, slices)
            .iter()
            .filter_map(|v| {
                let first = v.iter().map(|&(t, _)| t).fold(f64::INFINITY, f64::min);
                let last = v.iter().map(|&(t, _)| t).fold(f64::NEG_INFINITY, f64::max);
                (v.len() >= 2 && last > first).then(|| (v.len() - 1) as f64 * ok / (last - first))
            })
            .collect()
    }
}
