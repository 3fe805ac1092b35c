//! In-memory span recording and per-layer self times.
//!
//! A span is `(id, parent, request, name, start, end)`; spans of one
//! request share its request id. A span's self time is its duration
//! minus the durations of its children (children run sequentially on the
//! span's own thread, so their intervals never overlap).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. With `on == false` it only runs the
/// wrapped calls: no clock reads, no allocation.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `thread` keeps span ids unique across the recorders of one run.
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Self {
        Tracer {
            on,
            epoch,
            next_id: (thread << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the recorder and
    /// the new span's id, to open children under it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u64,
        f: impl FnOnce(&mut Tracer, u64) -> T,
    ) -> T {
        if !self.on {
            return f(self, 0);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self, id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }
}

/// Self time of every span, in nanoseconds, keyed by span id.
fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut own: BTreeMap<u64, u64> = spans
        .iter()
        .map(|s| (s.id, s.end_ns.saturating_sub(s.start_ns)))
        .collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let d = s.end_ns.saturating_sub(s.start_ns);
        if let Some(p) = own.get_mut(&s.parent) {
            *p = p.saturating_sub(d);
        }
    }
    own
}

/// Per-layer self times: for each span name, the self time (ms) summed
/// per request id, for every request the layer ran in.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default().entry(s.request).or_default() += own[&s.id] as f64 / 1e6;
    }
    out
}

/// Inclusive durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// The spans as tab-separated lines, sorted by start time.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for s in sorted {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out
}
