//! Seeded request generators for the four workloads.
//!
//! Every perturbation, amplitude and delay is drawn from `opm-rng`
//! seeded with the benchmark's `--seed`; the daemon only ever sees the
//! generated request bodies.

use std::collections::HashSet;
use std::fmt::Write as _;

use opm_rng::StdRng;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    MeshWarm,
    MeshCold,
    CpeHistory,
    DiodeNewton,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::MeshWarm,
        Kind::MeshCold,
        Kind::CpeHistory,
        Kind::DiodeNewton,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::MeshWarm => "mesh_warm",
            Kind::MeshCold => "mesh_cold",
            Kind::CpeHistory => "cpe_history",
            Kind::DiodeNewton => "diode_newton",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether every timed request of this workload should be a plan-cache
    /// hit (`false`: every one should be a miss).
    pub fn expects_hit(self) -> bool {
        self != Kind::MeshCold
    }

    /// Resolution `m`, window count `W` and scenarios per request.
    pub fn shape(self) -> Shape {
        match self {
            Kind::MeshWarm | Kind::MeshCold => Shape {
                m: 8,
                windows: 4,
                scenarios: 1,
            },
            Kind::CpeHistory => Shape {
                m: 64,
                windows: 16,
                scenarios: 8,
            },
            Kind::DiodeNewton => Shape {
                m: 128,
                windows: 8,
                scenarios: 1,
            },
        }
    }
}

/// The per-request solve shape of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub m: usize,
    pub windows: usize,
    pub scenarios: usize,
}

impl Shape {
    /// BPF columns solved per scenario.
    pub fn columns(&self) -> usize {
        self.m * self.windows
    }
}

const MESH: usize = 48;
const MESH_HORIZON: f64 = 2e-6;
/// Distinct pinned bodies `mesh_warm` cycles through (and bodies
/// `mesh_cold` primes the daemon with).
const MESH_PINNED: usize = 4;
/// Distinct perturbations generated for `mesh_cold`: far more than a
/// 60-second run can send on a small machine.
const COLD_BODIES: usize = 20_000;

const CPE_SECTIONS: usize = 64;
const CPE_HORIZON: f64 = 1e-3;
const CPE_NETLISTS: usize = 2;
const CPE_POOL: usize = 8;

const DIODE_SECTIONS: usize = 32;
const DIODE_HORIZON: f64 = 2.0;
const DIODE_POOL: usize = 16;

/// Length of the seeded pool-index sequence the hit workloads replay.
const ORDER_LEN: usize = 4096;

/// One workload's generated inputs.
pub struct Workload {
    pub kind: Kind,
    /// Bodies posted during set-up to fill the plan cache; each is a miss.
    pub primers: Vec<String>,
    /// Request source: a fixed pool (hit workloads) or one perturbation
    /// per request (`mesh_cold`).
    source: Source,
}

enum Source {
    Pool {
        bodies: Vec<String>,
        /// Seeded pool index of request `k` (mod the sequence length).
        order: Vec<usize>,
    },
    Cold {
        mesh: MeshNetlist,
        /// `(resistor, ohms, pulse amplitude, pulse delay)` per request,
        /// all `(resistor, ohms)` pairs distinct.
        perturbations: Vec<(usize, f64, f64, f64)>,
    },
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        // Decorrelate the workloads' streams for one seed.
        let mut rng =
            StdRng::seed_from_u64(seed ^ (kind as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match kind {
            Kind::MeshWarm => {
                let mesh = MeshNetlist::new();
                let bodies: Vec<String> = (0..MESH_PINNED)
                    .map(|_| {
                        let (r, ohms) = mesh_perturbation(&mut rng, mesh.resistors);
                        let (ampl, delay) = pulse_draw(&mut rng);
                        mesh.body(r, ohms, ampl, delay)
                    })
                    .collect();
                Workload {
                    kind,
                    primers: bodies.clone(),
                    source: pool(&mut rng, bodies),
                }
            }
            Kind::MeshCold => {
                let mesh = MeshNetlist::new();
                let mut seen = HashSet::new();
                let mut draw = |rng: &mut StdRng| loop {
                    let (r, ohms) = mesh_perturbation(rng, mesh.resistors);
                    if seen.insert((r, ohms.to_bits())) {
                        let (ampl, delay) = pulse_draw(rng);
                        return (r, ohms, ampl, delay);
                    }
                };
                // Primers are perturbations no timed request repeats.
                let primers = (0..MESH_PINNED)
                    .map(|_| {
                        let (r, ohms, ampl, delay) = draw(&mut rng);
                        mesh.body(r, ohms, ampl, delay)
                    })
                    .collect();
                let perturbations = (0..COLD_BODIES).map(|_| draw(&mut rng)).collect();
                Workload {
                    kind,
                    primers,
                    source: Source::Cold {
                        mesh,
                        perturbations,
                    },
                }
            }
            Kind::CpeHistory => {
                let netlists: Vec<String> = (0..CPE_NETLISTS)
                    .map(|_| {
                        let r = 1e3 * rng.random_range(0.8..1.2);
                        let q = 1e-6 * rng.random_range(0.8..1.2);
                        cpe_netlist(r, q)
                    })
                    .collect();
                let bodies: Vec<String> = (0..CPE_POOL)
                    .map(|i| {
                        let scenarios: Vec<String> = (0..Kind::CpeHistory.shape().scenarios)
                            .map(|_| {
                                let level = rng.random_range(0.5..1.5);
                                let t0 = CPE_HORIZON * rng.random_range(0.0..0.25);
                                format!(r#"[{{"kind": "step", "t0": {t0:e}, "level": {level:e}}}]"#)
                            })
                            .collect();
                        body_json(
                            &netlists[i % CPE_NETLISTS],
                            "n8",
                            CPE_HORIZON,
                            Kind::CpeHistory.shape(),
                            Some(&scenarios.join(", ")),
                        )
                    })
                    .collect();
                Workload {
                    kind,
                    primers: bodies[..CPE_NETLISTS].to_vec(),
                    source: pool(&mut rng, bodies),
                }
            }
            Kind::DiodeNewton => {
                // Newton's iteration count follows the amplitude, so the
                // amplitudes are stratified: every seed covers the range
                // evenly and a run's work barely depends on the seed.
                let bodies: Vec<String> = (0..DIODE_POOL)
                    .map(|i| {
                        let u: f64 = rng.random_range(0.0..1.0);
                        let ampl = 0.8 + 0.4 * (i as f64 + u) / DIODE_POOL as f64;
                        let delay = rng.random_range(0.0..0.1);
                        body_json(
                            &diode_netlist(ampl, delay),
                            &format!("l{DIODE_SECTIONS}"),
                            DIODE_HORIZON,
                            Kind::DiodeNewton.shape(),
                            None,
                        )
                    })
                    .collect();
                // The source waveform is not part of the plan key, so the
                // whole pool shares the one plan the first body builds.
                Workload {
                    kind,
                    primers: bodies[..1].to_vec(),
                    source: pool(&mut rng, bodies),
                }
            }
        }
    }

    /// The body of timed request `k`; `None` once a cold run has used up
    /// its distinct perturbations.
    pub fn body(&self, k: usize) -> Option<String> {
        match &self.source {
            Source::Pool { bodies, order } => Some(bodies[order[k % order.len()]].clone()),
            Source::Cold {
                mesh,
                perturbations,
            } => perturbations
                .get(k)
                .map(|&(r, ohms, ampl, delay)| mesh.body(r, ohms, ampl, delay)),
        }
    }

    /// Which pool body request `k` is (`None` for `mesh_cold`, whose
    /// bodies never repeat).
    pub fn pool_index(&self, k: usize) -> Option<usize> {
        match &self.source {
            Source::Pool { order, .. } => Some(order[k % order.len()]),
            Source::Cold { .. } => None,
        }
    }

    /// The distinct pool bodies (empty for `mesh_cold`).
    pub fn pool(&self) -> &[String] {
        match &self.source {
            Source::Pool { bodies, .. } => bodies,
            Source::Cold { .. } => &[],
        }
    }
}

fn pool(rng: &mut StdRng, bodies: Vec<String>) -> Source {
    let order = (0..ORDER_LEN)
        .map(|_| rng.random_range(0..bodies.len()))
        .collect();
    Source::Pool { bodies, order }
}

fn mesh_perturbation(rng: &mut StdRng, resistors: usize) -> (usize, f64) {
    (
        rng.random_range(0..resistors),
        100.0 * rng.random_range(0.5..1.5),
    )
}

fn pulse_draw(rng: &mut StdRng) -> (f64, f64) {
    (
        rng.random_range(0.5..1.5),
        MESH_HORIZON * rng.random_range(0.0..0.1),
    )
}

/// The `MESH×MESH` RC mesh (n = 2305), split into JSON-escaped netlist
/// lines so a value perturbation only rewrites one of them.
struct MeshNetlist {
    /// Escaped lines, each ending in `\n` (escaped).
    lines: Vec<String>,
    /// `(line index, name, node a, node b)` per resistor, in card order.
    resistor_lines: Vec<(usize, String, String, String)>,
    resistors: usize,
}

impl MeshNetlist {
    fn new() -> Self {
        let mut lines = vec!["* RC mesh\\n".to_string(), "V1 n1_1 0 DC 1\\n".to_string()];
        let mut resistor_lines = Vec::new();
        let mut r = 0usize;
        let mut resistor = |lines: &mut Vec<String>, a: String, b: String| {
            r += 1;
            let name = format!("R{r}");
            lines.push(format!("{name} {a} {b} 100\\n"));
            resistor_lines.push((lines.len() - 1, name, a, b));
        };
        for i in 1..=MESH {
            for j in 1..=MESH {
                if j < MESH {
                    resistor(&mut lines, format!("n{i}_{j}"), format!("n{i}_{}", j + 1));
                }
                if i < MESH {
                    resistor(&mut lines, format!("n{i}_{j}"), format!("n{}_{j}", i + 1));
                }
                lines.push(format!("C{i}_{j} n{i}_{j} 0 1n\\n"));
            }
        }
        lines.push(".end\\n".to_string());
        let resistors = resistor_lines.len();
        MeshNetlist {
            lines,
            resistor_lines,
            resistors,
        }
    }

    /// The mesh with resistor `r` set to `ohms`, driven by one pulse.
    fn body(&self, r: usize, ohms: f64, ampl: f64, delay: f64) -> String {
        let (at, name, a, b) = &self.resistor_lines[r];
        let mut netlist =
            String::with_capacity(self.lines.iter().map(String::len).sum::<usize>() + 32);
        for (i, line) in self.lines.iter().enumerate() {
            if i == *at {
                let _ = write!(netlist, "{name} {a} {b} {ohms:e}\\n");
            } else {
                netlist.push_str(line);
            }
        }
        let scenario = format!(
            r#"[{{"kind": "pulse", "v1": 0.0, "v2": {ampl:e}, "delay": {delay:e}, "rise": 1e-8, "width": 5e-7, "fall": 1e-8, "period": 0.0}}]"#
        );
        escaped_body_json(
            &netlist,
            "n3_3",
            MESH_HORIZON,
            Kind::MeshWarm.shape(),
            Some(&scenario),
        )
    }
}

/// A 64-section R–CPE ladder (fractional MNA, α = 0.5).
fn cpe_netlist(r: f64, q: f64) -> String {
    let mut s = String::from("* R-CPE ladder\nV1 in 0 DC 1\n");
    let mut prev = "in".to_string();
    for k in 1..=CPE_SECTIONS {
        let _ = writeln!(s, "R{k} {prev} n{k} {r:e}");
        let _ = writeln!(s, "P{k} n{k} 0 CPE {q:e} 0.5");
        prev = format!("n{k}");
    }
    s.push_str(".end\n");
    s
}

/// A half-wave diode rectifier driving a 32-section RC ladder from the
/// netlist's own `SIN` source.
fn diode_netlist(ampl: f64, delay: f64) -> String {
    let mut s = format!(
        "* rectifier into an RC ladder\nV1 in 0 SIN(0 {ampl:e} 1 {delay:e})\nR0 in a 0.1\nD1 a out 1e-14\nC0 out 0 0.2\n"
    );
    let mut prev = "out".to_string();
    for k in 1..=DIODE_SECTIONS {
        let _ = writeln!(s, "R{k} {prev} l{k} 0.05");
        let _ = writeln!(s, "C{k} l{k} 0 0.01");
        prev = format!("l{k}");
    }
    let _ = writeln!(s, "RL {prev} 0 10");
    s.push_str(".end\n");
    s
}

fn body_json(
    netlist: &str,
    probe: &str,
    horizon: f64,
    shape: Shape,
    scenarios: Option<&str>,
) -> String {
    escaped_body_json(
        &netlist.replace('\n', "\\n"),
        probe,
        horizon,
        shape,
        scenarios,
    )
}

/// A `POST /solve` body around an already JSON-escaped netlist.
fn escaped_body_json(
    netlist: &str,
    probe: &str,
    horizon: f64,
    shape: Shape,
    scenarios: Option<&str>,
) -> String {
    let Shape { m, windows, .. } = shape;
    let scenarios = scenarios
        .map(|s| format!(r#", "scenarios": [{s}]"#))
        .unwrap_or_default();
    format!(
        r#"{{"netlist": "{netlist}", "probes": ["{probe}"], "horizon": {horizon:e}, "options": {{"resolution": {m}}}, "windows": {windows}{scenarios}}}"#
    )
}
