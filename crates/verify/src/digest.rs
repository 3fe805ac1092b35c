//! Bit-identity digests: one FNV-1a hash per pinned solve, over the bit
//! patterns of its interval bounds, state columns and outputs.
//!
//! A change that claims "every result is bit-identical" runs
//! `opm-verify digest` on both commits and compares the lines. The
//! cases cover every column solve the plan layer runs: Newton
//! (rectifier, MOSFET inverter and the diode-into-RC-ladder at one and
//! eight windows), the linear block sweep (the 48×48 RC mesh over four
//! windows, one lane and eight on one thread — a multi-lane panel sweep
//! across the mesh's filled separator columns — and a multi-lane RC
//! ladder batch with a nonzero `x₀`), the
//! fractional convolution (the 64-section R–CPE ladder, 16 windows,
//! 8 lanes), the integer recurrence (a second-order power grid over
//! four windows), a coefficient stimulus and a step-grid plan. Two more
//! sets pin the window kernels: an R–L–C ladder at one and four windows
//! (its four-window pencil pivots unlike the one-window analysis), and
//! the mesh's four-window solve on a pattern hit — a plan built through
//! a [`PlanCache`] primed with other values, which must hash as the
//! fresh plan does.

use std::fmt::Write as _;

use opm_circuits::grid::PowerGridSpec;
use opm_circuits::na::assemble_na;
use opm_core::adaptive::geometric_grid;
use opm_core::{
    NewtonOptions, OpmError, OpmResult, PlanCache, Simulation, SolveOptions, WindowedOptions,
};
use opm_waveform::{InputSet, Waveform};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length, then every value's bit pattern.
    fn values<'a>(&mut self, len: usize, values: impl Iterator<Item = &'a f64>) {
        self.word(len as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }
}

/// The digest of a set of results, in order: per result its bounds, its
/// columns and its outputs, each with its length.
pub fn digest(results: &[OpmResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        h.values(r.bounds.len(), r.bounds.iter());
        h.values(r.columns.len(), r.columns.iter().flatten());
        h.values(r.outputs.len(), r.outputs.iter().flatten());
    }
    h.0
}

const RECTIFIER: &str = "* half-wave rectifier with RC load\nV1 in 0 SIN(0 1 1)\n\
    R1 in a 0.1\nD1 a out 1e-14\nR2 out 0 10\nC1 out 0 0.2\n.end\n";

const INVERTER: &str = "* square-law NMOS inverter\nV1 vdd 0 DC 5\n\
    V2 g 0 PULSE(0 5 0.1 0.6 0.6 0.2 2)\nR1 vdd d 1k\nC1 d 0 1000u\nM1 d g 0 2m 1\n.end\n";

/// The `g×g` RC mesh: `ohms` segments, 1 nF per node, a DC source at
/// the corner.
fn mesh_netlist(g: usize, ohms: &str) -> String {
    let mut s = String::from("* RC mesh\nV1 n1_1 0 DC 1\n");
    let mut r = 0;
    for i in 1..=g {
        for j in 1..=g {
            let mut resistor = |b: String| {
                r += 1;
                let _ = writeln!(s, "R{r} n{i}_{j} {b} {ohms}");
            };
            if j < g {
                resistor(format!("n{i}_{}", j + 1));
            }
            if i < g {
                resistor(format!("n{}_{j}", i + 1));
            }
            let _ = writeln!(s, "C{i}_{j} n{i}_{j} 0 1n");
        }
    }
    s.push_str(".end\n");
    s
}

/// A `sections`-long ladder of series `R` and shunt `shunt` cards (a
/// capacitor value, or a CPE as `CPE q α`), driven at `in`.
fn ladder_netlist(sections: usize, r: &str, shunt: &str) -> String {
    let kind = if shunt.starts_with("CPE") { 'P' } else { 'C' };
    let mut s = String::from("* ladder\nV1 in 0 DC 1\n");
    let mut prev = "in".to_string();
    for k in 1..=sections {
        let _ = writeln!(s, "R{k} {prev} n{k} {r}");
        let _ = writeln!(s, "{kind}{k} n{k} 0 {shunt}");
        prev = format!("n{k}");
    }
    s.push_str(".end\n");
    s
}

/// An 8-section ladder of series 1 Ω + 1 µH and shunt 1 µF, driven at
/// `in`.
fn rlc_ladder_netlist() -> String {
    let mut s = String::from("* R-L-C ladder\nV1 in 0 DC 1\n");
    let mut prev = "in".to_string();
    for k in 1..=8 {
        let _ = writeln!(s, "R{k} {prev} a{k} 1\nL{k} a{k} n{k} 1u\nC{k} n{k} 0 1u");
        prev = format!("n{k}");
    }
    s.push_str(".end\n");
    s
}

/// The diode rectifier into a 32-section RC ladder.
fn diode_ladder_netlist() -> String {
    let mut s = String::from(
        "* rectifier into an RC ladder\nV1 in 0 SIN(0 1 1)\nR0 in a 0.1\nD1 a out 1e-14\n\
         C0 out 0 0.2\n",
    );
    let mut prev = "out".to_string();
    for k in 1..=32 {
        let _ = writeln!(s, "R{k} {prev} l{k} 0.05");
        let _ = writeln!(s, "C{k} l{k} 0 0.01");
        prev = format!("l{k}");
    }
    s.push_str(&format!("RL {prev} 0 10\n.end\n"));
    s
}

/// `lanes` pulse stimuli of distinct amplitudes and delays.
fn pulses(lanes: usize, horizon: f64) -> Result<Vec<InputSet>, OpmError> {
    (0..lanes)
        .map(|l| {
            let (v2, delay) = (0.5 + 0.125 * l as f64, horizon * 0.01 * l as f64);
            let pulse = Waveform::pulse(
                0.0,
                v2,
                delay,
                horizon / 50.0,
                horizon / 4.0,
                horizon / 50.0,
                0.0,
            );
            let pulse = pulse.map_err(|e| OpmError::BadArguments(e.to_string()))?;
            Ok(InputSet::new(vec![pulse]))
        })
        .collect()
}

/// A netlist session over `horizon`, probing `probe`.
fn netlist(text: &str, probe: &str, horizon: f64) -> Result<Simulation, OpmError> {
    Ok(Simulation::from_netlist(text, &[probe])?.horizon(horizon))
}

/// The netlist's own sources through `solve_newton_windowed` at each
/// window count.
fn newton_cases(
    cases: &mut Vec<(String, u64)>,
    name: &str,
    sim: &Simulation,
    m: usize,
    windows: &[usize],
) -> Result<(), OpmError> {
    let plan = sim.plan(&SolveOptions::new().resolution(m))?;
    let own = sim
        .inputs()
        .ok_or_else(|| OpmError::BadArguments("a netlist session has sources".into()))?;
    for &w in windows {
        let r = plan.solve_newton_windowed(own, w, &NewtonOptions::new())?;
        cases.push((format!("{name}/newton_m{m}_w{w}"), digest(&[r])));
    }
    Ok(())
}

/// Every pinned case, in a fixed order: `(name, digest)`.
///
/// # Errors
/// Whatever a solve raises; a pinned case never fails on working code.
pub fn cases() -> Result<Vec<(String, u64)>, OpmError> {
    let mut out = Vec::new();
    newton_cases(
        &mut out,
        "rectifier",
        &netlist(RECTIFIER, "out", 2.0)?,
        64,
        &[1, 8],
    )?;
    newton_cases(
        &mut out,
        "inverter",
        &netlist(INVERTER, "d", 2.0)?,
        64,
        &[1, 8],
    )?;
    let diode = netlist(&diode_ladder_netlist(), "l32", 2.0)?;
    newton_cases(&mut out, "diode_ladder", &diode, 128, &[1, 8])?;

    let mesh = netlist(&mesh_netlist(48, "100"), "n48_48", 2e-6)?;
    let plan = mesh.plan(&SolveOptions::new().resolution(8))?;
    let own = mesh.inputs().cloned().unwrap_or_default();
    let r = plan.solve_windowed(&own, 4)?;
    out.push(("mesh48/m8_w4".into(), digest(&[r])));
    let r = plan.solve_windowed_batch_opts(&pulses(8, 2e-6)?, &WindowedOptions::new(4), 1)?;
    out.push(("mesh48/m8_w4_8lanes".into(), digest(&r)));

    let rc = netlist(&ladder_netlist(16, "10", "1m"), "n16", 1.0)?;
    let x0 = (0..rc.order()).map(|i| 0.01 * i as f64).collect();
    let rc = rc.initial_state(x0);
    let plan = rc.plan(&SolveOptions::new().resolution(32))?;
    let lanes = pulses(5, 1.0)?;
    let r = plan.solve_windowed_batch_opts(&lanes, &WindowedOptions::new(3), 2)?;
    out.push(("rc_ladder/x0_m32_w3_5lanes".into(), digest(&r)));
    let u = lanes[0].bpf_matrix(32, 1.0);
    let r = plan.solve_coeffs(&u)?;
    out.push(("rc_ladder/x0_coeffs_m32".into(), digest(&[r])));

    let cpe = netlist(&ladder_netlist(64, "100", "CPE 1e-6 0.5"), "n64", 1e-3)?;
    let plan = cpe.plan(&SolveOptions::new().resolution(64))?;
    let lanes = pulses(8, 1e-3)?;
    let r = plan.solve_windowed_batch_opts(&lanes, &WindowedOptions::new(16), 2)?;
    out.push(("cpe_ladder64/m64_w16_8lanes".into(), digest(&r)));

    let spec = PowerGridSpec {
        layers: 2,
        rows: 3,
        cols: 3,
        num_loads: 2,
        ..Default::default()
    };
    let na = assemble_na(&spec.build(), &[])?;
    let grid = Simulation::from_second_order(na.system).horizon(5e-9);
    let plan = grid.plan(&SolveOptions::new().resolution(32))?;
    let r = plan.solve_windowed(&na.inputs, 4)?;
    out.push(("power_grid/second_order_m32_w4".into(), digest(&[r])));

    let steps = geometric_grid(1e-3, 24, 1.15);
    let plan = cpe.plan(&SolveOptions::new().step_grid(steps))?;
    let r = plan.solve(&pulses(1, 1e-3)?[0])?;
    out.push(("cpe_ladder64/step_grid_24".into(), digest(&[r])));

    let rlc = netlist(&rlc_ladder_netlist(), "n8", 0.1)?;
    let plan = rlc.plan(&SolveOptions::new().resolution(8))?;
    let own = rlc.inputs().cloned().unwrap_or_default();
    for w in [1, 4] {
        let r = plan.solve_windowed(&own, w)?;
        out.push((format!("rlc_ladder/m8_w{w}"), digest(&[r])));
    }

    let opts = SolveOptions::new().resolution(8);
    let cache = PlanCache::new(2);
    cache.get_or_plan(&netlist(&mesh_netlist(48, "130"), "n48_48", 2e-6)?, &opts)?;
    let plan = cache.get_or_plan(&mesh, &opts)?;
    let own = mesh.inputs().cloned().unwrap_or_default();
    let r = plan.solve_windowed(&own, 4)?;
    out.push(("mesh48/pattern_hit_m8_w4".into(), digest(&[r])));
    Ok(out)
}
