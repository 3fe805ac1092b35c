//! Round trip: random circuits built through the API, printed as
//! netlist text in varied formatting, parse back to bit-equal elements
//! with unchanged node numbering, and assemble to the same CSR pencil as
//! a `CooMatrix::to_csr` reference stamped here.

use opm_circuits::mna::{
    assemble_fractional_mna, assemble_mna, assemble_nonlinear_mna, MnaModel, Output,
};
use opm_circuits::nonlinear::{NonlinearDevice, GMIN, VT_300K};
use opm_circuits::parser::parse_netlist;
use opm_circuits::{Circuit, DeviceModel, Diode, Element, Mosfet};
use opm_rng::StdRng;
use opm_sparse::{CooMatrix, CsrMatrix};
use opm_waveform::Waveform;
use std::fmt::Write as _;

/// Which assembler a random circuit is drawn for.
#[derive(Clone, Copy)]
enum Family {
    /// R, C, L and sources.
    Integer,
    /// R, CPEs of one order and sources.
    Fractional(f64),
    /// R, C, L, sources, diodes and MOSFETs.
    Nonlinear,
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.random_range(0..options.len())]
}

/// A number printed so that it parses back to exactly itself.
fn number(rng: &mut StdRng, x: f64) -> String {
    match rng.random_range(0..3) {
        0 => format!("{x:e}"),
        1 => format!("{x:E}"),
        _ => format!("{x}"),
    }
}

/// A positive value `m·scale` and its netlist spelling `m<suffix><unit>`,
/// equal bit for bit to what the parser computes from the text.
fn value(rng: &mut StdRng, units: &[&str]) -> (f64, String) {
    const SCALES: [(&str, f64); 14] = [
        ("", 1.0),
        ("f", 1e-15),
        ("p", 1e-12),
        ("n", 1e-9),
        ("N", 1e-9),
        ("u", 1e-6),
        ("U", 1e-6),
        ("m", 1e-3),
        ("k", 1e3),
        ("K", 1e3),
        ("meg", 1e6),
        ("MEG", 1e6),
        ("g", 1e9),
        ("t", 1e12),
    ];
    let (suffix, scale) = SCALES[rng.random_range(0..SCALES.len())];
    let m = rng.random_range(0.1..999.0);
    // With no scale letter, a unit such as `F` would read as femto.
    let unit = if suffix.is_empty() {
        pick(rng, &["", "Ohm", "V", "A", "H", "x"])
    } else {
        pick(rng, units)
    };
    (m * scale, format!("{}{suffix}{unit}", number(rng, m)))
}

/// A signed plain number, its text and value.
fn signed(rng: &mut StdRng, lo: f64, hi: f64) -> (f64, String) {
    let x = rng.random_range(lo..hi);
    (x, number(rng, x))
}

/// Prints a parenthesised argument list in one of several spellings.
fn args(rng: &mut StdRng, keyword: &str, values: &[String]) -> String {
    let keyword = match rng.random_range(0..3) {
        0 => keyword.to_string(),
        1 => keyword.to_ascii_lowercase(),
        _ => {
            let mut k = keyword.to_ascii_lowercase();
            k[..1].make_ascii_uppercase();
            k
        }
    };
    let sep = pick(rng, &[" ", "\t", "  ", " \t "]);
    let body = values.join(sep);
    match rng.random_range(0..4) {
        0 => format!("{keyword}({body})"),
        1 => format!("{keyword} ({body})"),
        2 => format!("{keyword}( {body} )"),
        _ => format!("{keyword} ( {body})"),
    }
}

/// A random source waveform and its netlist spelling.
fn source(rng: &mut StdRng) -> (Waveform, String) {
    match rng.random_range(0..6) {
        0 => {
            let (v, t) = signed(rng, -10.0, 10.0);
            (
                Waveform::Dc(v),
                format!("{} {t}", pick(rng, &["DC", "dc", "Dc"])),
            )
        }
        1 => {
            let (v, t) = signed(rng, -10.0, 10.0);
            (Waveform::Dc(v), t)
        }
        2 => {
            let (v1, t1) = signed(rng, -1.0, 1.0);
            let (v2, t2) = signed(rng, -1.0, 1.0);
            let (delay, t3) = value(rng, &["s"]);
            let (rise, t4) = value(rng, &["s"]);
            let (width, t5) = value(rng, &["s"]);
            let (fall, t6) = value(rng, &["s"]);
            let (period, t7) = if rng.random_range(0..2) == 0 {
                (0.0, "0".to_string())
            } else {
                let p = 2.0 * (rise + width + fall);
                (p, number(rng, p))
            };
            let w = Waveform::pulse(v1, v2, delay, rise, width, fall, period).unwrap();
            (w, args(rng, "PULSE", &[t1, t2, t3, t4, t5, t6, t7]))
        }
        3 => {
            let (offset, t1) = signed(rng, -1.0, 1.0);
            let (ampl, t2) = signed(rng, -5.0, 5.0);
            let (freq, t3) = value(rng, &["Hz"]);
            let mut text = vec![t1, t2, t3];
            let (mut delay, mut damp) = (0.0, 0.0);
            if rng.random_range(0..2) == 0 {
                let (d, t) = value(rng, &["s"]);
                delay = d;
                text.push(t);
                if rng.random_range(0..2) == 0 {
                    let (d, t) = signed(rng, 0.0, 3.0);
                    damp = d;
                    text.push(t);
                }
            }
            let w = Waveform::sine(offset, ampl, freq, delay, damp);
            (w, args(rng, "SIN", &text))
        }
        4 => {
            let mut points = Vec::new();
            let mut text = Vec::new();
            for _ in 0..rng.random_range(1..5) {
                let (t, tt) = value(rng, &["s"]);
                let (v, tv) = signed(rng, -2.0, 2.0);
                points.push((t, v));
                text.push(tt);
                text.push(tv);
            }
            let w = Waveform::pwl(points).expect("finite breakpoints");
            (w, args(rng, "PWL", &text))
        }
        _ => {
            let (v1, t1) = signed(rng, -1.0, 1.0);
            let (v2, t2) = signed(rng, -1.0, 1.0);
            let (td1, t3) = value(rng, &["s"]);
            let (tau1, t4) = value(rng, &["s"]);
            let td2 = 2.0 * td1;
            let (tau2, t6) = value(rng, &["s"]);
            let t5 = number(rng, td2);
            let w = Waveform::exp(v1, v2, td1, tau1, td2, tau2).unwrap();
            (w, args(rng, "EXP", &[t1, t2, t3, t4, t5, t6]))
        }
    }
}

/// A random circuit, its netlist text and its node names (node `k` at
/// index `k − 1`).
fn random_netlist(rng: &mut StdRng, family: Family) -> (Circuit, String, Vec<String>) {
    let mut ckt = Circuit::new();
    let mut names: Vec<String> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    // A node for the next terminal: ground, a node already named, or the
    // next new one, so the text introduces nodes in index order.
    let node = |rng: &mut StdRng, ckt: &mut Circuit, names: &mut Vec<String>| -> (usize, String) {
        let n = rng.random_range(0..names.len() + 2);
        if n == 0 {
            return (0, pick(rng, &["0", "gnd", "GND", "Gnd"]).to_string());
        }
        if n <= names.len() {
            return (n, names[n - 1].clone());
        }
        let k = ckt.add_node();
        let prefix = pick(
            rng,
            &["n", "N", "node_", "x.", "é", "Ω", "out", "v+", "a-b"],
        );
        names.push(format!("{prefix}{k}"));
        (k, names[k - 1].clone())
    };
    let kinds: &[char] = match family {
        Family::Integer => &['R', 'C', 'L', 'V', 'I'],
        Family::Fractional(_) => &['R', 'P', 'V', 'I'],
        Family::Nonlinear => &['R', 'C', 'L', 'V', 'I', 'D', 'M'],
    };
    for i in 0..rng.random_range(1..24) {
        let kind = kinds[rng.random_range(0..kinds.len())];
        let label = format!(
            "{}{}",
            if rng.random_range(0..2) == 0 {
                kind
            } else {
                kind.to_ascii_lowercase()
            },
            pick(rng, &["", "load", "_x"]).to_string() + &i.to_string()
        );
        let (n1, s1) = node(rng, &mut ckt, &mut names);
        let (n2, s2) = node(rng, &mut ckt, &mut names);
        let (element, rest) = match kind {
            'R' => {
                let (ohms, t) = value(rng, &["", "Ohm", "ohm", "R"]);
                (Element::Resistor { n1, n2, ohms }, t)
            }
            'C' => {
                let (farads, t) = value(rng, &["", "F", "f", "Farad"]);
                (Element::Capacitor { n1, n2, farads }, t)
            }
            'L' => {
                let (henries, t) = value(rng, &["", "H", "h"]);
                (Element::Inductor { n1, n2, henries }, t)
            }
            'P' => {
                let Family::Fractional(alpha) = family else {
                    unreachable!("CPEs belong to the fractional family")
                };
                let (q, t) = value(rng, &["", "F"]);
                let cpe = pick(rng, &["CPE", "cpe", "Cpe"]);
                let text = format!("{cpe} {t} {}", number(rng, alpha));
                (Element::Cpe { n1, n2, q, alpha }, text)
            }
            'V' | 'I' => {
                let (waveform, t) = source(rng);
                if kind == 'V' {
                    (Element::VoltageSource { n1, n2, waveform }, t)
                } else {
                    (Element::CurrentSource { n1, n2, waveform }, t)
                }
            }
            'D' => {
                let (mut is_sat, mut vt, mut text) = (1e-14, VT_300K, String::new());
                if rng.random_range(0..2) == 0 {
                    let (i, t) = value(rng, &["", "A"]);
                    is_sat = i;
                    text = t;
                    if rng.random_range(0..2) == 0 {
                        let (v, t) = value(rng, &["", "V"]);
                        vt = v;
                        text = format!("{text} {t}");
                    }
                }
                (Element::Diode { n1, n2, is_sat, vt }, text)
            }
            _ => {
                let (s, ss) = node(rng, &mut ckt, &mut names);
                let (mut kp, mut vth, mut text) = (2e-5, 1.0, ss);
                if rng.random_range(0..2) == 0 {
                    let (k, t) = value(rng, &["", "A"]);
                    kp = k;
                    text = format!("{text} {t}");
                    if rng.random_range(0..2) == 0 {
                        let (v, t) = signed(rng, -2.0, 2.0);
                        vth = v;
                        text = format!("{text} {t}");
                    }
                }
                (
                    Element::Mosfet {
                        d: n1,
                        g: n2,
                        s,
                        kp,
                        vth,
                    },
                    text,
                )
            }
        };
        ckt.add(element).expect("valid by construction");
        let sep = pick(rng, &[" ", "\t", "  ", " \t"]);
        let indent = pick(rng, &["", "", " ", "\t"]);
        lines.push(format!("{indent}{label}{sep}{s1}{sep}{s2}{sep}{rest}"));
        match rng.random_range(0..8) {
            0 => lines.push("* a comment line".into()),
            1 => lines.push(".option reltol=1e-3".into()),
            2 => lines.push(String::new()),
            3 => lines.push("   ".into()),
            _ => {}
        }
    }
    let mut text = String::new();
    if rng.random_range(0..2) == 0 {
        text.push_str("* random netlist\n");
    }
    let eol = pick(rng, &["\n", "\r\n"]);
    for line in &lines {
        let _ = write!(text, "{line}{eol}");
    }
    match rng.random_range(0..3) {
        0 => {}
        1 => text.push_str(".end\n"),
        _ => text.push_str(".END\nR99 not parsed past the end\n"),
    }
    (ckt, text, names)
}

/// The reference assembly: every stamp pushed to a `CooMatrix` in card
/// order, then converted with `to_csr`. That conversion runs through the
/// `CsrBuilder` the assembler uses, so this checks which stamps MNA
/// emits; `opm-sparse`'s own tests check the builder's sums against a
/// map.
fn reference(ckt: &Circuit, outputs: &[Output]) -> [Option<CsrMatrix>; 4] {
    let (_, inductors, _, vsrcs, isrcs) = ckt.census();
    let nn = ckt.num_nodes();
    let n = nn + inductors + vsrcs;
    let mut e = CooMatrix::new(n, n);
    let mut a = CooMatrix::new(n, n);
    let mut b = CooMatrix::new(n, vsrcs + isrcs);
    let pair = |m: &mut CooMatrix, n1: usize, n2: usize, g: f64| {
        if n1 > 0 {
            m.push(n1 - 1, n1 - 1, g);
        }
        if n2 > 0 {
            m.push(n2 - 1, n2 - 1, g);
        }
        if n1 > 0 && n2 > 0 {
            m.push(n1 - 1, n2 - 1, -g);
            m.push(n2 - 1, n1 - 1, -g);
        }
    };
    let (mut k_l, mut k_v, mut k_i) = (0, 0, 0);
    let mut devices = Vec::new();
    for el in ckt.elements() {
        match *el {
            Element::Resistor { n1, n2, ohms } => pair(&mut a, n1, n2, -1.0 / ohms),
            Element::Capacitor { n1, n2, farads } => pair(&mut e, n1, n2, farads),
            Element::Cpe { n1, n2, q, .. } => pair(&mut e, n1, n2, q),
            Element::Inductor { n1, n2, henries } => {
                let r = nn + k_l;
                if n1 > 0 {
                    a.push(n1 - 1, r, -1.0);
                    a.push(r, n1 - 1, 1.0);
                }
                if n2 > 0 {
                    a.push(n2 - 1, r, 1.0);
                    a.push(r, n2 - 1, -1.0);
                }
                e.push(r, r, henries);
                k_l += 1;
            }
            Element::VoltageSource { n1, n2, .. } => {
                let r = nn + inductors + k_v;
                if n1 > 0 {
                    a.push(n1 - 1, r, -1.0);
                    a.push(r, n1 - 1, -1.0);
                }
                if n2 > 0 {
                    a.push(n2 - 1, r, 1.0);
                    a.push(r, n2 - 1, 1.0);
                }
                b.push(r, k_v, 1.0);
                k_v += 1;
            }
            Element::CurrentSource { n1, n2, .. } => {
                let chan = vsrcs + k_i;
                if n1 > 0 {
                    b.push(n1 - 1, chan, -1.0);
                }
                if n2 > 0 {
                    b.push(n2 - 1, chan, 1.0);
                }
                k_i += 1;
            }
            Element::Diode { n1, n2, is_sat, vt } => devices.push(DeviceModel::Diode(Diode {
                anode: n1,
                cathode: n2,
                is_sat,
                vt,
            })),
            Element::Mosfet { d, g, s, kp, vth } => devices.push(DeviceModel::Mosfet(Mosfet {
                drain: d,
                gate: g,
                source: s,
                kp,
                vth,
            })),
        }
    }
    for dev in &devices {
        for (p, q) in dev.coupling_pairs() {
            pair(&mut a, p, q, -GMIN);
        }
    }
    let c = (!outputs.is_empty()).then(|| {
        let mut c = CooMatrix::new(outputs.len(), n);
        for (row, o) in outputs.iter().enumerate() {
            let col = match *o {
                Output::NodeVoltage(node) => node - 1,
                Output::InductorCurrent(k) => nn + k,
                Output::SourceCurrent(k) => nn + inductors + k,
            };
            c.push(row, col, 1.0);
        }
        c.to_csr()
    });
    [Some(e.to_csr()), Some(a.to_csr()), Some(b.to_csr()), c]
}

/// Every output the circuit can report, in a seeded order.
fn outputs(rng: &mut StdRng, ckt: &Circuit) -> Vec<Output> {
    let (_, inductors, _, vsrcs, _) = ckt.census();
    let mut all: Vec<Output> = (1..=ckt.num_nodes()).map(Output::NodeVoltage).collect();
    all.extend((0..inductors).map(Output::InductorCurrent));
    all.extend((0..vsrcs).map(Output::SourceCurrent));
    all.retain(|_| rng.random_range(0..3) == 0);
    all
}

fn pencil(m: &MnaModel) -> [Option<CsrMatrix>; 4] {
    let s = &m.system;
    [
        Some(s.e().clone()),
        Some(s.a().clone()),
        Some(s.b().clone()),
        s.c().cloned(),
    ]
}

/// `Debug` prints every `indptr`, `indices` and `data` entry, the data
/// in shortest round-trip form (so `-0.0` and `0.0` differ): equal
/// prints are equal bits.
fn bits<T: std::fmt::Debug>(x: &T) -> String {
    format!("{x:?}")
}

#[test]
fn printed_circuits_parse_back_and_assemble_identically() {
    let mut rng = StdRng::seed_from_u64(0x006e_6574_6c69_7374);
    for case in 0..600 {
        let family = match case % 3 {
            0 => Family::Integer,
            1 => Family::Fractional(*[0.5, 0.25, 0.8, 1.0].get(case / 3 % 4).unwrap()),
            _ => Family::Nonlinear,
        };
        let (ckt, text, names) = random_netlist(&mut rng, family);
        let parsed = parse_netlist(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(
            bits(&parsed.circuit.elements()),
            bits(&ckt.elements()),
            "case {case}:\n{text}"
        );
        assert_eq!(parsed.circuit.num_nodes(), ckt.num_nodes(), "case {case}");
        assert_eq!(parsed.node_names.len(), names.len(), "case {case}");
        for (k, name) in names.iter().enumerate() {
            assert_eq!(parsed.node(name), Some(k + 1), "case {case}: {name}");
        }

        let outs = outputs(&mut rng, &ckt);
        let model = match family {
            Family::Integer => assemble_mna(&parsed.circuit, &outs).unwrap(),
            Family::Fractional(alpha) => {
                let f = assemble_fractional_mna(&parsed.circuit, alpha, &outs).unwrap();
                MnaModel {
                    system: f.system.system().clone(),
                    inputs: f.inputs,
                    unknowns: f.unknowns,
                }
            }
            Family::Nonlinear => {
                assemble_nonlinear_mna(&parsed.circuit, &outs)
                    .unwrap()
                    .model
            }
        };
        assert_eq!(
            bits(&pencil(&model)),
            bits(&reference(&ckt, &outs)),
            "case {case}:\n{text}"
        );
    }
}
