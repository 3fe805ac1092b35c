//! Deterministic netlist fuzzing: seeded mutations of seed netlists —
//! byte flips, truncation, stray or unbalanced parentheses, non-ASCII
//! names and whitespace, huge exponents, empty source argument lists —
//! must never panic the parser, which answers every input with a circuit
//! or a `CircuitError::Parse`. A small hostile corpus pins exact
//! outcomes: the parsed node names and elements, or the error variant.

use opm::circuits::parser::parse_netlist;
use opm::circuits::CircuitError;
use opm::Simulation;
use opm_rng::StdRng;
use std::panic::catch_unwind;

const SEEDS: [&str; 5] = [
    "* RC low-pass\nV1 in 0 PULSE(0 1 0 1n 5n 1n 20n)\nR1 in out 1k\nC1 out 0 1n\n.end\n",
    "V1 a 0 DC 5\nI1 a 0 SIN(0 1m 1meg)\nV2 b 0 PWL(0 0 1n 1 2n 0)\nR1 a b 1kOhm\nL1 b gnd 2.2uH\nI2 0 b EXP(0 1 1n 2n 10n 3n)\n",
    "* rectifier\r\nV1 in 0 SIN(0 5 1k)\r\nD1 in out 1e-12 0.05\r\nR1 out 0 1k\r\nM1 out g 0 1m 0.7\r\nVg g 0 DC 2\r\nD2 out 0\r\n",
    "* R-CPE ladder\nV1 in 0 DC 1\nR1 in n1 1e3\nP1 n1 0 CPE 1e-6 0.5\nR2 n1 n2 1e3\nP2 n2 0 cpe 1u 0.5\n.END\n",
    "V1 n1_1 0 DC 1\nR1 n1_1 n1_2 100\nR2 n1_1 n2_1 1e2\nC1_1 n1_1 0 1n\nR3 n1_2 n2_2 100\n\tC1_2 n1_2 GND 1nF\nR4 n2_1 n2_2 100\nC2_1 n2_1 0 1n\nC2_2 n2_2 0 1n\n",
];

const INSERTS: [&str; 20] = [
    "(",
    ")",
    "((",
    "))",
    " ( ",
    ")(",
    "\u{e9}",
    "\u{3a9}",
    "\u{a0}",
    "\u{3000}",
    "\u{85}",
    "\u{feff}",
    "\u{65e5}\u{672c}",
    "e308",
    "1e308k",
    "9e999",
    "1e-400",
    "-1.7e308meg",
    "\t",
    "\r",
];

const EMPTY_SOURCES: [&str; 8] = [
    "V9 a 0 PULSE()",
    "I9 b 0 SIN( )",
    "V9 a 0 EXP",
    "V9 a 0 PWL",
    "I9 0 a DC",
    "V9 a 0 PULSE(",
    "V9 a 0 SIN)(",
    "I9 a b PWL(())",
];

/// One seeded mutation of `text`.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = |rng: &mut StdRng, len: usize| rng.random_range(0..len + 1);
    match rng.random_range(0..8) {
        0 if !bytes.is_empty() => {
            let i = rng.random_range(0..bytes.len());
            bytes[i] = rng.random_range(0..256) as u8;
        }
        1 => bytes.truncate(at(rng, bytes.len())),
        2 | 3 => {
            let i = at(rng, bytes.len());
            let s = INSERTS[rng.random_range(0..INSERTS.len())];
            bytes.splice(i..i, s.bytes());
        }
        4 => {
            let s = EMPTY_SOURCES[rng.random_range(0..EMPTY_SOURCES.len())];
            bytes.extend_from_slice(format!("\n{s}\n").as_bytes());
        }
        5 => {
            // Delete a span.
            let i = at(rng, bytes.len());
            let j = (i + rng.random_range(0..12)).min(bytes.len());
            bytes.drain(i..j);
        }
        6 => {
            // Replace a token: a zero or negative time, an overflow, an
            // empty group.
            let spaces: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b' ').collect();
            if let Some(&i) = spaces.get(rng.random_range(0..spaces.len() + 1)) {
                let j = (i + 1..bytes.len())
                    .find(|&j| matches!(bytes[j], b' ' | b'\n' | b')'))
                    .unwrap_or(bytes.len());
                let s = ["0", "-1", "1e308k", "()", "0n"][rng.random_range(0..5)];
                bytes.splice(i + 1..j, s.bytes());
            }
        }
        _ => {
            // Repeat a span.
            let i = at(rng, bytes.len());
            let j = (i + rng.random_range(0..24)).min(bytes.len());
            let span = bytes[i..j].to_vec();
            bytes.splice(j..j, span);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The parse outcome, in the form the corpus pins: the node names in
/// index order and the elements, or the error variant.
fn outcome(text: &str) -> String {
    match parse_netlist(text) {
        Ok(p) => {
            let mut names: Vec<(&String, &usize)> = p.node_names.iter().collect();
            names.sort_by_key(|e| *e.1);
            let names: Vec<&String> = names.into_iter().map(|e| e.0).collect();
            format!("ok {:?} {:?}", names, p.circuit.elements())
        }
        Err(e) => format!(
            "err {}",
            match e {
                CircuitError::BadNode(_) => "BadNode",
                CircuitError::BadValue(_) => "BadValue",
                CircuitError::Unsupported(_) => "Unsupported",
                CircuitError::Parse(_) => "Parse",
            }
        ),
    }
}

#[test]
fn mutated_netlists_never_panic_the_parser() {
    let mut rng = StdRng::seed_from_u64(0x0f0f_2026);
    let (mut accepted, mut rejected) = (0, 0);
    for iter in 0..3000 {
        let mut text = SEEDS[rng.random_range(0..SEEDS.len())].to_string();
        for _ in 0..rng.random_range(1..5) {
            text = mutate(&mut rng, &text);
        }
        let parsed = catch_unwind(|| parse_netlist(&text))
            .unwrap_or_else(|_| panic!("iteration {iter}: the parser panicked on {text:?}"));
        match parsed {
            Ok(p) => {
                accepted += 1;
                let n = p.circuit.num_nodes();
                assert_eq!(p.node_names.len(), n, "{text:?}");
                assert!(p.node_names.values().all(|&k| (1..=n).contains(&k)));
                // An accepted circuit assembles or is refused, never panics.
                let _assembled = catch_unwind(|| Simulation::from_circuit(&p.circuit, &[]))
                    .unwrap_or_else(|_| panic!("iteration {iter}: assembly panicked on {text:?}"));
            }
            Err(CircuitError::Parse(_)) => rejected += 1,
            Err(other) => panic!("iteration {iter}: {other:?} on {text:?}"),
        }
    }
    // The mutations must exercise both outcomes.
    assert!(
        accepted > 300 && rejected > 300,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// Hostile inputs and their outcomes, captured on the parser this one
/// replaced; the only differences are the entries marked, each a defect
/// of that parser.
const CORPUS: &[(&str, &str)] = &[
    (
        "",
        "ok [] []",
    ),
    (
        "* only a comment\n.options reltol=1e-3\n.end\n",
        "ok [] []",
    ),
    // Overflowed to an infinite value before scaled values were checked.
    (
        "V1 a 0 DC 1\nR1 a b 1.7e308k\nC1 b 0 1n\n",
        "err Parse",
    ),
    // Overflowed to an infinite value before scaled values were checked.
    (
        "V1 a 0 DC 1\nR1 a 0 1e308t\n",
        "err Parse",
    ),
    (
        "V1 a 0 DC 1\nR1 a 0 2e308\n",
        "err Parse",
    ),
    // Overflowed to an infinite value before scaled values were checked.
    (
        "V1 a 0 1.7e308k\nR1 a 0 1k\n",
        "err Parse",
    ),
    // Overflowed to an infinite value before scaled values were checked.
    (
        "D1 a 0 1e308meg\nR1 a 0 1k\nV1 a 0 DC 1\n",
        "err Parse",
    ),
    // Panicked in `Waveform` before the parser checked the shape.
    (
        "V1 a 0 PULSE(0 1 0 0 5n 0 20n)\nR1 a 0 1k\n",
        "err Parse",
    ),
    // Panicked in `Waveform` before the parser checked the shape.
    (
        "V1 a 0 PULSE(0 1 0 1n 5n 1n 2n)\nR1 a 0 1k\n",
        "err Parse",
    ),
    // Panicked in `Waveform` before the parser checked the shape.
    (
        "V1 a 0 EXP(0 1 0 0 1 1)\nR1 a 0 1k\n",
        "err Parse",
    ),
    // Panicked in `Waveform` before the parser checked the shape.
    (
        "V1 a 0 EXP(0 1 2 1 1 1)\nR1 a 0 1k\n",
        "err Parse",
    ),
    (
        "V1 a 0 PULSE(0 1 0 1n 5n 1n 20n\nR1 a 0 1k\n",
        "ok [\"a\"] [VoltageSource { n1: 1, n2: 0, waveform: Pulse { v1: 0.0, v2: 1.0, delay: 0.0, rise: 1e-9, width: 5e-9, fall: 1e-9, period: 2e-8 } }, Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "V1 a 0 PULSE)0 1 0 1n 5n 1n 20n(\nR1 a 0 1k\n",
        "ok [\"a\"] [VoltageSource { n1: 1, n2: 0, waveform: Pulse { v1: 0.0, v2: 1.0, delay: 0.0, rise: 1e-9, width: 5e-9, fall: 1e-9, period: 2e-8 } }, Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "V1 a 0 pulse (0 1 0 1n 5n 1n 20n)\nR1 a 0 1k\n",
        "ok [\"a\"] [VoltageSource { n1: 1, n2: 0, waveform: Pulse { v1: 0.0, v2: 1.0, delay: 0.0, rise: 1e-9, width: 5e-9, fall: 1e-9, period: 2e-8 } }, Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "V1 a 0 PULSE((0 1 0 1n 5n 1n 20n))\nR1 a 0 1k\n",
        "ok [\"a\"] [VoltageSource { n1: 1, n2: 0, waveform: Pulse { v1: 0.0, v2: 1.0, delay: 0.0, rise: 1e-9, width: 5e-9, fall: 1e-9, period: 2e-8 } }, Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "V1 a 0 SIN()\nR1 a 0 1k\n",
        "err Parse",
    ),
    (
        "V1 a 0 PWL( )\nR1 a 0 1k\n",
        "err Parse",
    ),
    (
        "V1 a 0 DC\nR1 a 0 1k\n",
        "err Parse",
    ),
    (
        "I1 a 0 EXP()\nR1 a 0 1k\n",
        "err Parse",
    ),
    (
        "V1 a 0 PULSE()\nR1 a 0 1k\n",
        "err Parse",
    ),
    (
        "V1 a 0 SIN(0 1 1k 0 0 7 8 9)\nR1 a 0 1k\n",
        "ok [\"a\"] [VoltageSource { n1: 1, n2: 0, waveform: Sine { offset: 0.0, ampl: 1.0, freq: 1000.0, delay: 0.0, damp: 0.0 } }, Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "V1 a 0 PWL(0 0 1n)\nR1 a 0 1k\n",
        "err Parse",
    ),
    (
        "V1 a 0 PWL(1n 1 0 0 1n 2)\nR1 a 0 1k\n",
        "ok [\"a\"] [VoltageSource { n1: 1, n2: 0, waveform: Pwl([(0.0, 0.0), (1e-9, 1.0), (1e-9, 2.0)]) }, Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "V1 a 0 DC 1 AC 1\nR1 a 0 1k\n",
        "ok [\"a\"] [VoltageSource { n1: 1, n2: 0, waveform: Dc(1.0) }, Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "V1 a 0 DC (\nR1 a 0 1k\n",
        "err Parse",
    ),
    (
        "R1 é ü 1k\nC1 ü 0 1n\nV1 é 0 DC 1\n",
        "ok [\"é\", \"ü\"] [Resistor { n1: 1, n2: 2, ohms: 1000.0 }, Capacitor { n1: 2, n2: 0, farads: 1e-9 }, VoltageSource { n1: 1, n2: 0, waveform: Dc(1.0) }]",
    ),
    (
        "R1\u{a0}a 0 1k\nV1 a\u{3000}0 DC 1\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1000.0 }, VoltageSource { n1: 1, n2: 0, waveform: Dc(1.0) }]",
    ),
    (
        "R1\u{b}a 0 1k\u{c}\nV1 a 0\u{85}DC 1\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1000.0 }, VoltageSource { n1: 1, n2: 0, waveform: Dc(1.0) }]",
    ),
    (
        "r1 A gnd 1K\nv1 A GND dc 2\nc1 A Gnd 1N\n",
        "ok [\"A\"] [Resistor { n1: 1, n2: 0, ohms: 1000.0 }, VoltageSource { n1: 1, n2: 0, waveform: Dc(2.0) }, Capacitor { n1: 1, n2: 0, farads: 1e-9 }]",
    ),
    (
        "(R1 a 0 1k\n",
        "err Parse",
    ),
    (
        "R1 a (0) 1k\n",
        "err Parse",
    ),
    (
        "R1 a 0 1k\n.END\nR2 garbage\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "R1 a 0 1k\n  .end  \nR2 garbage\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "R1 a 0 -1k\n",
        "err Parse",
    ),
    (
        "P1 a 0 CPE 1u 1.5\n",
        "err Parse",
    ),
    (
        "P1 a 0 CPE 1u\n",
        "err Parse",
    ),
    (
        "P1 a 0 cpe 1u 0.5\nR1 a 0 1k\n",
        "ok [\"a\"] [Cpe { n1: 1, n2: 0, q: 1e-6, alpha: 0.5 }, Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "P1 a 0 XPE 1u 0.5\n",
        "err Parse",
    ),
    (
        "M1 d g\n",
        "err Parse",
    ),
    (
        "M1 d g s\nR1 d 0 1k\nV1 g 0 DC 2\n",
        "ok [\"d\", \"g\", \"s\"] [Mosfet { d: 1, g: 2, s: 3, kp: 2e-5, vth: 1.0 }, Resistor { n1: 1, n2: 0, ohms: 1000.0 }, VoltageSource { n1: 2, n2: 0, waveform: Dc(2.0) }]",
    ),
    (
        "M1 d g s 1m 0.7 extra\nR1 d 0 1k\n",
        "ok [\"d\", \"g\", \"s\"] [Mosfet { d: 1, g: 2, s: 3, kp: 0.001, vth: 0.7 }, Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "M1 d g s -1m\n",
        "err Parse",
    ),
    (
        "D1 a\n",
        "err Parse",
    ),
    (
        "D1 a 0\nR1 a 0 1\n",
        "ok [\"a\"] [Diode { n1: 1, n2: 0, is_sat: 1e-14, vt: 0.025852 }, Resistor { n1: 1, n2: 0, ohms: 1.0 }]",
    ),
    (
        "D1 a 0 0\n",
        "err Parse",
    ),
    (
        "\u{feff}R1 a 0 1k\n",
        "err Parse",
    ),
    (
        "R1 a 0 1e-400\n",
        "err Parse",
    ),
    (
        "R1 a 0 1e-320\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1e-320 }]",
    ),
    (
        "C1 a 0 1.5e-3meg\n",
        "ok [\"a\"] [Capacitor { n1: 1, n2: 0, farads: 1500.0 }]",
    ),
    (
        "R1 a 0 0x10\n",
        "err Parse",
    ),
    (
        "R1 a 0 1.k\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "R1 a 0 .5\nR2 a 0 +.5e+1meg\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 0.5 }, Resistor { n1: 1, n2: 0, ohms: 5000000.0 }]",
    ),
    (
        "R1 a 0 1e\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1.0 }]",
    ),
    (
        "R1 a 0 1eF\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1.0 }]",
    ),
    (
        "R1 a 0 1e+\n",
        "err Parse",
    ),
    (
        "R1 a 0 -\n",
        "err Parse",
    ),
    (
        "R1 a 0 .\n",
        "err Parse",
    ),
    (
        "R1 a 0 inf\n",
        "err Parse",
    ),
    (
        "R1 a 0 +inf\n",
        "err Parse",
    ),
    (
        "R1 a 0 1inf\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1.0 }]",
    ),
    (
        "R1 a 0 NaN\n",
        "err Parse",
    ),
    (
        "R1 a 0 1Ω\n",
        "err Parse",
    ),
    (
        "R1 a 0 1kΩ\n",
        "err Parse",
    ),
    (
        "R1 a 0 1MEG\nR2 a 0 1Meg\nR3 a 0 1mEgOhm\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1000000.0 }, Resistor { n1: 1, n2: 0, ohms: 1000000.0 }, Resistor { n1: 1, n2: 0, ohms: 1000000.0 }]",
    ),
    (
        "R1 a 0 1k2\n",
        "err Parse",
    ),
    (
        "R1 a 0 1u F\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1e-6 }]",
    ),
    (
        "X1 a b 5\n",
        "err Parse",
    ),
    (
        "R1 a b\n",
        "err Parse",
    ),
    (
        "R1 a 0 1k extra tokens ignored\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "\r\n\tR1\ta\t0\t1k\r\n\r\nC1 a 0 1n\r\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1000.0 }, Capacitor { n1: 1, n2: 0, farads: 1e-9 }]",
    ),
    (
        "R1 a 0 1k\r",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "L1 a 0 1n\nI1 0 a SIN(0 1 1meg)\n",
        "ok [\"a\"] [Inductor { n1: 1, n2: 0, henries: 1e-9 }, CurrentSource { n1: 0, n2: 1, waveform: Sine { offset: 0.0, ampl: 1.0, freq: 1000000.0, delay: 0.0, damp: 0.0 } }]",
    ),
    (
        "R1 a a 1k\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 1, ohms: 1000.0 }]",
    ),
    (
        "R1 0 0 1k\n",
        "ok [] [Resistor { n1: 0, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "C1 gnd GND 1n\n",
        "ok [] [Capacitor { n1: 0, n2: 0, farads: 1e-9 }]",
    ),
    (
        "R1 a 0 1k\nR1 a 0 1k\n",
        "ok [\"a\"] [Resistor { n1: 1, n2: 0, ohms: 1000.0 }, Resistor { n1: 1, n2: 0, ohms: 1000.0 }]",
    ),
    (
        "V1 a 0 DC 1e308\nR1 a 0 1e-308\n",
        "ok [\"a\"] [VoltageSource { n1: 1, n2: 0, waveform: Dc(1e308) }, Resistor { n1: 1, n2: 0, ohms: 1e-308 }]",
    ),
    (
        "I1 a 0 PWL(0 1e308meg 1 0)\nR1 a 0 1k\n",
        "err Parse",
    ),
    (
        "R1 a 0 ((((\n",
        "err Parse",
    ),
    (
        ")))) a 0 1k\n",
        "err Parse",
    ),
    (
        "R1 ) ( 1k\n",
        "ok [\")\", \"(\"] [Resistor { n1: 1, n2: 2, ohms: 1000.0 }]",
    ),
];

#[test]
fn hostile_corpus_outcomes_are_pinned() {
    for (text, expected) in CORPUS {
        assert_eq!(outcome(text), *expected, "{text:?}");
    }
}
