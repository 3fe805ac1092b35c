//! A SPICE-flavoured netlist text parser.
//!
//! Supported element cards (case-insensitive, `*` comments, `.end` stops):
//!
//! ```text
//! R<name> n1 n2 <value>
//! C<name> n1 n2 <value>
//! L<name> n1 n2 <value>
//! P<name> n1 n2 CPE <q> <alpha>
//! D<name> n+ n- [Is [vt]]          (defaults: 1e-14 A, 25.852 mV)
//! M<name> d g s [kp [vth]]         (defaults: 20 µA/V², 1 V)
//! V<name> n1 n2 DC <v> | PULSE(v1 v2 delay rise width fall period)
//!                      | SIN(offset ampl freq [delay [damp]])
//!                      | PWL(t1 v1 t2 v2 …)
//!                      | EXP(v1 v2 td1 tau1 td2 tau2)
//! I<name> n1 n2 <same source syntax>
//! ```
//!
//! `D` and `M` cards produce nonlinear elements; circuits containing
//! them assemble via `assemble_nonlinear_mna` and solve through the
//! session layer's Newton path.
//!
//! Values accept SPICE suffixes (`f p n u m k meg g t`). Node `0`, `gnd`
//! and `GND` are ground; other node names are assigned dense indices in
//! first-appearance order.
//!
//! # Tokens
//!
//! Lines end at `\n` (a `\r` before it is whitespace). A card's tokens
//! are the maximal runs of characters that are neither Unicode
//! whitespace nor a parenthesis, and each `(` and `)` is a token of its
//! own, so `PULSE(0 1 …)`, `PULSE (0 1 …)` and `PULSE( 0 1 … )` read
//! alike. A line without tokens or whose first token starts with `*` is
//! a comment, a line whose only token is `.end` (in any case) ends the
//! netlist, and any other line whose first token starts with `.` is
//! ignored. Element letters, source keywords, `CPE`, `gnd` and value
//! suffixes match in any ASCII case; node names are case-sensitive (`a`
//! and `A` are two nodes).
//!
//! Tokens are slices of the text collected into one reused vector, so a
//! card allocates nothing of its own; node names are looked up by the
//! slices, and a name is copied into an owned string only when its node
//! is new. Tokenizing reads each byte once: a 256-entry class table
//! gives one lookup and branch per ASCII byte, and a non-ASCII character
//! is decoded to test it for whitespace.

use crate::netlist::{Circuit, Element};
use crate::CircuitError;
use opm_waveform::Waveform;
use std::collections::HashMap;

/// Result of parsing: the circuit plus the node-name table.
#[derive(Clone, Debug)]
pub struct ParsedCircuit {
    /// The assembled circuit.
    pub circuit: Circuit,
    /// Maps node names to indices (ground not included).
    pub node_names: HashMap<String, usize>,
}

impl ParsedCircuit {
    /// Looks up a node index by name.
    pub fn node(&self, name: &str) -> Option<usize> {
        if is_ground(name) {
            Some(0)
        } else {
            self.node_names.get(name).copied()
        }
    }
}

fn is_ground(name: &str) -> bool {
    name == "0" || name.eq_ignore_ascii_case("gnd")
}

/// Parses a SPICE value: a leading number, an optional magnitude suffix
/// (`f p n u m k meg g t`, with `meg` matched before `m`), and any
/// trailing alphabetic *unit* letters, which SPICE ignores — so `1uF`,
/// `2.2uH` and `1kOhm` all parse, and `1uF` is 1 µF, not 1 femto-unit.
///
/// ```
/// use opm_circuits::parser::parse_value;
/// assert_eq!(parse_value("1k").unwrap(), 1e3);
/// assert_eq!(parse_value("2.5n").unwrap(), 2.5e-9);
/// assert_eq!(parse_value("3meg").unwrap(), 3e6);
/// assert_eq!(parse_value("1uF").unwrap(), 1e-6);
/// assert_eq!(parse_value("1kOhm").unwrap(), 1e3);
/// ```
///
/// # Errors
/// [`CircuitError::Parse`] on malformed input, and on a value that is
/// not finite once scaled (`1e308k`).
pub fn parse_value(s: &str) -> Result<f64, CircuitError> {
    let bad = || CircuitError::Parse(format!("bad value '{s}'"));
    let s = s.trim();
    // The number is everything before the trailing ASCII letters: a
    // float that parses finite never ends in a letter, so this is the
    // longest finite-parsing prefix whenever the rest can be a suffix.
    let cut = s
        .bytes()
        .rposition(|b| !b.is_ascii_alphabetic())
        .map_or(0, |p| p + 1);
    let (digits, letters) = s.split_at(cut);
    // Only explicit numbers qualify — `inf`/`nan` spellings would slip
    // through the float parser otherwise.
    if !digits
        .bytes()
        .next()
        .is_some_and(|b| b.is_ascii_digit() || b == b'+' || b == b'-' || b == b'.')
    {
        return Err(bad());
    }
    let value: f64 = digits.parse().map_err(|_| bad())?;
    if !value.is_finite() {
        return Err(bad());
    }
    // Magnitude scale from the start of the letters; the rest are unit
    // letters (e.g. the `F` of `1uF`), which are ignored.
    let mult = if letters.len() >= 3 && letters[..3].eq_ignore_ascii_case("meg") {
        1e6
    } else {
        match letters.as_bytes().first().map(u8::to_ascii_lowercase) {
            Some(b'f') => 1e-15,
            Some(b'p') => 1e-12,
            Some(b'n') => 1e-9,
            Some(b'u') => 1e-6,
            Some(b'm') => 1e-3,
            Some(b'k') => 1e3,
            Some(b'g') => 1e9,
            Some(b't') => 1e12,
            _ => 1.0,
        }
    };
    let scaled = value * mult;
    if !scaled.is_finite() {
        return Err(bad());
    }
    Ok(scaled)
}

/// Parses a netlist text into a circuit.
///
/// # Errors
/// [`CircuitError::Parse`] describing the offending line.
pub fn parse_netlist(text: &str) -> Result<ParsedCircuit, CircuitError> {
    let mut circuit = Circuit::new();
    let mut node_names = HashMap::new();
    let mut cards = Cards::new(text);
    let mut tokens: Vec<&str> = Vec::new();

    while let Some(lineno) = cards.next_line(&mut tokens) {
        let Some(first) = tokens.first() else {
            continue;
        };
        if first.starts_with('*') {
            continue;
        }
        if tokens.len() == 1 && first.eq_ignore_ascii_case(".end") {
            break;
        }
        if first.starts_with('.') {
            continue; // other dot-cards ignored
        }
        let kind = first
            .chars()
            .next()
            .expect("tokens are non-empty")
            .to_ascii_uppercase();
        // A diode card's parameters are all optional; everything else
        // needs at least one value (or a third node) after the pair.
        let min_fields = if kind == 'D' { 3 } else { 4 };
        if tokens.len() < min_fields {
            return Err(CircuitError::Parse(format!(
                "line {lineno}: too few fields: '{}'",
                cards.line(&tokens)
            )));
        }
        let n1 = node_index(&mut node_names, tokens[1], &mut circuit);
        let n2 = node_index(&mut node_names, tokens[2], &mut circuit);
        let err_line = |msg: String| CircuitError::Parse(format!("line {lineno}: {msg}"));
        let value_or = |at: usize, default: f64| match tokens.get(at) {
            Some(t) => parse_value(t),
            None => Ok(default),
        };

        let element = match kind {
            'R' => Element::Resistor {
                n1,
                n2,
                ohms: parse_value(tokens[3])?,
            },
            'C' => Element::Capacitor {
                n1,
                n2,
                farads: parse_value(tokens[3])?,
            },
            'L' => Element::Inductor {
                n1,
                n2,
                henries: parse_value(tokens[3])?,
            },
            'P' => {
                if !tokens[3].eq_ignore_ascii_case("cpe") || tokens.len() < 6 {
                    return Err(err_line("CPE card needs: P n1 n2 CPE q alpha".into()));
                }
                Element::Cpe {
                    n1,
                    n2,
                    q: parse_value(tokens[4])?,
                    alpha: parse_value(tokens[5])?,
                }
            }
            'D' => Element::Diode {
                n1,
                n2,
                is_sat: value_or(3, 1e-14)?,
                vt: value_or(4, crate::nonlinear::VT_300K)?,
            },
            'M' => {
                // M d g s [kp [vth]] — n1/n2 above already claimed drain
                // and gate; the source is the third node.
                let s = node_index(&mut node_names, tokens[3], &mut circuit);
                Element::Mosfet {
                    d: n1,
                    g: n2,
                    s,
                    kp: value_or(4, 2e-5)?,
                    vth: value_or(5, 1.0)?,
                }
            }
            'V' | 'I' => {
                let w = parse_source(&tokens[3..]).map_err(|e| match e {
                    CircuitError::Parse(m) => err_line(m),
                    other => other,
                })?;
                if kind == 'V' {
                    Element::VoltageSource {
                        n1,
                        n2,
                        waveform: w,
                    }
                } else {
                    Element::CurrentSource {
                        n1,
                        n2,
                        waveform: w,
                    }
                }
            }
            other => {
                return Err(err_line(format!("unknown element type '{other}'")));
            }
        };
        circuit.add(element).map_err(|e| err_line(format!("{e}")))?;
    }
    Ok(ParsedCircuit {
        circuit,
        node_names,
    })
}

/// A netlist's lines, each split into tokens in one pass over its bytes:
/// the maximal runs of characters that are neither whitespace nor a
/// parenthesis, and each `(` and `)` on its own, so `NAME(a b c)` reads
/// as `NAME ( a b c )`. Whitespace is Unicode's, as for `str::trim` and
/// `str::split_whitespace`; lines end at `\n`, as for `str::lines`.
struct Cards<'a> {
    text: &'a str,
    /// Where the next line starts.
    pos: usize,
    lineno: usize,
}

/// Byte classes for [`Cards`]: a token byte, ASCII whitespace, a
/// parenthesis, the line end, or a byte of a non-ASCII character.
const TOKEN: u8 = 0;
const SPACE: u8 = 1;
const PAREN: u8 = 2;
const NEWLINE: u8 = 3;
const WIDE: u8 = 4;

static CLASS: [u8; 256] = {
    let mut class = [TOKEN; 256];
    let mut b = 0;
    while b < 256 {
        class[b] = match b as u8 {
            b'\n' => NEWLINE,
            // `char::is_whitespace` on ASCII: HT, LF, VT, FF, CR, space.
            b'\t' | b'\x0b' | b'\x0c' | b'\r' | b' ' => SPACE,
            b'(' | b')' => PAREN,
            0x80..=0xff => WIDE,
            _ => TOKEN,
        };
        b += 1;
    }
    class
};

impl<'a> Cards<'a> {
    fn new(text: &'a str) -> Self {
        Cards {
            text,
            pos: 0,
            lineno: 0,
        }
    }

    /// Whether the non-ASCII character at byte `i` is whitespace, and
    /// its length.
    fn wide(&self, i: usize) -> (bool, usize) {
        let c = self.text[i..]
            .chars()
            .next()
            .expect("a character starts here");
        (c.is_whitespace(), c.len_utf8())
    }

    /// Splits the next line into `tokens` (cleared first) and returns its
    /// 1-based number, or `None` past the last line.
    fn next_line(&mut self, tokens: &mut Vec<&'a str>) -> Option<usize> {
        let bytes = self.text.as_bytes();
        if self.pos >= bytes.len() {
            return None;
        }
        tokens.clear();
        self.lineno += 1;
        let mut i = self.pos;
        while i < bytes.len() {
            let start = i;
            match CLASS[usize::from(bytes[i])] {
                SPACE => {
                    i += 1;
                    continue;
                }
                NEWLINE => {
                    i += 1;
                    break;
                }
                PAREN => i += 1,
                class => {
                    if class == WIDE {
                        let (space, len) = self.wide(i);
                        if space {
                            i += len;
                            continue;
                        }
                    }
                    loop {
                        while i < bytes.len() && CLASS[usize::from(bytes[i])] == TOKEN {
                            i += 1;
                        }
                        if i < bytes.len() && CLASS[usize::from(bytes[i])] == WIDE {
                            let (space, len) = self.wide(i);
                            if !space {
                                i += len;
                                continue;
                            }
                        }
                        break;
                    }
                }
            }
            tokens.push(&self.text[start..i]);
        }
        self.pos = i;
        Some(self.lineno)
    }

    /// The line of `tokens`, from its first token to its last: the line
    /// with surrounding whitespace trimmed.
    fn line(&self, tokens: &[&'a str]) -> &'a str {
        let at = |t: &str| t.as_ptr() as usize - self.text.as_ptr() as usize;
        match (tokens.first(), tokens.last()) {
            (Some(first), Some(last)) => &self.text[at(first)..at(last) + last.len()],
            _ => "",
        }
    }
}

/// The index of node `name`, adding a node to `circuit` on its first
/// appearance. Lookups borrow `name`; only a new node's name is copied.
fn node_index(names: &mut HashMap<String, usize>, name: &str, circuit: &mut Circuit) -> usize {
    if is_ground(name) {
        return 0;
    }
    if let Some(&n) = names.get(name) {
        return n;
    }
    let n = circuit.add_node();
    names.insert(name.to_owned(), n);
    n
}

fn parse_source(tokens: &[&str]) -> Result<Waveform, CircuitError> {
    let bad = |m: &str| CircuitError::Parse(m.to_string());
    let Some((&head, rest)) = tokens.split_first() else {
        return Err(bad("missing source specification"));
    };
    let is = |keyword: &str| head.eq_ignore_ascii_case(keyword);
    if is("DC") {
        let v = rest.first().ok_or_else(|| bad("DC needs a value"))?;
        return Ok(Waveform::Dc(parse_value(v)?));
    }
    // Bare value ⇒ DC.
    if !(is("PULSE") || is("SIN") || is("PWL") || is("EXP")) {
        return Ok(Waveform::Dc(parse_value(head)?));
    }
    let args: Vec<f64> = rest
        .iter()
        .filter(|t| **t != "(" && **t != ")")
        .map(|t| parse_value(t))
        .collect::<Result<_, _>>()?;
    if is("PULSE") {
        let [v1, v2, delay, rise, width, fall, period] = args[..] else {
            return Err(bad("PULSE needs 7 arguments"));
        };
        Waveform::pulse(v1, v2, delay, rise, width, fall, period)
            .map_err(|e| CircuitError::Parse(e.to_string()))
    } else if is("SIN") {
        if args.len() < 3 {
            return Err(bad("SIN needs at least offset, ampl, freq"));
        }
        Ok(Waveform::sine(
            args[0],
            args[1],
            args[2],
            args.get(3).copied().unwrap_or(0.0),
            args.get(4).copied().unwrap_or(0.0),
        ))
    } else if is("EXP") {
        let [v1, v2, td1, tau1, td2, tau2] = args[..] else {
            return Err(bad("EXP needs 6 arguments"));
        };
        Waveform::exp(v1, v2, td1, tau1, td2, tau2).map_err(|e| CircuitError::Parse(e.to_string()))
    } else {
        if args.len() < 2 || args.len() % 2 != 0 {
            return Err(bad("PWL needs t/v pairs"));
        }
        let pts = args.chunks(2).map(|c| (c[0], c[1])).collect();
        Waveform::pwl(pts).map_err(|e| CircuitError::Parse(format!("PWL: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RC: &str = "\
* simple RC low-pass
V1 in 0 PULSE(0 1 0 1n 5n 1n 20n)
R1 in out 1k
C1 out 0 1n
.end
ignored after end
";

    #[test]
    fn parses_rc_netlist() {
        let parsed = parse_netlist(RC).unwrap();
        assert_eq!(parsed.circuit.num_nodes(), 2);
        assert_eq!(parsed.circuit.elements().len(), 3);
        assert_eq!(parsed.node("in"), Some(1));
        assert_eq!(parsed.node("out"), Some(2));
        assert_eq!(parsed.node("0"), Some(0));
        assert_eq!(parsed.node("gnd"), Some(0));
    }

    #[test]
    fn value_suffixes() {
        assert_eq!(parse_value("100").unwrap(), 100.0);
        assert_eq!(parse_value("1.5k").unwrap(), 1500.0);
        assert_eq!(parse_value("2u").unwrap(), 2e-6);
        assert_eq!(parse_value("3p").unwrap(), 3e-12);
        assert_eq!(parse_value("4f").unwrap(), 4e-15);
        assert_eq!(parse_value("1meg").unwrap(), 1e6);
        assert_eq!(parse_value("1M").unwrap(), 1e-3); // SPICE: m = milli!
        assert!(parse_value("abc").is_err());
    }

    #[test]
    fn value_suffixes_with_trailing_unit_letters() {
        // The magnitude suffix wins over the unit letter: `1uF` is a
        // microfarad, not "1u" with a femto suffix.
        assert_eq!(parse_value("1uF").unwrap(), 1e-6);
        assert_eq!(parse_value("100pF").unwrap(), 1e-10);
        assert_eq!(parse_value("2.2uH").unwrap(), 2.2e-6);
        assert_eq!(parse_value("1kOhm").unwrap(), 1e3);
        assert_eq!(parse_value("10MegOhm").unwrap(), 1e7);
        assert_eq!(parse_value("3mV").unwrap(), 3e-3);
        // Bare unit letters with no magnitude scale 1:1.
        assert_eq!(parse_value("50Ohm").unwrap(), 50.0);
        assert_eq!(parse_value("2V").unwrap(), 2.0);
        // Exponent forms keep working next to unit letters.
        assert_eq!(parse_value("1.5e-3").unwrap(), 1.5e-3);
        assert_eq!(parse_value("1e3V").unwrap(), 1e3);
        // Garbage after the unit letters still fails.
        assert!(parse_value("1k2").is_err());
        assert!(parse_value("1u F").is_err());
        assert!(parse_value("inf").is_err());
        assert!(parse_value("nan").is_err());
    }

    #[test]
    fn unit_suffixed_netlist_parses_and_assembles() {
        let text = "\
V1 in 0 DC 5V
R1 in out 1kOhm
C1 out 0 1uF
L1 out gnd 2.2uH
.end
";
        let parsed = parse_netlist(text).unwrap();
        let mut seen = (0.0, 0.0, 0.0);
        for e in parsed.circuit.elements() {
            match e {
                Element::Resistor { ohms, .. } => seen.0 = *ohms,
                Element::Capacitor { farads, .. } => seen.1 = *farads,
                Element::Inductor { henries, .. } => seen.2 = *henries,
                _ => {}
            }
        }
        assert_eq!(seen, (1e3, 1e-6, 2.2e-6));
    }

    #[test]
    fn scaled_values_that_overflow_are_rejected() {
        for s in [
            "1.7e308k",
            "1e308t",
            "1e308meg",
            "2e300G",
            "-1.7e308k",
            "2e308",
        ] {
            assert!(
                matches!(parse_value(s), Err(CircuitError::Parse(_))),
                "{s} should be rejected"
            );
        }
        // The largest finite values still parse, scaled or not.
        assert_eq!(parse_value("1.7e308").unwrap(), 1.7e308);
        assert_eq!(parse_value("1.7e305k").unwrap(), 1.7e305 * 1e3);
        assert_eq!(parse_value("1e-300f").unwrap(), 1e-300 * 1e-15);
        // An overflowing resistor no longer becomes an open circuit.
        let err = parse_netlist("V1 in 0 DC 1\nR1 in out 1.7e308k\nC1 out 0 1n\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse(_)), "{err:?}");
    }

    #[test]
    fn pulse_and_exp_shapes_the_waveform_refuses_are_parse_errors() {
        for source in [
            "PULSE(0 1 0 0 5n 1n 20n)",
            "PULSE(0 1 0 1n 5n 0 20n)",
            "PULSE(0 1 0 1n 5n 1n 2n)",
            "EXP(0 1 0 0 1 1)",
            "EXP(0 1 0 1 1 -1)",
            "EXP(0 1 2 1 1 1)",
        ] {
            let err = parse_netlist(&format!("V1 a 0 {source}\nR1 a 0 1k\n")).unwrap_err();
            match err {
                CircuitError::Parse(m) => assert!(m.starts_with("line 1: "), "{m}"),
                other => panic!("{source}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn tokens_split_at_unicode_whitespace_and_parentheses() {
        let mut tokens = Vec::new();
        let text = "V1\u{a0}a\t0 PULSE((0 1)\u{3000}2)é\r\n\n  *x\n";
        let mut cards = Cards::new(text);
        assert_eq!(cards.next_line(&mut tokens), Some(1));
        assert_eq!(
            tokens,
            ["V1", "a", "0", "PULSE", "(", "(", "0", "1", ")", "2", ")", "é"]
        );
        assert_eq!(cards.line(&tokens), &text[..text.find('\r').unwrap()]);
        assert_eq!(cards.next_line(&mut tokens), Some(2));
        assert!(tokens.is_empty());
        assert_eq!(cards.line(&tokens), "");
        assert_eq!(cards.next_line(&mut tokens), Some(3));
        assert_eq!(tokens, ["*x"]);
        assert_eq!(cards.next_line(&mut tokens), None);
        // The same split as the whitespace-and-parens rule on `str`.
        let line = "R1 é(ü\u{85}x)\u{b}1k";
        Cards::new(line).next_line(&mut tokens);
        let spaced = line.replace('(', " ( ").replace(')', " ) ");
        assert_eq!(tokens, spaced.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn empty_pwl_source_is_a_parse_error() {
        let err = parse_netlist("V1 a 0 PWL()\nR1 a 0 1k\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse(_)));
    }

    #[test]
    fn parses_sources() {
        let text = "\
V1 a 0 DC 5
I1 a 0 SIN(0 1m 1meg)
V2 b 0 PWL(0 0 1n 1 2n 0)
R1 a b 1k
";
        let parsed = parse_netlist(text).unwrap();
        let (c, l, p, v, i) = parsed.circuit.census();
        assert_eq!((c, l, p, v, i), (0, 0, 0, 2, 1));
        match &parsed.circuit.elements()[0] {
            Element::VoltageSource { waveform, .. } => {
                assert_eq!(waveform.eval(1.0), 5.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_exp_source() {
        let text = "V1 a 0 EXP(0 1 1n 2n 10n 3n)\nR1 a 0 1k\n";
        let parsed = parse_netlist(text).unwrap();
        match &parsed.circuit.elements()[0] {
            Element::VoltageSource { waveform, .. } => {
                assert_eq!(waveform.eval(0.0), 0.0);
                assert!(waveform.eval(9e-9) > 0.9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_cpe_card() {
        let text = "P1 n1 0 CPE 1u 0.5\nR1 n1 0 50\n";
        let parsed = parse_netlist(text).unwrap();
        match &parsed.circuit.elements()[0] {
            Element::Cpe { q, alpha, .. } => {
                assert_eq!(*q, 1e-6);
                assert_eq!(*alpha, 0.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_diode_and_mosfet_cards() {
        let text = "\
V1 in 0 SIN(0 5 1k)
D1 in out 1e-12 0.05
R1 out 0 1k
M1 out g 0 1m 0.7
Vg g 0 DC 2
D2 out 0
.end
";
        let parsed = parse_netlist(text).unwrap();
        assert!(parsed.circuit.has_nonlinear());
        match &parsed.circuit.elements()[1] {
            Element::Diode { n1, n2, is_sat, vt } => {
                assert_eq!((*n1, *n2), (1, 2));
                assert_eq!(*is_sat, 1e-12);
                assert_eq!(*vt, 0.05);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &parsed.circuit.elements()[3] {
            Element::Mosfet { d, g, s, kp, vth } => {
                assert_eq!((*d, *s), (2, 0));
                assert_eq!(*g, parsed.node("g").unwrap());
                assert_eq!(*kp, 1e-3);
                assert_eq!(*vth, 0.7);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults on the bare diode card.
        match &parsed.circuit.elements()[5] {
            Element::Diode { is_sat, vt, .. } => {
                assert_eq!(*is_sat, 1e-14);
                assert_eq!(*vt, crate::nonlinear::VT_300K);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nonlinear_netlist_assembles() {
        let parsed = parse_netlist("V1 in 0 DC 5\nR1 in out 1k\nD1 out 0\n").unwrap();
        let nl = crate::mna::assemble_nonlinear_mna(
            &parsed.circuit,
            &[crate::mna::Output::NodeVoltage(parsed.node("out").unwrap())],
        )
        .unwrap();
        assert_eq!(nl.devices.len(), 1);
        // The linear assembler refuses the same circuit.
        assert!(matches!(
            crate::mna::assemble_mna(&parsed.circuit, &[]),
            Err(CircuitError::Unsupported(_))
        ));
    }

    #[test]
    fn error_reporting_includes_line() {
        let err = parse_netlist("R1 a b\n").unwrap_err();
        match err {
            CircuitError::Parse(m) => assert!(m.contains("line 1"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
        let err = parse_netlist("X1 a b 5\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse(_)));
    }

    #[test]
    fn parsed_rc_assembles() {
        let parsed = parse_netlist(RC).unwrap();
        let model = crate::mna::assemble_mna(
            &parsed.circuit,
            &[crate::mna::Output::NodeVoltage(parsed.node("out").unwrap())],
        )
        .unwrap();
        assert_eq!(model.system.order(), 3);
    }
}
