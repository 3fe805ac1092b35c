//! Shared plumbing for the experiment harness.
//!
//! Every experiment is one binary in `src/bin/`: the paper's Tables I
//! and II (`tables`), the extension studies (`adaptive_demo`,
//! `basis_compare`, `complexity`, `convergence`) and the gated
//! generators (`sweep`, `serve_bench`, `tables`). A generator only
//! measures: it writes every record through [`write()`], each record
//! carrying its own bound ([`rec`], [`per_profile`]), and exits 0.
//! `ci/compare_bench.py` is the only judge.
//!
//! A generator reads its output path from `--json PATH` ([`Cli`]) and
//! no environment variable but `OPM_SCALE` ([`env_scale`]) and the
//! worker count `OPM_THREADS` (read by `opm-par`).

// No unsafe anywhere in this crate; the only unsafe in the workspace
// is the audited AVX panel dispatch in opm-{core,sparse,fracnum}.
#![forbid(unsafe_code)]

use std::time::Instant;

use opm_core::json::Json;

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Times a closure `reps` times, returning the last result and the
/// **minimum** seconds — the standard noise-robust estimator on shared
/// or throttled machines, where the best observation is the closest to
/// the code's true cost.
///
/// # Panics
/// Panics when `reps == 0`.
pub fn timed_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(reps >= 1, "timed_best needs at least one repetition");
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..reps {
        let (o, s) = timed(&mut f);
        if s < best {
            best = s;
        }
        out = o;
    }
    (out, best)
}

/// Formats seconds human-readably (µs/ms/s).
pub fn fmt_time(sec: f64) -> String {
    if sec < 1e-3 {
        format!("{:.2} µs", sec * 1e6)
    } else if sec < 1.0 {
        format!("{:.2} ms", sec * 1e3)
    } else {
        format!("{sec:.2} s")
    }
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a rule line matching the given widths.
pub fn rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// The largest `|a − b|` over two series; infinite when their lengths
/// differ (written as `null`, which fails any bound).
pub fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Prints `msg` and exits 2: a generator refuses its input before it
/// measures anything.
fn refuse(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Parses a scale factor: unset is 1, anything but a positive integer
/// is refused.
///
/// # Errors
/// A message naming the value when it is not a positive integer.
fn parse_scale(value: Option<&str>) -> Result<usize, String> {
    match value.map(str::parse::<usize>) {
        None => Ok(1),
        Some(Ok(n)) if n >= 1 => Ok(n),
        Some(_) => Err(format!(
            "OPM_SCALE must be a positive integer, got {:?}",
            value.unwrap_or_default()
        )),
    }
}

/// The scale factor in `OPM_SCALE` (default 1): Table II grows its grid
/// with it toward paper scale. Garbage or 0 is refused: the process
/// exits 2 with a message.
pub fn env_scale() -> usize {
    let value = std::env::var("OPM_SCALE").ok();
    parse_scale(value.as_deref()).unwrap_or_else(|e| refuse(&e))
}

/// A generator's command line: `--json PATH` names its output file, and
/// a bin may accept one bare switch of its own. Nothing else is accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cli {
    /// Where the records go: `--json PATH`, else the committed file.
    pub json: String,
    /// Whether the bin's switch was given.
    pub switch: bool,
}

impl Cli {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    /// A message naming an unknown argument or a `--json` without a
    /// path.
    fn from_args(
        args: impl IntoIterator<Item = String>,
        default_json: &str,
        switch: Option<&str>,
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            json: default_json.to_string(),
            switch: false,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--json" {
                cli.json = args.next().ok_or("--json needs a path")?;
            } else if Some(arg.as_str()) == switch {
                cli.switch = true;
            } else {
                let usage = switch.map_or(String::new(), |s| format!(" [{s}]"));
                return Err(format!(
                    "unknown argument {arg:?}; usage: [--json PATH]{usage}"
                ));
            }
        }
        Ok(cli)
    }

    /// Parses the process's arguments; a bad command line is refused:
    /// the process exits 2 with a message.
    pub fn parse(default_json: &str, switch: Option<&str>) -> Cli {
        Cli::from_args(std::env::args().skip(1), default_json, switch)
            .unwrap_or_else(|e| refuse(&e))
    }
}

/// One bench record: its id, then its fields in order.
pub fn rec(id: impl Into<String>, fields: Vec<(&str, Json)>) -> Json {
    let mut entries = vec![("id".to_string(), Json::str(id))];
    entries.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(entries)
}

/// A bound that differs by gate profile; a profile left out is
/// unbounded there.
pub fn per_profile(bounds: &[(&str, f64)]) -> Json {
    Json::Obj(
        bounds
            .iter()
            .map(|&(p, v)| (p.to_string(), Json::Num(v)))
            .collect(),
    )
}

/// The document a generator writes: its schema, a note on what it
/// measured and how to regenerate it, and its records.
fn document(schema: &str, note: &str, records: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str(schema)),
        ("note".into(), Json::str(note)),
        ("records".into(), Json::Arr(records)),
    ])
}

/// Writes the generator's document to `path` on one line. A path that
/// cannot be written exits 1 with a message: the records are the
/// generator's whole output.
pub fn write(path: &str, schema: &str, note: &str, records: Vec<Json>) {
    let doc = document(schema, note, records);
    if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_refuses_garbage_and_zero() {
        assert_eq!(parse_scale(None), Ok(1));
        assert_eq!(parse_scale(Some("4")), Ok(4));
        for bad in ["0", "x", "", "-1", "2.5"] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains("OPM_SCALE"), "{err}");
        }
    }

    #[test]
    fn cli_reads_json_and_the_bins_switch_only() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cli = Cli::from_args(args(&[]), "BENCH_x.json", None).unwrap();
        assert_eq!((cli.json.as_str(), cli.switch), ("BENCH_x.json", false));
        let cli = Cli::from_args(args(&["--long", "--json", "o"]), "d", Some("--long")).unwrap();
        assert_eq!((cli.json.as_str(), cli.switch), ("o", true));
        assert!(Cli::from_args(args(&["--json"]), "d", None).is_err());
        let err = Cli::from_args(args(&["--long"]), "d", None).unwrap_err();
        assert!(err.contains("--long"), "{err}");
    }

    #[test]
    fn document_is_the_gate_format() {
        let min = per_profile(&[("local", 1.0)]);
        let doc = document("s/v1", "n", vec![rec("a/b", vec![("min", min)])]);
        assert_eq!(
            doc.to_string(),
            r#"{"schema": "s/v1", "note": "n", "records": [{"id": "a/b", "min": {"local": 1e0}}]}"#
        );
    }
}
