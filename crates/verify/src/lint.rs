//! Repo-invariant lint pass: a hand-rolled scanner for the
//! cross-cutting source rules the workspace's correctness story leans
//! on. No `syn`, no regex crate — a code mask (comments and string
//! literals blanked) plus token scanning is enough for every rule here,
//! and keeps the tool std-only like the rest of the tree.
//!
//! # Rules
//!
//! | rule | scope | bans |
//! |------|-------|------|
//! | `poison-unwrap` | all library code | `.lock().unwrap()` / `.lock().expect(` — PR 8's poison discipline is `unwrap_or_else(PoisonError::into_inner)` (or a monitor that encapsulates it) |
//! | `wall-clock` | kernel crates | `Instant`, `SystemTime`, `thread::sleep` — solver numerics must be replayable; time is a serving-layer concern |
//! | `unsafe-safety` | all library code | an `unsafe` token with no `SAFETY:` comment (or `# Safety` doc) within the preceding lines |
//! | `panel-fast-math` | kernel crates | `mul_add` / `*_fast` intrinsics — the panel kernels carry a bit-identity contract against the scalar reference (`kernel/panel_vs_scalar_max_abs_delta == 0`), and fused rounding breaks it |
//! | `stray-print` | library code (not bins) | `println!` / `eprintln!` / `print!` / `eprint!` / `dbg!` — libraries report through return values and the JSON metrics surface |
//! | `env-knob` | library code (not bins) | `env::var` (and `var_os`, `vars`) — a library takes its configuration as arguments; an environment variable is a hidden option no caller can see |
//! | `oracle-dep` | production crates' `Cargo.toml` | an oracle crate (`opm-oracle`, `opm-transient`) outside `[dev-dependencies]` — reference solvers check what a request runs and never run in one |
//!
//! Test code is exempt everywhere: `#[cfg(test)]` regions are tracked
//! by brace counting, and only `src/` trees are scanned (integration
//! `tests/`, `benches/`, `examples/` are not library code). The
//! manifest rule reads the `Cargo.toml` of each [`PRODUCTION_CRATES`]
//! member; the facade, bench and verify crates are exempt.
//!
//! # Allowlists
//!
//! Each rule reads `crates/verify/allow/<rule>.txt`: one
//! `path -- justification` per line. An entry must carry a non-empty
//! justification and silences the rule for that whole file. Unused
//! entries are reported (stale allowlists rot) but do not fail the run.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose `src/` holds solver numerics: deterministic, clock-free
/// code the paper-facing claims (replayability, bit-identity panels)
/// are made about. The serving/bench layers are deliberately absent.
pub const KERNEL_CRATES: &[&str] = &[
    "basis",
    "circuits",
    "core",
    "fft",
    "fracnum",
    "linalg",
    "oracle",
    "par",
    "rng",
    "sparse",
    "system",
    "transient",
    "waveform",
];

/// Crates a request runs: their manifests may name an
/// [`ORACLE_CRATES`] member only under `[dev-dependencies]`.
pub const PRODUCTION_CRATES: &[&str] = &[
    "basis", "circuits", "core", "fft", "fracnum", "linalg", "par", "rng", "serve", "sparse",
    "system", "waveform",
];

/// Packages that hold reference solvers: the paper's reference forms
/// (`opm-oracle`) and the classical steppers (`opm-transient`).
pub const ORACLE_CRATES: &[&str] = &["opm-oracle", "opm-transient"];

/// Every lint rule, in report order.
pub const RULES: &[&str] = &[
    "poison-unwrap",
    "wall-clock",
    "unsafe-safety",
    "panel-fast-math",
    "stray-print",
    "env-knob",
    "oracle-dep",
];

/// One lint hit.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired (one of [`RULES`]).
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.excerpt
        )
    }
}

/// Outcome of a whole-repo lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations (after allowlisting). Empty = pass.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings silenced by allowlist entries.
    pub allowed: usize,
    /// Allowlist entries that silenced nothing (stale — reported, not
    /// fatal).
    pub unused_allows: Vec<String>,
}

impl LintReport {
    /// Whether the run passed.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// How a file is classified for rule scoping.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileClass {
    /// Inside a kernel crate's `src/` ([`KERNEL_CRATES`]).
    pub kernel: bool,
    /// A binary entry point (`main.rs` or under `src/bin/`) — exempt
    /// from `stray-print`.
    pub bin: bool,
}

impl FileClass {
    /// Classification from a repo-relative path.
    pub fn from_path(rel: &str) -> FileClass {
        let kernel = KERNEL_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
        let bin = rel.ends_with("/main.rs") || rel.contains("/src/bin/");
        FileClass { kernel, bin }
    }
}

// ---------------------------------------------------------------------------
// Code mask
// ---------------------------------------------------------------------------

/// Returns `source` with comments, string/char literals blanked to
/// spaces (newlines kept), so token scans cannot be fooled by text in
/// strings or docs. Handles line/nested-block comments, raw strings
/// (`r#"…"#`), byte strings, escapes, and distinguishes char literals
/// from lifetimes.
pub fn mask_code(source: &str) -> String {
    let b = source.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, bytes: &[u8]| {
        for &c in bytes {
            out.push(if c == b'\n' { b'\n' } else { b' ' });
        }
    };
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let end = source[i..].find('\n').map_or(b.len(), |n| i + n);
            blank(&mut out, &b[i..end]);
            i = end;
            continue;
        }
        // Block comment (nested).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, &b[start..i]);
            continue;
        }
        // Raw string: r"…" / r#"…"# / br#"…"# (any # count).
        if c == b'r' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'r') {
            let r_at = if c == b'b' { i + 1 } else { i };
            let mut j = r_at + 1;
            let mut hashes = 0;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == b'"' {
                // Find closing `"` followed by `hashes` #s.
                let closer = format!("\"{}", "#".repeat(hashes));
                let body_start = j + 1;
                let end = source[body_start..]
                    .find(&closer)
                    .map_or(b.len(), |n| body_start + n + closer.len());
                blank(&mut out, &b[i..end]);
                i = end;
                continue;
            }
        }
        // Plain / byte string.
        if c == b'"' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'"') {
            let start = i;
            i += if c == b'b' { 2 } else { 1 };
            while i < b.len() {
                if b[i] == b'\\' {
                    i += 2;
                } else if b[i] == b'"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, &b[start..i.min(b.len())]);
            continue;
        }
        // Char literal vs lifetime: 'x' or '\n' is a literal; 'ident
        // (no closing quote right after) is a lifetime and passes
        // through.
        if c == b'\'' && i + 1 < b.len() {
            let is_escape = b[i + 1] == b'\\';
            let closes_simple = i + 2 < b.len() && b[i + 2] == b'\'';
            if is_escape || closes_simple {
                let start = i;
                i += 1;
                if b[i] == b'\\' {
                    i += 2;
                } else {
                    i += 1;
                }
                // Consume up to the closing quote (handles '\x7f').
                while i < b.len() && b[i] != b'\'' && b[i] != b'\n' {
                    i += 1;
                }
                if i < b.len() && b[i] == b'\'' {
                    i += 1;
                }
                blank(&mut out, &b[start..i.min(b.len())]);
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    String::from_utf8(out).expect("mask preserves UTF-8 (multibyte only inside blanked spans)")
}

/// Marks, per line (0-based), whether it falls inside a `#[cfg(test)]`
/// item — tracked by brace counting on the masked source.
pub fn test_region_lines(mask: &str) -> Vec<bool> {
    let n_lines = mask.lines().count();
    let mut in_test = vec![false; n_lines];
    let b = mask.as_bytes();
    let mut search_from = 0;
    while let Some(pos) = mask[search_from..].find("#[cfg(test)]") {
        let attr_at = search_from + pos;
        // The guarded item's body: from the first `{` after the
        // attribute to its matching `}`.
        let Some(open_rel) = mask[attr_at..].find('{') else {
            break;
        };
        let open = attr_at + open_rel;
        let mut depth = 0usize;
        let mut end = b.len();
        for (k, &c) in b.iter().enumerate().skip(open) {
            if c == b'{' {
                depth += 1;
            } else if c == b'}' {
                depth -= 1;
                if depth == 0 {
                    end = k + 1;
                    break;
                }
            }
        }
        let line_of = |byte: usize| mask[..byte].bytes().filter(|&c| c == b'\n').count();
        let (first, last) = (
            line_of(attr_at),
            line_of(end.min(b.len().saturating_sub(1))),
        );
        for l in in_test.iter_mut().take((last + 1).min(n_lines)).skip(first) {
            *l = true;
        }
        search_from = end;
    }
    in_test
}

/// Whether `hay` contains `needle` as a whole word (the neighbors are
/// not identifier characters) — so `unsafe_code` does not match
/// `unsafe`.
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let pre_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let post_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if pre_ok && post_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Collapses whitespace so `.lock() . unwrap()` still matches
/// `.lock().unwrap()`.
fn squash(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Lints one file's source, returning every (pre-allowlist) finding.
/// Pure — the fixture tests call it directly.
pub fn lint_source(rel: &str, source: &str, class: FileClass) -> Vec<Finding> {
    let mask = mask_code(source);
    let in_test = test_region_lines(&mask);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    let mut push = |rule: &'static str, line_idx: usize| {
        out.push(Finding {
            rule,
            path: rel.to_string(),
            line: line_idx + 1,
            excerpt: raw_lines
                .get(line_idx)
                .map_or(String::new(), |l| l.trim().to_string()),
        });
    };

    for (idx, line) in mask.lines().enumerate() {
        if in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let flat = squash(line);

        // poison-unwrap: bare unwrap/expect on a lock result.
        if flat.contains(".lock().unwrap()") || flat.contains(".lock().expect(") {
            push("poison-unwrap", idx);
        }

        // wall-clock: kernel crates must be clock-free.
        if class.kernel
            && (contains_word(line, "Instant")
                || contains_word(line, "SystemTime")
                || flat.contains("thread::sleep(")
                || flat.contains("::sleep("))
        {
            push("wall-clock", idx);
        }

        // unsafe-safety: `unsafe` needs a SAFETY rationale — on the
        // line itself, in the few lines above, or anywhere in the
        // contiguous doc/attribute block preceding the item (so a
        // `# Safety` doc section followed by `#[target_feature]`
        // attributes still counts).
        if contains_word(line, "unsafe") {
            let mut justified = raw_lines
                .get(idx)
                .is_some_and(|l| l.contains("SAFETY:") || l.contains("# Safety"));
            let mut k = idx;
            while !justified && k > 0 {
                k -= 1;
                let above = raw_lines[k].trim();
                let attached = above.starts_with("///")
                    || above.starts_with("//!")
                    || above.starts_with("//")
                    || above.starts_with("#[")
                    || above.starts_with(')')
                    || above.starts_with(']')
                    || idx - k <= 2;
                if !attached || idx - k > 40 {
                    break;
                }
                justified = above.contains("SAFETY:") || above.contains("# Safety");
            }
            if !justified {
                push("unsafe-safety", idx);
            }
        }

        // panel-fast-math: fused/fast ops break panel bit-identity.
        if class.kernel
            && (flat.contains(".mul_add(")
                || contains_word(line, "fadd_fast")
                || contains_word(line, "fmul_fast")
                || contains_word(line, "fdiv_fast")
                || contains_word(line, "fsub_fast"))
        {
            push("panel-fast-math", idx);
        }

        // stray-print: libraries speak through return values.
        if !class.bin
            && (flat.contains("println!(")
                || flat.contains("eprintln!(")
                || flat.contains("print!(")
                || flat.contains("eprint!(")
                || flat.contains("dbg!("))
        {
            push("stray-print", idx);
        }

        // env-knob: library configuration comes in as arguments.
        if !class.bin && flat.contains("env::var") {
            push("env-knob", idx);
        }
    }
    out
}

/// Lints one production crate's manifest for `oracle-dep`: an
/// [`ORACLE_CRATES`] package named, by key, header or `package = "…"`,
/// in a dependency table other than `[dev-dependencies]`. Pure, like
/// [`lint_source`].
pub fn lint_manifest(rel: &str, manifest: &str) -> Vec<Finding> {
    // `[dependencies]`, `[build-dependencies]` and their `target.…`
    // forms; not `[dev-dependencies]`.
    let ships = |table: &str| {
        let last = table.rsplit('.').next().unwrap_or(table);
        last.ends_with("dependencies") && last != "dev-dependencies"
    };
    let is_oracle = |name: &str| ORACLE_CRATES.contains(&name.trim().trim_matches('"'));
    let mut table = String::new();
    let mut out = Vec::new();
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let fires = if let Some(header) = line.strip_prefix('[') {
            table = header.trim_end_matches(']').trim().to_string();
            // `[dependencies.opm-oracle]`
            table
                .rsplit_once('.')
                .is_some_and(|(t, name)| ships(t) && is_oracle(name))
        } else {
            let key = line.split(['=', '.']).next().unwrap_or("");
            let renamed = ORACLE_CRATES
                .iter()
                .any(|c| line.contains(&format!("\"{c}\"")));
            ships(&table) && (is_oracle(key) || renamed)
        };
        if fires {
            out.push(Finding {
                rule: "oracle-dep",
                path: rel.to_string(),
                line: idx + 1,
                excerpt: raw.trim().to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Allowlists + repo walk
// ---------------------------------------------------------------------------

/// One parsed allowlist entry.
#[derive(Clone, Debug)]
struct Allow {
    rule: String,
    path: String,
    used: bool,
}

fn load_allowlists(root: &Path) -> Result<Vec<Allow>, String> {
    let mut out = Vec::new();
    for rule in RULES {
        let file = root.join("crates/verify/allow").join(format!("{rule}.txt"));
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue; // a rule with no exceptions has no file
        };
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((path, justification)) = line.split_once("--") else {
                return Err(format!(
                    "{}:{}: allowlist entry must be `path -- justification`",
                    file.display(),
                    n + 1
                ));
            };
            if justification.trim().is_empty() {
                return Err(format!(
                    "{}:{}: allowlist entry for `{}` has an empty justification",
                    file.display(),
                    n + 1,
                    path.trim()
                ));
            }
            out.push(Allow {
                rule: rule.to_string(),
                path: path.trim().to_string(),
                used: false,
            });
        }
    }
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Lints the whole workspace under `root`: every `src/` tree of every
/// workspace crate plus the facade's `src/`, and the manifest of every
/// [`PRODUCTION_CRATES`] member. Returns `Err` only for infrastructure
/// problems (unreadable allowlist); rule violations come back inside
/// the report.
pub fn lint_repo(root: &Path) -> Result<LintReport, String> {
    let mut allows = load_allowlists(root)?;
    let mut files = Vec::new();
    // Workspace crates.
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            collect_rs_files(&d.join("src"), &mut files);
        }
    }
    // The facade crate at the workspace root.
    collect_rs_files(&root.join("src"), &mut files);

    let mut report = LintReport::default();
    let mut found = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(source) = std::fs::read_to_string(file) else {
            continue;
        };
        report.files_scanned += 1;
        found.extend(lint_source(&rel, &source, FileClass::from_path(&rel)));
    }
    for c in PRODUCTION_CRATES {
        let rel = format!("crates/{c}/Cargo.toml");
        let Ok(manifest) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        report.files_scanned += 1;
        found.extend(lint_manifest(&rel, &manifest));
    }
    for finding in found {
        let allowed = allows
            .iter_mut()
            .find(|a| a.rule == finding.rule && a.path == finding.path);
        match allowed {
            Some(a) => {
                a.used = true;
                report.allowed += 1;
            }
            None => report.findings.push(finding),
        }
    }
    let mut unused: BTreeSet<String> = BTreeSet::new();
    for a in &allows {
        if !a.used {
            unused.insert(format!("{}: {}", a.rule, a.path));
        }
    }
    report.unused_allows = unused.into_iter().collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_blanks_comments_strings_and_chars() {
        let src = "let a = \"lock().unwrap()\"; // Instant\nlet c = 'x'; let lt: &'static str = s;";
        let m = mask_code(src);
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("Instant"));
        assert!(!m.contains("'x'"));
        assert!(m.contains("'static"), "lifetimes must survive: {m}");
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn mask_handles_raw_strings() {
        let src = "let r = r#\"thread::sleep(\"#; let after = 1;";
        let m = mask_code(src);
        assert!(!m.contains("sleep"));
        assert!(m.contains("after"));
    }

    #[test]
    fn cfg_test_regions_are_tracked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let mask = mask_code(src);
        let t = test_region_lines(&mask);
        assert_eq!(t, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn env_reads_in_library_code_are_knobs() {
        let src = "fn f() -> bool {\n    std::env::var(\"X\").is_ok()\n}\n\
                   // env::var in a comment\nconst S: &str = \"env::var\";\n\
                   fn args() { let _ = std::env::args(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn g() { let _ = std::env::var_os(\"Y\"); }\n}\n";
        let lib = FileClass::default();
        let rules: Vec<_> = lint_source("lib.rs", src, lib)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect();
        assert_eq!(rules, vec![("env-knob", 2)]);
        let bin = FileClass {
            bin: true,
            ..FileClass::default()
        };
        assert!(lint_source("main.rs", src, bin).is_empty());
    }

    #[test]
    fn oracle_crates_in_shipped_dependency_tables_fire() {
        let manifest = "[package]\nname = \"opm-core\"\n\n\
                        [dependencies]\nopm-basis.workspace = true\n\
                        opm-oracle.workspace = true\n\
                        ref = { package = \"opm-transient\", path = \"../transient\" }\n\n\
                        [dependencies.opm-transient]\npath = \"../transient\"\n";
        let lines: Vec<_> = lint_manifest("crates/core/Cargo.toml", manifest)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect();
        assert_eq!(
            lines,
            vec![("oracle-dep", 6), ("oracle-dep", 7), ("oracle-dep", 9)]
        );
    }

    #[test]
    fn oracle_crates_as_dev_dependencies_are_silent() {
        let manifest = "[package]\nname = \"opm-core\"\n\
                        description = \"checked against opm-oracle\"\n\n\
                        [dependencies]\nopm-basis.workspace = true\n\
                        # opm-oracle.workspace = true\n\n\
                        [dev-dependencies]\nopm-oracle.workspace = true\n\
                        opm-transient.workspace = true\n\n\
                        [dev-dependencies.opm-rng]\npath = \"../rng\"\n";
        assert!(lint_manifest("crates/core/Cargo.toml", manifest).is_empty());
    }

    #[test]
    fn word_boundaries_protect_unsafe_code_attr() {
        assert!(!contains_word("#![forbid(unsafe_code)]", "unsafe"));
        assert!(!contains_word("unsafe_op_in_unsafe_fn", "unsafe"));
        assert!(contains_word("unsafe { x }", "unsafe"));
    }
}
