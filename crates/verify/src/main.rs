//! `opm-verify` — the workspace's correctness-tooling binary.
//!
//! ```text
//! opm-verify model-check [--json PATH] [--budget N]
//! opm-verify lint [--root PATH]
//! opm-verify digest
//! ```
//!
//! `model-check` explores the six production sync protocols under the
//! deterministic scheduler (plus the seeded buggy-latch canary, which
//! must *fail* and replay), prints a per-model table, and optionally
//! writes a BENCH-style JSON artifact that `ci/compare_bench.py` gates:
//! explored-schedule floors (`class: "floor"`) and must-hold booleans
//! (`min: 1`). It exits 0 once it has explored every model; the verdict
//! line it prints is what the gate decides from the records.
//!
//! `lint` runs the repo-invariant scanner over every workspace `src/`
//! tree and exits nonzero on any unallowlisted finding.
//!
//! `digest` prints one `name hash` line per pinned solve (see
//! [`opm_verify::digest`]); run it on two commits and diff the output to
//! show that a change leaves every result bit-identical.

use std::path::PathBuf;
use std::process::ExitCode;

use opm_core::json::Json;
use opm_verify::models;
use opm_verify::sched::{replay, shrink, Report};
use opm_verify::{lint, sched};

/// Default per-model schedule budget: six protocol models at this
/// budget clear the 10k explored-schedules CI floor with headroom.
const DEFAULT_BUDGET: usize = 4096;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("model-check") => model_check(&args[1..]),
        Some("lint") => run_lint(&args[1..]),
        Some("digest") => match opm_verify::digest::cases() {
            Ok(cases) => {
                for (name, hash) in cases {
                    println!("{name} {hash:016x}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("digest: a pinned case failed: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!(
                "usage: opm-verify <model-check [--json PATH] [--budget N] | lint [--root PATH] \
                 | digest>"
            );
            ExitCode::from(2)
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Repo root: `--root`, else the workspace root this binary was built
/// from (robust to being run from any working directory).
fn repo_root(args: &[String]) -> PathBuf {
    if let Some(r) = flag_value(args, "--root") {
        return PathBuf::from(r);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn print_report(r: &Report) {
    let status = match &r.violation {
        None if r.complete => "ok (exhaustive)",
        None => "ok",
        Some(_) => "VIOLATION",
    };
    println!("  {:<24} {:>8} schedules   {status}", r.name, r.schedules);
    if let Some(v) = &r.violation {
        println!("    {}", v.kind);
        println!("    schedule: {:?}", v.schedule.choices);
        for step in &v.trace {
            println!("      {step}");
        }
    }
}

fn model_check(args: &[String]) -> ExitCode {
    let budget: usize = flag_value(args, "--budget")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_BUDGET);

    println!("opm-verify model-check (budget {budget} schedules/model)");
    println!("protocol models (must pass):");
    let cache = models::check_cache_latch(budget);
    print_report(&cache);
    let pattern = models::check_pattern_tier(budget);
    print_report(&pattern);
    let prekey = models::check_prekey_tier(budget);
    print_report(&prekey);
    let kernel = models::check_window_kernel(budget);
    print_report(&kernel);
    let work = models::check_work_index(budget);
    print_report(&work);
    let cancel = models::check_cancel(budget);
    print_report(&cancel);
    let protocols_ok = [&cache, &pattern, &prekey, &kernel, &work, &cancel]
        .iter()
        .all(|r| r.violation.is_none());

    // The canary: a seeded lost wakeup the checker must catch, replay
    // deterministically, and shrink.
    println!("seeded-bug canary (must fail):");
    let buggy = sched::explore(
        "buggy_latch",
        &models::buggy_opts(),
        models::buggy_latch_model(),
    );
    let caught = buggy.violation.is_some();
    let (replayed, shrunk_len) = match &buggy.violation {
        Some(v) => {
            let again = replay(
                models::buggy_latch_model(),
                &v.schedule,
                &models::buggy_opts(),
            );
            let replayed = again.as_ref().is_some_and(|w| {
                std::mem::discriminant(&w.kind) == std::mem::discriminant(&v.kind)
            });
            let small = shrink(models::buggy_latch_model(), v, &models::buggy_opts(), 64);
            (replayed, Some(small.schedule.choices.len()))
        }
        None => (false, None),
    };
    println!(
        "  {:<24} {:>8} schedules   {}",
        buggy.name,
        buggy.schedules,
        if caught { "caught (good)" } else { "MISSED" },
    );
    if let Some(v) = &buggy.violation {
        println!("    {}", v.kind);
        println!(
            "    schedule: {:?}  (replayed: {replayed}, shrunk to {} choice(s))",
            v.schedule.choices,
            shrunk_len.unwrap_or(v.schedule.choices.len()),
        );
    }

    let total = [&cache, &pattern, &prekey, &kernel, &work, &cancel]
        .iter()
        .map(|r| r.schedules)
        .sum::<usize>();
    println!("total protocol schedules explored: {total}");

    if let Some(path) = flag_value(args, "--json") {
        let floor = |id: &str, schedules: usize| {
            Json::Obj(vec![
                ("id".into(), Json::str(id)),
                ("value".into(), Json::Int(schedules as i64)),
                ("class".into(), Json::str("floor")),
            ])
        };
        let must_hold = |id: &str, verdict: bool| {
            Json::Obj(vec![
                ("id".into(), Json::str(id)),
                ("value".into(), Json::Int(i64::from(verdict))),
                ("min".into(), Json::Int(1)),
            ])
        };
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("opm-bench-verify/v2")),
            (
                "note".into(),
                Json::str(
                    "opm-verify model-check artifact: explored-schedule counts for the six \
                     production sync-protocol models (GateCache single-flight + panic \
                     containment, the plan cache's nested pattern tier on GateCache at both \
                     levels, opm-serve's pre-key tier over the plan gate with the plan \
                     evicted between them, a plan's window-kernel gate nested under the plan \
                     gate, opm-par work-index claims, CancelCore monotonicity) and \
                     must-hold booleans for the seeded buggy-latch canary. `class: floor` \
                     records gate the candidate at >= the committed reference; `min: 1` \
                     verdicts must hold. ci/compare_bench.py judges a regenerated run against \
                     this file. Regenerate: cargo run --release -p opm-verify -- model-check \
                     --json BENCH_verify.json",
                ),
            ),
            (
                "records".into(),
                Json::Arr(vec![
                    floor("verify/cache_latch_schedules", cache.schedules),
                    floor("verify/pattern_tier_schedules", pattern.schedules),
                    floor("verify/prekey_tier_schedules", prekey.schedules),
                    floor("verify/window_kernel_schedules", kernel.schedules),
                    floor("verify/work_index_schedules", work.schedules),
                    floor("verify/cancel_schedules", cancel.schedules),
                    floor("verify/total_schedules", total),
                    must_hold("verify/model_check_passed", protocols_ok),
                    must_hold("verify/pattern_tier_passed", pattern.violation.is_none()),
                    must_hold("verify/prekey_tier_passed", prekey.violation.is_none()),
                    must_hold("verify/window_kernel_passed", kernel.violation.is_none()),
                    must_hold("verify/buggy_latch_caught", caught),
                    must_hold("verify/buggy_latch_replayed", replayed),
                ]),
            ),
        ]);
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    let verdict = if protocols_ok && caught && replayed {
        "PASS"
    } else {
        "FAIL"
    };
    println!("model-check: {verdict}");
    ExitCode::SUCCESS
}

fn run_lint(args: &[String]) -> ExitCode {
    let root = repo_root(args);
    match lint::lint_repo(&root) {
        Err(e) => {
            eprintln!("lint infrastructure error: {e}");
            ExitCode::FAILURE
        }
        Ok(report) => {
            println!(
                "opm-verify lint: {} file(s) scanned, {} finding(s) allowlisted",
                report.files_scanned, report.allowed
            );
            for stale in &report.unused_allows {
                println!("  note: unused allowlist entry ({stale})");
            }
            if report.ok() {
                println!("lint: PASS");
                ExitCode::SUCCESS
            } else {
                for f in &report.findings {
                    println!("  {f}");
                }
                println!("lint: FAIL ({} finding(s))", report.findings.len());
                ExitCode::FAILURE
            }
        }
    }
}
