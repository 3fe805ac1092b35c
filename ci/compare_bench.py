#!/usr/bin/env python3
"""CI bench-regression gate: diff a regenerated bench run against the
committed baseline (the sweep and serve artifacts share this gate).

Usage:
    python3 ci/compare_bench.py BENCH_sweep.json BENCH_sweep.ci.json \
        [--max-regression 0.25]
    python3 ci/compare_bench.py BENCH_serve.json BENCH_serve.ci.json

Checks, per record id present in the committed reference:

1. **Presence** — every reference record must exist in the CI run
   (a missing record means a benchmark silently stopped running).
2. **Count drift** — integer cost/shape fields (`num_symbolic`,
   `num_numeric`, `num_factorizations`, `windows`, `columns`, `threads`,
   `history_len`) must match exactly: these encode the reuse invariants
   ("W windows cost 1 symbolic + 1 numeric"), and any drift is a
   correctness regression, not noise.
3. **Delta drift** — `*_max_abs_delta` records: a reference of exactly 0
   (bit-identity claims) must stay exactly 0; otherwise the CI value may
   not exceed max(10x the reference, 1e-9) — generous to cross-machine
   rounding, hard against real accuracy loss. The truncated-history
   fractional delta gets the documented 1e-6 ceiling instead.
4. **Timing regression** — `seconds` records are compared after
   normalizing by the median CI/reference ratio across all timing
   records (the committed file was produced on different hardware; a
   uniform machine-speed offset must not trip the gate, a single hot
   path regressing past --max-regression (default 25%) must).

Speedup-style `value` records (`sweep/speedup`, `refactor_vs_factor`,
`batch_threads_speedup`, `scaling/speedup_*`, `kernel/*_speedup`, ...)
are *not* re-gated here: the sweep binary already asserts
machine-appropriate floors for them at generation time. On single-core
machines the thread/scaling speedups are `null` (the ratio would be
scheduler noise, not signal) -- null is accepted on either side.

`kernel/panel_vs_scalar_max_abs_delta` and
`serve/warm_vs_cold_max_abs_delta` are additionally *hard* checks on the
candidate alone: whenever the reference carries the record, the
candidate must carry it too and it must be exactly 0. `serve/hit_rate`
is gated against a floor (a warm plan-cache must stay warm on any
machine), and `scenarios_per_sec` throughput records get the same
median-normalized drift gate as timings.

Records may also carry an explicit `"class"` field in the *reference*
(the committed baseline decides how its own records are gated):

- `"class": "floor"` — the candidate `value` must be >= the reference
  `value`. Used for coverage-style counts such as the model checker's
  explored-schedule records, where "we explored fewer schedules than
  the committed baseline" means the verification pass silently shrank.
- `"class": "hard_true"` — the candidate `value` must be exactly 1,
  regardless of the reference value. Used for boolean verdicts
  ("the seeded bug was caught", "the replay reproduced it") that must
  never degrade to partial credit.
- `"class": "ceiling"` — the candidate `value` must be <= the reference
  `value`. Used for convergence-cost counts such as the Newton sweep's
  `newton/rectifier_iters` and `newton/refactors_per_step`: needing
  more iterations (or more refactorizations per step) than the
  committed baseline means the numeric-refactor Newton path silently
  degraded. `serve/lu_nnz` (nnz(L+U) of the served mesh plan) is one
  too: more fill than committed means the ordering got worse.

`newton/fresh_factor_fallbacks` joins the hard candidate-only checks:
whenever the reference carries it, the candidate value must be exactly
0 — a nonzero count means the Newton sweep abandoned its recorded
symbolic analysis for a fresh pivoted factorization, which is the
pattern-degradation escape hatch, not the steady state.

Exit code 0 = pass, 1 = regression/drift (each failure printed).
"""

import argparse
import json
import sys

COUNT_FIELDS = (
    "num_symbolic",
    "num_numeric",
    "num_factorizations",
    "windows",
    "columns",
    "threads",
    "workers",
    "lanes",
    "depth",
    "history_len",
)

# Records that must be exactly 0 in the *candidate* run even before any
# reference comparison: these encode hard contracts (panelling must not
# change a single bit; a plan-cache hit must reuse the *same*
# factorization; a Newton sweep must never fall back from its recorded
# symbolic analysis to a fresh pivoted factor), so a nonzero value is a
# correctness bug regardless of what the baseline says. Gated only when
# the reference carries the record, so the sweep and serve artifacts can
# share this script.
HARD_ZERO_RECORDS = (
    "kernel/panel_vs_scalar_max_abs_delta",
    "serve/warm_vs_cold_max_abs_delta",
    "newton/fresh_factor_fallbacks",
)

# Rate-style records gated against an absolute floor on the candidate
# (machine speed cannot excuse a cold cache).
RATE_FLOORS = {
    "serve/hit_rate": 0.75,
}

# Per-record delta ceilings that override the generic rule.
DELTA_CEILINGS = {
    "windowed_fractional_truncated_max_abs_delta": 1e-6,
}


def load_records(path):
    with open(path) as f:
        data = json.load(f)
    return {r["id"]: r for r in data["records"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("reference", help="committed BENCH_sweep.json")
    ap.add_argument("candidate", help="freshly generated BENCH_sweep.ci.json")
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed per-record slowdown beyond the median machine "
        "ratio (0.25 = 25%%)",
    )
    ap.add_argument(
        "--min-seconds",
        type=float,
        default=0.01,
        help="reference timings below this still shape the machine "
        "median but are not individually gated (best-of-N at "
        "millisecond scale is scheduler noise on shared runners)",
    )
    args = ap.parse_args()

    ref = load_records(args.reference)
    cand = load_records(args.candidate)
    failures = []

    missing = sorted(set(ref) - set(cand))
    for rid in missing:
        failures.append(f"record `{rid}` missing from the regenerated run")
    extra = sorted(set(cand) - set(ref))
    for rid in extra:
        print(f"note: new record `{rid}` not yet in the committed baseline")

    # -- hard bit-identity checks (candidate-only) -------------------------
    for rid in HARD_ZERO_RECORDS:
        if rid not in ref:
            continue  # this artifact does not carry the record
        if rid not in cand:
            failures.append(f"hard bit-identity record `{rid}` missing from the run")
        elif cand[rid].get("value") != 0.0:
            failures.append(
                f"`{rid}`: bit-identity contract broken "
                f"(value {cand[rid].get('value')!r}, must be exactly 0)"
            )

    # -- rate floors (candidate-only) --------------------------------------
    for rid, floor in RATE_FLOORS.items():
        if rid not in ref:
            continue
        if rid not in cand:
            failures.append(f"rate record `{rid}` missing from the run")
        elif not (cand[rid].get("value") or 0.0) >= floor:
            failures.append(
                f"`{rid}`: {cand[rid].get('value')!r} fell below the "
                f"floor {floor} (the plan cache is not being reused)"
            )

    common = [rid for rid in ref if rid in cand]

    # -- classed records (floor / hard_true, reference-driven) -------------
    for rid in common:
        cls = ref[rid].get("class")
        if cls is None:
            continue
        cv = cand[rid].get("value")
        if cls == "floor":
            rv = ref[rid].get("value")
            if cv is None or rv is None:
                failures.append(f"`{rid}`: floor records must never be null")
            elif cv < rv:
                failures.append(
                    f"`{rid}`: {cv!r} fell below the committed floor {rv!r} "
                    "(coverage silently shrank)"
                )
        elif cls == "hard_true":
            if cv != 1:
                failures.append(
                    f"`{rid}`: expected exactly 1, got {cv!r} "
                    "(a must-hold verdict degraded)"
                )
        elif cls == "ceiling":
            rv = ref[rid].get("value")
            if cv is None or rv is None:
                failures.append(f"`{rid}`: ceiling records must never be null")
            elif cv > rv:
                failures.append(
                    f"`{rid}`: {cv!r} exceeded the committed ceiling {rv!r} "
                    "(a cost count silently grew)"
                )
        else:
            failures.append(f"`{rid}`: unknown record class {cls!r}")

    # -- count drift -------------------------------------------------------
    for rid in common:
        for field in COUNT_FIELDS:
            if field in ref[rid]:
                rv, cv = ref[rid][field], cand[rid].get(field)
                if cv != rv:
                    failures.append(
                        f"`{rid}`: {field} drifted {rv} -> {cv} "
                        "(reuse/shape invariant broken)"
                    )

    # -- delta drift -------------------------------------------------------
    for rid in common:
        if not rid.endswith("max_abs_delta"):
            continue
        rv, cv = ref[rid]["value"], cand[rid]["value"]
        if rv is None or cv is None:
            failures.append(f"`{rid}`: delta records must never be null")
            continue
        if rid in DELTA_CEILINGS:
            ceiling = DELTA_CEILINGS[rid]
        elif rv == 0.0:
            ceiling = 0.0  # a bit-identity claim stays bit-identical
        else:
            ceiling = max(10.0 * rv, 1e-9)
        if cv > ceiling:
            failures.append(
                f"`{rid}`: delta {cv:e} exceeds ceiling {ceiling:e} "
                f"(reference {rv:e})"
            )

    # -- timing regression (median-normalized) -----------------------------
    timing = [
        rid
        for rid in common
        if "seconds" in ref[rid] and "seconds" in cand[rid] and ref[rid]["seconds"] > 0
    ]
    if timing:
        ratios = sorted(cand[rid]["seconds"] / ref[rid]["seconds"] for rid in timing)
        mid = len(ratios) // 2
        median = (
            ratios[mid]
            if len(ratios) % 2
            else 0.5 * (ratios[mid - 1] + ratios[mid])
        )
        # Floor the normalizer at 1.0: a machine that runs the suite
        # uniformly *faster* than the committed baseline must not
        # tighten the per-record bar below "max_regression slower than
        # committed" — only slower machines scale the limit up.
        limit = max(median, 1.0) * (1.0 + args.max_regression)
        gated = 0
        for rid in timing:
            if ref[rid]["seconds"] < args.min_seconds:
                continue  # sub-floor records are noise, not signal
            gated += 1
            ratio = cand[rid]["seconds"] / ref[rid]["seconds"]
            if ratio > limit:
                failures.append(
                    f"`{rid}`: {ratio:.2f}x the committed timing vs a "
                    f"machine median of {median:.2f}x — "
                    f">{100 * args.max_regression:.0f}% regression on this path"
                )
        print(
            f"timing: {gated}/{len(timing)} records gated (floor "
            f"{args.min_seconds}s), machine median ratio {median:.2f}x, "
            f"per-record limit {limit:.2f}x"
        )

    # -- throughput drift (median-normalized, mirrors the timing gate) -----
    thru = [
        rid
        for rid in common
        if ref[rid].get("scenarios_per_sec") and cand[rid].get("scenarios_per_sec")
    ]
    if thru:
        # ref/cand: >1 means the CI machine is slower. Normalize the same
        # way as timings so only a single path collapsing trips the gate.
        ratios = sorted(
            ref[rid]["scenarios_per_sec"] / cand[rid]["scenarios_per_sec"]
            for rid in thru
        )
        mid = len(ratios) // 2
        median = (
            ratios[mid]
            if len(ratios) % 2
            else 0.5 * (ratios[mid - 1] + ratios[mid])
        )
        limit = max(median, 1.0) * (1.0 + args.max_regression)
        for rid in thru:
            ratio = ref[rid]["scenarios_per_sec"] / cand[rid]["scenarios_per_sec"]
            if ratio > limit:
                failures.append(
                    f"`{rid}`: throughput fell to 1/{ratio:.2f} of the "
                    f"committed baseline vs a machine median of "
                    f"1/{median:.2f} — >{100 * args.max_regression:.0f}% "
                    "regression on this path"
                )
        print(
            f"throughput: {len(thru)} records gated, machine median ratio "
            f"{median:.2f}x, per-record limit {limit:.2f}x"
        )

    if failures:
        print(f"\nBENCH GATE FAILED ({len(failures)} problem(s)):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"bench gate OK: {len(common)} records checked against {args.reference}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
