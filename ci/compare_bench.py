#!/usr/bin/env python3
"""Bench gate: judge a regenerated bench run against the committed one.

Usage:
    python3 ci/compare_bench.py REFERENCE CANDIDATE [--profile local|pr|nightly]

    python3 ci/compare_bench.py BENCH_sweep.json BENCH_sweep.ci.json --profile pr

The generators (`sweep`, `serve_bench`, `opm-verify model-check`) only
measure: they write every record and exit 0. This script is the only
judge, and each record is the only place its own bound lives.

Declared bounds, read from the *candidate* record (the generator knows
its host) and applied to the record's `value`:

- `"min"` / `"max"` — an absolute bound: a number, or an object with one
  number per profile (`{"local": 3.0, "pr": 1.5, "nightly": 1.5}`). A
  profile the object leaves out is unbounded there. A `null` value
  fails every bound that applies to it.
- `"class": "floor"` / `"ceiling"` — the value may not fall below /
  rise above the reference record's value (coverage and cost counts).

A declaration present on a reference record must be present on the
candidate's (a `class` must also match), so a regenerated run cannot
drop its own gate.

Generic rules, for every record of the reference:

1. Presence — the candidate carries the record.
2. Count drift — the integer fields in `COUNT_FIELDS` match exactly:
   they encode reuse invariants ("W windows cost 1 symbolic + 1
   numeric"), so any drift is a correctness regression, not noise.
3. Timing drift — `seconds` ratios are normalized by their median (the
   reference was produced on other hardware; a uniform offset must not
   trip the gate, one path regressing past `MAX_REGRESSION` must).
   References below `MIN_SECONDS` shape the median but are not gated
   on their own (best-of-N at millisecond scale is scheduler noise).
4. Throughput drift — `scenarios_per_sec`, normalized the same way.

`--profile` names the context: `local` (the default: a developer's
machine), `pr` (per-PR CI on shared runners) or `nightly`.

Exit code 0 = pass, 1 = failure (each one printed).
"""

import argparse
import json
import sys

PROFILES = ("local", "pr", "nightly")

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
)

# Allowed per-record slowdown beyond the median machine ratio.
MAX_REGRESSION = 0.25
# Reference timings below this are not individually gated.
MIN_SECONDS = 0.01


def load_records(path):
    with open(path) as f:
        return {r["id"]: r for r in json.load(f)["records"]}


def resolve(decl, profile):
    """The bound a `min`/`max` declaration sets under `profile`, or None."""
    return decl.get(profile) if isinstance(decl, dict) else decl


def median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def drift(ratios, what, notes):
    """Failures among `{id: (ratio, gated)}` (ratio > 1 = worse than the
    reference) once normalized by the median ratio."""
    if not ratios:
        return []
    med = median(r for r, _ in ratios.values())
    # Floor the normalizer at 1.0: a machine uniformly *faster* than the
    # reference must not tighten the bar below MAX_REGRESSION.
    limit = max(med, 1.0) * (1.0 + MAX_REGRESSION)
    gated = {rid: r for rid, (r, g) in ratios.items() if g}
    notes.append(
        f"{what}: {len(gated)}/{len(ratios)} records gated, machine median "
        f"ratio {med:.2f}x, per-record limit {limit:.2f}x"
    )
    return [
        f"`{rid}`: {what} {r:.2f}x worse than committed vs a machine median "
        f"of {med:.2f}x (>{100 * MAX_REGRESSION:.0f}% regression on this path)"
        for rid, r in gated.items()
        if r > limit
    ]


def gate(ref, cand, profile):
    """Every failure of `cand` against `ref` under `profile`, plus notes."""
    failures, notes = [], []
    common = [rid for rid in ref if rid in cand]
    for rid in ref:
        if rid not in cand:
            failures.append(f"record `{rid}` missing from the regenerated run")
    for rid in cand:
        if rid not in ref:
            notes.append(f"new record `{rid}` not yet in the committed baseline")

    for rid in common:
        r, c = ref[rid], cand[rid]
        for key in ("min", "max", "class"):
            if key in r and key not in c:
                failures.append(f"`{rid}`: the run dropped its `{key}` declaration")
        if "class" in r and "class" in c and r["class"] != c["class"]:
            failures.append(f"`{rid}`: class changed {r['class']!r} -> {c['class']!r}")
        for field in COUNT_FIELDS:
            if field in r and c.get(field) != r[field]:
                failures.append(
                    f"`{rid}`: {field} drifted {r[field]} -> {c.get(field)} "
                    "(reuse/shape invariant broken)"
                )

    for rid, c in cand.items():
        value = c.get("value")
        for key, holds in (("min", lambda v, b: v >= b), ("max", lambda v, b: v <= b)):
            decl = c.get(key)
            if isinstance(decl, dict) and not set(decl) <= set(PROFILES):
                failures.append(f"`{rid}`: unknown profile in `{key}`: {sorted(decl)}")
            bound = resolve(decl, profile)
            if bound is not None and (value is None or not holds(value, bound)):
                failures.append(f"`{rid}`: value {value!r} violates its {profile} {key} {bound!r}")
        cls = c.get("class")
        if cls is None:
            continue
        if cls not in ("floor", "ceiling"):
            failures.append(f"`{rid}`: unknown record class {cls!r}")
        elif rid in ref:
            rv = ref[rid].get("value")
            if value is None or rv is None:
                failures.append(f"`{rid}`: {cls} records must never be null")
            elif (value < rv) if cls == "floor" else (value > rv):
                failures.append(f"`{rid}`: {value!r} crossed the committed {cls} {rv!r}")

    timing = {
        rid: (cand[rid]["seconds"] / ref[rid]["seconds"], ref[rid]["seconds"] >= MIN_SECONDS)
        for rid in common
        if ref[rid].get("seconds") and "seconds" in cand[rid]
    }
    failures += drift(timing, "timing", notes)
    thru = {
        rid: (ref[rid]["scenarios_per_sec"] / cand[rid]["scenarios_per_sec"], True)
        for rid in common
        if ref[rid].get("scenarios_per_sec") and cand[rid].get("scenarios_per_sec")
    }
    failures += drift(thru, "throughput", notes)
    return failures, notes


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("reference", help="committed BENCH_*.json")
    ap.add_argument("candidate", help="freshly generated run")
    ap.add_argument("--profile", choices=PROFILES, default="local")
    args = ap.parse_args()

    ref = load_records(args.reference)
    failures, notes = gate(ref, load_records(args.candidate), args.profile)
    for note in notes:
        print(f"note: {note}")
    if failures:
        print(f"\nBENCH GATE FAILED ({len(failures)} problem(s), profile {args.profile}):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"bench gate OK ({args.profile}): {len(ref)} records checked against {args.reference}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
