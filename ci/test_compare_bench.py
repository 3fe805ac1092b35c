#!/usr/bin/env python3
"""Self-test of the bench gate (`ci/compare_bench.py`): every rule has a
case that must fail, and every committed `BENCH_*.json` gates clean
against itself.

    python3 ci/test_compare_bench.py
"""

import copy
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare_bench import PROFILES, gate, load_records  # noqa: E402

ROOT = os.path.dirname(HERE)
COMMITTED = ("BENCH_sweep.json", "BENCH_serve.json", "BENCH_verify.json", "BENCH_tables.json")

# The paper tables' shape criteria: dB differences that must stay <= 0
# under every profile, and the Table I time order, bounded locally only.
TABLE_SHAPES = (
    "table1/err_fft2_minus_fft1_db",
    "table2/err_b_euler_5ps_minus_10ps_db",
    "table2/err_b_euler_1ps_minus_5ps_db",
    "table2/err_gear2_10ps_minus_b_euler_10ps_db",
    "table2/err_trapezoidal_10ps_minus_b_euler_10ps_db",
    "table2/err_opm_na_10ps_minus_b_euler_10ps_db",
)
TABLE_TIME_ORDER = ("table1/fft1_over_opm_seconds", "table1/fft2_over_fft1_seconds")


def records(*recs):
    return {r["id"]: r for r in recs}


def fixture():
    """A small clean run: timings, throughputs, counts and declarations."""
    return records(
        *({"id": f"t/{i}", "seconds": 0.1 * (i + 1)} for i in range(5)),
        *({"id": f"q/{i}", "scenarios_per_sec": 10.0 * (i + 1)} for i in range(3)),
        {"id": "plan", "seconds": 0.5, "num_symbolic": 1, "num_numeric": 1},
        {"id": "speedup", "value": 4.0, "min": {"local": 3.0, "pr": 1.5, "nightly": 2.0}},
        {"id": "delta", "value": 0.0, "max": 0.0},
        {"id": "verdict", "value": 1, "min": 1},
        {"id": "coverage", "value": 100, "class": "floor"},
        {"id": "fill", "value": 100, "class": "ceiling"},
    )


class GateRules(unittest.TestCase):
    def failures(self, cand, profile="local", ref=None):
        failures, _ = gate(ref if ref is not None else fixture(), cand, profile)
        return failures

    def assert_fails(self, cand, rid, profile="local", ref=None):
        failures = self.failures(cand, profile, ref)
        self.assertTrue(
            any(f"`{rid}`" in f for f in failures),
            f"expected a failure naming `{rid}` under {profile}, got {failures}",
        )

    def edited(self, rid, **fields):
        cand = fixture()
        cand[rid].update(fields)
        return cand

    def test_clean_run_passes_every_profile(self):
        for profile in PROFILES:
            self.assertEqual(self.failures(fixture(), profile), [])

    def test_missing_record(self):
        cand = fixture()
        del cand["plan"]
        self.assert_fails(cand, "plan")

    def test_count_drift(self):
        self.assert_fails(self.edited("plan", num_numeric=2), "plan")

    def test_absolute_min(self):
        cand = self.edited("verdict", value=0)
        for profile in PROFILES:
            self.assert_fails(cand, "verdict", profile)

    def test_absolute_max(self):
        self.assert_fails(self.edited("delta", value=1e-300), "delta")

    def test_null_value_fails_a_bound(self):
        self.assert_fails(self.edited("delta", value=None), "delta")

    def test_per_profile_min_under_each_profile(self):
        bounds = fixture()["speedup"]["min"]
        for profile, bound in bounds.items():
            cand = self.edited("speedup", value=bound - 0.01)
            self.assert_fails(cand, "speedup", profile)
            for other, b in bounds.items():
                if b < bound:
                    self.assertEqual(self.failures(cand, other), [], other)

    def test_unknown_profile_in_a_declaration(self):
        self.assert_fails(self.edited("speedup", min={"prr": 1.0}), "speedup", "pr")

    def test_floor(self):
        self.assert_fails(self.edited("coverage", value=99), "coverage")

    def test_ceiling(self):
        self.assert_fails(self.edited("fill", value=101), "fill")

    def test_dropped_declaration(self):
        for rid, key in (("speedup", "min"), ("delta", "max"), ("coverage", "class")):
            cand = fixture()
            del cand[rid][key]
            self.assert_fails(cand, rid)

    def test_changed_class(self):
        self.assert_fails(self.edited("coverage", **{"class": "ceiling"}), "coverage")

    def test_timing_drift(self):
        cand = fixture()
        for r in cand.values():
            if "seconds" in r:
                r["seconds"] *= 2.0  # a uniformly slower machine passes
        self.assertEqual(self.failures(cand), [])
        cand["t/4"]["seconds"] *= 1.5
        self.assert_fails(cand, "t/4")

    def test_throughput_drift(self):
        self.assert_fails(self.edited("q/2", scenarios_per_sec=15.0), "q/2")

    def test_one_core_speedup_is_null(self):
        # A 2-core reference declares every profile; a 1-core run records
        # a null speedup and keeps only the nightly floor.
        ref = records(
            {"id": "scaling", "value": 1.6, "min": {"local": 1.5, "pr": 1.1, "nightly": 1.5}}
        )
        cand = records({"id": "scaling", "value": None, "min": {"nightly": 1.5}})
        self.assertEqual(self.failures(cand, "pr", ref), [])
        self.assertEqual(self.failures(cand, "local", ref), [])
        self.assert_fails(cand, "scaling", "nightly", ref)


class CommittedRecords(unittest.TestCase):
    def load(self, name):
        return load_records(os.path.join(ROOT, name))

    def test_each_committed_file_gates_clean_against_itself(self):
        for name in COMMITTED:
            with self.subTest(name):
                recs = self.load(name)
                self.assertEqual(gate(recs, copy.deepcopy(recs), "pr")[0], [])

    def test_gate_catches_what_the_workflow_greps_checked(self):
        # Record presence and the `== 0` verdicts the CI workflow once
        # grepped for: the gate alone now fails on each.
        zero = {
            "BENCH_sweep.json": (
                "batch_threads_max_abs_delta",
                "kernel/panel_vs_scalar_max_abs_delta",
                "newton/fresh_factor_fallbacks",
            ),
            "BENCH_serve.json": ("serve/warm_vs_cold_max_abs_delta",),
        }
        for name, ids in zero.items():
            ref = self.load(name)
            for rid in ref:
                cand = copy.deepcopy(ref)
                del cand[rid]
                self.assertIn(f"record `{rid}` missing", "\n".join(gate(ref, cand, "pr")[0]))
            for rid in ids:
                cand = copy.deepcopy(ref)
                cand[rid]["value"] = 1
                self.assertTrue(any(f"`{rid}`" in f for f in gate(ref, cand, "pr")[0]), rid)

    def test_table_shapes_fail_when_violated(self):
        ref = self.load("BENCH_tables.json")
        for rid in TABLE_SHAPES:
            cand = copy.deepcopy(ref)
            cand[rid]["value"] = 0.5  # the finer / better method got worse
            for profile in PROFILES:
                failures = gate(ref, cand, profile)[0]
                self.assertTrue(any(f"`{rid}`" in f for f in failures), (rid, profile))

    def test_table1_time_order_is_bounded_locally_only(self):
        ref = self.load("BENCH_tables.json")
        for rid in TABLE_TIME_ORDER:
            self.assertEqual(ref[rid]["min"], {"local": 1.0}, rid)
            cand = copy.deepcopy(ref)
            cand[rid]["value"] = 0.5  # the order flipped
            local = gate(ref, cand, "local")[0]
            self.assertTrue(any(f"`{rid}`" in f for f in local), rid)
            for profile in ("pr", "nightly"):
                failures = gate(ref, cand, profile)[0]
                self.assertFalse(any(f"`{rid}`" in f for f in failures), (rid, profile))


if __name__ == "__main__":
    unittest.main()
