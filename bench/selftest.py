"""Self-test of the benchmark at tiny sizes (about ten seconds).

Run from the root of a checkout::

    python3 bench/selftest.py

It checks that every end-to-end and per-layer metric named in
``BENCHMARK.json`` is emitted with its unit, that a wrong verdict, a rising
ALS leakage trace or a traced run that changes an output each make the
output checks fail, and that an exception fails one operation without ending
the workload.
"""

from __future__ import annotations

import dataclasses
import json
import math
import unittest
from unittest import mock

import run

run.import_gia()

import gia.feasibility  # noqa: E402
import gia.harness  # noqa: E402
import workloads  # noqa: E402
from gia.aligner import RunTrace  # noqa: E402


def tiny(name: str, seed: int = 3):
    return {
        "fig6": lambda: workloads.Fig6(seed, cap=15, warm_rounds=2),
        "feasibility": lambda: workloads.Feasibility(seed, per_k=1, scales=(1, 2)),
        "test1": lambda: workloads.Test1(seed, trials=4, budget=300),
    }[name]()


def measure(name: str, trace: bool = False):
    return run.measure(tiny(name), seconds=0.0, trace=trace, min_passes=2)


class MetricsEmitted(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(set(workloads.WORKLOADS) - {"test1"}))

    def test_every_metric_has_a_value_and_unit(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                report = measure(name, trace=True)
                self.assertTrue(report["correct"], report["problems"])
                for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                    line = run.result_line({**report, "trace": int(trace)})
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(list(line["metrics"]), [n for n, _ in table])
                    for metric, unit in table:
                        entry = line["metrics"][metric]
                        self.assertEqual(entry["unit"], unit)
                        self.assertTrue(math.isfinite(entry["value"]), metric)
                    json.dumps(line)
                for metric, _ in run.END_TO_END:
                    self.assertGreater(report["end_to_end"][metric], 0.0, metric)
                self.assertEqual(set(report["per_layer_samples"]), {n for n, _ in run.PER_LAYER})


class ChecksCatchWrongOutputs(unittest.TestCase):
    def test_verdict_flipped_at_one_scale(self):
        real = gia.feasibility.feasibility_check
        workload = tiny("feasibility")

        def flip_scale_2(cfg, alignment, channel=None, seed=0):
            report = real(cfg, alignment, channel, seed)
            if any(cfg is net for (_, c), (net, _) in workload.networks.items() if c == 2):
                report = dataclasses.replace(report, feasible=not report.feasible)
            return report

        with mock.patch.object(gia.feasibility, "feasibility_check", flip_scale_2):
            report = run.measure(workload, seconds=0.0, trace=False, min_passes=2)
        self.assertFalse(report["correct"])
        self.assertTrue(any("differs across scales" in p for p in report["problems"]))

    def test_fast_path_verdict_disagrees_with_rank_test(self):
        real = gia.feasibility.feasibility_check

        def flip_fast_paths(cfg, alignment, channel=None, seed=0):
            report = real(cfg, alignment, channel, seed)
            if report.method != "hall_rank":
                report = dataclasses.replace(report, feasible=not report.feasible)
            return report

        with mock.patch.object(gia.feasibility, "feasibility_check", flip_fast_paths):
            report = measure("feasibility")
        self.assertFalse(report["correct"])
        self.assertTrue(any("rank test says" in p for p in report["problems"]))

    def test_rising_leakage_trace(self):
        real = gia.harness.run_fig6

        def rising(*args, **kwargs):
            (seed, tg, tc), = real(*args, **kwargs)
            t, leak, idb = tg.points[1]
            points = (tg.points[0], (t, 2.0 * tg.points[0][1], idb)) + tg.points[2:]
            return [(seed, RunTrace(points, tg.converged, tg.stop_reason), tc)]

        with mock.patch.object(gia.harness, "run_fig6", rising):
            report = measure("fig6")
        self.assertFalse(report["correct"])
        self.assertTrue(any("leakage rose" in p for p in report["problems"]))

    def test_traced_run_that_changes_an_output(self):
        real = gia.harness.run_fig6

        def drifting(*args, **kwargs):
            out = real(*args, **kwargs)
            if hasattr(gia.harness.run_gia, "__wrapped__"):   # inside the traced replay
                (seed, tg, tc), = out
                tg = RunTrace(tg.points[:-1], tg.converged, tg.stop_reason)
                out = [(seed, tg, tc)]
            return out

        with mock.patch.object(gia.harness, "run_fig6", drifting):
            report = measure("fig6", trace=True)
        self.assertFalse(report["correct"])
        self.assertTrue(any("traced run changed" in p for p in report["problems"]))

    def test_exception_fails_one_operation_only(self):
        real = gia.harness.run_fig6

        def broken_config_2(config_id, *args, **kwargs):
            if config_id == 2 and kwargs["rounds"] == 15:   # timed calls, not the warm-up
                raise RuntimeError("injected")
            return real(config_id, *args, **kwargs)

        with mock.patch.object(gia.harness, "run_fig6", broken_config_2):
            report = measure("fig6")
        self.assertTrue(report["correct"], report["problems"])
        self.assertEqual(report["attempted"], 6)
        self.assertEqual(report["failed"], 2)
        self.assertEqual(len(report["errors"]), 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
