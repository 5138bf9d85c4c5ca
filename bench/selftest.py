"""Tests of the benchmark harness itself, kept out of the timed runs.

    python3 bench/selftest.py

The file name keeps pytest's default discovery (and so the repository's
test suite) away from it.  The smoke tests run each workload for one pass on
a 10-bin x 20-sub-sample grid, one of them traced.
"""

from __future__ import annotations

import json
import random
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from metaprice import center, cli  # noqa: E402


def _span(id, name, parent, start, end, item="a"):
    return spans.Span(id, name, parent, item, start, end)


class PercentileTest(unittest.TestCase):
    def test_matches_numpy_linear(self):
        rng = random.Random(3)
        for n in (1, 2, 7, 100, 1001):
            xs = [rng.uniform(-5, 5) for _ in range(n)]
            for q in (0, 1, 25, 50, 75, 99, 100):
                self.assertAlmostEqual(run.percentile(xs, q), float(np.percentile(xs, q)), places=12)

    def test_median_of_even_count_interpolates(self):
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class NamesTest(unittest.TestCase):
    def test_runner_knows_every_workload(self):
        self.assertEqual(run.WORKLOAD_NAMES, tuple(workloads.WORKLOADS))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        tree = [_span(0, "p", None, 0.0, 10.0), _span(1, "c", 0, 1.0, 3.0),
                _span(2, "c", 0, 5.0, 6.0), _span(3, "g", 1, 1.5, 2.5)]
        own = spans.self_times(tree)
        self.assertAlmostEqual(own[0], 7.0)
        self.assertAlmostEqual(own[1], 1.0)
        self.assertAlmostEqual(own[3], 1.0)

    def test_overlap_and_overhang_count_once(self):
        tree = [_span(0, "p", None, 0.0, 10.0), _span(1, "c", 0, 2.0, 6.0),
                _span(2, "c", 0, 4.0, 8.0), _span(3, "c", 0, 9.0, 12.0)]
        self.assertAlmostEqual(spans.self_times(tree)[0], 10.0 - 6.0 - 1.0)


class NestingTest(unittest.TestCase):
    def test_well_nested_tree_passes(self):
        tree = [_span(0, "p", None, 0.0, 4.0), _span(1, "c", 0, 1.0, 2.0)]
        self.assertEqual(spans.nesting_errors(tree), [])

    def test_escaping_child_and_unknown_parent_are_reported(self):
        tree = [_span(0, "p", None, 0.0, 4.0), _span(1, "c", 0, 3.0, 5.0), _span(2, "c", 9, 1.0, 2.0),
                _span(3, "c", 0, 1.0, 2.0, item="b")]
        errors = spans.nesting_errors(tree)
        self.assertEqual(len(errors), 3)

    def test_tracer_records_nested_spans_and_restores(self):
        original = center.solve_center
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(center.solve_center, original)
            tracer.item = "one"
            wl = workloads.CenterSweep(1, ROOT / ".bench_out" / "selftest" / "nest", 10, 20)
            wl.setup()
            strategy, objective, constraint, budget = wl.items[0]
            center.solve_center(objective, constraint, strategy, budget, wl.grid)
        finally:
            tracer.uninstall()
        self.assertIs(center.solve_center, original)
        recorded, counts = tracer.take()
        self.assertEqual(spans.nesting_errors(recorded), [])
        names = {s.name for s in recorded if s.item == "one"}
        self.assertTrue({"center.solve", "center.constraint_weights", "center.greedy_fill",
                         "grid.bin_masses"} <= names)
        self.assertGreater(counts["grid.tabulated_eval"], 0)

    def test_missing_target_is_reported_absent(self):
        saved = center._greedy_fill
        del center._greedy_fill
        tracer = spans.Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            center._greedy_fill = saved
        self.assertEqual(tracer.absent, ["center.greedy_fill"])


def _tiny_pass(cls, tracer=None) -> list:
    """One pass of a workload on a 10-bin x 20-sub-sample grid."""
    wl = cls(7, ROOT / ".bench_out" / "selftest" / cls.name, 10, 20)
    wl.setup()
    wl.tracer = tracer
    if tracer is not None:
        tracer.install()
    wl.timer.install()
    try:
        return wl.run_pass(0)
    finally:
        wl.timer.uninstall()
        if tracer is not None:
            tracer.uninstall()


def _oracle_finding(message: str) -> bool:
    return message.startswith("bidder shade")


class SmokeTest(unittest.TestCase):
    """One tiny-grid pass of each workload; its checks must pass."""

    @classmethod
    def setUpClass(cls):
        cls.exante = _tiny_pass(workloads.ExanteSweep)

    def _pass(self, cls, tracer=None):
        items = _tiny_pass(cls, tracer)
        self.assertTrue(items)
        self.assertEqual([(i.name, i.failures) for i in items if i.failures], [])
        return items

    def test_exante_sweep(self):
        self.assertEqual(len(self.exante), 14)
        self.assertTrue(any(i.round_ms for i in self.exante))
        other = [(i.name, f) for i in self.exante for f in i.failures if not _oracle_finding(f)]
        self.assertEqual(other, [])

    @unittest.expectedFailure
    def test_bidder_oracle_on_coarse_grid(self):
        # Known program defect, left standing: the bidder scans one candidate
        # shade per bin before refining, so on a 10-bin grid it misses the best
        # basin for GPD shape -0.1 at gamma 0.25 (0.2 % above the dense
        # minimum).  The 50-bin benchmark grid passes this check.
        found = [(i.name, f) for i in self.exante for f in i.failures if _oracle_finding(f)]
        self.assertEqual(found, [])

    def test_blinded_cap(self):
        self.assertTrue(all(i.round_ms for i in self._pass(workloads.BlindedCap)))

    def test_center_sweep_traced_reports_every_declared_metric(self):
        tracer = spans.Tracer()
        items = self._pass(workloads.CenterSweep, tracer)
        recorded, counts = tracer.take()
        self.assertEqual(spans.nesting_errors(recorded), [])
        tally = run.Tally()
        tally.add("plain", items)
        tally.add("traced", items, spans.layer_metrics(recorded, counts, sum(i.seconds for i in items)))
        metrics = run.per_layer(tally)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(metrics), {m["name"] for m in declared["per_layer"]})
        for m in declared["per_layer"]:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
        self.assertGreater(metrics["center.solve.calls"]["value"], 0)

    def test_end_to_end_reports_every_declared_metric(self):
        items = self._pass(workloads.CenterSweep)
        tally = run.Tally()
        tally.add("plain", items)
        metrics = run.end_to_end(tally, [0.5])
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(metrics), {m["name"] for m in declared["end_to_end"]})
        for m in declared["end_to_end"]:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertGreater(metrics[m["name"]]["value"], 0)


class EndToEndTest(unittest.TestCase):
    def test_an_interrupted_pass_does_not_set_an_items_time(self):
        tally = run.Tally()
        for slow in (None, 0, 1, None, None, 2, None, None, None, None):
            tally.add("plain", [workloads.Item(f"solve_{i}", "solve", 0.05 if i == slow else 0.001, 0.5)
                                for i in range(100)])
        metrics = run.end_to_end(tally, [0.5])
        self.assertAlmostEqual(metrics["solve_ms.p99"]["value"], 1.0)
        self.assertAlmostEqual(metrics["wall_s"]["value"], 0.1)
        self.assertAlmostEqual(metrics["round_ms"]["value"], 0.5)

    def test_traced_and_failed_passes_are_not_timed(self):
        tally = run.Tally()
        tally.add("plain", [workloads.Item("a", "solve", 0.002), workloads.Item("b", "calibrate", 0.003)])
        tally.add("traced", [workloads.Item("a", "solve", 9.0)])
        tally.add("plain", [workloads.Item("pass_2", "error", 9.0)])
        metrics = run.end_to_end(tally, [0.5])
        self.assertAlmostEqual(metrics["solve_ms.p50"]["value"], 2.0)
        self.assertAlmostEqual(metrics["wall_s"]["value"], 0.005)


class _Raising(workloads.Workload):
    """A workload whose every pass raises, after ``delay`` seconds."""

    name = "raising"

    def __init__(self, delay: float) -> None:
        super().__init__(1, ROOT / ".bench_out" / "selftest" / "raising")
        self.delay = delay

    def setup(self) -> None:
        pass

    def run_pass(self, index: int) -> list:
        time.sleep(self.delay)
        raise RuntimeError("pass failed")


class RaisingPassTest(unittest.TestCase):
    """A pass that raises ends the run as failed instead of repeating."""

    def test_untraced_run_stops_after_the_raise(self):
        tally = run.run_passes(_Raising(0.02), 3600.0)
        self.assertEqual(tally.kinds, ["plain"])
        self.assertGreaterEqual(tally.walls[0], 0.02)
        self.assertEqual(len(tally.failed), 1)
        self.assertIn("pass failed", tally.failed[0]["why"][0])

    def test_instant_raise_with_tracer_still_ends(self):
        solve, equilibrium = center.solve_center, cli.find_equilibrium
        tally = run.run_passes(_Raising(0.0), 3600.0, spans.Tracer())
        self.assertEqual(tally.kinds, ["plain", "traced"])
        self.assertEqual(len(tally.failed), 2)
        self.assertEqual(len(tally.layer), 1)
        self.assertIs(center.solve_center, solve)
        self.assertIs(cli.find_equilibrium, equilibrium)


class OracleTest(unittest.TestCase):
    def test_dense_scan_matches_bidder_objective(self):
        from metaprice import bidder, distributions
        from metaprice.grid import make_grid
        grid = make_grid(0.0, 10.0, 10, 20)
        f = distributions.gpd(0.0, 1.0, 1.0, 0.0, 10.0)
        ftab = distributions.tabulate_pdf(f, grid)
        rule = center.payment_rule(grid, np.minimum(grid.mids, 0.7))
        shades = np.linspace(0.0, 10.0, 41)
        ours = workloads.dense_shade_values(shades, rule.values, ftab.values, 0.0, 10.0, 20)
        np.testing.assert_allclose(ours, bidder.shade_objective(shades, rule, ftab, grid), rtol=1e-12)


if __name__ == "__main__":
    unittest.main()
