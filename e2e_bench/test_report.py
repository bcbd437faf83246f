"""Unit tests for the benchmark's own statistics and output contract.

    python3 -m unittest discover -s e2e_bench -p 'test_*.py'
"""

import json
import math
import statistics
import unittest
from pathlib import Path

import report

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def raw_record(trace=0, write_ms=None, write_ok=None, attempted=None,
               failed=0):
    """A minimal raw record as e2e_bench prints it."""
    write_ms = write_ms or [10.0 + i for i in range(100)]
    write_ok = write_ok or [1.0] * len(write_ms)
    ops = {op: list(write_ms) for op in report.OP_TYPES}
    wall = {op: [2 * t for t in write_ms] for op in report.OP_TYPES}
    ok = {op: list(write_ok) for op in report.OP_TYPES}
    raw = {
        "trace": trace,
        "attempted": attempted if attempted is not None else 3 * len(write_ms),
        "failed": failed,
        "errors": "",
        "measured_s": 1.0,
        "samples_ms": wall,
        "samples_cpu_ms": ops,
        "samples_ok": ok,
        "setup_s": [1.0, 3.0, 2.0],
        "inputs": 3,
        "steps": {"modeled_op_s": [0.1, 0.3, 0.2],
                  "modeled_j_per_gb": [5.0, 7.0, 6.0],
                  "energy_saving_x": [2.0, 2.0, 4.0]},
        "ratio": 50.0, "psnr_db": 67.0, "fetch_amp": 2.8,
        "peak_rss_mb": 100.0,
    }
    if trace:
        raw["layers"] = {name: [1.0, 2.0, 3.0]
                         for name, _, _ in report.PER_LAYER
                         if name != "failed_frac"}
        raw["closure"] = {}
        raw["closure_max_err"] = 1e-16
        raw["parity_failures"] = 0
    return raw


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(report.tail_percentile(19))
        self.assertEqual(report.tail_percentile(20), 50.0)
        self.assertEqual(report.tail_percentile(99), 50.0)
        self.assertEqual(report.tail_percentile(100), 90.0)
        self.assertEqual(report.tail_percentile(999), 90.0)
        self.assertEqual(report.tail_percentile(1000), 99.0)
        self.assertEqual(report.tail_percentile(10000), 99.9)

    def test_summary_reports_sample_count_with_percentile(self):
        raw = raw_record(write_ms=[float(i) for i in range(150)])
        n, p50, p90, tail = report.timing_summary(raw)["write"]
        self.assertEqual(n, 150)
        self.assertEqual(tail, 90.0)
        self.assertAlmostEqual(p50, 74.5)
        self.assertAlmostEqual(p90, 134.1)

    def test_percentiles_use_cpu_time_and_print_wall_time(self):
        raw = raw_record(write_ms=[float(i) for i in range(150)])
        result, _ = report.build_result(raw)
        self.assertAlmostEqual(result["metrics"]["write_ms_p90"]["value"],
                               134.1)
        lines = "\n".join(report.describe(raw, result))
        self.assertIn("wall ms p50=149 p90=268.2", lines)

    def test_median_is_printed_but_not_gated(self):
        raw = raw_record(write_ms=[float(i) for i in range(150)])
        result, _ = report.build_result(raw)
        self.assertNotIn("write_ms_p50", result["metrics"])
        lines = "\n".join(report.describe(raw, result))
        self.assertIn("cpu ms p50=74.5 (not gated)", lines)
        self.assertIn("per-step medians (not gated): modeled_op_s=0.2", lines)

    def test_gated_percentile_holds_when_the_slow_share_moves(self):
        # Two host speeds; between runs the slow share moves from 40% to
        # 60%. The median jumps from one speed to the other, p90 does not.
        def run(slow_share):
            n_slow = int(200 * slow_share)
            return [6.5 + 0.001 * i for i in range(200 - n_slow)] + \
                   [10.0 + 0.001 * i for i in range(n_slow)]
        quiet, busy = run(0.4), run(0.6)
        self.assertGreater(report.percentile(busy, 50) /
                           report.percentile(quiet, 50), 1.4)
        p = report.GATED_PERCENTILE
        self.assertLess(report.percentile(busy, p) /
                        report.percentile(quiet, p), 1.01)

    def test_describe_flags_an_undersampled_p90(self):
        raw = raw_record(write_ms=[float(i) for i in range(50)])
        result, _ = report.build_result(raw)
        lines = "\n".join(report.describe(raw, result))
        self.assertIn("write: n=50, highest supported percentile p50.0", lines)
        self.assertIn("fewer than 10 samples beyond it", lines)


class WholeCyclesTest(unittest.TestCase):
    def test_keeps_whole_cycles_only(self):
        self.assertEqual(report.whole_cycles([1, 2, 3, 4, 5, 6, 7], 3),
                         [1, 2, 3, 4, 5, 6])
        self.assertEqual(report.whole_cycles([1, 2], 3), [1, 2])

    def test_median_does_not_depend_on_cycle_count(self):
        cycle = [5.0, 1.0, 4.0, 2.0]
        one = report.whole_cycles(cycle + [9.0], 4)
        three = report.whole_cycles(cycle * 3 + [9.0, 9.0], 4)
        self.assertEqual(statistics.median(one), statistics.median(three))

    def test_per_step_metrics_use_whole_cycles(self):
        raw = raw_record()
        raw["steps"]["modeled_op_s"] = [0.1, 0.2, 0.3, 9.0]
        values = report.end_to_end_values(raw)
        self.assertAlmostEqual(values["modeled_op_s_p90"], 0.28)
        # energy_saving_x falls as a step's joules rise: its slow tail is p10.
        self.assertAlmostEqual(values["energy_saving_x_p10"], 2.0)


class PercentileTest(unittest.TestCase):
    def test_interpolates(self):
        self.assertEqual(report.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        self.assertEqual(report.percentile([5.0], 90), 5.0)

    def test_failed_ops_count_as_missing_every_limit(self):
        xs = [1.0] * 95 + [math.inf] * 5
        self.assertEqual(report.percentile(xs, 50), 1.0)
        self.assertEqual(report.percentile(xs, 99), math.inf)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            report.percentile([], 50)


class FailedFracTest(unittest.TestCase):
    def test_ratio_of_failed_to_attempted(self):
        self.assertEqual(report.failed_frac(4, 1), 0.25)
        self.assertEqual(report.failed_frac(10, 0), 0.0)
        with self.assertRaises(ValueError):
            report.failed_frac(0, 0)

    def test_a_failed_op_keeps_its_sample_and_fails_the_run(self):
        ms = [10.0] * 100
        ok = [1.0] * 99 + [0.0]
        raw = raw_record(write_ms=ms, write_ok=ok, attempted=300, failed=1)
        result, problems = report.build_result(raw)
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 300)
        self.assertEqual(result["failed"], 1)
        n, _, _, _ = report.timing_summary(raw)["write"]
        self.assertEqual(n, 100)
        self.assertTrue(any("1 of 300 ops failed" in p for p in problems))

    def test_traced_failed_frac(self):
        raw = raw_record(trace=1, attempted=8, failed=2)
        result, _ = report.build_result(raw)
        self.assertEqual(result["metrics"]["failed_frac"]["value"], 0.25)
        self.assertFalse(result["correct"])

    def test_lost_parity_or_closure_fails_a_traced_run(self):
        raw = raw_record(trace=1)
        self.assertTrue(report.build_result(raw)[0]["correct"])
        raw["parity_failures"] = 1
        self.assertFalse(report.build_result(raw)[0]["correct"])
        raw = raw_record(trace=1)
        raw["closure_max_err"] = 1e-3
        self.assertFalse(report.build_result(raw)[0]["correct"])


class ContractTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = json.loads(BENCHMARK_JSON.read_text())

    def check_section(self, section, specs):
        declared = [(m["name"], m["unit"]) for m in self.bench[section]]
        emitted = [(name, unit) for name, unit, _ in specs]
        self.assertEqual(declared, emitted)

    def test_end_to_end_names_match_benchmark_json(self):
        self.check_section("end_to_end", report.END_TO_END)

    def test_per_layer_names_match_benchmark_json(self):
        self.check_section("per_layer", report.PER_LAYER)

    def test_workloads_match_the_runner(self):
        import run
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_output_has_exactly_the_declared_metrics(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, problems = report.build_result(raw_record(trace=trace))
            self.assertEqual(problems, [])
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])
            names = [m["name"] for m in self.bench[section]]
            self.assertEqual(list(result["metrics"]), names)
            for m in result["metrics"].values():
                self.assertEqual(sorted(m), ["unit", "value"])


if __name__ == "__main__":
    unittest.main()
