"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_harness.py
"""

from __future__ import annotations

import json
import random
import sys
import unittest

import calibrate
import run
from registry import END_TO_END, per_layer
from tracing import Tracer, layer_table
from workloads import generate, judge, load_oracles, pass_count, pass_seconds, run_passes, word_of

if str(run.ROOT / "src") not in sys.path:
    sys.path.insert(0, str(run.ROOT / "src"))


class TailLatency(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        samples = list(range(1, 1001))
        random.Random(0).shuffle(samples)
        tail = run.tail_latency(samples)
        self.assertEqual(tail["value"], 990)
        self.assertEqual(tail["percentile"], 99.0)
        self.assertEqual(tail["samples"], 1000)
        self.assertEqual(sum(s > tail["value"] for s in samples), 10)

    def test_twenty_samples_give_the_median(self):
        tail = run.tail_latency([float(s) for s in range(20, 0, -1)])
        self.assertEqual((tail["value"], tail["percentile"]), (10.0, 50.0))

    def test_too_few_samples(self):
        self.assertIsNone(run.tail_latency(list(range(10))))
        self.assertEqual(run.tail_latency(list(range(11)))["value"], 0)


class Passes(unittest.TestCase):
    def test_fixed_passes_and_a_burst_is_dropped(self):
        times = {0: iter([1.0] * 3), 1: iter([2.0, 9.0, 2.0])}  # a burst hits segment 1
        samples = run_passes(2, 3, lambda i: next(times[i]))
        self.assertEqual(samples, [[1.0, 1.0, 1.0], [2.0, 9.0, 2.0]])
        self.assertEqual(pass_seconds(samples), 3.0)

    def test_pass_count_depends_on_the_seconds_alone(self):
        self.assertEqual(pass_count("cli_single", 20.0), 5)
        self.assertEqual(pass_count("general_mn", 40.0), 8)
        self.assertEqual(pass_count("sweep3", 1.0), 1)

    def test_scale_is_the_reference_over_the_mean_kernel_time(self):
        ref = calibrate.REFERENCE_S
        self.assertAlmostEqual(calibrate.scale(2 * ref, 2 * ref), 0.5)
        self.assertAlmostEqual(calibrate.scale(ref / 2, ref * 1.5), 1.0)


class SelfTime(unittest.TestCase):
    def span(self, sid, name, start, end, parent, raised=False):
        return (sid, name, start, end, parent, None, raised, True)

    def test_children_are_subtracted_once(self):
        spans = [
            self.span(0, "root", 0.0, 10.0, None),
            self.span(1, "a", 1.0, 4.0, 0),
            self.span(2, "b", 3.0, 6.0, 0),  # overlaps a: the union is 1..6
            self.span(3, "leaf", 2.0, 3.0, 1),  # a grandchild of root
            self.span(4, "late", 9.0, 12.0, 0, raised=True),  # clipped at 10
        ]
        table = layer_table(spans)
        self.assertAlmostEqual(table["root"]["self_s"], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(table["a"]["self_s"], 2.0)
        self.assertAlmostEqual(table["b"]["self_s"], 3.0)
        self.assertAlmostEqual(table["leaf"]["self_s"], 1.0)
        self.assertEqual(table["late"]["errors"], 1)
        self.assertEqual(table["root"]["calls"], 1)

    def test_wrapped_calls_nest(self):
        tracer = Tracer()

        def inner(x):
            return x + 1

        inner_t = tracer.wrap("inner", inner)

        def outer(x):
            return inner_t(x) * 2

        def gen(k):
            for i in range(k):
                yield inner_t(i)

        self.assertEqual(tracer.wrap("outer", outer)(1), 4)
        self.assertEqual(list(tracer.wrap("gen", gen)(3)), [1, 2, 3])
        by_id = {s[0]: s for s in tracer.spans}
        pairs = sorted((s[1], by_id[s[4]][1]) for s in tracer.spans if s[4] is not None)
        self.assertEqual(pairs, [("inner", "gen")] * 3 + [("inner", "outer")])
        table = layer_table(tracer.spans)
        self.assertEqual(table["gen"]["calls"], 1)
        self.assertEqual(table["inner"]["calls"], 4)
        self.assertEqual(tracer.stack, [])


class ErrorRate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.oracles = load_oracles(run.ROOT)

    def stats_request(self, heights, exit_code=0):
        return {"group": "small", "argv": ["stats", word_of(heights)], "exit": exit_code,
                "expect": {"kind": "stats", "heights": heights, "format": "text"}}

    def test_judge_flags_wrong_output_and_exit(self):
        request = self.stats_request([6, 6, 8])
        good = ("m: 3\nn: 8\narea: 3\ndinv: 2\nskips: 2\n"
                "rank word: 1_1 [2_2] 4_1 [5_2] 7_1 [10_1] [13_1]\n")
        self.assertIsNone(judge(request, 0, good, "", self.oracles))
        self.assertEqual(judge(request, 0, good.replace("area: 3", "area: 4"), "",
                               self.oracles)[0], "wrong")
        self.assertEqual(judge(request, 2, "", "error: X: y\n", self.oracles)[0], "error")
        crash = "Traceback (most recent call last):\nRecursionError: deep\n"
        self.assertEqual(judge(request, 0, good, crash, self.oracles)[0], "error")

    def test_failures_are_counted(self):
        import worker

        good = self.stats_request([6, 6, 8])
        wrong_output = dict(good, expect=dict(good["expect"], heights=[3, 6, 8]))
        wrong_exit = dict(good, exit=1)
        spec = {"workload": "cli_single", "inputs": {"requests": [good, wrong_output, wrong_exit]},
                "passes": 2, "seed": 0, "trace": False, "root": str(run.ROOT)}
        result = worker.run(spec)
        self.assertEqual((result["attempted"], result["failed"], result["wrong"]), (6, 4, 2))
        self.assertAlmostEqual(run.error_rate(result["attempted"], result["failed"]), 2 / 3)


class Inputs(unittest.TestCase):
    def test_seeded(self):
        for workload in ("sweep3", "general_mn", "cli_single"):
            self.assertEqual(generate(workload, 7), generate(workload, 7))
        self.assertNotEqual(generate("cli_single", 7), generate("cli_single", 8))

    def test_benchmark_json_matches_the_registry(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]},
            END_TO_END,
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
            {name: row[:2] for name, row in per_layer().items()},
        )
        self.assertEqual([(w["name"], w["why"]) for w in bench["workloads"]],
                         list(run.WORKLOADS.items()))


if __name__ == "__main__":
    unittest.main()
