"""Self-tests for the benchmark's own arithmetic and inputs.

    python3 perfbench/selftest.py

Pins the tail-percentile rule, the best-of-rounds estimator, self-time
subtraction, the failure ratio, seed determinism of every workload's
inputs, and the agreement between ``BENCHMARK.json`` and the metrics
the code prints.
"""

import hashlib
import json
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import stats  # noqa: E402
from perfbench.spans import Patcher, SpanRecorder, self_times  # noqa: E402


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))
        self.assertAlmostEqual(stats.tail_percentile(7272 * 30),
                               100.0 * (7272 * 30 - 10) / (7272 * 30))

    def test_every_tail_has_exactly_ten_samples_beyond(self):
        for count in range(20, 3000, 7):
            values = [(index * 7919) % count for index in range(count)]
            value, pct, stated = stats.tail(values)
            self.assertEqual(stated, count)
            self.assertEqual(sum(1 for v in values if v > value),
                             stats.TAIL_MIN_BEYOND)
            # The stated percentile is the value's nearest rank, and the
            # next rank up has fewer than ten beyond it.
            ordered = sorted(values)
            rank = round(pct / 100.0 * count)
            self.assertEqual(ordered[rank - 1], value)
            self.assertLess(sum(1 for v in values if v > ordered[rank]),
                            stats.TAIL_MIN_BEYOND)

    def test_block_tail_is_the_median_of_block_tails(self):
        # Three blocks of 20: the tails are each block's 11th largest.
        values = list(range(20)) + list(range(100, 120)) \
            + list(range(50, 70)) + [999] * 5
        value, pct, block, blocks = stats.block_tail(values, 20)
        self.assertEqual((pct, block, blocks), (50.0, 20, 3))
        self.assertEqual(value, 59)  # median of 9, 109 and 59
        with self.assertRaises(ValueError):
            stats.block_tail(values[:19], 20)

    def test_too_few_samples_is_refused(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(19)))

    def test_median(self):
        self.assertEqual(stats.median([5, 1, 4, 2, 3]), 3)
        self.assertEqual(stats.median([1, 2, 3, 4]), 2.5)


class BestOfTest(unittest.TestCase):
    def test_least_value_per_position(self):
        rounds = [[3.0, 9.0, 5.0], [4.0, 2.0, 6.0], [3.5, 8.0, 1.0]]
        self.assertEqual(stats.best_of(rounds), [3.0, 2.0, 1.0])
        self.assertEqual(stats.best_of([[7, 8]]), [7, 8])

    def test_a_slow_spell_in_some_rounds_does_not_move_it(self):
        fast = [10.0 + (index % 7) for index in range(100)]
        # Each round runs 1.6x slower over a different third of it.
        rounds = []
        for spell in range(3):
            rounds.append([value * (1.6 if index // 34 == spell else 1.0)
                           for index, value in enumerate(fast)])
        self.assertEqual(stats.best_of(rounds), fast)

    def test_positions_with_one_key_share_their_best(self):
        rounds = [[5.0, 4.0, 9.0], [6.0, 3.0, 7.0]]
        self.assertEqual(stats.best_of(rounds, keys=["a", "b", "a"]),
                         [5.0, 3.0, 5.0])

    def test_refuses_rounds_of_different_work(self):
        with self.assertRaises(ValueError):
            stats.best_of([[1, 2], [1, 2, 3]])
        with self.assertRaises(ValueError):
            stats.best_of([])


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_back_to_back_children(self):
        spans = [
            ("root", 0.0, 10.0, -1, 0),
            ("a", 1.0, 3.0, 0, 0),       # back to back with b
            ("b", 3.0, 6.0, 0, 0),
            ("a.inner", 1.5, 2.5, 1, 0),  # nested in a
            ("root2", 10.0, 12.0, -1, 1),
        ]
        self.assertEqual(self_times(spans), [5.0, 1.0, 3.0, 1.0, 2.0])

    def test_overlapping_children_count_once(self):
        spans = [("p", 0.0, 10.0, -1, 0), ("x", 1.0, 4.0, 0, 0),
                 ("y", 3.0, 6.0, 0, 0), ("z", 9.0, 12.0, 0, 0)]
        # Union of children inside the parent: [1, 6] and [9, 10].
        self.assertEqual(self_times(spans)[0], 4.0)

    def test_recorder_nests_by_call(self):
        recorder = SpanRecorder()
        outer = recorder.open("outer")
        first = recorder.open("first")
        recorder.close(first)
        recorder.trace_id = 7
        second = recorder.open("second")
        recorder.close(second)
        recorder.close(outer)
        spans = recorder.spans()
        self.assertEqual([s[3] for s in spans], [-1, 0, 0])
        self.assertEqual([s[4] for s in spans], [0, 0, 7])
        selfs = self_times(spans)
        outer_span = spans[0]
        self.assertAlmostEqual(
            selfs[0], (outer_span[2] - outer_span[1])
            - sum(s[2] - s[1] for s in spans[1:]))


class FailureRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.failure_ratio(0, 10), 0.0)
        self.assertEqual(stats.failure_ratio(3, 12), 0.25)

    def test_refuses_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.failure_ratio(0, 0)
        with self.assertRaises(ValueError):
            stats.failure_ratio(5, 4)
        with self.assertRaises(ValueError):
            stats.failure_ratio(-1, 4)


def _digest(traces):
    text = "".join(trace.to_text() for trace in traces)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SeedDeterminismTest(unittest.TestCase):
    def test_app_farm_inputs(self):
        from perfbench import corpus

        first = corpus.app_farm_distinct(3)
        again = corpus.app_farm_distinct(3)
        other = corpus.app_farm_distinct(4)
        self.assertEqual(_digest(first), _digest(again))
        self.assertNotEqual(_digest(first), _digest(other))
        labels, slots = corpus.app_farm_batch(3, first)
        labels_again, slots_again = corpus.app_farm_batch(3, again)
        self.assertEqual(labels, labels_again)
        self.assertEqual(_digest(slots), _digest(slots_again))
        # The seed moves content and order, never the batch size.
        self.assertEqual(sum(map(len, slots)),
                         sum(map(len, corpus.app_farm_batch(4, other)[1])))

    def test_sites_edit_inputs(self):
        from perfbench import corpus

        first = corpus.sites_edit_corpus(3)
        self.assertEqual(_digest(first), _digest(corpus.sites_edit_corpus(3)))
        other = corpus.sites_edit_corpus(4)
        self.assertNotEqual(_digest(first), _digest(other))
        self.assertEqual(sum(map(len, first)), sum(map(len, other)))

    def test_record_inputs(self):
        import random

        from perfbench.workloads import RECORD_PLAN, RecordSessions

        def inputs(seed):
            rng = random.Random("record:%d" % seed)
            return [RecordSessions._inputs(rng, kind, size)
                    for kind, size in RECORD_PLAN]

        self.assertEqual(inputs(3), inputs(3))
        self.assertNotEqual(inputs(3), inputs(4))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        from perfbench import layers, measure
        from perfbench.run import WORKLOAD_NAMES

        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(measure.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(layers.METRICS))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         WORKLOAD_NAMES)

    def test_patcher_restores_originals(self):
        from repro.core.relaxation import RelaxationEngine
        from repro.dom.node import Node
        from repro.net.tape import Tape
        from repro.xpath import evaluator

        from perfbench.spans import install_layer_spans

        before = (Node.__dict__["text_content"], Tape.__dict__["decode"],
                  RelaxationEngine.__dict__["resolve"], evaluator.evaluate)
        with Patcher() as patcher:
            install_layer_spans(patcher, SpanRecorder())
            self.assertIsNot(evaluator.evaluate, before[3])
        after = (Node.__dict__["text_content"], Tape.__dict__["decode"],
                 RelaxationEngine.__dict__["resolve"], evaluator.evaluate)
        for old, new in zip(before, after):
            self.assertIs(old, new)


if __name__ == "__main__":
    unittest.main()
