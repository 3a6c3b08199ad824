"""Self-tests of the benchmark harness.

Run from the root of a source checkout:

    python3 -m unittest discover -s benchmark/tests
"""

from __future__ import annotations

import json
import math
import signal
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from spans import Patch, SpanRecorder, read_spans  # noqa: E402
from speed import UNIT_REFERENCE_S, SpeedTimer, reference_seconds  # noqa: E402
from workloads import (  # noqa: E402
    CLASSIFY_REFERENCE,
    DEFAULT_SEED,
    WORKLOADS,
    ClassifyRandom,
    Item,
    input_digest,
    recorded_input_digests,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_calls(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        fns = {}

        def leaf():
            clock.now += 1

        def inner():
            clock.now += 2
            fns["leaf"]()
            clock.now += 3

        def outer():
            clock.now += 10
            fns["inner"]()
            fns["inner"]()
            clock.now += 5

        for name, fn in (("leaf", leaf), ("inner", inner), ("outer", outer)):
            fns[name] = rec.wrap(name, fn)
        fns["outer"]()
        agg = rec.aggregate()
        self.assertEqual(agg["leaf"], {"calls": 2, "total_s": 2.0, "self_s": 2.0})
        self.assertEqual(agg["inner"], {"calls": 2, "total_s": 12.0, "self_s": 10.0})
        self.assertEqual(agg["outer"], {"calls": 1, "total_s": 27.0, "self_s": 15.0})
        self.assertEqual(list(rec.parent), [-1, 0, 1, 0, 3])

    def test_recursion_counts_outermost_total_once(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        fns = {}

        def down(k):
            clock.now += 1
            if k:
                fns["down"](k - 1)

        fns["down"] = rec.wrap("down", down)
        fns["down"](2)
        self.assertEqual(rec.aggregate()["down"], {"calls": 3, "total_s": 3.0, "self_s": 3.0})

    def test_spans_round_trip(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        f = rec.wrap("f", lambda: None)
        f()
        f()
        run.SPAN_DIR.mkdir(exist_ok=True)
        path = run.SPAN_DIR / "test-round-trip.bin"
        rec.write(path)
        names, arrays = read_spans(path)
        path.unlink()
        self.assertEqual(names, ["f"])
        self.assertEqual(list(arrays["parent"]), [-1, -1])
        self.assertEqual(list(arrays["start"]), list(rec.start))


class BusyWorkload:
    """Spins inside nested traced calls until the deadline interrupts it."""

    def __init__(self, rec: SpanRecorder):
        self.spin = rec.wrap("spin", self._spin)
        self.outer = rec.wrap("outer", lambda: self.spin())

    @staticmethod
    def _spin():
        while True:
            pass

    def run(self, item):
        return self.outer()


class InterruptTest(unittest.TestCase):
    def setUp(self):
        self.previous = signal.signal(signal.SIGALRM, run._on_alarm)

    def tearDown(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def assert_closed(self, rec: SpanRecorder):
        self.assertEqual(rec.stack, [])
        lengths = {len(rec.name), len(rec.parent), len(rec.start), len(rec.end)}
        self.assertEqual(len(lengths), 1)
        self.assertFalse(any(math.isnan(end) for end in rec.end))

    def test_deadline_leaves_no_open_span(self):
        rec = SpanRecorder()
        elapsed, outcome = run.timed_call(BusyWorkload(rec), Item("?"), 0.05, rec)
        self.assertTrue(outcome.failure.startswith("deadline"))
        self.assertEqual(elapsed, 0.05)
        self.assertEqual(len(rec), 2)
        self.assert_closed(rec)

    def test_deadline_stops_the_speed_timer(self):
        previous = signal.getsignal(signal.SIGPROF)
        try:
            timer = SpeedTimer()
            rec = SpanRecorder()
            elapsed, outcome = run.timed_call(BusyWorkload(rec), Item("?"), 0.05, rec, timer)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        self.assertTrue(outcome.failure.startswith("deadline"))
        self.assertEqual(elapsed, 0.05)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))
        self.assertGreater(len(timer.samples), 1)
        self.assert_closed(rec)

    def test_half_appended_span_is_dropped(self):
        rec = SpanRecorder()
        f = rec.wrap("f", lambda: None)
        f()
        # an interrupt between the appends of a new span
        rec.name.append(0)
        rec.parent.append(-1)
        self.assertEqual(rec.close_open(), 0)
        self.assertEqual(len(rec), 1)
        self.assert_closed(rec)


class ReferenceSecondsTest(unittest.TestCase):
    def test_stretches_scale_by_the_unit_before_them(self):
        # units of 1 s and 2 s, each followed by a stretch of twice its length
        samples = [(0.0, 1.0), (3.0, 5.0)]
        self.assertEqual(reference_seconds(samples, 9.0), 4 * UNIT_REFERENCE_S)

    def test_start_sample_only(self):
        self.assertEqual(reference_seconds([(0.0, 0.5)], 2.0), 3 * UNIT_REFERENCE_S)


class InputDigestTest(unittest.TestCase):
    def test_same_seed_same_digest(self):
        recorded = recorded_input_digests()
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                first = input_digest(cls(7).items)
                self.assertEqual(first, input_digest(cls(7).items))
                self.assertNotEqual(first, input_digest(cls(8).items))
                self.assertEqual(input_digest(cls(DEFAULT_SEED).items), recorded[name])


class PatchTest(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        import hamclosure
        from hamclosure import cli, closures, families, graphs, patterns, verify

        original = patterns.has_induced
        add_edges = graphs.Graph.add_edges
        holders = (patterns, closures, families, cli, verify)
        with Patch(SpanRecorder()):
            for module in holders:
                self.assertIsNot(module.has_induced, original, module.__name__)
                self.assertIs(module.has_induced.__wrapped__, original)
            self.assertIs(graphs.Graph.add_edges.__wrapped__, add_edges)
            self.assertIs(hamclosure.recognize, families.recognize)
        for module in holders:
            self.assertIs(module.has_induced, original)
        self.assertIs(graphs.Graph.add_edges, add_edges)


class ReferenceCheckTest(unittest.TestCase):
    def test_corrupted_reference_digest_is_flagged(self):
        with open(CLASSIFY_REFERENCE) as fh:
            reference = json.load(fh)
        good = ClassifyRandom(DEFAULT_SEED, reference)
        item = min(good.items, key=lambda it: (len(it.g6), it.g6))
        outcome = good.run(item)
        self.assertIsNone(outcome.failure)
        self.assertIsNone(good.check(item, outcome.value))
        corrupted = dict(reference, reports=dict(reference["reports"]))
        digest = corrupted["reports"][item.g6]
        corrupted["reports"][item.g6] = ("0" if digest[0] != "0" else "1") + digest[1:]
        bad = ClassifyRandom(DEFAULT_SEED, corrupted)
        problem = bad.check(item, outcome.value)
        self.assertIsNotNone(problem)
        self.assertIn("differs from the reference", problem)


if __name__ == "__main__":
    unittest.main()
