#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They check that the tracer puts every original function back, that the
self-time and rescaling arithmetic is right on hand-built examples, and
that a corrupted or raising output is counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def namespace_snapshot() -> dict:
    return {(name, attr): obj
            for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith(tr.PACKAGE)
            for attr, obj in vars(mod).items()}


class WrapperTests(unittest.TestCase):
    def test_install_wraps_importers_and_remove_restores(self):
        before = namespace_snapshot()
        rref = wl.fields.rref
        H = wl.semigroup("3,4")
        tracer = tr.Tracer()
        installed = tr.install(tracer)
        try:
            for mod in (wl.fields, wl.trace, wl.ideals, wl.artin):
                self.assertIsNot(mod.rref, rref)
            self.assertIsNot(wl.batch.enumerate_trace_ideals, before[
                ("traceforge.trace", "enumerate_trace_ideals")])
            enum = wl.trace.enumerate_trace_ideals(H, 2)
            semigroups = list(wl.semigroups.enumerate_semigroups(2))
        finally:
            installed.remove()
        self.assertEqual(namespace_snapshot(), before)
        self.assertEqual(len(semigroups), 4)
        names = tracer.span_names()
        self.assertEqual(names.count("trace.enumerate_trace_ideals"), 1)
        # the call itself, then one span per resumption, the last one ending it
        self.assertEqual(names.count("semigroups.enumerate_semigroups"), len(semigroups) + 2)
        self.assertGreater(tracer.counts["fields.rref.calls.trace"], 0)
        self.assertGreater(tracer.counts["fields.rref.calls.ideals"], 0)
        self.assertEqual(tracer.counts["trace.candidates"], enum.census)
        self.assertEqual(tracer.stack, [-1])

    def test_wrapped_call_that_raises_closes_its_span(self):
        H = wl.semigroup("3,4")
        tracer = tr.Tracer()
        installed = tr.install(tracer)
        try:
            with self.assertRaises(ValueError):
                wl.trace.enumerate_trace_ideals(H, 11)
        finally:
            installed.remove()
        self.assertEqual(tracer.stack, [-1])
        self.assertEqual(tracer.span_names(), ["trace.enumerate_trace_ideals"])


class SelfTimeTests(unittest.TestCase):
    def test_hand_built_tree(self):
        # id: 0 root [0,10]; 1 a [1,4] under 0; 2 a1 [2,3] under 1;
        # 3 b [5,9] under 0; 4 b1 [5,7] and 5 b2 [6,8] under 3 overlap;
        # 6 c [9.5,11] under 0 runs past the root and is clipped to [9.5,10].
        start = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0, 9.5]
        end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0, 11.0]
        parent = [-1, 0, 1, 0, 3, 3, 0]
        got = tr.self_times(start, end, parent)
        want = [10 - 3 - 4 - 0.5, 3 - 1, 1, 4 - 3, 2, 2, 1.5]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w)

    def test_samples_become_children_of_the_innermost_open_span(self):
        tracer = tr.Tracer()
        for name, a, b, parent in (("x", 0.0, 10.0, -1), ("y", 1.0, 4.0, 0),
                                   ("z", 2.0, 3.0, 1), ("y", 5.0, 9.0, 0)):
            tracer.name.append(tracer.name_id(name))
            tracer.start.append(a)
            tracer.end.append(b)
            tracer.parent.append(parent)
            tracer.span_item.append(0)
        tracer.add_samples([(2.2, 2.4), (0.5, 0.6), (4.5, 4.6), (6.0, 6.5)])
        self.assertEqual(list(tracer.parent[4:]), [0, 2, 0, 3])
        selfs = tr.self_times(tracer.start, tracer.end, tracer.parent)
        self.assertAlmostEqual(selfs[2], 0.8)
        self.assertAlmostEqual(sum(selfs), 10.0)

    def test_rescaling_leaves_out_samples_and_uses_the_two_around_a_stretch(self):
        sampler = calibrate.SpeedSampler()
        sampler.marks = [(0.0, 1.0), (3.0, 5.0), (6.0, 7.0)]  # samples of 1, 2, 1 s
        self.assertAlmostEqual(sampler.work_s(), 3.0)
        self.assertAlmostEqual(sampler.work_s(2.0, 5.5), 1.5)
        ref = calibrate.REFERENCE_S
        self.assertAlmostEqual(sampler.scaled_s(), 3.0 * ref / 1.5)
        self.assertAlmostEqual(sampler.scaled_s(2.0, 5.5), 1.5 * ref / 1.5)
        sampler.marks = [(0.0, 1.0), (3.0, 4.0), (6.0, 9.0)]  # samples of 1, 1, 3 s
        self.assertAlmostEqual(sampler.scaled_s(1.0, 6.0), 2.0 * ref / 1.0 + 2.0 * ref / 2.0)

    def test_sampler_restores_the_signal_handler(self):
        before = calibrate.signal.getsignal(calibrate.signal.SIGALRM)
        with calibrate.SpeedSampler() as sampler:
            t0 = perf_counter()
            while perf_counter() - t0 < 3 * calibrate.INTERVAL_S:
                pass
        self.assertIs(calibrate.signal.getsignal(calibrate.signal.SIGALRM), before)
        self.assertGreaterEqual(len(sampler.marks), 3)

    def test_outermost_skips_nested_same_name(self):
        names = ["x", "y", "x", "x"]
        parent = [-1, 0, 1, -1]
        self.assertEqual([tr.is_outermost(i, names, parent) for i in range(4)],
                         [True, True, False, True])

    def test_traced_pass_self_times_cover_wall_time(self):
        work = wl.make("artin-census")
        items = [i for i in work.build(0) if i[0] == "gorenstein_two_generators/F_7"]
        tracer = tr.Tracer()
        installed = tr.install(tracer)
        try:
            clock = wl.ItemClock(tracer)
            t0 = perf_counter()
            outs = work.run_pass(items, clock)
            wall = perf_counter() - t0
        finally:
            installed.remove()
        m = tr.layer_metrics(tracer, wall)
        self.assertLess(abs(m["self_time_coverage"] - 1), run.COVERAGE_TOLERANCE)
        self.assertEqual(work.check(items, outs), [None])
        self.assertEqual(m["artin.enumerate_ideals.calls"], 1)
        self.assertEqual(m["artin.ideals"], m["artin.hom_trace.calls"])


class CorruptionTests(unittest.TestCase):
    def test_every_workload_is_runnable(self):
        self.assertEqual(set(run.WORKLOAD_NAMES), set(wl.WORKLOADS))
        self.assertEqual(set(wl.load_references()), set(wl.WORKLOADS))

    def test_artin_dropped_ideal_fails(self):
        work = wl.make("artin-census")
        items = [i for i in work.build(3) if i[0] in (
            "gorenstein_two_generators/F_7", work.SEPARATION)]
        outs = work.run_pass(items, wl.ItemClock())
        self.assertEqual(work.check(items, outs), [None, None])
        bad = [o[:-1] if isinstance(o, list) else o + 1 for o in outs]
        self.assertTrue(all(work.check(items, bad)))

    def test_enum_changed_census_fails(self):
        work = wl.make("enum-hard")
        items = [i for i in work.build(0) if i[0] == "4,5"]
        outs = work.run_pass(items, wl.ItemClock())
        self.assertEqual(work.check(items, outs), [None])
        bad = [dataclasses.replace(outs[0], census=outs[0].census + 1)]
        self.assertIsNotNone(work.check(items, bad)[0])
        bad = [dataclasses.replace(outs[0], ideals=outs[0].ideals[:-1])]
        self.assertIsNotNone(work.check(items, bad)[0])
        self.assertIn("unreadable", work.check(items, [None])[0])

    def test_raising_item_fails(self):
        work = wl.make("enum-hard")
        items = [("4,5", wl.semigroup("4,5"), 4)]  # 4 is not prime: raises
        errors = work.check(items, work.run_pass(items, wl.ItemClock()))
        self.assertIn("raised", errors[0])
        tally = run.Tally()
        tally.add(errors + [None])
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_survey_corrupted_record_and_seed_invariants(self):
        work = wl.make("survey-g6")
        wl.OUT_DIR.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="selftest-", dir=wl.OUT_DIR))
        try:
            wl.batch.survey(2, 2, out, seed=5, threads=1)
            items = [H.text for H in wl.semigroups.enumerate_semigroups(2)]
            outs = [out] * len(items)
            self.assertEqual([work.check_item(i, o) for i, o in zip(items, outs)],
                             [None] * len(items))
            path = out / ("H_" + items[1].replace(",", "-") + ".json")
            payload = json.loads(path.read_text())
            payload["record"]["n_trace"] += 1
            path.write_text(json.dumps(payload))
            self.assertIsNotNone(work.check_item(items[1], out))
            (out / ("H_" + items[2].replace(",", "-") + ".json")).unlink()
            self.assertIsNotNone(work.check_item(items[2], out))
            self.assertIsNone(work.check_item(items[3], out))
        finally:
            shutil.rmtree(out)

    def test_probe_samples_follow_seed_but_not_reference(self):
        work = wl.make("ideals-qq")
        a = {work.key(i): i[2] for i in work.build(1)}
        b = {work.key(i): i[2] for i in work.build(2)}
        self.assertEqual(a.keys(), b.keys())
        self.assertNotEqual(a, b)
        probed = [s for s in a.values() if s is not None]
        self.assertTrue(all(len(set(s)) == wl.PROBE_SAMPLES for s in probed))


if __name__ == "__main__":
    unittest.main()
