#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Covers self-time arithmetic on nested and overlapping spans, parenting
of spans made in a 2-worker thread pool, the benchmark's own pair count,
that every workload's output is byte-identical with and without
tracing, and that a step that raises is counted as a failed check.  Kept out of the repository's pytest collection on purpose: it
belongs to the benchmark, not to the program.
"""

from __future__ import annotations

import itertools
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import layers  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, pairs_decided  # noqa: E402


def _span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, parent, "r", start=start, end=end)


class SelfTimeArithmetic(unittest.TestCase):
    def test_nested(self):
        spans = [_span(1, 0, 100), _span(2, 10, 40, 1), _span(3, 20, 30, 2), _span(4, 50, 90, 1)]
        selfs, overlap = self_times(spans)
        self.assertEqual(selfs, {1: 30, 2: 20, 3: 10, 4: 40})
        self.assertEqual(overlap, 0)
        self.assertEqual(sum(selfs.values()) - overlap, 100)

    def test_overlapping_children(self):
        # Two children running in parallel cover [10, 90] once.
        spans = [_span(1, 0, 100), _span(2, 10, 60, 1), _span(3, 40, 90, 1)]
        selfs, overlap = self_times(spans)
        self.assertEqual(selfs[1], 20)
        self.assertEqual(overlap, 20)
        self.assertEqual(sum(selfs.values()) - overlap, 100)

    def test_child_clipped_to_parent(self):
        spans = [_span(1, 0, 100), _span(2, 90, 120, 1)]
        selfs, _ = self_times(spans)
        self.assertEqual(selfs[1], 90)

    def test_orphan_breaks_accounting(self):
        spans = [_span(1, 0, 100, name=layers.ROOT_SPAN), _span(2, 10, 20, None, "graph.bfs")]
        m = layers.per_layer_metrics(spans, 1, 0.0, 0.0)
        self.assertAlmostEqual(m["trace.accounted_frac"], 1.1)


class PoolParenting(unittest.TestCase):
    def test_two_worker_pool(self):
        from sfp import experiments, randomness
        import numpy as np
        orig = experiments._run_chunks
        tracer = Tracer()
        layers.instrument(tracer)
        try:
            tracer.recording = True
            root = tracer.begin(layers.ROOT_SPAN, root=True)

            def chunk(rg):
                u = randomness.experiment_uniforms(7, np.arange(*rg, dtype=np.uint64))
                return float(u.sum())
            experiments._run_chunks(chunk, [(i * 50_000, (i + 1) * 50_000) for i in range(8)], 2)
            tracer.end(root)
            tracer.recording = False
        finally:
            tracer.unpatch()
        by_id = {sp.sid: sp for sp in tracer.spans}
        pool = [sp for sp in tracer.spans if sp.name == "experiments.pool"]
        chunks = [sp for sp in tracer.spans if sp.name == "experiments.chunk"]
        draws = [sp for sp in tracer.spans if sp.name == "randomness.experiment_uniforms"]
        self.assertEqual(len(pool), 1)
        self.assertEqual(pool[0].parent, root.sid)
        self.assertEqual(len(chunks), 8)
        self.assertTrue(all(c.parent == pool[0].sid for c in chunks))
        self.assertEqual(len(draws), 8)
        self.assertTrue(all(by_id[d.parent].name == "experiments.chunk" for d in draws))
        self.assertTrue(all(by_id[d.parent].thread == d.thread for d in draws))
        self.assertIs(experiments._run_chunks, orig)
        selfs, overlap = self_times(tracer.spans)
        self.assertEqual(sum(selfs.values()) - overlap, root.dur)


class PairCount(unittest.TestCase):
    def brute(self, d, side, cutoff):
        pts = list(itertools.product(range(side), repeat=d))
        return sum(1 for a, b in itertools.combinations(pts, 2)
                   if cutoff is None or math.dist(a, b) <= cutoff)

    def test_against_brute_force(self):
        for d, side, cutoff in [(1, 30, None), (1, 30, 7.5), (1, 30, 100.0),
                                (2, 9, None), (2, 9, 3.0), (2, 9, 2.5), (2, 9, 20.0)]:
            self.assertEqual(pairs_decided(d, side, cutoff), self.brute(d, side, cutoff),
                             (d, side, cutoff))


class TracedOutputIdentical(unittest.TestCase):
    def test_every_workload(self):
        run.OUT_DIR.mkdir(parents=True, exist_ok=True)
        for w in WORKLOADS.values():
            untraced = {name: w.digest(name, fn())
                        for name, fn in w.steps(3, run.OUT_DIR, probe=True)}
            tracer = Tracer()
            layers.instrument(tracer)
            traced = {}
            try:
                for name, fn in w.steps(3, run.OUT_DIR, probe=True):
                    tracer.recording = True
                    root = tracer.begin(layers.ROOT_SPAN, root=True)
                    res = fn()
                    tracer.end(root)
                    tracer.recording = False
                    traced[name] = w.digest(name, res)
            finally:
                tracer.unpatch()
            self.assertEqual(untraced, traced, w.name)
            m = layers.per_layer_metrics(tracer.spans, 1, 0.0, 0.0)
            self.assertAlmostEqual(m["trace.accounted_frac"], 1.0, places=9, msg=w.name)
            self.assertEqual(list(m), list(run.declared_units(True)))


def _raise():
    raise RuntimeError("step failed on purpose")


class FailedStep(unittest.TestCase):
    def test_raising_step_is_a_failed_check(self):
        run.OUT_DIR.mkdir(parents=True, exist_ok=True)
        for w in WORKLOADS.values():
            runner = run.Runner(w)
            try:
                steps = [(name, _raise) for name, _ in w.steps(3, run.OUT_DIR, probe=True)]
                job = runner.job_metrics(3, runner.job(3, steps=steps))
            finally:
                runner.close()
            self.assertIsNone(job["rse_max"], w.name)
            self.assertTrue(any("estimates" in f for f in runner.failures), w.name)
            m = run.end_to_end_metrics([job], [1.0], 100.0)
            self.assertEqual(list(m), list(run.declared_units(False)))
            self.assertEqual(m["replicates_per_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
