"""Per-layer instrumentation of sfp for the traced run, and its metrics.

`instrument` wraps the module-level functions each layer exposes (the
source tree is not modified; every binding of a wrapped function in the
loaded sfp modules is replaced and later restored).  Layers and spans:

- randomness: keyed_uniforms, experiment_uniforms, pareto_from_uniform,
  vertex_weights
- graph: _generate (graph.generate), _truncation_bias (graph.trunc_bias),
  BoxRealization.adjacency, clusters, distances_from (graph.bfs),
  save_realization, load_realization
- experiments: run_adjacent_mc, run_fkg_check, run_bridge_experiment,
  run_degree_experiment, run_distance_experiment, and the thread pool
  _run_chunks (experiments.pool) with one experiments.chunk span per
  replicate range, parented explicitly to the pool span
- cli: main

sfp.moments, sfp.params, sfp.hierarchy and sfp.verify do negligible work
in these workloads and are not wrapped; their time counts as self time of
the caller.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict

import numpy as np

from sfp import cli, experiments, graph, randomness

from spans import self_times
from workloads import pairs_decided


def capture_generated(sink: list):
    """Append every realization sfp generates to `sink`; returns an undo function.

    Installed in every run (traced or not) so the checks can inspect the
    boxes a CLI call built; it adds one Python call per generated box.
    """
    orig = graph._generate

    @functools.wraps(orig)
    def capturing(*args, **kwargs):
        r = orig(*args, **kwargs)
        sink.append(r)
        return r

    graph._generate = capturing

    def undo():
        graph._generate = orig
    return undo


def _size(out, state, *a, **k):
    return {"n": int(np.size(out))}


def _generate_counts(out, state, params, seed, spec, cutoff, *a, **k):
    return {"pairs": pairs_decided(spec.d, spec.side, cutoff), "edges": out.n_edges,
            "d": spec.d, "key": [seed, spec.d, spec.side, list(spec.origin), cutoff]}


def _lines(r) -> int:
    return 2 + (r.n_vertices if r.weights is not None else 0) + r.n_edges


def _report_reps(out, state, cfg, *a, **k):
    if out.name == "fkg":
        return {"reps": cfg.replicates * len(out.rows)}
    return {"reps": sum(int(row[-1]) for row in out.rows)}


def instrument(tracer) -> None:
    mods = [m for name, m in sys.modules.items() if name == "sfp" or name.startswith("sfp.")]

    def span(name, count=None, before=None):
        return lambda fn: tracer.wrap(name, fn, count=count, before=before)

    for fn in ("keyed_uniforms", "experiment_uniforms", "pareto_from_uniform"):
        tracer.patch(mods, randomness, fn, span(f"randomness.{fn}", _size))
    tracer.patch(mods, randomness, "vertex_weights", span("randomness.vertex_weights"))

    tracer.patch(mods, graph, "_generate", span("graph.generate", _generate_counts))
    tracer.patch(mods, graph, "_truncation_bias", span(
        "graph.trunc_bias", lambda out, s, *a, **k: {"mass": float(out)}))
    tracer.patch(mods, graph.BoxRealization, "adjacency", span(
        "graph.adjacency", lambda out, miss, r: {"edges": r.n_edges if miss else 0},
        before=lambda r: r._adjacency is None))
    tracer.patch(mods, graph, "clusters", span(
        "graph.clusters", lambda out, s, r: {"edges": r.n_edges}))
    tracer.patch(mods, graph, "distances_from", span(
        "graph.bfs", lambda out, s, *a, **k: {"visited": int(np.count_nonzero(out >= 0))}))
    tracer.patch(mods, graph, "save_realization", span(
        "graph.save", lambda out, s, r, path: {"lines": _lines(r), "bytes": os.path.getsize(path)}))
    tracer.patch(mods, graph, "load_realization", span(
        "graph.load", lambda out, s, path: {"lines": _lines(out), "bytes": os.path.getsize(path)}))

    for fn, name in (("run_adjacent_mc", "adjacent"), ("run_fkg_check", "fkg"),
                     ("run_bridge_experiment", "bridge")):
        tracer.patch(mods, experiments, fn, span(f"experiments.{name}", _report_reps))
    tracer.patch(mods, experiments, "run_degree_experiment", span("experiments.degree"))
    tracer.patch(mods, experiments, "run_distance_experiment", span("experiments.distances"))

    def pool(orig):
        @functools.wraps(orig)
        def run_chunks(fn, ranges, workers):
            if not tracer.recording:
                return orig(fn, ranges, workers)
            pool_span = tracer.begin("experiments.pool")

            def chunk(rg):
                sp = tracer.begin("experiments.chunk", parent=pool_span.sid)
                try:
                    return fn(rg)
                finally:
                    tracer.end(sp)
            try:
                return orig(chunk, ranges, workers)
            finally:
                tracer.end(pool_span)
        return run_chunks

    tracer.patch(mods, experiments, "_run_chunks", pool)
    tracer.patch(mods, cli, "main", span("cli.main"))


ROOT_SPAN = "bench.step"


def per_layer_metrics(spans, jobs: int, overhead_frac: float, speedup_2t: float) -> dict:
    """Per-layer metrics from the spans of `jobs` traced jobs.

    Counts and busy/self seconds are per job; rates and ratios use totals.
    A layer a workload never enters reports 0.
    """
    selfs, overlap = self_times(spans)
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def total(name, key=None):
        if key is None:
            return sum(sp.dur for sp in by_name[name])
        return sum(sp.counts[key] for sp in by_name[name] if sp.counts)

    def self_s(prefix):
        return sum(selfs[sp.sid] for sp in spans if sp.name.startswith(prefix)) / 1e9 / jobs

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m = {}
    ku = "randomness.keyed_uniforms"
    m[f"{ku}.words"] = total(ku, "n") / jobs
    m[f"{ku}.busy_s"] = total(ku) / 1e9 / jobs
    m[f"{ku}.ns_per_word"] = ratio(total(ku), total(ku, "n"))
    eu = "randomness.experiment_uniforms"
    m[f"{eu}.words"] = total(eu, "n") / jobs
    m[f"{eu}.ns_per_word"] = ratio(total(eu), total(eu, "n"))
    pu = "randomness.pareto_from_uniform"
    m[f"{pu}.ns_per_draw"] = ratio(total(pu), total(pu, "n"))
    m["randomness.self_s"] = self_s("randomness.")

    gen = by_name["graph.generate"]
    m["graph.generate.calls"] = len(gen) / jobs
    m["graph.generate.pairs"] = total("graph.generate", "pairs") / jobs
    m["graph.generate.edges"] = total("graph.generate", "edges") / jobs
    m["graph.generate.self_s"] = self_s("graph.generate")
    bias_ns = defaultdict(int)
    for sp in by_name["graph.trunc_bias"]:
        bias_ns[sp.parent] += sp.dur
    for d in (1, 2):
        calls = [sp for sp in gen if sp.counts["d"] == d]
        ns = sum(sp.dur - bias_ns[sp.sid] for sp in calls)
        m[f"graph.generate.ns_per_pair.d{d}"] = ratio(ns, sum(sp.counts["pairs"] for sp in calls))
    gen_ids = {sp.sid for sp in gen}
    edge_words = sum(sp.counts["n"] for sp in by_name[ku] if sp.parent in gen_ids)
    distinct = {}
    for sp in gen:
        distinct[(sp.run, repr(sp.counts["key"]))] = sp.counts["pairs"]
    m["graph.generate.words_per_pair"] = ratio(edge_words, sum(distinct.values()))
    tb = by_name["graph.trunc_bias"]
    m["graph.trunc_bias.busy_s"] = total("graph.trunc_bias") / 1e9 / jobs
    m["graph.trunc_bias.mass"] = ratio(sum(sp.counts["mass"] for sp in tb), len(tb))
    for name in ("adjacency", "clusters"):
        key = f"graph.{name}"
        timed = [sp for sp in by_name[key] if sp.counts["edges"]]
        m[f"{key}.ms_per_1e5_edges"] = ratio(sum(sp.dur for sp in timed) / 1e6,
                                             sum(sp.counts["edges"] for sp in timed), 1e5)
    m["graph.bfs.calls"] = len(by_name["graph.bfs"]) / jobs
    m["graph.bfs.visited"] = total("graph.bfs", "visited") / jobs
    m["graph.bfs.ms_per_source"] = ratio(total("graph.bfs") / 1e6, len(by_name["graph.bfs"]))
    m["graph.bfs.ns_per_visit"] = ratio(total("graph.bfs"), total("graph.bfs", "visited"))
    for name in ("save", "load"):
        key = f"graph.{name}"
        m[f"{key}.us_per_line"] = ratio(total(key) / 1e3, total(key, "lines"))
    m["graph.io.bytes"] = (total("graph.save", "bytes") + total("graph.load", "bytes")) / jobs
    m["graph.self_s"] = self_s("graph.")

    for name in ("adjacent", "fkg", "bridge"):
        key = f"experiments.{name}"
        m[f"{key}.reps_per_s"] = ratio(total(key, "reps"), total(key) / 1e9)
        m[f"{key}.self_s"] = self_s(key)
    m["experiments.bridge.speedup_2t"] = speedup_2t
    m["experiments.degree.self_s"] = self_s("experiments.degree")
    m["experiments.distances.self_s"] = self_s("experiments.distances")
    m["experiments.self_s"] = self_s("experiments.")
    m["cli.self_s"] = self_s("cli.")

    roots = by_name[ROOT_SPAN]
    root_ns = sum(sp.dur for sp in roots)
    m["trace.run_s"] = root_ns / 1e9 / jobs
    m["trace.uncovered_s"] = self_s(ROOT_SPAN)
    m["trace.parallel_overlap_s"] = overlap / 1e9 / jobs
    m["trace.accounted_frac"] = ratio(sum(selfs.values()) - overlap, root_ns)
    m["trace.overhead_frac"] = overhead_frac
    return m
