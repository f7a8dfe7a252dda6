"""Untimed correctness checks and golden digests for the sfp benchmark.

Every check returns (name, ok, detail) tuples; the runner counts them as
attempted and failed.  The checks hold for any seed: they re-decide
sampled pairs from the public per-edge and per-vertex functions, test the
SFP/LRP inclusion and file round trips bit for bit, and compare sha256
digests against `golden.json`, which pins edge arrays on small boxes and
each workload's output at the default seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from sfp import graph, randomness
from sfp.params import ModelKind, ModelParams

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def edges_digest(edges: np.ndarray) -> str:
    return sha256(np.ascontiguousarray(edges, dtype="<i8").tobytes())


def _edge_keys(r) -> np.ndarray:
    n = r.n_vertices
    return r.edges[:, 0].astype(np.int64) * n + r.edges[:, 1].astype(np.int64)


def _expected_open(r, x: tuple, y: tuple) -> bool:
    """Decide pair {x, y} from the public keyed functions alone."""
    p = r.params
    delta = [b - a for a, b in zip(x, y)]
    r2 = sum(dj * dj for dj in delta)
    if r.trunc is not None and r2 > float(r.trunc) ** 2:
        return False
    if p.kind is ModelKind.SFP_NN and r2 == 1:
        return True
    u = randomness.uniform_for_edge(r.seed, x, y)
    if p.kind is ModelKind.LRP:
        wx = wy = 1.0
    else:
        wx = randomness.weight_for_vertex(r.seed, x, p.tau)
        wy = randomness.weight_for_vertex(r.seed, y, p.tau)
    t = np.float64(p.lambda_ * float(r2) ** (-p.alpha / 2.0)) * np.float64(wx) * np.float64(wy)
    return bool(u < -np.expm1(-t))


def check_realization(r, rng: np.random.Generator, n_pairs: int = 64) -> list:
    """Structure, sampled pairs re-decided, sampled weights recomputed."""
    out = []
    e = r.edges
    keys = _edge_keys(r)
    ok = (e.ndim == 2 and e.shape[1] == 2 and bool(np.all(e[:, 0] < e[:, 1]))
          and bool(np.all(np.diff(keys) > 0)) and (e.size == 0 or int(e.max()) < r.n_vertices))
    out.append(("edges-canonical", ok, f"{r.n_edges} edges, sorted, i<j, unique"))

    spec = r.spec
    pairs = []
    if r.n_edges:
        for k in rng.integers(0, r.n_edges, size=n_pairs // 2):
            pairs.append((int(e[k, 0]), int(e[k, 1])))
    reach = int(min(spec.side - 1, 2 * (r.trunc if r.trunc is not None else spec.side)))
    while len(pairs) < n_pairs:
        i = int(rng.integers(0, r.n_vertices))
        xi = spec.coords_of(i)
        yc = xi + rng.integers(-reach, reach + 1, size=spec.d)
        rel = yc - np.asarray(spec.origin)
        if np.any(rel < 0) or np.any(rel >= spec.side):
            continue
        j = int(spec.flat_of(yc))
        if j != i:
            pairs.append((min(i, j), max(i, j)))
    bad = []
    for i, j in pairs:
        x = tuple(int(c) for c in spec.coords_of(i))
        y = tuple(int(c) for c in spec.coords_of(j))
        pos = int(np.searchsorted(keys, i * r.n_vertices + j))
        present = pos < len(keys) and int(keys[pos]) == i * r.n_vertices + j
        if present != _expected_open(r, x, y):
            bad.append((x, y, present))
    out.append(("pairs-redecided", not bad,
                f"{len(pairs)} sampled pairs; mismatches {bad[:3]}"))

    if r.weights is not None:
        idx = rng.integers(0, r.n_vertices, size=8)
        wbad = [int(i) for i in idx if np.float64(r.weights[i]).tobytes() != np.float64(
            randomness.weight_for_vertex(r.seed, spec.coords_of(int(i)), r.params.tau)).tobytes()]
        out.append(("weights-recomputed", not wbad, f"8 sampled vertices; mismatches {wbad}"))
    return out


def check_coupled(sfp_r, lrp_r) -> tuple:
    missing = int(np.count_nonzero(~np.isin(_edge_keys(lrp_r), _edge_keys(sfp_r))))
    return ("lrp-inside-sfp", missing == 0,
            f"{missing} of {lrp_r.n_edges} LRP edges missing from SFP ({sfp_r.n_edges} edges)")


def same_realization(a, b) -> bool:
    def bits(x):
        return None if x is None else np.float64(x).tobytes()
    same_w = (a.weights is None and b.weights is None) or (
        a.weights is not None and b.weights is not None
        and a.weights.view(np.uint64).tobytes() == b.weights.view(np.uint64).tobytes())
    return (a.spec == b.spec and a.params == b.params and a.seed == b.seed and same_w
            and np.array_equal(a.edges, b.edges) and bits(a.trunc) == bits(b.trunc)
            and bits(a.trunc_bias) == bits(b.trunc_bias))


def check_roundtrip(r_mem, r_loaded, path: Path, copy_path: Path) -> list:
    """load(save(r)) == r bit for bit, and saving the loaded copy rewrites the same bytes."""
    out = [("load-equals-generated", same_realization(r_mem, r_loaded),
            f"{r_loaded.n_edges} edges, {r_loaded.n_vertices} vertices")]
    graph.save_realization(r_loaded, copy_path)
    same = path.read_bytes() == copy_path.read_bytes()
    copy_path.unlink()
    out.append(("save-load-save-bytes", same, f"{path.stat().st_size} bytes"))
    return out


# ---------------------------------------------------------------------------
# Golden edge digests on small boxes
# ---------------------------------------------------------------------------

_SMALL = {1: dict(alpha=1.5, side=128, cutoff=8.0), 2: dict(alpha=3.0, side=12, cutoff=3.0)}


def edge_cases():
    """Yield (case name, realization) over kind x d x seed x cutoff."""
    for kind in (ModelKind.SFP, ModelKind.LRP, ModelKind.SFP_NN):
        for d in (1, 2):
            cfg = _SMALL[d]
            params = ModelParams(d=d, alpha=cfg["alpha"], lambda_=1.0, tau=2.5, kind=kind)
            spec = graph.BoxSpec(d=d, side=cfg["side"])
            for seed in (0, 1, 2):
                yield (f"{kind.value}-d{d}-s{seed}-full", graph.generate_box(params, seed, spec))
                yield (f"{kind.value}-d{d}-s{seed}-R{cfg['cutoff']:g}",
                       graph.generate_box_truncated(params, seed, spec, cfg["cutoff"]))


def edge_digests() -> dict:
    return {name: edges_digest(r.edges) for name, r in edge_cases()}


def check_small_boxes(golden: dict) -> list:
    """Golden edge digests plus the exact invariants they pin."""
    out = []
    reals = dict(edge_cases())
    for name, r in reals.items():
        want = golden.get(name)
        got = edges_digest(r.edges)
        out.append((f"edge-digest {name}", got == want, f"{got[:16]} vs golden {str(want)[:16]}"))
    for d, cfg in _SMALL.items():
        for seed in (0, 1, 2):
            full = reals[f"sfp-d{d}-s{seed}-full"]
            trunc = reals[f"sfp-d{d}-s{seed}-R{cfg['cutoff']:g}"]
            ci = full.spec.coords_of(full.edges[:, 0])
            cj = full.spec.coords_of(full.edges[:, 1])
            inside = np.sum((cj - ci) ** 2, axis=1) <= cfg["cutoff"] ** 2
            out.append((f"truncated-equals-exact-inside-R d{d} s{seed}",
                        np.array_equal(full.edges[inside], trunc.edges), f"{trunc.n_edges} edges"))
            lrp = reals[f"lrp-d{d}-s{seed}-full"]
            ones = np.ones(full.n_vertices)
            unit = graph.generate_box(replace(full.params, kind=ModelKind.SFP), seed, full.spec,
                                      _weights_override=ones)
            out.append((f"unit-weights-equal-lrp d{d} s{seed}",
                        np.array_equal(unit.edges, lrp.edges), f"{lrp.n_edges} edges"))
            out.append(check_coupled(full, lrp))
    return out


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)
