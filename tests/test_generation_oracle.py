"""Generation and truncation bias against slow reference implementations.

Pairs: every pair of a small box is re-decided from the public per-pair
functions alone (`uniform_for_edge`, `weight_for_vertex` and
p_xy = 1 - exp(-lambda W_x W_y r^-alpha)), and `generate_box` must open
exactly those pairs.  The cases cover model kind x d in {1, 2, 3} x
side x origin (negative coordinates included) x cutoff or none x seed,
with weight overrides that saturate every pair (t >= 1) and a lambda so
small that t < 2^-52, the two ends of the lower-bound filter in
`graph._open_pairs`.  The block size is drawn too, so that blocks with
stacked offsets and split columns occur on boxes this small.

Bias: `_truncation_bias` must equal, bit for bit, the per-lag and
per-pair Python loops it replaced (kept below as `_loop_truncation_bias`).

The examples are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sfp import graph
from sfp.graph import BoxSpec, _canonical_offsets, _lag_weight_sums, generate_box
from sfp.params import ModelKind, ModelParams
from sfp.randomness import uniform_for_edge, vertex_weights, weight_for_vertex

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

MAX_SIDE = {1: 30, 2: 6, 3: 3}


def _oracle_edges(params, seed, spec, cutoff, weights):
    """Open pairs decided one at a time from the public keyed functions."""
    coords = [tuple(c) for c in spec.all_coords().tolist()]
    if weights is None and params.kind is not ModelKind.LRP:
        weights = [weight_for_vertex(seed, c, params.tau) for c in coords]
    edges = []
    for i, x in enumerate(coords):
        for j in range(i + 1, len(coords)):
            y = coords[j]
            r2 = sum((b - a) ** 2 for a, b in zip(x, y))
            if cutoff is not None and r2 > cutoff * cutoff:
                continue
            if params.kind is ModelKind.SFP_NN and r2 == 1:
                edges.append((i, j))
                continue
            t = np.float64(params.lambda_ * float(r2) ** (-params.alpha / 2.0))
            if weights is not None:
                t = t * np.float64(weights[i]) * np.float64(weights[j])
            if uniform_for_edge(seed, x, y) < -np.expm1(-t):
                edges.append((i, j))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


@st.composite
def boxes(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    side = draw(st.integers(2, MAX_SIDE[d]))
    origin = tuple(draw(st.lists(st.integers(-40, 40), min_size=d, max_size=d)))
    spec = BoxSpec(d=d, side=side, origin=origin)
    cutoff = draw(st.none() | st.floats(1.0, spec.diameter + 1.0))
    params = ModelParams(d=d, alpha=draw(st.sampled_from([d + 0.5, d + 2.0])),
                         lambda_=draw(st.sampled_from([1e-30, 0.5, 2.0, 50.0])),
                         tau=draw(st.sampled_from([2.5, 3.5])),
                         kind=draw(st.sampled_from(list(ModelKind))))
    n = spec.vertex_count
    weights = draw(st.sampled_from([None, "saturating", "mixed"]))
    if weights == "saturating":
        weights = np.full(n, 1e12)
    elif weights == "mixed":
        weights = np.where(np.arange(n) % 3 == 0, 1e6, 1.0 + np.arange(n) % 5)
    seed = draw(st.integers(0, 2 ** 64 - 1))
    block = draw(st.sampled_from([1, 5, 64, graph._BLOCK_PAIRS]))
    return params, seed, spec, cutoff, weights, block


@SETTINGS
@given(boxes())
def test_generated_edges_equal_per_pair_oracle(case):
    params, seed, spec, cutoff, weights, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_PAIRS", block)
        r = generate_box(params, seed, spec, cutoff=cutoff, _weights_override=weights)
    want = _oracle_edges(params, seed, spec, cutoff, weights)
    assert np.array_equal(r.edges, want)


def _loop_truncation_bias(spec, params, weights, cutoff):
    """The per-lag and per-pair Python loops `_truncation_bias` replaced."""
    L, d = spec.side, spec.d
    lam, alpha = params.lambda_, params.alpha
    corr, padded = _lag_weight_sums(weights.reshape((L,) * d))
    if d == 1:
        r = np.arange(1, L, dtype=np.int64).astype(np.float64)
        mask = r > cutoff
        raw = lam * np.sum(r[mask] ** -alpha * corr[1:L][mask])
    else:
        raw = 0.0
        for delta in _canonical_offsets(d, L, None):
            r2 = sum(x * x for x in delta)
            if r2 <= cutoff * cutoff:
                continue
            idx = tuple(dj % padded[j] for j, dj in enumerate(delta))
            raw += float(r2) ** (-alpha / 2.0) * corr[idx]
        raw *= lam
    sat_product = cutoff ** alpha / lam
    correction = 0.0
    if float(weights.max()) ** 2 > sat_product:
        hi = np.nonzero(weights > math.sqrt(sat_product))[0]
        coords = spec.all_coords().astype(np.float64)
        for x in hi:
            dvec = coords - coords[x]
            r = np.sqrt(np.sum(dvec * dvec, axis=1))
            far = r > cutoff
            t = lam * weights[x] * weights[far] * r[far] ** -alpha
            correction += float(np.sum(1.0 - t[t > 1.0]))
        for a_idx in range(len(hi)):
            for b_idx in range(a_idx + 1, len(hi)):
                a, b = hi[a_idx], hi[b_idx]
                rv = coords[a] - coords[b]
                r = math.sqrt(float(np.dot(rv, rv)))
                if r > cutoff:
                    t = lam * weights[a] * weights[b] * r ** -alpha
                    if t > 1.0:
                        correction -= 1.0 - t
    return float(raw + correction)


@st.composite
def bias_boxes(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    side = draw(st.integers(2, {1: 200, 2: 24, 3: 8}[d]))
    origin = tuple(draw(st.lists(st.integers(-40, 40), min_size=d, max_size=d)))
    spec = BoxSpec(d=d, side=side, origin=origin)
    cutoff = draw(st.floats(1.0, max(1.0, spec.diameter - 0.5)))
    params = ModelParams(d=d, alpha=draw(st.sampled_from([d + 0.5, d + 2.0])),
                         lambda_=draw(st.sampled_from([0.01, 1.0, 20.0])),
                         tau=draw(st.sampled_from([2.1, 2.5, 3.5])), kind=ModelKind.SFP)
    seed = draw(st.integers(0, 2 ** 64 - 1))
    return spec, params, seed, cutoff


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bias_boxes())
def test_truncation_bias_equals_loop_reference(case):
    spec, params, seed, cutoff = case
    weights = vertex_weights(seed, spec.all_coords(), params.tau)
    got = graph._truncation_bias(spec, params, weights, cutoff)
    assert got.hex() == _loop_truncation_bias(spec, params, weights, cutoff).hex()
