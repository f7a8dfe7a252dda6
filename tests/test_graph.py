import itertools
import math
import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special

from sfp import graph
from sfp.graph import (BoxRealization, BoxSpec, BoxTooLarge, FormatVersionMismatch,
                       MarginTooLarge, ParseError, RadiusTooSmall,
                       VertexOutOfBox, clusters, coupled_pair, degree_sequence,
                       distances_from, generate_box, load_realization,
                       save_realization)
from sfp.params import ModelKind, ParameterError, validate_params
from sfp.randomness import derive_seed

P = validate_params(1, 1.5, 1.0, 2.5)


def _line_box(edges, side):
    """The d=1 box {0, ..., side-1} whose open edges are exactly `edges`."""
    flat = np.unique(np.sort(np.array(edges, dtype=np.int64), axis=1), axis=0)
    return BoxRealization(spec=BoxSpec(d=1, side=side), params=P, seed=0, weights=None,
                          edges=flat)


@pytest.mark.parametrize("d, side, origin", [
    (1, 7, None), (1, 5, (-3,)), (2, 4, None), (2, 5, (-2, 7)), (3, 3, (4, -1, -5)),
])
def test_box_layout_is_row_major(d, side, origin):
    # Oracle: itertools.product lists the vertices in row-major order, so
    # the k-th tuple is the relative position of flat index k.
    spec = BoxSpec(d=d, side=side, origin=origin)
    shift = np.asarray(spec.origin, dtype=np.int64)
    coords = np.array(list(itertools.product(range(side), repeat=d)), dtype=np.int64) + shift
    flat = np.arange(side ** d, dtype=np.int64)
    assert np.array_equal(spec.coords_of(flat), coords)
    assert np.array_equal(spec.flat_of(coords), flat)
    assert np.array_equal(spec.all_coords(), coords)
    # One step along axis j moves the flat index by strides[j].
    rows = [tuple(c) for c in coords.tolist()]
    assert spec.strides == tuple(rows.index(tuple(shift + np.eye(d, dtype=np.int64)[j]))
                                 for j in range(d))
    # Scalars, (k, d) and (k, 2, d) arrays keep their shapes.
    for k in (0, 1, side ** d - 1):
        assert np.array_equal(spec.coords_of(k), coords[k])
        assert int(spec.flat_of(coords[k])) == k
    n = side ** d
    pairs = np.array([[0, n - 1], [1, 2], [n // 2, n - 2]], dtype=np.int64)
    assert np.array_equal(spec.coords_of(pairs), coords[pairs])
    assert np.array_equal(spec.flat_of(coords[pairs]), pairs)
    assert spec.flat_of(coords[pairs][:0]).shape == (0, 2)
    for outside in (shift - 1, shift + side):
        with pytest.raises(VertexOutOfBox, match="outside box"):
            spec.flat_of(outside)


def test_complete_graph_at_huge_intensity():
    p = validate_params(1, 1.5, 1e6, 2.5)
    r = generate_box(p, 0, BoxSpec(d=1, side=4))
    assert r.n_edges == 6
    assert np.all(r.degrees() == 3)


def test_lrp_edges_subset_of_sfp_every_seed():
    spec = BoxSpec(d=1, side=64)
    for seed in range(20):
        sfp, lrp = coupled_pair(P, seed, spec)
        nv = spec.vertex_count
        sfp_keys = set((sfp.edges[:, 0] * nv + sfp.edges[:, 1]).tolist())
        lrp_keys = set((lrp.edges[:, 0] * nv + lrp.edges[:, 1]).tolist())
        assert lrp_keys <= sfp_keys


def test_forced_unit_weights_reproduce_lrp():
    spec = BoxSpec(d=1, side=200)
    ones = np.ones(spec.vertex_count)
    sfp_unit = generate_box(P, 7, spec, _weights_override=ones)
    from dataclasses import replace
    lrp = generate_box(replace(P, kind=ModelKind.LRP), 7, spec)
    assert np.array_equal(sfp_unit.edges, lrp.edges)


def test_sfp_strictly_richer_than_lrp_over_seeds():
    spec = BoxSpec(d=1, side=2000)
    strictly = 0
    for seed in range(100):
        sfp, lrp = coupled_pair(P, derive_seed(5, seed), spec)
        if sfp.n_edges > lrp.n_edges:
            strictly += 1
    assert strictly >= 99


def test_sfp_edges_subset_of_nn_augmented():
    from dataclasses import replace
    spec = BoxSpec(d=1, side=300)
    for seed in range(5):
        sfp = generate_box(P, seed, spec)
        nn = generate_box(replace(P, kind=ModelKind.SFP_NN), seed, spec)
        nv = spec.vertex_count
        sfp_keys = set((sfp.edges[:, 0] * nv + sfp.edges[:, 1]).tolist())
        nn_keys = set((nn.edges[:, 0] * nv + nn.edges[:, 1]).tolist())
        assert sfp_keys <= nn_keys
        # The augmentation adds exactly the missing nearest-neighbour pairs.
        assert nn_keys - sfp_keys <= {i * nv + i + 1 for i in range(nv - 1)}


def test_monotone_in_lambda_under_shared_uniforms():
    spec = BoxSpec(d=1, side=300)
    lo = generate_box(validate_params(1, 1.5, 0.5, 2.5), 3, spec)
    hi = generate_box(validate_params(1, 1.5, 2.0, 2.5), 3, spec)
    nv = spec.vertex_count
    lo_keys = set((lo.edges[:, 0] * nv + lo.edges[:, 1]).tolist())
    hi_keys = set((hi.edges[:, 0] * nv + hi.edges[:, 1]).tolist())
    assert lo_keys <= hi_keys


def test_nearest_neighbour_kind_forces_nn_edges():
    from dataclasses import replace
    p = replace(validate_params(1, 1.5, 1e-9, 2.5), kind=ModelKind.SFP_NN)
    r = generate_box(p, 0, BoxSpec(d=1, side=50))
    # Tiny intensity: essentially only the forced nearest-neighbour edges.
    assert r.n_edges == 49
    assert np.all(r.edges[:, 1] - r.edges[:, 0] == 1)


def test_two_dimensional_generation_and_coupling():
    p2 = validate_params(2, 2.5, 1.0, 2.5)
    spec = BoxSpec(d=2, side=12)
    sfp, lrp = coupled_pair(p2, 1, spec)
    nv = spec.vertex_count
    sfp_keys = set((sfp.edges[:, 0] * nv + sfp.edges[:, 1]).tolist())
    lrp_keys = set((lrp.edges[:, 0] * nv + lrp.edges[:, 1]).tolist())
    assert lrp_keys <= sfp_keys
    assert np.all(sfp.edges[:, 0] < sfp.edges[:, 1])


def test_generation_deterministic():
    spec = BoxSpec(d=1, side=500)
    a = generate_box(P, 9, spec)
    b = generate_box(P, 9, spec)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.weights, b.weights)


def test_generation_is_the_same_at_any_worker_count(monkeypatch):
    # The d=1 box has two blocks, so at three workers one piece is empty.
    # At 64 pairs a block, each piece holds many batches of survivors.
    boxes = [(validate_params(2, 3.0, 1.0, 2.5), BoxSpec(d=2, side=40), None, False),
             (validate_params(1, 1.5, 4.0, 2.5, kind=ModelKind.SFP_NN), BoxSpec(d=1, side=8),
              2.0, True),
             (validate_params(1, 1.5, 4.0, 2.5), BoxSpec(d=1, side=300), 40.0, True),
             (validate_params(2, 2.5, 4.0, 2.5, kind=ModelKind.SFP_NN), BoxSpec(d=2, side=12),
              None, True),
             (validate_params(3, 4.0, 2.0, 2.5), BoxSpec(d=3, side=6, origin=(-2, 0, 5)), 3.0,
              True)]
    assert len(list(graph._pair_blocks(8, graph._offset_runs(1, 8, 2.0)))) == 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for params, spec, cutoff, small_blocks in boxes:
            one = generate_box(params, 4, spec, cutoff)
            assert one.n_edges > 0
            runs = [(graph._BLOCK_PAIRS, 2), (graph._BLOCK_PAIRS, 3)]
            if small_blocks:
                runs += [(64, 1), (64, 2), (64, 3)]
            for block_pairs, workers in runs:
                monkeypatch.setattr(graph, "_BLOCK_PAIRS", block_pairs)
                many = generate_box(params, 4, spec, cutoff, workers=workers)
                monkeypatch.undo()
                assert many.edges.dtype == one.edges.dtype
                assert np.array_equal(many.edges, one.edges), (spec, block_pairs, workers)
                assert many.trunc_bias == one.trunc_bias
    finally:
        sys.setswitchinterval(interval)
    with pytest.raises(ParameterError):
        generate_box(P, 0, BoxSpec(d=1, side=8), workers=0)


@pytest.mark.parametrize("block_pairs, workers", [(None, 1), (None, 2), (64, 1), (64, 3)])
def test_exact_stage_batches_hold_at_most_two_blocks(block_pairs, workers, monkeypatch,
                                                     tmp_path):
    # Weights so large that every pair survives the bound filter and opens.
    side = 600
    spec = BoxSpec(d=1, side=side)
    if block_pairs is not None:
        monkeypatch.setattr(graph, "_BLOCK_PAIRS", block_pairs)
    log, exact = tmp_path / "sizes", graph.unit_from_word

    def counted(words):
        # Appended to a file, so the forked workers' batches count too.
        with open(log, "a") as f:
            f.write(f"{np.size(words)}\n")
        return exact(words)

    monkeypatch.setattr(graph, "unit_from_word", counted)
    r = generate_box(P, 2, spec, _weights_override=np.full(side, 1e4), workers=workers)
    sizes = [int(n) for n in log.read_text().split()]
    assert r.n_edges == sum(sizes) == side * (side - 1) // 2
    assert len(sizes) >= 2
    assert max(sizes) <= 2 * graph._BLOCK_PAIRS


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_leave_no_child_process():
    spec = BoxSpec(d=1, side=2000)
    one = generate_box(P, 3, spec, 200.0)
    assert np.array_equal(generate_box(P, 3, spec, 200.0, workers=2).edges, one.edges)
    _assert_no_child_left()


def _failing_in(where, monkeypatch, failure):
    """Patch the exact stage so that it calls `failure` in the parent or in a child only."""
    parent, exact = os.getpid(), graph.unit_from_word

    def patched(words):
        if (os.getpid() == parent) == (where == "parent"):
            failure()
        return exact(words)

    monkeypatch.setattr(graph, "unit_from_word", patched)


class PieceFailed(ValueError):
    pass  # at module level, so a child can pickle it


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_piece_is_raised_and_leaves_no_child(where, monkeypatch):
    def fail():
        raise PieceFailed("in " + where)

    _failing_in(where, monkeypatch, fail)
    with pytest.raises(PieceFailed, match="in " + where):
        generate_box(P, 3, BoxSpec(d=1, side=2000), 200.0, workers=3)
    _assert_no_child_left()


def _raise_unpicklable():
    class Local(ValueError):
        pass
    raise Local("a class pickle cannot find by name")


@pytest.mark.parametrize("failure", [lambda: os._exit(7), _raise_unpicklable],
                         ids=["dies", "unpicklable-exception"])
def test_a_child_that_sends_no_result_is_a_runtime_error(failure, monkeypatch):
    _failing_in("child", monkeypatch, failure)
    with pytest.raises(RuntimeError, match="sent no result"):
        generate_box(P, 3, BoxSpec(d=1, side=2000), 200.0, workers=2)
    _assert_no_child_left()


def test_pair_budget_enforced():
    with pytest.raises(BoxTooLarge):
        generate_box(P, 0, BoxSpec(d=1, side=10_000), pair_budget=10_000)
    # The budget bounds the pairs decided, inclusively, with and without a cutoff.
    spec = BoxSpec(d=1, side=10)
    generate_box(P, 0, spec, pair_budget=45)  # 10 * 9 / 2 pairs
    with pytest.raises(BoxTooLarge):
        generate_box(P, 0, spec, pair_budget=44)
    generate_box(P, 0, spec, cutoff=3, pair_budget=24)  # 9 + 8 + 7 pairs
    with pytest.raises(BoxTooLarge):
        generate_box(P, 0, spec, cutoff=3, pair_budget=23)


def _brute_offsets(d, side, cutoff):
    lim = side - 1
    out = []
    for delta in itertools.product(range(-lim, lim + 1), repeat=d):
        nonzero = [c for c in delta if c != 0]
        if nonzero and nonzero[0] > 0 and (
                cutoff is None or sum(c * c for c in delta) <= float(cutoff) ** 2):
            out.append(delta)
    return out


def _expand(runs):
    return [(*lead, r) for lead, r_lo, r_hi in runs for r in range(r_lo, r_hi)]


@pytest.mark.parametrize("d, side", [(1, 2), (1, 5), (1, 9), (2, 2), (2, 4), (2, 7),
                                     (3, 2), (3, 3), (3, 5)])
def test_canonical_offsets_match_brute_force(d, side):
    diameter = math.sqrt(d) * (side - 1)
    for cutoff in (1, 1.5, 2.9, 3, 4.2, diameter, diameter + 0.5, math.inf, None):
        got = _expand(graph._offset_runs(d, side, cutoff))
        assert got == _brute_offsets(d, side, cutoff), (d, side, cutoff)


def test_canonical_offsets_walk_only_the_ball():
    # A huge side must cost nothing when the cutoff is small: every
    # coordinate range is bounded by the radius the prefix leaves.
    for d in (1, 2, 3):
        assert _expand(graph._offset_runs(d, 10 ** 12, 2.9)) == _brute_offsets(d, 4, 2.9)


def test_pair_budget_checked_before_enumerating_offsets(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("offsets enumerated for a box over budget")
    monkeypatch.setattr(graph, "_offset_runs", fail)
    with pytest.raises(BoxTooLarge):
        generate_box(validate_params(2, 3.0, 1.0, 2.5), 0, BoxSpec(d=2, side=1000))


def test_pair_budget_stops_enumeration_with_cutoff(monkeypatch):
    produced = []
    orig = graph._offset_runs

    def counting(*args):
        for run in orig(*args):
            produced.append(run)
            yield run
    monkeypatch.setattr(graph, "_offset_runs", counting)
    with pytest.raises(BoxTooLarge):
        generate_box(validate_params(2, 3.0, 1.0, 2.5), 0, BoxSpec(d=2, side=1000),
                     cutoff=500.0, pair_budget=10 ** 6)
    # The first run, (0, 1) .. (0, 500), holds 1000 * (999 + ... + 500) pairs:
    # over the budget, so no second run is produced.
    assert produced == [((0,), 1, 501)]


def _phi_pareto_15(c):
    # E[exp(-c W)] for P(W >= w) = w^-1.5: exact via erfc.
    c = np.asarray(c, dtype=float)
    return np.exp(-c) * (1.0 - 2.0 * c) + 2.0 * np.sqrt(np.pi) * c ** 1.5 \
        * special.erfc(np.sqrt(c))


def _weight_quadrature(nseg=80):
    # Composite Gauss-Legendre on the uniform quantile u, W = u^(-2/3).
    edges = [0.0, 1e-4, 1e-2, 0.1, 1.0]
    xs, ws = [], []
    gx, gw = np.polynomial.legendre.leggauss(nseg)
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (b - a) * gx + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * gw)
    return np.concatenate(xs), np.concatenate(ws)


def test_edge_count_within_3_sigma_of_quadrature_oracle():
    # d=1, L=1000, alpha=1.5, tau=2.5, lambda=1, seed=0.  The oracle
    # computes E[count] per distance class by numerical integration over
    # the weight law, and the standard deviation including the
    # covariance of edges sharing a vertex (weights couple them).
    L = 1000
    spec = BoxSpec(d=1, side=L)
    obs = generate_box(P, 0, spec).n_edges

    u, w = _weight_quadrature()
    W = u ** (-1.0 / (P.tau - 1.0))
    r = np.arange(1, L, dtype=float)
    G = 1.0 - _phi_pareto_15(P.lambda_ * np.outer(r ** -P.alpha, W))
    pbar = G @ w
    counts = L - r
    mean = float(counts @ pbar)

    M = (G * w) @ G.T
    cov = M - np.outer(pbar, pbar)
    r1, r2 = r[:, None], r[None, :]
    n_off = 2.0 * (L - np.maximum(r1, r2)) + 2.0 * np.maximum(0.0, L - r1 - r2)
    n_diag = np.maximum(0.0, L - 2.0 * r)
    var = float(counts @ (pbar * (1.0 - pbar)))
    var += 2.0 * (float(np.triu(n_off * cov, k=1).sum()) + float(n_diag @ np.diag(cov)))
    sd = math.sqrt(var)
    assert abs(obs - mean) <= 3.0 * sd, f"count {obs} vs {mean:.1f} +- {3 * sd:.1f}"


def test_truncated_identical_when_cutoff_covers_box():
    spec = BoxSpec(d=1, side=100)
    full = generate_box(P, 0, spec)
    trunc = generate_box(P, 0, spec, cutoff=200.0)
    assert np.array_equal(full.edges, trunc.edges)
    assert np.array_equal(full.weights, trunc.weights)
    assert trunc.trunc_bias == 0.0


def test_truncated_agrees_inside_cutoff():
    spec = BoxSpec(d=1, side=400)
    full = generate_box(P, 11, spec)
    trunc = generate_box(P, 11, spec, cutoff=25.0)
    inside = full.edges[np.abs(full.edges[:, 0] - full.edges[:, 1]) <= 25]
    assert np.array_equal(trunc.edges, inside)


def test_truncated_rejects_radius_below_one():
    with pytest.raises(RadiusTooSmall):
        generate_box(P, 0, BoxSpec(d=1, side=100), cutoff=0.0)


def test_truncation_bias_matches_brute_force():
    # Small box, exact comparison of the FFT + saturation-correction path
    # against a direct sum over all excluded pairs.  lambda = 5 makes a
    # few far pairs saturate at 1, exercising the correction.
    p = validate_params(1, 1.5, 5.0, 2.2)
    spec = BoxSpec(d=1, side=60)
    r = generate_box(p, 2, spec, cutoff=10.0)
    w = r.weights
    brute = 0.0
    for i in range(60):
        for j in range(i + 1, 60):
            dist = j - i
            if dist > 10:
                brute += min(1.0, 5.0 * w[i] * w[j] * dist ** -1.5)
    assert math.isclose(r.trunc_bias, brute, rel_tol=1e-9)


def test_truncation_bias_matches_brute_force_2d():
    p = validate_params(2, 2.5, 2.0, 2.4)
    spec = BoxSpec(d=2, side=14)
    r = generate_box(p, 1, spec, cutoff=4.0)
    w = r.weights
    coords = spec.all_coords().astype(float)
    brute = 0.0
    n = spec.vertex_count
    for i in range(n):
        for j in range(i + 1, n):
            dist = math.dist(coords[i], coords[j])
            if dist > 4.0:
                brute += min(1.0, 2.0 * w[i] * w[j] * dist ** -2.5)
    assert math.isclose(r.trunc_bias, brute, rel_tol=1e-9)


def test_truncation_bias_scales_like_cutoff_power():
    # Union-bound bias ~ R^(d - alpha) for alpha > d: halving comes out
    # close to 2^(d-alpha) once the cutoffs sit well inside the box.
    p = validate_params(1, 1.5, 1.0, 3.5)
    spec = BoxSpec(d=1, side=10_000)
    b1 = generate_box(p, 0, spec, cutoff=125.0).trunc_bias
    b2 = generate_box(p, 0, spec, cutoff=250.0).trunc_bias
    ratio = b2 / b1
    assert abs(ratio / 2.0 ** (1 - 1.5) - 1.0) < 0.2, ratio


def test_clusters_no_edges():
    from dataclasses import replace
    p = replace(P, lambda_=1e-300)
    r = generate_box(p, 0, BoxSpec(d=1, side=30))
    assert r.n_edges == 0
    cl = clusters(r)
    assert len(cl.sizes) == 30
    assert all(s == 1 for s in cl.sizes.values())
    assert cl.largest == 0


def test_clusters_complete_graph():
    p = validate_params(1, 1.5, 1e6, 2.5)
    r = generate_box(p, 0, BoxSpec(d=1, side=5))
    cl = clusters(r)
    assert cl.sizes[cl.largest] == 5


def test_clusters_two_components():
    r = _line_box([(0, 1), (2, 3)], side=4)
    cl = clusters(r)
    assert cl.sizes == {0: 2, 2: 2}
    assert cl.largest == 0  # tie broken by smallest root
    assert cl.labels.tolist() == [0, 0, 2, 2]


def test_graph_distance_trivial_cases():
    r = _line_box([(0, 1)], side=4)
    dist = distances_from(r, 0)
    assert dist.tolist() == [0, 1, -1, -1]


def test_graph_distance_cycle():
    r = _line_box([(0, 1), (1, 2), (2, 3), (0, 3)], side=4)
    assert distances_from(r, 0)[2] == 2


def test_graph_distance_symmetry_and_triangle():
    r = generate_box(P, 21, BoxSpec(d=1, side=120))
    cl = clusters(r)
    verts = np.nonzero(cl.largest_mask())[0][:6]
    d = {}
    for a in verts:
        dist = distances_from(r, int(a))
        for b in verts:
            d[a, b] = int(dist[b])
    for a in verts:
        for b in verts:
            assert d[a, b] == d[b, a] >= 0
            for c in verts:
                assert d[a, c] <= d[a, b] + d[b, c]


def test_graph_distance_rejects_outside_vertex():
    r = generate_box(P, 0, BoxSpec(d=1, side=10))
    with pytest.raises(VertexOutOfBox):
        distances_from(r, int(r.spec.flat_of([10])))


@pytest.mark.parametrize("source", [-1, 10, 11])
def test_graph_distance_rejects_flat_source_outside_box(source):
    # A negative index would otherwise wrap around to the last vertices.
    r = generate_box(validate_params(1, 1.5, 1e6, 2.5), 0, BoxSpec(d=1, side=10))
    with pytest.raises(VertexOutOfBox):
        distances_from(r, source)


def _deque_bfs(r, source):
    """Plain queue BFS over the canonical edge list: the oracle for distances_from."""
    nbrs = [[] for _ in range(r.n_vertices)]
    for i, j in r.edges.tolist():
        nbrs[i].append(j)
        nbrs[j].append(i)
    dist = [-1] * r.n_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in nbrs[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return np.array(dist, dtype=np.int64)


def _lexsort_adjacency(r):
    """CSR arrays by an explicit (row, column) lexsort: the reference for adjacency()."""
    src = np.concatenate([r.edges[:, 0], r.edges[:, 1]])
    dst = np.concatenate([r.edges[:, 1], r.edges[:, 0]])
    indices = dst[np.lexsort((dst, src))]
    indptr = np.zeros(r.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=r.n_vertices), out=indptr[1:])
    return indptr, indices


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


def _assert_bfs_matches_oracle(r, sources):
    for s in sources:
        assert _bits(distances_from(r, int(s))) == _bits(_deque_bfs(r, int(s)))


BFS_MAX_SIDE = {1: 300, 2: 16, 3: 6}


@st.composite
def bfs_boxes(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    spec = BoxSpec(d=d, side=draw(st.integers(2, BFS_MAX_SIDE[d])))
    cutoff = draw(st.none() | st.floats(1.0, spec.diameter + 1.0))
    params = validate_params(d, draw(st.sampled_from([d + 0.5, d + 2.0])),
                             draw(st.sampled_from([0.05, 0.5, 2.0])),
                             draw(st.sampled_from([2.5, 3.5])),
                             draw(st.sampled_from(list(ModelKind))))
    r = generate_box(params, draw(st.integers(0, 2 ** 64 - 1)), spec, cutoff=cutoff)
    sources = draw(st.lists(st.integers(0, spec.vertex_count - 1), min_size=1, max_size=4))
    return r, sources


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bfs_boxes())
def test_distances_equal_deque_bfs_oracle(case):
    r, sources = case
    _assert_bfs_matches_oracle(r, sources)
    indptr, indices = _lexsort_adjacency(r)
    m = r.adjacency()
    assert np.array_equal(m.indptr, indptr) and np.array_equal(m.indices, indices)
    assert m.data.dtype == np.float64 and np.all(m.data == 1.0)
    assert r.adjacency() is m  # built once, then shared


def test_distances_from_isolated_source_and_edge_free_box():
    # Vertex 2 has no edge; the rest form a path.
    r = _line_box([(0, 1), (1, 3), (3, 4)], side=5)
    assert distances_from(r, 2).tolist() == [-1, -1, 0, -1, -1]
    _assert_bfs_matches_oracle(r, range(5))
    empty = generate_box(validate_params(2, 3.0, 1e-300, 2.5), 0, BoxSpec(d=2, side=6))
    assert empty.n_edges == 0
    _assert_bfs_matches_oracle(empty, (0, 17, 35))


def test_distances_from_long_path_has_one_level_per_vertex():
    n = 2000
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1).astype(np.int64)
    r = BoxRealization(spec=BoxSpec(d=1, side=n), params=P, seed=0, weights=None, edges=edges)
    assert distances_from(r, 0).tolist() == list(range(n))
    assert distances_from(r, n - 1).tolist() == list(range(n - 1, -1, -1))
    _assert_bfs_matches_oracle(r, [0, 777, n - 1])


def test_distances_from_reloaded_realization(tmp_path):
    spec = BoxSpec(d=2, side=14, origin=(-5, 3))
    r = generate_box(validate_params(2, 2.5, 1.0, 2.5), 11, spec, cutoff=5.0)
    path = tmp_path / "box.txt"
    save_realization(r, path)
    back = load_realization(path)
    for s in (0, 97, spec.vertex_count - 1):
        assert _bits(distances_from(back, s)) == _bits(distances_from(r, s))
    _assert_bfs_matches_oracle(back, [0, 97])


def test_adjacency_equals_lexsort_on_large_boxes():
    for r in (generate_box(validate_params(1, 1.5, 1.0, 2.5), 3, BoxSpec(d=1, side=4000),
                           cutoff=200.0),
              generate_box(validate_params(2, 2.5, 1.0, 2.5, ModelKind.SFP_NN), 4,
                           BoxSpec(d=2, side=40), cutoff=6.0)):
        indptr, indices = _lexsort_adjacency(r)
        m = r.adjacency()
        assert np.array_equal(m.indptr, indptr) and np.array_equal(m.indices, indices)
        assert _bits(r.degrees()) == _bits(np.diff(indptr))


def test_degree_sequence_empty_and_complete():
    from dataclasses import replace
    r0 = generate_box(replace(P, lambda_=1e-300), 0, BoxSpec(d=1, side=20))
    assert np.all(degree_sequence(r0, 0) == 0)
    rc = generate_box(validate_params(1, 1.5, 1e6, 2.5), 0, BoxSpec(d=1, side=6))
    assert np.all(degree_sequence(rc, 0) == 5)


def test_degree_sequence_margin():
    r = generate_box(P, 4, BoxSpec(d=1, side=100))
    assert len(degree_sequence(r, 10)) == 80
    with pytest.raises(MarginTooLarge):
        degree_sequence(r, 50)


def test_save_load_roundtrip_bit_exact(tmp_path):
    r = generate_box(P, 13, BoxSpec(d=1, side=150))
    path = tmp_path / "box.txt"
    save_realization(r, path)
    back = load_realization(path)
    assert back.spec == r.spec
    assert back.params == r.params
    assert back.seed == r.seed
    assert np.array_equal(back.edges, r.edges)
    assert np.array_equal(back.weights, r.weights)
    assert back.trunc is None and back.trunc_bias is None


def test_save_load_roundtrip_truncated_with_origin(tmp_path):
    spec = BoxSpec(d=2, side=9, origin=(-4, 3))
    p2 = validate_params(2, 2.5, 1.0, 2.5)
    r = generate_box(p2, 3, spec, cutoff=4.0)
    path = tmp_path / "box2.txt"
    save_realization(r, path)
    back = load_realization(path)
    assert back.spec == spec
    assert back.trunc == r.trunc
    assert back.trunc_bias == r.trunc_bias
    assert np.array_equal(back.edges, r.edges)
    assert np.array_equal(back.weights, r.weights)


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("#sfp-box v2\nd=1 alpha=1 lambda=1 tau=2 model=sfp L=4 seed=0\n")
    with pytest.raises(FormatVersionMismatch):
        load_realization(path)


def test_load_reports_line_of_parse_error(tmp_path):
    r = generate_box(P, 0, BoxSpec(d=1, side=5))
    path = tmp_path / "trunc.txt"
    save_realization(r, path)
    lines = path.read_text().splitlines()
    lines[3] = "w 1"  # mangled weight line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_realization(path)
    assert exc.value.line_number == 4


def test_save_load_roundtrip_lrp_without_weights(tmp_path):
    from dataclasses import replace
    r = generate_box(replace(P, kind=ModelKind.LRP, lambda_=3.0), 5,
                     BoxSpec(d=1, side=80))
    assert r.weights is None
    path = tmp_path / "lrp.txt"
    save_realization(r, path)
    back = load_realization(path)
    assert back.weights is None
    assert np.array_equal(back.edges, r.edges)


def test_three_dimensional_generation():
    p3 = validate_params(3, 4.0, 1.0, 2.5)
    spec = BoxSpec(d=3, side=4)
    r = generate_box(p3, 0, spec)
    assert r.n_vertices == 64
    assert np.all(r.edges[:, 0] < r.edges[:, 1])
    coords = spec.coords_of(np.arange(64))
    assert coords.shape == (64, 3)
    # Exhaustive offset coverage: every unordered pair considered once.
    trunc = generate_box(p3, 0, spec, cutoff=spec.diameter + 1)
    assert np.array_equal(trunc.edges, r.edges)


def test_load_detects_missing_weights(tmp_path):
    r = generate_box(P, 0, BoxSpec(d=1, side=5))
    path = tmp_path / "short.txt"
    save_realization(r, path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("w 3")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        load_realization(path)


_VALID_FILE = [
    "#sfp-box v1",
    "d=1 alpha=1.5 lambda=1.0 tau=2.5 model=sfp L=4 seed=0",
    "w 0 1.5",
    "w 1 2.0",
    "w 2 1.0",
    "w 3 3.25",
    "e 0 1",
    "e 1 2",
    "e 2 3",
]


@pytest.mark.parametrize("line, text, expect_line", [
    (7, "e 2 1", 8),                                    # reversed endpoints
    (8, "e 2 3\ne 0 1", 10),                            # duplicate edge
    (7, "e 1 1", 8),                                    # self-loop
    (3, "w 1 0.5", 4),                                  # weight below 1
    (3, "w 1 inf", 4),                                  # weight not finite
    (3, "w 1 nan", 4),                                  # weight not a number
    (1, _VALID_FILE[1] + " trnc=5", 2),                 # unknown metadata key
    (5, "w 3 3.25\nw 3 2.0", 7),                        # second weight for a vertex
    (1, _VALID_FILE[1] + " origin=9223372036854775805", 2),  # coordinates overflow int64
    (1, _VALID_FILE[1].replace("d=1", "d=3").replace("L=4", "L=3000000"), 2),  # 2.7e19 vertices
    (4, "w 2 1.0\udcff", 5),                            # byte 0xff: not UTF-8
    (1, _VALID_FILE[1] + " trunc=nan", 2),              # cutoffs the generator rejects
    (1, _VALID_FILE[1] + " trunc=0.5", 2),
    (1, _VALID_FILE[1] + " trunc=-5.0", 2),
    (1, _VALID_FILE[1] + " trunc=2.0 truncbias=-1.0", 2),  # a negative bias
    (1, _VALID_FILE[1] + " truncbias=0.5", 2),          # a bias with no cutoff
    (1, _VALID_FILE[1] + " seed=3", 2),                 # a repeated key
], ids=["reversed", "duplicate", "self-loop", "weight-below-1", "weight-inf",
        "weight-nan", "unknown-key", "duplicate-weight", "origin-overflow", "box-too-large",
        "not-utf8", "trunc-nan", "trunc-below-1", "trunc-negative", "truncbias-negative",
        "truncbias-without-trunc", "repeated-key"])
def test_load_rejects_malformed_records(tmp_path, line, text, expect_line):
    path = tmp_path / "box.txt"
    path.write_text("\n".join(_VALID_FILE) + "\n")
    assert load_realization(path).n_edges == 3
    lines = list(_VALID_FILE)
    lines[line] = text
    # surrogateescape writes a lone surrogate \udcXX as the raw byte 0xXX.
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ParseError) as exc:
        load_realization(path)
    assert exc.value.line_number == expect_line


@pytest.mark.parametrize("faults, expect_line", [
    ({3: "w 9 2.0", 7: "e 1 x"}, 4),                    # outside the box, then malformed
    ({3: "w 1 x", 7: "e 1 9"}, 4),                      # malformed, then outside the box
    ({3: "w 9 2.0", 7: "e 1 9"}, 4),                    # a weight outside, then an edge outside
    ({2: "e 0 9", 5: "w 9 3.25"}, 3),                   # an edge outside, then a weight outside
    ({2: "w 0 0.5", 6: "e 0 9"}, 7),                    # bad weights are checked after the parse
], ids=["outside-first", "malformed-first", "weight-outside-first", "edge-outside-first",
        "outside-before-bad-weight"])
def test_load_reports_the_first_parse_fault(tmp_path, faults, expect_line):
    lines = list(_VALID_FILE)
    for i, text in faults.items():
        lines[i] = text
    path = tmp_path / "box.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_realization(path)
    assert exc.value.line_number == expect_line


def test_load_skips_blank_and_whitespace_lines(tmp_path):
    path = tmp_path / "box.txt"
    path.write_text("\n".join(_VALID_FILE[:7] + ["", "   \t"] + _VALID_FILE[7:]) + "\n")
    assert load_realization(path).edges.tolist() == [[0, 1], [1, 2], [2, 3]]


def test_load_rejects_sfpnn_file_missing_a_nearest_neighbour_edge(tmp_path):
    spec = BoxSpec(d=2, side=5, origin=(-2, 1))
    r = generate_box(validate_params(2, 3.0, 1.0, 2.5, ModelKind.SFP_NN), 4, spec)
    path = tmp_path / "nn.txt"
    save_realization(r, path)
    assert np.array_equal(load_realization(path).edges, r.edges)
    lines = path.read_text().splitlines()
    lines.remove("e -1 2 -1 3")  # the lattice neighbours flat 6 and 7
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"nearest-neighbour edge \[-1, 2\] \[-1, 3\]") as exc:
        load_realization(path)
    assert exc.value.line_number == len(lines) + 1


def test_has_edges_matches_the_edge_set():
    r = generate_box(validate_params(2, 2.5, 2.0, 2.5), 3, BoxSpec(d=2, side=6))
    open_pairs = set(map(tuple, r.edges.tolist()))
    pairs = np.array(list(itertools.combinations(range(r.n_vertices), 2)), dtype=np.int64)
    assert 0 < len(open_pairs) < len(pairs)
    assert r.has_edges(pairs).tolist() == [p in open_pairs for p in map(tuple, pairs.tolist())]
    assert r.has_edges(np.empty((0, 2), dtype=np.int64)).shape == (0,)
    empty = generate_box(validate_params(1, 1.5, 1e-300, 2.5), 0, BoxSpec(d=1, side=4))
    assert empty.n_edges == 0 and not empty.has_edges([[0, 1], [2, 3]]).any()


def test_has_edges_is_exact_where_a_flat_key_wraps(tmp_path):
    # n = 2^62, so n^2 >= 2^63: the key lo * n + hi of (4, 7) wraps onto
    # that of the open edge (0, 7), and past lo = 2 the keys turn negative.
    n = 2 ** 62
    path = tmp_path / "huge.txt"
    path.write_text(f"#sfp-box v1\nd=1 alpha=1.5 lambda=1.0 tau=2.5 model=lrp L={n} seed=0\n"
                    f"e 0 7\ne 3 {n - 1}\ne {n - 3} {n - 2}\n")
    r = load_realization(path)
    pairs = [(0, 7), (4, 7), (3, n - 1), (2, n - 1), (n - 3, n - 2), (n - 3, n - 1), (0, 1)]
    assert r.has_edges(pairs).tolist() == [True, False, True, False, True, False, False]


def test_radius_too_small_is_one_class():
    from sfp import moments, params
    assert graph.RadiusTooSmall is moments.RadiusTooSmall is params.RadiusTooSmall


def test_graph_import_does_not_load_moments():
    src = os.path.dirname(os.path.dirname(graph.__file__))
    code = "import sys, sfp.graph; sys.exit('sfp.moments' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


_IMPORT_BUDGET = """
import os, sys
from sfp import cli
from sfp.graph import save_realization
from sfp.verify import forced_realization, toy_hierarchy

def scipy_packages():
    return sorted({'.'.join(m.split('.')[:2]) for m in sys.modules if m.split('.')[0] == 'scipy'})

# The toy hierarchy and a box with exactly its required edges open.
real, sites = (os.path.join(sys.argv[1], name) for name in ('real.txt', 'sites.txt'))
h = toy_hierarchy()
save_realization(forced_realization(h.required_edges()), real)
with open(sites, 'w') as fh:
    fh.writelines(f's {key} {z[0]} {z[1]}\\n' for key, z in h.sites.items())

model = ['--alpha', '1.5', '--tau', '2.5', '--threads', '2']
for argv in (['adjacent', *model, '--rxy', '20', '--ryz', '4', '--replicates', '2000'],
             ['fkg', *model, '--path', '0;17;-5;30', '--replicates', '2000'],
             ['bridge', *model, '--beta', '0.5', '--n-list', '64,128', '--replicates', '400'],
             ['coupling', *model, '--side', '64', '--replicates', '2'],
             ['hierarchy', 'check', '--realization', real, '--hierarchy', sites]):
    assert cli.main(argv) in (0, 2), argv
    assert not scipy_packages(), (argv[0], scipy_packages())

# Two worker threads each build a truncated box, so both reach the
# truncation bias's first import of scipy.fft at about the same time.
assert cli.main(['degrees', '--alpha', '1.5', '--tau', '2.5', '--side', '2000',
                 '--trunc', '100', '--margin', '100', '--threads', '2',
                 '--replicates', '2']) in (0, 2)
loaded = scipy_packages()
assert 'scipy.fft' in loaded and not {'scipy.sparse', 'scipy.integrate'} & set(loaded), loaded
"""


def test_cli_commands_import_only_the_scipy_they_run(tmp_path):
    src = os.path.dirname(os.path.dirname(graph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
