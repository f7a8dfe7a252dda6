import itertools
import math
import os
import subprocess
import sys
import threading
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special

from sfp import graph
from sfp.experiments import ExperimentConfig, run_coupling_check, run_degree_experiment
from sfp.graph import (BoxRealization, BoxSpec, ParseError, VertexOutOfBox, clusters,
                       coupled_pair, degree_sequence, distances_from, generate_box,
                       load_realization, save_realization)
from sfp.params import ModelKind, ParameterError, validate_params
from sfp.randomness import derive_seed

P = validate_params(1, 1.5, 1.0, 2.5)


def _line_box(edges, side):
    """The d=1 box {0, ..., side-1} whose open edges are exactly `edges`."""
    flat = np.unique(np.sort(np.array(edges, dtype=np.int64).reshape(-1, 2), axis=1), axis=0)
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
    # coupled_pair decides LRP among the SFP edges, so the LRP box here is
    # generated on its own, every pair decided.
    from dataclasses import replace
    spec = BoxSpec(d=1, side=64)
    for seed in range(20):
        sfp = generate_box(P, seed, spec)
        lrp = generate_box(replace(P, kind=ModelKind.LRP), seed, spec)
        nv = spec.vertex_count
        sfp_keys = set((sfp.edges[:, 0] * nv + sfp.edges[:, 1]).tolist())
        lrp_keys = set((lrp.edges[:, 0] * nv + lrp.edges[:, 1]).tolist())
        assert lrp_keys <= sfp_keys


@st.composite
def coupled_cases(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    side = draw(st.integers(2, {1: 200, 2: 16, 3: 6}[d]))
    origin = draw(st.none() | st.tuples(*[st.integers(-100, 100)] * d))
    spec = BoxSpec(d=d, side=side, origin=origin)
    cutoff = draw(st.none() | st.floats(1.0, spec.diameter + 1.0))
    params = validate_params(d, draw(st.sampled_from([d + 0.5, d + 2.0])),
                             draw(st.sampled_from([0.05, 0.5, 2.0, 50.0])),
                             draw(st.sampled_from([2.5, 3.5])),
                             draw(st.sampled_from(list(ModelKind))))
    return params, draw(st.integers(0, 2 ** 64 - 1)), spec, cutoff


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(coupled_cases())
def test_coupled_lrp_equals_the_lrp_box(case):
    # The coupled LRP box is decided among the SFP edges only; it must be
    # the box generate_box decides pair by pair, bias included.
    from dataclasses import replace
    params, seed, spec, cutoff = case
    sfp, lrp = coupled_pair(params, seed, spec, cutoff)
    want = generate_box(replace(params, kind=ModelKind.LRP), seed, spec, cutoff)
    assert sfp.params.kind is ModelKind.SFP and lrp.params == want.params
    assert _bits(lrp.edges) == _bits(want.edges) and not lrp.edges.flags.writeable
    assert lrp.weights is None and lrp.trunc == want.trunc
    assert repr(lrp.trunc_bias) == repr(want.trunc_bias)


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
    for workers in (0, graph.MAX_WORKERS + 1):
        with pytest.raises(ParameterError):
            generate_box(P, 0, BoxSpec(d=1, side=8), workers=workers)


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


@pytest.mark.parametrize("where", ["child", "parent"])
@pytest.mark.parametrize("run", [run_coupling_check, run_degree_experiment])
def test_a_failing_box_is_raised_and_leaves_no_child(run, where, monkeypatch):
    # Three boxes on two workers: boxes 0 and 1 here, box 2 in a child.
    cfg = ExperimentConfig(params=P, spec=BoxSpec(d=1, side=2000), seed=5, replicates=3,
                           threads=2)
    run(cfg, cutoff=200.0)
    _assert_no_child_left()

    def fail():
        raise PieceFailed("in " + where)

    _failing_in(where, monkeypatch, fail)
    with pytest.raises(PieceFailed, match="in " + where):
        run(cfg, cutoff=200.0)
    _assert_no_child_left()


@pytest.mark.parametrize("tau, lam, message", [(0.5, 1.0, r"tau must exceed 1, got 0\.5"),
                                               (2.5, 0.0, r"lambda must be positive, got 0\.0")])
def test_a_usage_error_in_a_child_keeps_its_message(tau, lam, message, monkeypatch):
    _failing_in("child", monkeypatch, lambda: validate_params(1, 1.5, lam, tau))
    with pytest.raises(ParameterError, match=f"^{message}$"):
        generate_box(P, 3, BoxSpec(d=1, side=2000), 200.0, workers=2)
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


def _over_budget(budget):
    return pytest.raises(ParameterError, match=rf"^more than {budget} pairs to decide; "
                                               r"reduce the box, lower the cutoff, or raise "
                                               r"the pair budget$")


def test_pair_budget_enforced():
    with _over_budget(10_000):
        generate_box(P, 0, BoxSpec(d=1, side=10_000), pair_budget=10_000)
    # The budget bounds the pairs decided, inclusively, with and without a cutoff.
    spec = BoxSpec(d=1, side=10)
    generate_box(P, 0, spec, pair_budget=45)  # 10 * 9 / 2 pairs
    with _over_budget(44):
        generate_box(P, 0, spec, pair_budget=44)
    generate_box(P, 0, spec, cutoff=3, pair_budget=24)  # 9 + 8 + 7 pairs
    with _over_budget(23):
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
    with _over_budget(2 ** 32):
        generate_box(validate_params(2, 3.0, 1.0, 2.5), 0, BoxSpec(d=2, side=1000))


def test_pair_budget_stops_enumeration_with_cutoff(monkeypatch):
    produced = []
    orig = graph._offset_runs

    def counting(*args):
        for run in orig(*args):
            produced.append(run)
            yield run
    monkeypatch.setattr(graph, "_offset_runs", counting)
    with _over_budget(10 ** 6):
        generate_box(validate_params(2, 3.0, 1.0, 2.5), 0, BoxSpec(d=2, side=1000),
                     cutoff=500.0, pair_budget=10 ** 6)
    # The first run, (0, 1) .. (0, 500), holds 1000 * (999 + ... + 500) pairs:
    # over the budget, so no second run is produced.
    assert produced == [((0,), 1, 501)]


def _too_large_to_key(n):
    return pytest.raises(ParameterError, match=rf"^a box of {n} vertices is too large")


def _no_vertex_array(*args):
    raise AssertionError("an array over every vertex was made for a box too large to key")


def test_a_box_too_large_to_key_is_refused_before_any_vertex_array(monkeypatch):
    # 2^32 vertices: the int64 key i * n + j of a pair needs n^2 < 2^63.
    # The L - 1 pairs within the cutoff are under the budget, so only the
    # key bound refuses the box, before the weights are drawn.
    monkeypatch.setattr(BoxSpec, "all_coords", _no_vertex_array)
    with _too_large_to_key(2 ** 32):
        generate_box(P, 0, BoxSpec(d=1, side=2 ** 32), cutoff=1, pair_budget=2 ** 40)


def test_pair_keys_fit_int64_up_to_the_bound():
    n = math.isqrt(2 ** 63)  # 3,037,000,499: n^2 < 2^63 <= (n + 1)^2
    assert BoxSpec(d=1, side=n).vertex_count == n
    key = graph._pair_keys(np.array([n - 1]), np.array([n - 1]), n)
    assert key.dtype == np.int64 and int(key[0]) == n * n - 1
    with _too_large_to_key(n + 1):
        BoxSpec(d=1, side=n + 1)
    with _too_large_to_key(2 ** 33):  # a box too large to key at any dimension
        BoxSpec(d=3, side=2 ** 11)


def test_a_loaded_box_too_large_to_key_is_refused_at_line_2(tmp_path):
    n = math.isqrt(2 ** 63) + 1
    path = tmp_path / "long-line.txt"
    path.write_text(f"#sfp-box v1\nd=1 alpha=1.5 lambda=1.0 tau=2.5 model=lrp L={n} seed=0\n"
                    f"e 0 1\n")
    with pytest.raises(ParseError, match=rf"^line 2: a box of {n} vertices is too large") as exc:
        graph.load_realization(path)
    assert exc.value.line_number == 2


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
    with pytest.raises(ParameterError, match="cutoff must be >= 1, got 0.0"):
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


def _scipy_clusters(r):
    """scipy's connected components of the CSR, each labelled by its smallest
    vertex: the reference for clusters()."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    n = r.n_vertices
    indptr, indices = r.adjacency()
    matrix = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    ncomp, comp = connected_components(matrix, directed=False)
    roots = np.full(ncomp, n, dtype=np.int64)
    np.minimum.at(roots, comp, np.arange(n, dtype=np.int64))
    counts = np.bincount(comp, minlength=ncomp)
    largest = int(roots[counts == counts.max()].min())
    return roots[comp], largest, {int(root): int(cnt) for root, cnt in zip(roots, counts)}


def _assert_clusters_match_scipy(r):
    cl = clusters(r)
    assert r._adjacency is None  # no CSR built, so none cached
    labels, largest, sizes = _scipy_clusters(r)
    assert _bits(cl.labels) == _bits(labels)
    assert cl.largest == largest
    assert list(cl.sizes.items()) == list(sizes.items())


@st.composite
def cluster_boxes(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    spec = BoxSpec(d=d, side=draw(st.integers(2, BFS_MAX_SIDE[d])))
    cutoff = draw(st.none() | st.floats(1.0, spec.diameter + 1.0))
    params = validate_params(d, draw(st.sampled_from([d + 0.5, d + 2.0])),
                             draw(st.sampled_from([1e-300, 0.3, 1.0, 50.0])), 2.5,
                             draw(st.sampled_from(list(ModelKind))))
    return generate_box(params, draw(st.integers(0, 2 ** 64 - 1)), spec, cutoff=cutoff)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cluster_boxes())
def test_clusters_equal_scipy_components(r):
    _assert_clusters_match_scipy(r)


def _relabelled(edges, n, seed):
    """`edges` with its n vertices renamed by a random permutation."""
    return np.random.default_rng(seed).permutation(n)[np.asarray(edges)]


def _adversarial_graphs():
    """{name: (edges, n)}: graphs whose labelling makes hook-and-jump work hardest."""
    n, k = 20_000, 141  # a path's and a k x k grid's vertex counts
    path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    v = np.arange(k * k).reshape(k, k)
    grid = np.concatenate([np.stack([v[:, :-1].ravel(), v[:, 1:].ravel()], axis=1),
                           np.stack([v[:-1, :].ravel(), v[1:, :].ravel()], axis=1)])
    zigzag = np.empty(n, dtype=np.int64)  # visits 0, n-1, 1, n-2, 2, ...
    zigzag[0::2], zigzag[1::2] = np.arange(n // 2), np.arange(n - 1, n // 2 - 1, -1)
    child = np.arange(1, n)  # heap-ordered binary tree, labels reversed: root n-1
    return {
        "path": (_relabelled(path, n, 1), n),
        "grid": (_relabelled(grid, k * k, 2), k * k),
        "zigzag-path": (np.stack([zigzag[:-1], zigzag[1:]], axis=1), n),
        "reversed-tree": (n - 1 - np.stack([(child - 1) // 2, child], axis=1), n),
        "star-on-last": (np.stack([np.arange(n - 1), np.full(n - 1, n - 1)], axis=1), n),
        "tied-largest": ([(1, 9), (5, 9), (2, 3), (3, 4)], 10),  # root 1 wins the tie
        "last-edge": ([(n - 2, n - 1)], n),
        "edge-free": ([], 49),
    }


ADVERSARIAL_GRAPHS = _adversarial_graphs()


@pytest.mark.parametrize("name", list(ADVERSARIAL_GRAPHS))
def test_clusters_equal_scipy_on_adversarial_graphs(name):
    r = _line_box(*ADVERSARIAL_GRAPHS[name])
    _assert_clusters_match_scipy(r)


def test_graph_distance_trivial_cases():
    r = _line_box([(0, 1)], side=4)
    dist = distances_from(r, [0])
    assert dist.tolist() == [[0, 1, -1, -1]]


def test_graph_distance_cycle():
    r = _line_box([(0, 1), (1, 2), (2, 3), (0, 3)], side=4)
    assert distances_from(r, [0], [[2]]).tolist() == [[2]]


def test_graph_distance_symmetry_and_triangle():
    r = generate_box(P, 21, BoxSpec(d=1, side=120))
    cl = clusters(r)
    verts = np.nonzero(cl.largest_mask())[0][:6]
    d = distances_from(r, verts, np.tile(verts, (len(verts), 1)))
    assert np.array_equal(d, d.T) and np.all(d >= 0)
    assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :])


def test_graph_distance_rejects_outside_vertex():
    r = generate_box(P, 0, BoxSpec(d=1, side=10))
    with pytest.raises(VertexOutOfBox):
        distances_from(r, [int(r.spec.flat_of([10]))])


@pytest.mark.parametrize("source", [-1, 10, 11])
def test_graph_distance_rejects_flat_source_outside_box(source):
    # A negative index would otherwise wrap around to the last vertices;
    # so would a target's.
    r = generate_box(validate_params(1, 1.5, 1e6, 2.5), 0, BoxSpec(d=1, side=10))
    with pytest.raises(VertexOutOfBox, match="source"):
        distances_from(r, [3, source])
    with pytest.raises(VertexOutOfBox, match="target"):
        distances_from(r, [3, 4], [[0, 9], [source, 5]])


def test_graph_distance_rejects_targets_of_another_shape():
    r = _line_box([(0, 1)], side=4)
    for targets in ([1, 2], [[1], [2]], [[[1]]]):
        with pytest.raises(ValueError, match="targets must have shape"):
            distances_from(r, [0], targets)


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


def _oracle_hops(r, sources, targets=None):
    """Hops from each source by _deque_bfs, to `targets` (a (k, m) array) or to all."""
    rows = [_deque_bfs(r, int(s)) for s in sources]
    if targets is None:
        return np.array(rows, dtype=np.int64).reshape(len(rows), r.n_vertices)
    return np.array([row[t] for row, t in zip(rows, np.asarray(targets))],
                    dtype=np.int64).reshape(np.shape(targets))


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


def _assert_bfs_matches_oracle(r, sources, targets=None):
    got = distances_from(r, sources, targets)
    assert _bits(got) == _bits(_oracle_hops(r, sources, targets))


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
    vertex = st.integers(0, spec.vertex_count - 1)
    # Repeats are likely on small boxes: a source may take several bits.
    sources = draw(st.lists(vertex, min_size=1, max_size=6))
    targets = draw(st.lists(st.lists(vertex, min_size=3, max_size=3),
                            min_size=len(sources), max_size=len(sources)))
    return r, sources, targets


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bfs_boxes())
def test_distances_equal_deque_bfs_oracle(case):
    r, sources, targets = case
    _assert_bfs_matches_oracle(r, sources)
    _assert_bfs_matches_oracle(r, sources, targets)
    m = r.adjacency()
    assert all(_bits(a) == _bits(b) for a, b in zip(m, _lexsort_adjacency(r)))
    assert r.adjacency() is m  # built once, then shared


# Every level pushes (share 0), or every level pulls (share inf) in
# chunks of a few arcs that cut most rows' arc runs.
@pytest.mark.parametrize("share, arcs", [(0, 1 << 16), (math.inf, 1), (math.inf, 3),
                                         (math.inf, 7)])
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(bfs_boxes())
def test_distances_by_push_or_small_pull_chunks_equal_oracle(share, arcs, case):
    r, sources, targets = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_PUSH_SHARE", share)
        mp.setattr(graph, "_PULL_ARCS", arcs)
        _assert_bfs_matches_oracle(r, sources)
        _assert_bfs_matches_oracle(r, sources, targets)


def test_distances_from_star_whose_hub_straddles_a_chunk_boundary(monkeypatch):
    # The hub, the last vertex, holds the arcs n-1 .. 2n-3, across 2^16.
    n = 40_000
    edges = np.stack([np.arange(n - 1), np.full(n - 1, n - 1)], axis=1).astype(np.int64)
    r = BoxRealization(spec=BoxSpec(d=1, side=n), params=P, seed=0, weights=None, edges=edges)
    assert n - 1 < graph._PULL_ARCS < 2 * n - 2
    monkeypatch.setattr(graph, "_PUSH_SHARE", math.inf)  # every level pulls
    hops = distances_from(r, [0, n - 1])
    assert hops[0, [0, 1, n - 1]].tolist() == [0, 2, 1]
    assert (hops[1, :-1] == 1).all() and hops[1, -1] == 0
    _assert_bfs_matches_oracle(r, [0, 12_345], [[n - 1, 7], [0, n - 2]])


def test_distances_from_isolated_source_and_edge_free_box():
    # Vertex 2 has no edge; the rest form a path.
    r = _line_box([(0, 1), (1, 3), (3, 4)], side=5)
    assert distances_from(r, [2]).tolist() == [[-1, -1, 0, -1, -1]]
    _assert_bfs_matches_oracle(r, range(5))
    # Unreachable targets read -1, beside reached ones and the source itself.
    assert distances_from(r, [2, 0], [[4, 2], [2, 4]]).tolist() == [[-1, 0], [-1, 3]]
    empty = generate_box(validate_params(2, 3.0, 1e-300, 2.5), 0, BoxSpec(d=2, side=6))
    assert empty.n_edges == 0
    _assert_bfs_matches_oracle(empty, (0, 17, 35, 17))
    _assert_bfs_matches_oracle(empty, (0, 17), [[0, 1], [35, 17]])
    assert distances_from(empty, []).shape == (0, 36)
    assert distances_from(empty, [], np.empty((0, 3)), workers=2).shape == (0, 3)


def test_map_forked_with_no_items_calls_nothing():
    def fail(group):
        raise AssertionError(f"called on {group}")

    assert graph._map_forked(fail, [], [], 4) == []


def test_distances_from_long_path_has_one_level_per_vertex():
    n = 2000
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1).astype(np.int64)
    r = BoxRealization(spec=BoxSpec(d=1, side=n), params=P, seed=0, weights=None, edges=edges)
    assert distances_from(r, [0, n - 1]).tolist() == [list(range(n)), list(range(n - 1, -1, -1))]
    _assert_bfs_matches_oracle(r, [0, 777, n - 1])
    _assert_bfs_matches_oracle(r, [0, 777], [[n - 1, 5], [776, 778]])


@pytest.mark.parametrize("k", [65, 300])
def test_distances_from_many_sources_span_words_and_batches(k):
    # 65 sources take two batches of 33 and 32; 300 take five of 60.
    r = generate_box(validate_params(2, 2.5, 0.5, 2.5), 8, BoxSpec(d=2, side=16), cutoff=4.0)
    rng = np.random.default_rng(k)
    sources = rng.integers(0, r.n_vertices, size=k)
    sources[k // 2] = sources[0]  # a repeat in another word
    targets = rng.integers(0, r.n_vertices, size=(k, 4))
    _assert_bfs_matches_oracle(r, sources)
    _assert_bfs_matches_oracle(r, sources, targets)
    for name, value in (("_BFS_BATCH", 1), ("_PUSH_SHARE", 0), ("_PUSH_SHARE", math.inf)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, name, value)
            _assert_bfs_matches_oracle(r, sources, targets)


@pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 130, 256])
def test_distances_from_any_worker_count_equals_one_worker(k):
    r = generate_box(validate_params(2, 2.5, 0.5, 2.5), 8, BoxSpec(d=2, side=16), cutoff=4.0)
    rng = np.random.default_rng(k)
    sources = rng.integers(0, r.n_vertices, size=k)
    targets = rng.integers(0, r.n_vertices, size=(k, 4))
    _assert_bfs_matches_oracle(r, sources, targets)
    # As tuned, every level pulling, and every level pulling in chunks of 5 arcs.
    for share, arcs in ((graph._PUSH_SHARE, graph._PULL_ARCS), (math.inf, graph._PULL_ARCS),
                        (math.inf, 5)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_PUSH_SHARE", share)
            mp.setattr(graph, "_PULL_ARCS", arcs)
            for t in (None, targets):
                one = distances_from(r, sources, t)
                for workers in (1, 2, 3):
                    assert _bits(distances_from(r, sources, t, workers=workers)) == _bits(one)
    _assert_no_child_left()


def test_distances_from_cuts_the_sources_into_near_equal_batches(monkeypatch):
    r = _line_box([(0, 1), (1, 2)], side=4)
    sizes, batch = [], graph._bfs_batch

    def recording(indptr, indices, plan, sources, *rest):
        sizes.append(len(sources))
        return batch(indptr, indices, plan, sources, *rest)

    monkeypatch.setattr(graph, "_bfs_batch", recording)
    for k, want in ((1, [1]), (64, [64]), (65, [33, 32]), (96, [48, 48]), (130, [44, 43, 43])):
        sizes.clear()
        hops = distances_from(r, np.arange(k) % 4)
        assert sizes == want
        assert hops[:4].tolist()[:k] == [[0, 1, 2, -1], [1, 0, 1, -1], [2, 1, 0, -1],
                                         [-1, -1, -1, 0]][:k]


def test_distances_fork_from_the_main_thread_and_leave_no_child(monkeypatch):
    # 65 sources are batches of 33 and 32, one per worker at 2 workers.
    # 256 are 4 batches of 64: at 3 workers, groups of 2, 1 and 1, so two
    # batches run here and two forked children run one each.
    from_main, fork = [], os.fork

    def recording_fork():
        from_main.append(threading.current_thread() is threading.main_thread())
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    r = generate_box(validate_params(2, 2.5, 0.5, 2.5), 8, BoxSpec(d=2, side=16), cutoff=4.0)
    sources = np.random.default_rng(0).integers(0, r.n_vertices, size=256)
    assert _bits(distances_from(r, sources[:65], workers=2)) == _bits(distances_from(r, sources[:65]))
    assert from_main == [True]
    hops = distances_from(r, sources, workers=3)
    assert from_main == [True] * 3
    _assert_no_child_left()
    assert _bits(hops) == _bits(_oracle_hops(r, sources))
    with pytest.raises(ParameterError):
        distances_from(r, sources, workers=0)
    with pytest.raises(ParameterError):
        distances_from(r, sources, workers=graph.MAX_WORKERS + 1)


def test_distances_from_stops_at_the_farthest_target(monkeypatch):
    n = 2000
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1).astype(np.int64)
    r = BoxRealization(spec=BoxSpec(d=1, side=n), params=P, seed=0, weights=None, edges=edges)
    levels = []
    plan = graph._pull_plan

    class Counted(list):
        def __iter__(self):  # iterated once per level
            levels.append(1)
            return super().__iter__()

    monkeypatch.setattr(graph, "_pull_plan", lambda indptr: Counted(plan(indptr)))
    monkeypatch.setattr(graph, "_PUSH_SHARE", math.inf)  # every level pulls
    assert distances_from(r, [0, 1000], [[3, 0], [1002, 998]]).tolist() == [[3, 0], [2, 2]]
    assert len(levels) == 3
    levels.clear()
    assert distances_from(r, [5], [[5]]).tolist() == [[0]]  # no level to pull
    assert levels == []
    # Without targets the search runs until it has reached every vertex.
    assert distances_from(r, [0])[0, -1] == n - 1
    assert len(levels) == n - 1
    levels.clear()
    # or until the frontier is empty, the vertex past the path unreached.
    longer = BoxRealization(spec=BoxSpec(d=1, side=n + 1), params=P, seed=0, weights=None,
                            edges=edges)
    assert distances_from(longer, [0])[0, -2:].tolist() == [n - 1, -1]
    assert len(levels) == n


def test_distances_from_reloaded_realization(tmp_path):
    spec = BoxSpec(d=2, side=14, origin=(-5, 3))
    r = generate_box(validate_params(2, 2.5, 1.0, 2.5), 11, spec, cutoff=5.0)
    path = tmp_path / "box.txt"
    save_realization(r, path)
    back = load_realization(path)
    sources = [0, 97, spec.vertex_count - 1]
    assert _bits(distances_from(back, sources)) == _bits(distances_from(r, sources))
    _assert_bfs_matches_oracle(back, [0, 97])


def test_adjacency_equals_lexsort_on_large_boxes():
    for r in (generate_box(validate_params(1, 1.5, 1.0, 2.5), 3, BoxSpec(d=1, side=4000),
                           cutoff=200.0),
              generate_box(validate_params(2, 2.5, 1.0, 2.5, ModelKind.SFP_NN), 4,
                           BoxSpec(d=2, side=40), cutoff=6.0)):
        indptr, indices = _lexsort_adjacency(r)
        assert all(_bits(a) == _bits(b) for a, b in zip(r.adjacency(), (indptr, indices)))
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
    with pytest.raises(ParameterError, match="margin must satisfy 0 <= m < L/2, got 50"):
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
    with pytest.raises(ParseError,
                       match="^line 1: expected '#sfp-box v1', got '#sfp-box v2'$") as exc:
        load_realization(path)
    assert exc.value.line_number == 1


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


@pytest.mark.parametrize("lines, message", [
    (_VALID_FILE[:1], "missing metadata line"),
    ([_VALID_FILE[0], _VALID_FILE[1] + " seed", *_VALID_FILE[2:]], "bad metadata token 'seed'"),
    ([_VALID_FILE[0], _VALID_FILE[1].replace(" seed=0", ""), *_VALID_FILE[2:]],
     "missing metadata key seed"),
    ([_VALID_FILE[0], _VALID_FILE[1].replace("seed=0", "seed=-1"), *_VALID_FILE[2:]],
     r"seed must be in \[0, 2\^64\), got -1"),
    ([_VALID_FILE[0], _VALID_FILE[1].replace("seed=0", f"seed={2 ** 64}"), *_VALID_FILE[2:]],
     r"seed must be in \[0, 2\^64\), got 18446744073709551616"),
], ids=["no-metadata-line", "token-without-equals", "missing-key", "seed-negative",
        "seed-2^64"])
def test_load_rejects_a_bad_metadata_line(tmp_path, lines, message):
    path = tmp_path / "box.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message) as exc:
        load_realization(path)
    assert exc.value.line_number == 2


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


def test_has_edges_is_exact_at_the_largest_keyable_box(tmp_path):
    # n = 3,037,000,499, the largest n with n^2 < 2^63: the keys of the
    # rows reach n^2 - 1.  A row outside [0, n)^2 may share a key with an
    # edge, as (0, n + 7) and (2, 7 - n) do with (1, 7), or wrap, and a
    # reversed row is not the edge it reverses: all are False.
    n = math.isqrt(2 ** 63)
    path = tmp_path / "huge.txt"
    path.write_text(f"#sfp-box v1\nd=1 alpha=1.5 lambda=1.0 tau=2.5 model=lrp L={n} seed=0\n"
                    f"e 1 7\ne 3 {n - 1}\ne {n - 3} {n - 2}\ne {n - 2} {n - 1}\n")
    r = load_realization(path)
    assert int(graph._pair_keys(*r.edges.T, n).max()) == n * n - 1 - n
    pairs = [(1, 7), (3, n - 1), (n - 3, n - 2), (n - 2, n - 1), (0, n + 7), (2, 7 - n), (7, 1),
             (n - 1, n - 2), (n - 1, n - 1), (2, n - 1), (-1, 2 * n + 7), (2 ** 62, 7),
             (n - 3, n - 1), (0, 1)]
    assert r.has_edges(pairs).tolist() == [True] * 4 + [False] * 10


def test_graph_import_does_not_load_moments():
    src = os.path.dirname(os.path.dirname(graph.__file__))
    code = "import sys, sfp.graph; sys.exit('sfp.moments' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


_IMPORT_BUDGET = """
import os, sys
from sfp import cli
from sfp.graph import clusters, load_realization, save_realization
from sfp.verify import forced_realization, toy_hierarchy

def scipy_packages():
    return sorted({'.'.join(m.split('.')[:2]) for m in sys.modules if m.split('.')[0] == 'scipy'})

# The toy hierarchy and a box with exactly its required edges open.
real, sites = (os.path.join(sys.argv[1], name) for name in ('real.txt', 'sites.txt'))
h = toy_hierarchy()
save_realization(forced_realization(h.required_edges()), real)
with open(sites, 'w') as fh:
    fh.writelines(f's {key} {z[0]} {z[1]}\\n' for key, z in h.sites.items())

# The truncated boxes of degrees (one built here, one in a forked child)
# and generate get their truncation bias from numpy's FFT.
box = os.path.join(sys.argv[1], 'box.txt')
model = ['--alpha', '1.5', '--tau', '2.5', '--threads', '2']
for argv in (['adjacent', *model, '--rxy', '20', '--ryz', '4', '--replicates', '2000'],
             ['fkg', *model, '--path', '0;17;-5;30', '--replicates', '2000'],
             ['bridge', *model, '--beta', '0.5', '--n-list', '64,128', '--replicates', '400'],
             ['coupling', *model, '--side', '64', '--replicates', '2'],
             ['moments', 'second', *model, '--r', '16'],
             ['moments', 'adjacent', *model, '--rxy', '20', '--ryz', '4'],
             ['hierarchy', 'check', '--realization', real, '--hierarchy', sites],
             ['degrees', *model, '--side', '2000', '--trunc', '100', '--margin', '100',
              '--replicates', '2'],
             ['generate', *model, '--dim', '2', '--side', '32', '--trunc', '3', '--out', box]):
    assert cli.main(argv) in (0, 2), argv
    assert not scipy_packages(), (argv[0], scipy_packages())

# The box generate wrote, reloaded and clustered from its edge array.
r = load_realization(box)
for query in (clusters, lambda r: r.degrees(), lambda r: r.has_edges([(0, 1), (0, 32)])):
    query(r)
    assert not scipy_packages(), (query, scipy_packages())

# A distances box whose largest cluster is tiny stops before any BFS;
# the numpy BFS measures the others, coupled or not.
report = os.path.join(sys.argv[1], 'distances.csv')
distances = ['distances', *model, '--side', '256', '--n-list', '4,8', '--sources', '4',
             '--out', report]
assert cli.main([*distances, '--lambda', '1e-300']) == 0
with open(report) as fh:
    assert '#flag LargestClusterTiny' in fh.read()
assert not scipy_packages(), ('distances tiny', scipy_packages())
for extra in ([], ['--compare-lrp']):
    assert cli.main([*distances, *extra]) == 0
    with open(report) as fh:
        assert sum(line.startswith('lrp,') for line in fh) == (2 if extra else 0)
    assert not scipy_packages(), (['distances', *extra], scipy_packages())
"""


def test_cli_commands_import_only_the_scipy_they_run(tmp_path):
    src = os.path.dirname(os.path.dirname(graph.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
