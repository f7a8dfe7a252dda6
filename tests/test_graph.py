import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special

from sfp import graph
from sfp.graph import (BoxSpec, BoxTooLarge, FormatVersionMismatch,
                       MarginTooLarge, ParseError, RadiusTooSmall,
                       VertexOutOfBox, clusters, coupled_pair, degree_sequence,
                       distances_from, generate_box, load_realization,
                       save_realization)
from sfp.params import ModelKind, validate_params
from sfp.randomness import derive_seed
from sfp.verify import forced_realization

P = validate_params(1, 1.5, 1.0, 2.5)


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


@pytest.mark.parametrize("d, side", [(1, 2), (1, 5), (1, 9), (2, 2), (2, 4), (2, 7),
                                     (3, 2), (3, 3), (3, 5)])
def test_canonical_offsets_match_brute_force(d, side):
    diameter = math.sqrt(d) * (side - 1)
    for cutoff in (1, 1.5, 2.9, 3, 4.2, diameter, diameter + 0.5, math.inf, None):
        got = list(graph._canonical_offsets(d, side, cutoff))
        assert got == _brute_offsets(d, side, cutoff), (d, side, cutoff)


def test_canonical_offsets_walk_only_the_ball():
    # A huge side must cost nothing when the cutoff is small: every
    # coordinate range is bounded by the radius the prefix leaves.
    for d in (1, 2, 3):
        assert list(graph._canonical_offsets(d, 10 ** 12, 2.9)) == _brute_offsets(d, 4, 2.9)


def test_pair_budget_checked_before_enumerating_offsets(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("offsets enumerated for a box over budget")
    monkeypatch.setattr(graph, "_canonical_offsets", fail)
    with pytest.raises(BoxTooLarge):
        generate_box(validate_params(2, 3.0, 1.0, 2.5), 0, BoxSpec(d=2, side=1000))


def test_pair_budget_stops_enumeration_with_cutoff(monkeypatch):
    produced = []
    orig = graph._canonical_offsets

    def counting(*args):
        for delta in orig(*args):
            produced.append(delta)
            yield delta
    monkeypatch.setattr(graph, "_canonical_offsets", counting)
    with pytest.raises(BoxTooLarge):
        generate_box(validate_params(2, 3.0, 1.0, 2.5), 0, BoxSpec(d=2, side=1000),
                     cutoff=500.0, pair_budget=10 ** 6)
    # (0, 1) and (0, 2) hold 999,000 and 998,000 pairs: the second passes the budget.
    assert produced == [(0, 1), (0, 2)]


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
    r = forced_realization([((0,), (1,)), ((2,), (3,))], d=1, origin=(0,), side=4)
    cl = clusters(r)
    assert cl.sizes == {0: 2, 2: 2}
    assert cl.largest == 0  # tie broken by smallest root
    assert cl.labels.tolist() == [0, 0, 2, 2]


def test_graph_distance_trivial_cases():
    r = forced_realization([((0,), (1,))], d=1, origin=(0,), side=4)
    dist = distances_from(r, 0)
    assert dist.tolist() == [0, 1, -1, -1]


def test_graph_distance_cycle():
    edges = [((0,), (1,)), ((1,), (2,)), ((2,), (3,)), ((0,), (3,))]
    r = forced_realization(edges, d=1, origin=(0,), side=4)
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
], ids=["reversed", "duplicate", "self-loop", "weight-below-1", "weight-inf",
        "weight-nan", "unknown-key"])
def test_load_rejects_malformed_records(tmp_path, line, text, expect_line):
    path = tmp_path / "box.txt"
    path.write_text("\n".join(_VALID_FILE) + "\n")
    assert load_realization(path).n_edges == 3
    lines = list(_VALID_FILE)
    lines[line] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_realization(path)
    assert exc.value.line_number == expect_line


def test_load_skips_blank_and_whitespace_lines(tmp_path):
    path = tmp_path / "box.txt"
    path.write_text("\n".join(_VALID_FILE[:7] + ["", "   \t"] + _VALID_FILE[7:]) + "\n")
    assert load_realization(path).edges.tolist() == [[0, 1], [1, 2], [2, 3]]


def test_radius_too_small_is_one_class():
    from sfp import moments, params
    assert graph.RadiusTooSmall is moments.RadiusTooSmall is params.RadiusTooSmall


def test_graph_import_does_not_load_moments():
    src = os.path.dirname(os.path.dirname(graph.__file__))
    code = "import sys, sfp.graph; sys.exit('sfp.moments' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
