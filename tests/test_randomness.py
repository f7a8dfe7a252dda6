import numpy as np
import pytest
from scipy import stats

from sfp.params import TauTooSmall
from sfp.randomness import (TAG_EDGE, SelfLoop, derive_seed,
                            experiment_uniforms, keyed_uniforms,
                            pareto_from_uniform, uniform_for_edge,
                            vertex_weights, weight_for_vertex)


def test_edge_uniform_symmetric_and_deterministic():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = int(rng.integers(0, 2 ** 63))
        x = tuple(rng.integers(-1000, 1000, size=2))
        y = tuple(rng.integers(-1000, 1000, size=2))
        if x == y:
            continue
        u1 = uniform_for_edge(s, x, y)
        u2 = uniform_for_edge(s, y, x)
        assert u1 == u2 == uniform_for_edge(s, x, y)
        assert 0.0 < u1 < 1.0


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        uniform_for_edge(0, (3, 4), (3, 4))


def test_distinct_keys_give_distinct_streams():
    xs = np.arange(1000, dtype=np.int64)
    u_a = keyed_uniforms(0, TAG_EDGE, xs, xs + 1)
    u_b = keyed_uniforms(0, TAG_EDGE, xs, xs + 2)
    u_c = keyed_uniforms(1, TAG_EDGE, xs, xs + 1)
    assert len(np.unique(u_a)) == 1000
    assert not np.allclose(u_a, u_b)
    assert not np.allclose(u_a, u_c)


def test_edge_uniforms_pass_ks_at_level_001():
    n = 1_000_000
    xs = np.arange(n, dtype=np.int64)
    u = keyed_uniforms(0, TAG_EDGE, xs, xs + 1)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    stat, pvalue = stats.kstest(u, "uniform")
    assert pvalue > 0.001, f"KS stat {stat}, p {pvalue}"


def test_weight_hand_inversion():
    assert pareto_from_uniform(0.25, 3.0) == 2.0
    # U -> 1- drives W -> 1+.
    assert 1.0 < pareto_from_uniform(1.0 - 1e-12, 2.5) < 1.0 + 1e-11


def test_weight_requires_tau_above_one():
    with pytest.raises(TauTooSmall):
        pareto_from_uniform(0.5, 1.0)
    with pytest.raises(TauTooSmall):
        weight_for_vertex(0, (1,), 0.5)


def test_weights_pass_ks_against_pareto_law():
    coords = np.arange(1_000_000, dtype=np.int64).reshape(-1, 1)
    w = vertex_weights(0, coords, 3.5)
    assert np.all(w >= 1.0)
    stat, pvalue = stats.kstest(w, lambda x: 1.0 - x ** -2.5)
    assert pvalue > 0.001, f"KS stat {stat}, p {pvalue}"


def test_weight_tail_regression_slope():
    # log-log survival regression over the top decades: slope ~ -(tau-1).
    coords = np.arange(1_000_000, dtype=np.int64).reshape(-1, 1)
    w = np.sort(vertex_weights(0, coords, 3.5))[::-1]
    ranks = np.arange(100, 10_000)
    lx = np.log(w[ranks])
    ly = np.log((ranks + 1) / len(w))
    slope = np.polyfit(lx, ly, 1)[0]
    assert abs(slope - (-2.5)) < 0.05, slope


def test_weight_for_vertex_matches_vector_path():
    w_scalar = weight_for_vertex(42, (5, -3), 2.5)
    w_vec = vertex_weights(42, np.array([[5, -3]]), 2.5)[0]
    assert w_scalar == w_vec


def test_experiment_uniforms_keyed_by_all_columns():
    reps = np.arange(100, dtype=np.uint64)
    a = experiment_uniforms(0, np.uint64(0), reps, np.uint64(0))
    b = experiment_uniforms(0, np.uint64(0), reps, np.uint64(1))
    c = experiment_uniforms(0, np.uint64(1), reps, np.uint64(0))
    assert not np.allclose(a, b) and not np.allclose(a, c)
    assert np.array_equal(a, experiment_uniforms(0, np.uint64(0), reps, np.uint64(0)))


def test_derive_seed_distinct():
    seeds = {derive_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
