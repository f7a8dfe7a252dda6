import numpy as np
import pytest
from scipy import stats

from sfp.params import ParameterError
from sfp.randomness import (TAG_EDGE, derive_seed,
                            experiment_uniforms, keyed_uniforms, keyed_words,
                            pareto_from_uniform, uniform_for_edge,
                            unit_from_word, unit_from_word_inplace, unit_lower_bound,
                            vertex_weights, weight_for_vertex)

MASK64 = 2 ** 64 - 1
EDGE_WORDS = [0, 1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 63,
              2 ** 64 - 1025, 2 ** 64 - 1024, 2 ** 64 - 1]


def _splitmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _reference_word(seed: int, tag: int, *key: int) -> int:
    """The keyed hash in Python integers: absorb each key word through splitmix64."""
    h = _splitmix64((seed & MASK64) ^ ((tag * 0x9E3779B97F4A7C15) & MASK64))
    for k in key:
        h = _splitmix64(h ^ (k & MASK64))
    return h


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
    with pytest.raises(ValueError, match=r"^edge endpoints coincide: \(3, 4\)$"):
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
    with pytest.raises(ParameterError, match="tau must exceed 1"):
        pareto_from_uniform(0.5, 1.0)
    with pytest.raises(ParameterError, match="tau must exceed 1"):
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


def test_keyed_words_match_python_integer_reference():
    rng = np.random.default_rng(5)
    for _ in range(50):
        seed = int(rng.integers(0, 2 ** 63))
        key = [int(k) for k in rng.integers(-2 ** 40, 2 ** 40, size=int(rng.integers(0, 5)))]
        cols = [np.array([k], dtype=np.int64) for k in key]
        want = _reference_word(seed, TAG_EDGE, *key)
        assert int(keyed_words(seed, TAG_EDGE, *cols).reshape(-1)[0]) == want
    assert int(keyed_words(3, TAG_EDGE)) == _reference_word(3, TAG_EDGE)


def _reference_uniform(w: int) -> float:
    """(w + 1) / 2^64 with w rounded to float first, clamped below 1."""
    return min((float(w) + 1.0) * 2.0 ** -64, 1.0 - 2.0 ** -53)


def test_unit_from_word_is_correctly_rounded_on_edge_and_random_words():
    rng = np.random.default_rng(11)
    words = np.concatenate([np.array(EDGE_WORDS, dtype=np.uint64),
                            rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64, endpoint=False)])
    want = np.minimum((words.astype(np.float64) + 1.0) * 2.0 ** -64, 1.0 - 2.0 ** -53)
    assert np.array_equal(unit_from_word(words), want)
    for w in EDGE_WORDS:
        assert float(unit_from_word(np.uint64(w))) == _reference_uniform(w)
    assert float(unit_from_word(np.uint64(2 ** 64 - 1))) < 1.0


def test_unit_from_word_inplace_equals_the_allocating_form():
    rng = np.random.default_rng(13)
    words = np.concatenate([np.array(EDGE_WORDS, dtype=np.uint64),
                            rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64, endpoint=False)])
    for w in (words, words[:-1].reshape(8, -1), np.array(EDGE_WORDS[-1], dtype=np.uint64)):
        want = unit_from_word(w)
        buf = w.copy()
        got = unit_from_word_inplace(buf, np.empty_like(buf))
        assert got.shape == w.shape and got.dtype == np.float64
        assert np.shares_memory(got, buf)
        assert np.array_equal(got, want)
        exact = np.minimum((w.astype(np.float64) + 1.0) * 2.0 ** -64, 1.0 - 2.0 ** -53)
        assert np.array_equal(got, exact)
    for w in EDGE_WORDS:
        buf = np.array(w, dtype=np.uint64)
        assert unit_from_word_inplace(buf, np.empty_like(buf))[()] == unit_from_word(np.uint64(w))


def test_unit_lower_bound_is_exact_top_bits_and_never_above_the_uniform():
    rng = np.random.default_rng(12)
    words = np.concatenate([np.array(EDGE_WORDS, dtype=np.uint64),
                            rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64, endpoint=False)])
    bound = unit_lower_bound(words, np.empty_like(words))
    assert np.all(bound <= unit_from_word(words))
    for w in EDGE_WORDS:
        b = float(unit_lower_bound(np.array([w], dtype=np.uint64), np.empty(1, np.uint64))[0])
        assert b == (w >> 12) * 2.0 ** -52
