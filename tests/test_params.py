import itertools
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from sfp.params import (ModelKind, ParameterError, Regime, classify_regime, derived_exponents,
                        validate_params)


def test_validate_accepts_good_params():
    p = validate_params(1, 1.5, 1.0, 2.5, ModelKind.SFP)
    assert p.d == 1 and p.alpha == 1.5 and p.lambda_ == 1.0 and p.tau == 2.5


def test_validate_rejects_nonpositive_lambda():
    with pytest.raises(ParameterError, match="lambda must be positive"):
        validate_params(1, 1.5, 0.0, 2.5)


def test_validate_rejects_tau_at_one():
    with pytest.raises(ParameterError, match="tau must exceed 1"):
        validate_params(2, 3.0, 2.0, 1.0)


def test_validate_rejects_bad_d_and_alpha():
    with pytest.raises(ParameterError, match="d must be positive"):
        validate_params(0, 1.5, 1.0, 2.5)
    with pytest.raises(ParameterError, match="alpha must be positive"):
        validate_params(1, -1.0, 1.0, 2.5)


def _decimal_exponents(d, alpha, tau):
    """Independent high-precision evaluation of the defining formulas."""
    getcontext().prec = 50
    a, t, dd = Decimal(alpha), Decimal(tau), Decimal(d)
    gamma = a * (t - 1) / dd
    alpha1 = min(a, a * (t - 1) / 2)
    alpha2 = min(a, a * (t - 1) - dd)
    ln2 = Decimal(2).ln()

    def delta(x):
        if x >= 2 * dd:
            return math.inf
        if x <= 0:
            return math.nan
        return ln2 / (2 * dd / x).ln()

    return gamma, alpha1, alpha2, delta(a), delta(alpha1), delta(alpha2)


_ORACLE_POINTS = [(1, 1.5, 2.5), (1, 1.5, 3.5), (1, 1.8, 2.8), (2, 2.5, 4.0), (3, 4.0, 2.75)]
# A grid over the whole phase diagram: on 88 of its points alpha2 <= 0.
_ORACLE_GRID = [p for p in itertools.product((1, 2, 3),
                                             (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0),
                                             (1.25, 1.5, 2.0, 2.5, 3.0, 4.0))
                if p not in _ORACLE_POINTS]


@pytest.mark.parametrize("d,alpha,tau", _ORACLE_POINTS + _ORACLE_GRID)
def test_derived_exponents_match_decimal_oracle(d, alpha, tau):
    ex = derived_exponents(validate_params(d, alpha, 1.0, tau))
    g, a1, a2, dl, d1, d2 = _decimal_exponents(d, alpha, tau)
    assert math.isclose(ex.gamma, float(g), rel_tol=1e-12)
    assert math.isclose(ex.alpha1, float(a1), rel_tol=1e-12)
    assert math.isclose(ex.alpha2, float(a2), rel_tol=1e-12)
    for got, want in ((ex.delta, dl), (ex.delta1, d1), (ex.delta2, d2)):
        want = float(want)
        assert math.isnan(got) if math.isnan(want) else math.isclose(got, want, rel_tol=1e-12)


def test_reference_point_values():
    # d=1, alpha=1.5, tau=2.5: gamma 2.25, alpha1 1.125, alpha2 1.25,
    # Delta = log2/log(4/3), Delta1 = log2/log(16/9), Delta2 = log2/log(1.6).
    ex = derived_exponents(validate_params(1, 1.5, 1.0, 2.5))
    assert ex.gamma == 2.25
    assert ex.alpha1 == 1.125
    assert ex.alpha2 == 1.25
    assert math.isclose(ex.delta, 2.4094208396532095, rel_tol=1e-14)
    assert math.isclose(ex.delta1, 1.2047104198266047, rel_tol=1e-14)
    assert math.isclose(ex.delta2, 1.4747698473569484, rel_tol=1e-14)


def test_tau_ge_3_collapses_minima():
    ex = derived_exponents(validate_params(1, 1.5, 1.0, 3.5))
    assert ex.gamma == 3.75
    assert ex.alpha1 == ex.alpha2 == 1.5
    assert ex.delta1 == ex.delta2 == ex.delta


def test_alpha_tau_minus_2_above_d_forces_delta2():
    # alpha (tau - 2) = 1.44 >= 1, so alpha2 = alpha and Delta2 = Delta.
    ex = derived_exponents(validate_params(1, 1.8, 1.0, 2.8))
    assert ex.alpha2 == 1.8
    assert ex.delta2 == ex.delta


def test_infinite_delta_sentinels():
    # alpha = 2.5 >= 2d makes Delta infinite, but alpha1 = 1.875 < 2d
    # keeps Delta1 finite.
    ex = derived_exponents(validate_params(1, 2.5, 1.0, 2.5))
    assert ex.delta == math.inf
    assert math.isfinite(ex.delta1)


def test_derived_exponents_pure():
    p = validate_params(2, 2.7, 0.3, 2.9)
    assert derived_exponents(p) == derived_exponents(p)


def test_ordering_invariants_on_random_grid():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        d = int(rng.integers(1, 4))
        alpha = d * rng.uniform(1.0 + 1e-6, 2.0 - 1e-6)
        tau = (1.0 + 2.0 * d / alpha) * (1.0 + 1e-9) + rng.uniform(0.0, 4.0)
        ex = derived_exponents(validate_params(d, alpha, 1.0, tau))
        assert d < ex.alpha1 <= ex.alpha2 <= alpha < 2 * d
        assert 1.0 < ex.delta1 <= ex.delta2 <= ex.delta
        if tau < 3.0:
            assert ex.alpha1 == alpha * (tau - 1.0) * 0.5
        else:
            assert ex.alpha1 == alpha


@pytest.mark.parametrize("d,alpha,tau,expected,k", [
    (1, 0.5, 5.0, Regime.BOUNDED_HOPS, 2),
    (1, 1.5, 2.5, Regime.POLYLOG_A, None),
    (1, 2.5, 3.0, Regime.LINEAR, None),
    (1, 1.5, 7 / 3, Regime.BOUNDARY, None),   # gamma exactly 2
    (1, 1.2, 1.5, Regime.TWO_HOPS, None),     # gamma 0.6
    (1, 1.5, 2.0, Regime.LOGLOG, None),       # gamma 1.5
    (1, 1.75, 2.6, Regime.POLYLOG_B, None),   # alpha(tau-2)=1.05>=d, tau<3
    (1, 1.5, 3.5, Regime.POLYLOG_C, None),
    (2, 2.0, 3.5, Regime.BOUNDARY, None),     # alpha = d
    (1, 2.0, 3.5, Regime.BOUNDARY, None),     # alpha = 2d
])
def test_classify_regime_examples(d, alpha, tau, expected, k):
    label = classify_regime(validate_params(d, alpha, 1.0, tau))
    assert label.label is expected
    if k is not None:
        assert label.k == k


def test_classify_regime_total_and_unique():
    rng = np.random.default_rng(11)
    for _ in range(3000):
        d = int(rng.integers(1, 4))
        alpha = rng.uniform(0.05, 3.0 * d)
        tau = rng.uniform(1.0 + 1e-9, 6.0)
        label = classify_regime(validate_params(d, alpha, 1.0, tau))
        assert label.label in Regime
        if label.label is Regime.BOUNDED_HOPS:
            assert label.k == math.ceil(d / (d - alpha))
        else:
            assert label.k is None
