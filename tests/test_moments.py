import math

import numpy as np
import pytest

from sfp.moments import (adjacent_expectation_exact, adjacent_expectation_quadrature,
                         bridging_exponent, convolution_ratio,
                         single_edge_second_moment)
from sfp.params import ParameterError, derived_exponents, validate_params
from sfp.randomness import experiment_uniforms, pareto_from_uniform

P = validate_params(1, 1.5, 1.0, 2.5)


def _second_moment_closed(r, lam=1.0, alpha=1.5):
    """Exact antiderivative for tau = 2.5 (test-side oracle).

    m(r) = zs^-1.5 (6 log zs - 8) + 9 zs^-2 with zs = r^alpha / lambda.
    """
    zs = r ** alpha / lam
    return zs ** -1.5 * (6.0 * math.log(zs) - 8.0) + 9.0 * zs ** -2


def _log_second_moment_quad(tau, alpha, lam, r):
    """log m(r) by scipy quadrature in u = log z (test-side oracle, any tau > 1).

    The integrand s^2 u e^g(u) has g = k u - 2l below the kink l = log z*
    and g = -s u above it (s = tau-1, k = 3-tau).  Each piece of length at
    most 5 is integrated with its largest e^g factored out and the pieces
    are summed in logs, so no scale underflows before the end.
    """
    from scipy import integrate
    s, k = tau - 1.0, 3.0 - tau
    ell = alpha * math.log(r) - math.log(lam)
    if ell <= 0.0:
        return 0.0

    def g(u):
        return k * u - 2.0 * ell if u < ell else -s * u

    n = math.ceil(ell / 5.0)
    ends = [ell * i / n for i in range(n + 1)]
    while s * (ends[-1] - ell) < 60.0:  # the rest is below e^-60 of the tail
        ends.append(ends[-1] + 5.0)
    logs = []
    for a, b in zip(ends[:-1], ends[1:]):
        c = max(g(a), g(b))
        v = integrate.quad(lambda u: s * s * u * math.exp(g(u) - c), a, b,
                           epsabs=0.0, epsrel=1e-13, limit=200)[0]
        logs.append(math.log(v) + c)
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


class TestSecondMoment:
    def test_saturated_region_is_one(self):
        p = validate_params(1, 1.5, 4.0, 2.5)
        assert single_edge_second_moment(p, 1.0) == 1.0  # lambda r^-alpha >= 1

    def test_bounded_by_one(self):
        for r in (1.0, 2.0, 7.3, 64.0, 1e4):
            assert 0.0 < single_edge_second_moment(P, r) <= 1.0

    def test_matches_closed_form(self):
        for k in range(1, 17):
            r = 2.0 ** k
            got = single_edge_second_moment(P, r)
            want = _second_moment_closed(r)
            assert math.isclose(got, want, rel_tol=1e-12), (r, got, want)

    def test_matches_monte_carlo(self):
        # Third, simulation-side route: 10^6 keyed weight pairs.
        r = 16.0
        n = 1_000_000
        reps = np.arange(n, dtype=np.uint64)
        w1 = pareto_from_uniform(experiment_uniforms(901, reps, np.uint64(0)), P.tau)
        w2 = pareto_from_uniform(experiment_uniforms(901, reps, np.uint64(1)), P.tau)
        x = np.minimum(w1 * w2 * r ** -P.alpha, 1.0) ** 2
        se = x.std() / math.sqrt(n)
        assert abs(x.mean() - single_edge_second_moment(P, r)) <= 4.0 * se

    def test_slope_tracks_closed_form_not_pure_power(self):
        # The moment carries a slowly varying log factor, so the dyadic
        # log-log slope over 2^4..2^14 sits near -2.04, above the pure
        # -2 alpha1 = -2.25; the function and the antiderivative must agree.
        rs = [2.0 ** k for k in range(4, 15)]
        got = np.polyfit(np.log(rs), np.log([single_edge_second_moment(P, r) for r in rs]), 1)[0]
        want = np.polyfit(np.log(rs), np.log([_second_moment_closed(r) for r in rs]), 1)[0]
        assert abs(got - want) < 1e-9
        assert -2.25 < got < -1.95

    def test_shape_ratio_bounded(self):
        # m(r) r^(2 alpha1) / (1 + log r) stays within the closed-form
        # envelope [2.1, 9] on r in [2, 2^16].
        two_a1 = 2.0 * derived_exponents(P).alpha1
        g = [single_edge_second_moment(P, 2.0 ** k) * (2.0 ** k) ** two_a1
             / (1.0 + k * math.log(2.0)) for k in range(1, 17)]
        assert 2.1 < min(g) and max(g) < 9.0

    def test_matches_quadrature_on_a_grid_across_tau_three(self):
        # 1,512 inputs from the heavy to the light tail, through tau = 3,
        # out to distances whose r^alpha overflows a float.
        taus = (1.05, 1.5, 2.05, 2.5, 2.9, 2.999, 3 - 1e-9, 3.0, 3 + 1e-9, 3.001, 3.1,
                3.5, 4.0, 6.0)
        rs = (1.0, 1.5, 2.0, 16.0, 1e3, 65536.0, 1e10, 1e50, 1e150)
        for tau in taus:
            for alpha in (0.5, 1.5, 3.0):
                for lam in (0.01, 1.0, 5.0, 100.0):
                    p = validate_params(1, alpha, lam, tau)
                    for r in rs:
                        got = single_edge_second_moment(p, r)
                        want = math.exp(_log_second_moment_quad(tau, alpha, lam, r))
                        assert got >= 0.0, (tau, alpha, lam, r, got)
                        if got == 0.0:
                            assert want == 0.0, (tau, alpha, lam, r, want)
                        else:
                            assert math.isclose(got, want, rel_tol=1e-10), \
                                (tau, alpha, lam, r, got, want)

    def test_a_log_distance_past_the_float_range_gives_zero(self):
        # alpha log r overflows to inf: the limit, not nan.
        assert single_edge_second_moment(validate_params(1, 1e308, 1.0, 2.5), 10.0) == 0.0
        assert single_edge_second_moment(P, math.inf) == 0.0

    def test_rejects_r_below_one(self):
        with pytest.raises(ParameterError, match="r must be >= 1"):
            single_edge_second_moment(P, 0.5)


def _adjacent_quad(p, a_xy, a_yz):
    """E[(lambda W/A ^ 1)(lambda W/B ^ 1)] by scipy's adaptive quadrature (test-side oracle).

    The oracle's split in s = log u: [0, log b], [log b, log a] and
    [log a, inf), with the tail integrated too, not taken in closed form.
    """
    from scipy import integrate
    tau, lam, alpha = p.tau, p.lambda_, p.alpha
    log_a = alpha * math.log(max(a_xy, a_yz)) - math.log(lam)
    log_b = alpha * math.log(min(a_xy, a_yz)) - math.log(lam)

    def f(s):
        return (tau - 1.0) * math.exp(min(s - log_a, 0.0) + min(s - log_b, 0.0)
                                      + (1.0 - tau) * s)

    cuts = [0.0] + sorted({c for c in (log_b, log_a) if c > 0.0}) + [math.inf]
    # With full_output, quad returns its roundoff warning (raised on the
    # steepest pieces at epsrel 1e-12) as a message instead of warning.
    return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200, full_output=1)[0]
               for lo, hi in zip(cuts[:-1], cuts[1:]))


# Criterion 2's grid: tau x lambda x the ratio a/b at b = 10.
_CRITERION_2_GRID = [(float(tau), lam, 10.0 * ratio, 10.0)
                     for tau in np.linspace(2.05, 2.95, 12)
                     for lam in (0.5, 1.0, 2.0) for ratio in (1.0, 10.0, 100.0)]


class TestAdjacentExpectation:
    def test_reference_point(self):
        res = adjacent_expectation_exact(P, 100.0 ** (2 / 3), 10.0 ** (2 / 3))
        assert math.isclose(res.middle_expectation, 0.013973665961010275, rel_tol=1e-12)
        assert math.isclose(res.lower, res.middle_expectation / 4.0, rel_tol=1e-15)
        assert math.isclose(res.upper, 9.0 * res.middle_expectation, rel_tol=1e-12)

    def test_exact_equals_quadrature_on_random_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            tau = rng.uniform(2.05, 2.95)
            lam = rng.uniform(0.3, 2.5)
            p = validate_params(1, 1.5, lam, tau)
            b = rng.uniform(2.0 * lam, 50.0)
            a = b * rng.uniform(1.0, 100.0)
            r_yz = b ** (1 / p.alpha)
            r_xy = a ** (1 / p.alpha)
            exact = adjacent_expectation_exact(p, r_xy, r_yz).middle_expectation
            oracle = adjacent_expectation_quadrature(p, r_xy, r_yz)
            assert abs(exact - oracle) <= 1e-9 * abs(oracle)

    def test_first_term_dominates_at_large_separation(self):
        # With the far/near ratio rho fixed, the middle term loses the
        # lam^2/(AB) correction as the near distance grows and converges
        # to leading * (1 - (3-tau)/(tau-1) rho^(2-tau)): the first term
        # dominates, the others stay a bounded fraction below it.
        tau, lam, rho = 2.5, 1.0, 100.0
        p = validate_params(1, 1.5, lam, tau)
        lead = lambda a, b: (tau - 1) / ((3 - tau) * (tau - 2)) * lam ** (tau - 1) \
            * b ** (2 - tau) / a
        limit = 1.0 - (3 - tau) / (tau - 1) * rho ** (2 - tau)
        ratios = []
        for b in (1e2, 1e4, 1e6):
            a = rho * b
            mid = adjacent_expectation_exact(p, a ** (2 / 3), b ** (2 / 3)).middle_expectation
            ratios.append(mid / lead(a, b))
        assert abs(ratios[-1] - limit) < 1e-3
        assert all(abs(r2 - limit) < abs(r1 - limit)
                   for r1, r2 in zip(ratios[:-1], ratios[1:]))
        assert 0.5 < min(ratios) <= max(ratios) < 1.0

    def test_comparable_distances_scale(self):
        # A = B: middle * A^(tau-1) pinched between positive constants.
        vals = []
        for a in (1e2, 1e3, 1e4, 1e5):
            mid = adjacent_expectation_exact(P, a ** (2 / 3), a ** (2 / 3)).middle_expectation
            vals.append(mid * a ** 1.5)
        assert all(1.0 < v < 4.1 for v in vals)

    def test_quadrature_saturated_case(self):
        # lambda above both thresholds: both factors clip at 1 on the
        # whole support, expectation of the product is 1.
        p = validate_params(1, 1.5, 10.0, 2.5)
        assert adjacent_expectation_quadrature(p, 1.2, 1.1) == 1.0

    def test_quadrature_monotone_in_distances(self):
        q = adjacent_expectation_quadrature
        assert q(P, 30.0, 5.0) < q(P, 20.0, 5.0)
        assert q(P, 20.0, 6.0) < q(P, 20.0, 5.0)

    def test_quadrature_error_above_tolerance_is_a_runtime_error(self, monkeypatch):
        from numpy.polynomial import legendre
        rule = legendre.leggauss
        # The 8-node weights doubled: the two orders then differ by the whole
        # integral below the last kink, 0.0172 (the value) less the tail
        # 20^(-1.5 * 1.5) = 0.00118 past it.
        monkeypatch.setattr(legendre, "leggauss",
                            lambda n: (rule(n)[0], rule(n)[1] * (2.0 if n == 8 else 1.0)))
        with pytest.raises(RuntimeError, match=r"^adjacent expectation at \(20\.0, 4\.0\): "
                                               r"error 0\.016 vs value 0\.0172$"):
            adjacent_expectation_quadrature(P, 20.0, 4.0)

    def test_quadrature_equals_scipy_on_criterion_2_grid(self):
        assert len(_CRITERION_2_GRID) == 108
        for tau, lam, a, b in _CRITERION_2_GRID:
            p = validate_params(1, 1.5, lam, tau)
            r_xy, r_yz = a ** (1 / p.alpha), b ** (1 / p.alpha)
            ours = adjacent_expectation_quadrature(p, r_xy, r_yz)
            assert ours == pytest.approx(_adjacent_quad(p, r_xy, r_yz), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("tau, lam, r_xy, r_yz", [
        (2.5, 1.0, 1e6, 1e3), (3.7, 0.3, 1e8, 2.0), (2.01, 5.0, 1e12, 1e11),
        (12.0, 0.3, 1e4, 3.0), (30.0, 0.3, 1e4, 3.0), (100.0, 0.3, 1e4, 3.0),
        (3.0, 1.0, 1e5, 1e2), (1e4, 1e-3, 1.5, 1.01)])
    def test_quadrature_equals_scipy_far_from_the_grid(self, tau, lam, r_xy, r_yz):
        # tau = 3 has a flat segment; 1e4 keeps a sliver of both segments.
        p = validate_params(1, 1.5, lam, tau)
        ours = adjacent_expectation_quadrature(p, r_xy, r_yz)
        assert ours == pytest.approx(_adjacent_quad(p, r_xy, r_yz), rel=1e-13, abs=0.0)

    def test_exact_requires_tau_in_2_3(self):
        with pytest.raises(ParameterError, match="closed form requires tau in"):
            adjacent_expectation_exact(validate_params(1, 1.5, 1.0, 3.5), 10.0, 5.0)
        with pytest.raises(ParameterError, match="quadrature needs tau > 2"):
            adjacent_expectation_quadrature(validate_params(1, 1.5, 1.0, 1.8), 10.0, 5.0)

    def test_exact_requires_threshold_above_floor(self):
        p = validate_params(1, 1.5, 8.0, 2.5)
        with pytest.raises(ParameterError, match="below lambda = 8.0"):
            adjacent_expectation_exact(p, 10.0, 1.1)  # 1.1^1.5 < 8

    def test_exact_requires_ordered_distances(self):
        with pytest.raises(ValueError):
            adjacent_expectation_exact(P, 5.0, 10.0)


class TestConvolution:
    def test_brute_force_oracle(self):
        res = convolution_ratio(P, (0,), (2,), 50.0)
        brute = 0.0
        for w in range(-50, 53):
            if w in (0, 2):
                continue
            du, dv = abs(w), abs(w - 2)
            if du <= 50 or dv <= 50:
                brute += du ** -1.5 * dv ** -1.5
        assert math.isclose(res.s, brute, rel_tol=1e-12)
        assert math.isclose(res.ratio, brute * 2.0 ** 1.5, rel_tol=1e-12)

    def test_symmetric_in_endpoints(self):
        a = convolution_ratio(P, (0,), (7,), 100.0)
        b = convolution_ratio(P, (7,), (0,), 100.0)
        assert a.s == b.s

    def test_ratio_bounded_over_separations(self):
        ratios = [convolution_ratio(P, (0,), (s,), 1e4).ratio
                  for s in (2, 4, 8, 16, 32, 64, 128, 256)]
        assert max(ratios) <= 2.0 * float(np.median(ratios))

    def test_two_dimensional_case(self):
        p2 = validate_params(2, 2.5, 1.0, 2.5)
        res = convolution_ratio(p2, (0, 0), (3, 4), 200.0)
        assert res.s > 0 and res.tail_bound < 1e-4

    def test_radius_too_small(self):
        with pytest.raises(ParameterError, match="ball radius 39.0 below 4"):
            convolution_ratio(P, (0,), (10,), 39.0)

    def test_requires_alpha_above_d(self):
        with pytest.raises(ValueError):
            convolution_ratio(validate_params(1, 0.8, 1.0, 3.0), (0,), (2,), 100.0)


class TestBridgingExponent:
    def test_reference_value(self):
        assert bridging_exponent(P, 0.5) == 2.0 * 1.125 - 0.5

    def test_beta_to_one_limit(self):
        ex = derived_exponents(P)
        assert math.isclose(bridging_exponent(P, 1.0 - 1e-12),
                            2.0 * ex.alpha1 - 1.0, rel_tol=1e-9)

    def test_beta_range_enforced(self):
        with pytest.raises(ParameterError, match="beta must lie in"):
            bridging_exponent(P, 0.0)
        with pytest.raises(ParameterError, match="beta must lie in"):
            bridging_exponent(P, 1.0)

    def test_region_a_limit_equals_alpha2(self):
        # Where alpha (tau - 2) < d, the beta -> 1 exponent collapses to
        # alpha2 = alpha (tau - 1) - d and in particular undercuts alpha.
        rng = np.random.default_rng(23)
        for _ in range(300):
            d = int(rng.integers(1, 4))
            alpha = d * rng.uniform(1.0 + 1e-6, 2.0 - 1e-6)
            lo = 1.0 + 2.0 * d / alpha          # gamma > 2
            hi = min(3.0, 2.0 + d / alpha)      # alpha (tau - 2) < d
            if lo >= hi:
                continue
            tau = rng.uniform(lo * (1 + 1e-9), hi)
            p = validate_params(d, alpha, 1.0, tau)
            ex = derived_exponents(p)
            e = bridging_exponent(p, 1.0 - 1e-13)
            assert e < alpha
            assert math.isclose(e, ex.alpha2, rel_tol=1e-9)


def test_elementary_exponential_sandwich():
    # (1/2)(t ^ 1) <= 1 - e^-t <= t ^ 1 for all t > 0: guards every
    # substitution of the linearized bound for the true probability.
    rng = np.random.default_rng(5)
    t = np.concatenate([rng.uniform(0, 1, 5000) ** 3,
                        rng.uniform(0, 50, 5000)])
    t = t[t > 0]
    p = -np.expm1(-t)
    cap = np.minimum(t, 1.0)
    assert np.all(0.5 * cap <= p) and np.all(p <= cap)
