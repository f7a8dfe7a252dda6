"""Connection-probability moments: exact formulas and quadrature oracles.

All expectations here are over the Pareto weight law
P(W >= w) = w^-(tau-1), w >= 1.  The quantities computed are

  * the single-edge second moment E[(lambda W W' r^-alpha ^ 1)^2],
    evaluated through the product density (tau-1)^2 z^-tau log z,
  * the two-adjacent-edges expectation
    E[(lambda W/A ^ 1)(lambda W/B ^ 1)], both in closed form (valid for
    tau in (2,3)) and by adaptive quadrature (the independent oracle),
  * the lattice convolution sum behind the iterated path bound, and
  * the decay exponent 2 alpha1 - d beta of the bridged two-hop
    connection through a cube of side ~ N^beta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import ModelParams, ParameterError, RadiusTooSmall, derived_exponents

_QUAD_REL_TOL = 1e-10
# Most lattice points `convolution_ratio` may visit: the d=3 default box
# (about 1.1M points) fits, d=4 at its default radius (about 1e8) does not.
_CONVOLUTION_POINTS = 1 << 22


class NonPositiveDistance(ParameterError):
    pass


class QuadratureFailure(RuntimeError):
    pass


class TauOutOfRange(ParameterError):
    pass


class ThresholdBelowFloor(ParameterError):
    pass


class BetaOutOfRange(ParameterError):
    pass


@dataclass(frozen=True)
class AdjacentEdgeResult:
    """Closed-form E[(lambda W/A ^ 1)(lambda W/B ^ 1)] and its sandwich.

    The true probability P(x ~ y ~ z) at distances (a_xy, a_yz) satisfies
    lower <= P <= upper with lower = middle/4 and upper = mu^2 * middle,
    mu = (tau-1)/(tau-2).
    """

    middle_expectation: float
    lower: float
    upper: float
    a_xy: float
    a_yz: float


def _pow(x: float, y: float) -> float:
    """x ** y, or inf where that overflows a float, so a huge distance gives the limit."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _quad(f, a, b, points=None) -> tuple:
    from scipy import integrate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        if points is not None and math.isfinite(b):
            val, err = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12,
                                      limit=200, points=points)
        else:
            val, err = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)
    return val, err


def single_edge_second_moment(params: ModelParams, r: float) -> float:
    """E[(lambda W_x W_y r^-alpha ^ 1)^2] over two independent weights.

    Uses the product density f(z) = (tau-1)^2 z^-tau log z on [1, inf),
    split at the kink z* = r^alpha / lambda where the minimum saturates.
    Identically 1 once lambda r^-alpha >= 1.
    """
    if not r >= 1:
        raise NonPositiveDistance(f"r must be >= 1, got {r}")
    tau, lam, alpha = params.tau, params.lambda_, params.alpha
    zstar = _pow(r, alpha) / lam
    if zstar <= 1.0:
        return 1.0
    # Past the float range z* is known by its log, which gives the scale.
    if zstar < math.inf:
        log_zstar, scale = math.log(zstar), (tau - 1.0) ** 2 * zstar ** (1.0 - tau)
    else:
        log_zstar = alpha * math.log(r) - math.log(lam)
        scale = (tau - 1.0) ** 2 * math.exp((1.0 - tau) * log_zstar)
    if scale == 0.0:
        return 0.0

    # Substituting z = zstar * u scales both pieces by zstar^(1-tau), so the
    # quadrature sees O(1) integrands and its error estimate stays relative.
    def below(u):
        return u ** (2.0 - tau) * (log_zstar + math.log(u))

    def above(u):
        return u ** -tau * (log_zstar + math.log(u))

    lo = 1.0 / zstar
    breaks = [b for b in (1e-9, 1e-6, 1e-3, 1e-1) if lo < b < 1.0]
    v1, e1 = _quad(below, lo, 1.0, points=breaks)
    v2, e2 = _quad(above, 1.0, math.inf)
    total = scale * (v1 + v2)
    if scale * (e1 + e2) > _QUAD_REL_TOL * max(abs(total), 1e-300):
        raise QuadratureFailure(
            f"second moment at r={r}: error {scale * (e1 + e2):.3g} vs value {total:.3g}")
    return float(min(total, 1.0))


# ---------------------------------------------------------------------------
# Adjacent edges sharing the middle vertex
# ---------------------------------------------------------------------------

def adjacent_expectation_exact(params: ModelParams, a_xy: float, a_yz: float) -> AdjacentEdgeResult:
    """Closed form of E[(lambda W/A ^ 1)(lambda W/B ^ 1)], A = a_xy^alpha, B = a_yz^alpha.

    Valid for tau in (2, 3) with a_xy >= a_yz and both saturation
    thresholds above the weight floor (a_yz^alpha >= lambda).  Splitting
    the integral at the thresholds a = A/lambda >= b = B/lambda >= 1 gives

        (tau-1)/((3-tau)(tau-2)) b^-(tau-2) / a
        - (tau-1)/(3-tau) / (a b)
        - 1 / ((tau-2) a^(tau-1)),

    where every factor is at most 1, so no term overflows.
    """
    tau, lam, alpha = params.tau, params.lambda_, params.alpha
    if not (2.0 < tau < 3.0):
        raise TauOutOfRange(f"closed form requires tau in (2, 3), got {tau}")
    if not a_xy >= a_yz:
        raise ParameterError(f"require a_xy >= a_yz, got {a_xy} < {a_yz}")
    if not a_yz > 0:
        raise NonPositiveDistance(f"a_yz must be positive, got {a_yz}")
    A = _pow(a_xy, alpha)
    B = _pow(a_yz, alpha)
    if B < lam:
        raise ThresholdBelowFloor(
            f"a_yz^alpha = {B} below lambda = {lam}: saturation threshold under the weight floor")
    a, b = A / lam, B / lam
    t1 = (tau - 1.0) / ((3.0 - tau) * (tau - 2.0)) * b ** (2.0 - tau) / a
    t2 = (tau - 1.0) / (3.0 - tau) / (a * b)
    t3 = 1.0 / ((tau - 2.0) * _pow(a, tau - 1.0))
    middle = t1 - t2 - t3
    mu = (tau - 1.0) / (tau - 2.0)
    return AdjacentEdgeResult(middle_expectation=middle, lower=middle / 4.0,
                              upper=mu * mu * middle, a_xy=a_xy, a_yz=a_yz)


def adjacent_expectation_quadrature(params: ModelParams, a_xy: float, a_yz: float) -> float:
    """Adaptive-quadrature oracle for the same expectation, any tau > 2.

    Integrates (lambda u/A ^ 1)(lambda u/B ^ 1) (tau-1) u^-tau on
    [1, inf), splitting at the kinks B/lambda and A/lambda.  It is
    integrated in log u, where each piece is an exponential of O(1) scale
    however many decades it spans.
    """
    tau, lam, alpha = params.tau, params.lambda_, params.alpha
    if not tau > 2.0:
        raise TauOutOfRange(f"quadrature needs tau > 2 for integrability, got {tau}")
    if not (a_xy > 0 and a_yz > 0):
        raise NonPositiveDistance(f"distances must be positive, got {a_xy}, {a_yz}")
    # The kinks in log u, taken from the distances so that no power overflows.
    log_a = alpha * math.log(max(a_xy, a_yz)) - math.log(lam)
    log_b = alpha * math.log(min(a_xy, a_yz)) - math.log(lam)
    if log_a <= 0.0:
        # Both factors saturate on the whole weight support.
        return 1.0

    def f(s):
        # The integrand times u, at u = e^s, summed in logs.
        return (tau - 1.0) * math.exp(min(s - log_a, 0.0) + min(s - log_b, 0.0)
                                      + (1.0 - tau) * s)

    segments = [0.0] + sorted({c for c in (log_b, log_a) if 0.0 < c < math.inf}) + [math.inf]
    total, err = 0.0, 0.0
    for lo, hi in zip(segments[:-1], segments[1:]):
        v, e = _quad(f, lo, hi)
        total += v
        err += e
    if err > _QUAD_REL_TOL * max(abs(total), 1e-300):
        raise QuadratureFailure(
            f"adjacent expectation at ({a_xy}, {a_yz}): error {err:.3g} vs value {total:.3g}")
    return float(total)


# ---------------------------------------------------------------------------
# Convolution sum and bridging exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvolutionResult:
    """Truncated lattice sum S = sum_w |u-w|^-alpha |v-w|^-alpha and its scaled ratio.

    `ratio` is S * |u-v|^alpha, the quantity whose boundedness in |u-v|
    expresses the convolution inequality.  `tail_bound` bounds the mass
    discarded outside the truncation balls (integral comparison).
    """

    s: float
    ratio: float
    tail_bound: float


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def convolution_ratio(params: ModelParams, u, v, ball_radius: float) -> ConvolutionResult:
    """Sum |u-w|^-alpha |v-w|^-alpha over lattice w != u, v near the pair.

    The sum runs over w within `ball_radius` of either endpoint; the
    discarded tail is bounded by 2^alpha * S_d * Rb^(d-2 alpha) / (2 alpha - d),
    recorded in the result.  Requires alpha > d (summability) and
    ball_radius >= 4 |u-v| and a box of at most _CONVOLUTION_POINTS points.
    """
    d, alpha = params.d, params.alpha
    if not alpha > d:
        raise ParameterError(f"convolution sum needs alpha > d, got alpha={alpha}, d={d}")
    ua = np.atleast_1d(np.asarray(u, dtype=np.int64))
    va = np.atleast_1d(np.asarray(v, dtype=np.int64))
    if ua.shape != (d,) or va.shape != (d,):
        raise ValueError(f"u, v must be {d}-dimensional lattice points")
    if np.array_equal(ua, va):
        raise ParameterError("u and v must be distinct")
    # Squared in Python ints: an int64 square wraps above |u-v| ~ 3e9.
    duv = math.sqrt(sum((int(a) - int(b)) ** 2 for a, b in zip(ua, va)))
    if ball_radius < 4.0 * duv:
        raise RadiusTooSmall(
            f"ball radius {ball_radius} below 4 |u-v| = {4.0 * duv}")

    rb = int(math.floor(ball_radius))
    # Counted in Python ints before any array is built: numpy would wrap or
    # fail to allocate.
    points = math.prod(2 * rb + abs(int(a) - int(b)) + 1 for a, b in zip(ua, va))
    if points > _CONVOLUTION_POINTS:
        raise ParameterError(f"the convolution box has {points} lattice points, over the "
                             f"budget of {_CONVOLUTION_POINTS}; lower the radius")
    lo = np.minimum(ua, va) - rb
    hi = np.maximum(ua, va) + rb
    axes = [np.arange(lo[j], hi[j] + 1, dtype=np.int64) for j in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    du = np.sqrt(np.sum((pts - ua) ** 2, axis=1).astype(np.float64))
    dv = np.sqrt(np.sum((pts - va) ** 2, axis=1).astype(np.float64))
    keep = ((du <= ball_radius) | (dv <= ball_radius)) & (du > 0) & (dv > 0)
    s = float(np.sum(du[keep] ** -alpha * dv[keep] ** -alpha))
    tail = 2.0 ** alpha * _sphere_area(d) * ball_radius ** (d - 2.0 * alpha) / (2.0 * alpha - d)
    return ConvolutionResult(s=s, ratio=s * duv ** alpha, tail_bound=tail)


def bridging_exponent(params: ModelParams, beta: float) -> float:
    """Decay exponent 2 alpha1 - d beta of the bridged connection x ~ A ~ y.

    A is the cube of side ~ N^beta at the midpoint of x and y; each
    intermediate vertex costs two comparable edges (exponent alpha1 each)
    and the cube volume N^(d beta) discounts the product.
    """
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"beta must lie in (0, 1), got {beta}")
    ex = derived_exponents(params)
    return 2.0 * ex.alpha1 - params.d * beta
