"""Connection-probability moments: exact formulas and one quadrature oracle.

All expectations here are over the Pareto weight law
P(W >= w) = w^-(tau-1), w >= 1.  The quantities computed are

  * the single-edge second moment E[(lambda W W' r^-alpha ^ 1)^2],
    in closed form from the product density (tau-1)^2 z^-tau log z,
  * the two-adjacent-edges expectation
    E[(lambda W/A ^ 1)(lambda W/B ^ 1)], in closed form (valid for
    tau in (2,3)) and by Gauss-Legendre quadrature, its independent oracle,
  * the lattice convolution sum behind the iterated path bound, and
  * the decay exponent 2 alpha1 - d beta of the bridged two-hop
    connection through a cube of side ~ N^beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams, ParameterError, derived_exponents

_QUAD_REL_TOL = 1e-10
# Most lattice points `convolution_ratio` may visit: the d=3 default box
# (about 1.1M points) fits, d=4 at its default radius (about 1e8) does not.
_CONVOLUTION_POINTS = 1 << 22


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


def _pow(x: float, y: float) -> float:
    """x ** y, or inf where that overflows a float, so a huge distance gives the limit."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def single_edge_second_moment(params: ModelParams, r: float) -> float:
    """E[(lambda W_x W_y r^-alpha ^ 1)^2] over two independent weights, in closed form.

    With s = tau-1, k = 3-tau and l = log z*, where z* = r^alpha / lambda
    is the kink at which the minimum saturates, integrating the product
    density s^2 z^-tau log z by parts in u = log z gives

        m = e^(-s l) (s l + 1) + s^2 J,
        J = e^(-2l) int_0^l u e^(ku) du = (e^(-2l) + e^(-s l) (k l - 1)) / k^2,

    the mass above z* plus the part below it.  Near tau = 3 that form of
    J cancels, so for |k l| < 0.1 it is summed as the series
    e^(-s l) l^2 sum_n (-k l)^n / (n+2)!.  Every exponent is at most 0, so
    a huge r gives the limit, never inf or nan.  Identically 1 once
    lambda r^-alpha >= 1.
    """
    if not r >= 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    s, k = params.tau - 1.0, 3.0 - params.tau
    # log z*, from the logs so that no power overflows.
    ell = params.alpha * math.log(r) - math.log(params.lambda_)
    if ell <= 0.0:
        return 1.0
    if ell == math.inf:  # alpha log r past the float range: the limit
        return 0.0
    tail, kl = math.exp(-s * ell), k * ell
    if abs(kl) >= 0.1:
        j = (math.exp(-2.0 * ell) + tail * (kl - 1.0)) / (k * k)
    else:
        j = tail * ell * ell * sum((-kl) ** n / math.factorial(n + 2) for n in range(14))
    return min(tail * (s * ell + 1.0) + s * s * j, 1.0)


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
        raise ParameterError(f"closed form requires tau in (2, 3), got {tau}")
    if not a_xy >= a_yz:
        raise ParameterError(f"require a_xy >= a_yz, got {a_xy} < {a_yz}")
    if not a_yz > 0:
        raise ParameterError(f"a_yz must be positive, got {a_yz}")
    A = _pow(a_xy, alpha)
    B = _pow(a_yz, alpha)
    if B < lam:
        raise ParameterError(
            f"a_yz^alpha = {B} below lambda = {lam}: saturation threshold under the weight floor")
    a, b = A / lam, B / lam
    t1 = (tau - 1.0) / ((3.0 - tau) * (tau - 2.0)) * b ** (2.0 - tau) / a
    t2 = (tau - 1.0) / (3.0 - tau) / (a * b)
    t3 = 1.0 / ((tau - 2.0) * _pow(a, tau - 1.0))
    middle = t1 - t2 - t3
    mu = (tau - 1.0) / (tau - 2.0)
    return AdjacentEdgeResult(middle_expectation=middle, lower=middle / 4.0,
                              upper=mu * mu * middle)


def adjacent_expectation_quadrature(params: ModelParams, a_xy: float, a_yz: float) -> float:
    """Gauss-Legendre oracle for the same expectation, any tau > 2.

    The expectation integrates (lambda u/A ^ 1)(lambda u/B ^ 1)(tau-1) u^(1-tau)
    over s = log u >= 0, exp-linear between the kinks log b and log a with a
    slope k, |k| <= tau-1.  Pieces of width at most 1/(3|k|) take 16 and 8
    nodes, whose gap is the error estimate; past log a the integral is a^(1-tau).
    """
    tau, lam, alpha = params.tau, params.lambda_, params.alpha
    if not tau > 2.0:
        raise ParameterError(f"quadrature needs tau > 2 for integrability, got {tau}")
    if not (a_xy > 0 and a_yz > 0):
        raise ParameterError(f"distances must be positive, got {a_xy}, {a_yz}")
    # The kinks in log u, taken from the distances so that no power overflows.
    log_a = alpha * math.log(max(a_xy, a_yz)) - math.log(lam)
    log_b = alpha * math.log(min(a_xy, a_yz)) - math.log(lam)
    if log_a <= 0.0:  # both factors saturate on the whole weight support
        return 1.0
    from numpy.polynomial.legendre import leggauss
    cuts = [0.0] + sorted({c for c in (log_b, log_a) if 0.0 < c < math.inf})
    finite = np.zeros(2)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        k = 1.0 - tau + (hi <= log_a) + (hi <= log_b)
        # The 40/|k| nearest the larger end hold all but e^-40 of the segment.
        lo, hi = max(lo, hi - 40.0 / k) if k > 0 else lo, min(hi, lo - 40.0 / k) if k < 0 else hi
        n = max(1, math.ceil(3.0 * abs(k) * (hi - lo)))
        half = (hi - lo) / (2 * n)
        for i, (x, w) in enumerate(map(leggauss, (16, 8))):
            s = lo + half * (2 * np.arange(n)[:, None] + 1 + x)
            g = np.minimum(s - log_a, 0.0) + np.minimum(s - log_b, 0.0) + (1.0 - tau) * s
            finite[i] += (tau - 1.0) * half * np.sum(np.exp(g) @ w)
    total, err = float(finite[0]) + math.exp((1.0 - tau) * log_a), abs(finite[0] - finite[1])
    if err > _QUAD_REL_TOL * max(abs(total), 1e-300):
        raise RuntimeError(
            f"adjacent expectation at ({a_xy}, {a_yz}): error {err:.3g} vs value {total:.3g}")
    return total


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
        raise ParameterError(
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
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    ex = derived_exponents(params)
    return 2.0 * ex.alpha1 - params.d * beta
