"""Connection-probability moments: exact formulas and quadrature oracles.

All expectations here are over the Pareto weight law
P(W >= w) = w^-(tau-1), w >= 1.  The quantities computed are

  * the edge probability p = 1 - exp(-lambda w_x w_y r^-alpha),
  * the single-edge second moment E[(lambda W W' r^-alpha ^ 1)^2],
    evaluated through the product density (tau-1)^2 z^-tau log z,
  * the multiplicative upper bound on the probability that a given
    path is open, Prod_i C_delta |z_i - z_{i-1}|^-(alpha1 - delta),
  * the two-adjacent-edges expectation
    E[(lambda W/A ^ 1)(lambda W/B ^ 1)], both in closed form (valid for
    tau in (2,3)) and by adaptive quadrature (the independent oracle),
  * the lattice convolution sum behind the iterated path bound, and
  * the decay exponent 2 alpha1 - d beta of the bridged two-hop
    connection through a cube of side ~ N^beta.

The constants C_delta and delta appearing in the path bounds are caller
inputs: only their existence is guaranteed, so a fitted value can be
reported but never treated as ground truth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .params import ModelParams, RadiusTooSmall, derived_exponents

_QUAD_REL_TOL = 1e-10


class NonPositiveDistance(ValueError):
    pass


class QuadratureFailure(RuntimeError):
    pass


class DegeneratePath(ValueError):
    pass


class TauOutOfRange(ValueError):
    pass


class ThresholdBelowFloor(ValueError):
    pass


class BetaOutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class MomentBound:
    """A computed moment/probability bound with the (delta, C_delta) in force."""

    value: float
    delta: float
    c_delta: float
    exponent: float
    vacuous: bool = False


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


def edge_probability(params: ModelParams, w_x: float, w_y: float, r: float) -> float:
    """p_xy = 1 - exp(-lambda w_x w_y r^-alpha), in [0, 1).

    Weights are ignored for the LRP kind.
    """
    if not r > 0:
        raise NonPositiveDistance(f"r must be positive, got {r}")
    from .params import ModelKind
    if params.kind is ModelKind.LRP:
        w_x = w_y = 1.0
    if w_x < 1 or w_y < 1:
        raise ValueError(f"weights must be >= 1, got {w_x}, {w_y}")
    t = params.lambda_ * w_x * w_y * r ** -params.alpha
    return float(-np.expm1(-t))


def _quad(f, a, b, points=None) -> tuple:
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
    zstar = r ** alpha / lam
    if zstar <= 1.0:
        return 1.0
    c2 = (tau - 1.0) ** 2
    log_zstar = math.log(zstar)

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
    scale = c2 * zstar ** (1.0 - tau)
    total = scale * (v1 + v2)
    if scale * (e1 + e2) > _QUAD_REL_TOL * max(abs(total), 1e-300):
        raise QuadratureFailure(
            f"second moment at r={r}: error {scale * (e1 + e2):.3g} vs value {total:.3g}")
    return float(min(total, 1.0))


def default_delta(params: ModelParams) -> float:
    """Default slack: min(alpha1 - d, alpha - d) / 4, requiring alpha1 > d."""
    ex = derived_exponents(params)
    room = min(ex.alpha1 - params.d, params.alpha - params.d)
    if room <= 0:
        raise ValueError(
            f"no admissible delta: alpha1 = {ex.alpha1} does not exceed d = {params.d}")
    return room / 4.0


def fit_c_delta(params: ModelParams, delta: float, r_values=None) -> float:
    """Empirical C_delta: the largest observed sqrt(moment) * r^(alpha1-delta).

    Only existence of the constant is guaranteed, so this fit is a
    reported artifact of the probed grid, not a universal value.
    """
    ex = derived_exponents(params)
    if r_values is None:
        r_values = [2.0 ** k for k in range(0, 17)]
    best = 0.0
    for r in r_values:
        m = single_edge_second_moment(params, float(r))
        best = max(best, math.sqrt(m) * float(r) ** (ex.alpha1 - delta))
    return best


def path_probability_bound(params: ModelParams, path, delta: float | None = None,
                           c_delta: float = 2.0) -> MomentBound:
    """Product bound Prod_i C_delta |z_i - z_{i-1}|^-(alpha1 - delta).

    `path` is a sequence of lattice vertices (coordinate tuples, or ints
    for d = 1).  The bound is multiplicative over concatenation and may
    exceed 1, in which case it is returned unclamped with vacuous=True.
    Repeated consecutive vertices raise DegeneratePath; a delta with
    alpha1 - delta <= d only triggers a warning (the bound degrades to
    a non-summable exponent but remains valid).
    """
    pts = [np.atleast_1d(np.asarray(p, dtype=np.int64)) for p in path]
    if len(pts) < 2:
        raise DegeneratePath("a path needs at least two vertices")
    if delta is None:
        delta = default_delta(params)
    ex = derived_exponents(params)
    exponent = ex.alpha1 - delta
    if exponent <= params.d:
        warnings.warn(
            f"alpha1 - delta = {exponent} does not exceed d = {params.d}; "
            "the product bound will not be summable over paths", stacklevel=2)
    value = 1.0
    for a, b in zip(pts[:-1], pts[1:]):
        r = math.sqrt(float(np.sum((a - b) ** 2)))
        if r == 0.0:
            raise DegeneratePath(f"repeated consecutive vertex {a.tolist()}")
        value *= c_delta * max(r, 1.0) ** -exponent
    return MomentBound(value=value, delta=delta, c_delta=c_delta,
                       exponent=exponent, vacuous=value >= 1.0)


# ---------------------------------------------------------------------------
# Adjacent edges sharing the middle vertex
# ---------------------------------------------------------------------------

def adjacent_expectation_exact(params: ModelParams, a_xy: float, a_yz: float) -> AdjacentEdgeResult:
    """Closed form of E[(lambda W/A ^ 1)(lambda W/B ^ 1)], A = a_xy^alpha, B = a_yz^alpha.

    Valid for tau in (2, 3) with a_xy >= a_yz and both saturation
    thresholds above the weight floor (a_yz^alpha >= lambda).  Splitting
    the integral at B/lambda and A/lambda gives

        (tau-1)/((3-tau)(tau-2)) lambda^(tau-1) B^-(tau-2) / A
        - (tau-1)/(3-tau) lambda^2 / (A B)
        - lambda^(tau-1) / ((tau-2) A^(tau-1)).
    """
    tau, lam, alpha = params.tau, params.lambda_, params.alpha
    if not (2.0 < tau < 3.0):
        raise TauOutOfRange(f"closed form requires tau in (2, 3), got {tau}")
    if not a_xy >= a_yz:
        raise ValueError(f"require a_xy >= a_yz, got {a_xy} < {a_yz}")
    if not a_yz > 0:
        raise NonPositiveDistance(f"a_yz must be positive, got {a_yz}")
    A = a_xy ** alpha
    B = a_yz ** alpha
    if B < lam:
        raise ThresholdBelowFloor(
            f"a_yz^alpha = {B} below lambda = {lam}: saturation threshold under the weight floor")
    t1 = (tau - 1.0) / ((3.0 - tau) * (tau - 2.0)) * lam ** (tau - 1.0) * B ** (2.0 - tau) / A
    t2 = (tau - 1.0) / (3.0 - tau) * lam * lam / (A * B)
    t3 = lam ** (tau - 1.0) / ((tau - 2.0) * A ** (tau - 1.0))
    middle = t1 - t2 - t3
    mu = (tau - 1.0) / (tau - 2.0)
    return AdjacentEdgeResult(middle_expectation=middle, lower=middle / 4.0,
                              upper=mu * mu * middle, a_xy=a_xy, a_yz=a_yz)


def adjacent_expectation_quadrature(params: ModelParams, a_xy: float, a_yz: float) -> float:
    """Adaptive-quadrature oracle for the same expectation, any tau > 2.

    Integrates (lambda u/A ^ 1)(lambda u/B ^ 1) (tau-1) u^-tau on
    [1, inf), splitting at the kinks B/lambda and A/lambda.
    """
    tau, lam, alpha = params.tau, params.lambda_, params.alpha
    if not tau > 2.0:
        raise TauOutOfRange(f"quadrature needs tau > 2 for integrability, got {tau}")
    if not (a_xy > 0 and a_yz > 0):
        raise NonPositiveDistance(f"distances must be positive, got {a_xy}, {a_yz}")
    A = max(a_xy, a_yz) ** alpha
    B = min(a_xy, a_yz) ** alpha
    u_b = B / lam
    u_a = A / lam
    if u_a <= 1.0:
        # Both factors saturate on the whole weight support.
        return 1.0

    def f(u):
        return min(lam * u / A, 1.0) * min(lam * u / B, 1.0) * (tau - 1.0) * u ** -tau

    cuts = [c for c in (u_b, u_a) if c > 1.0]
    segments = [1.0] + sorted(cuts)
    total, err = 0.0, 0.0
    for a, b in zip(segments[:-1], segments[1:]):
        v, e = _quad(f, a, b)
        total += v
        err += e
    v, e = _quad(f, segments[-1], math.inf)
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
    ball_radius >= 4 |u-v|.
    """
    d, alpha = params.d, params.alpha
    if not alpha > d:
        raise ValueError(f"convolution sum needs alpha > d, got alpha={alpha}, d={d}")
    ua = np.atleast_1d(np.asarray(u, dtype=np.int64))
    va = np.atleast_1d(np.asarray(v, dtype=np.int64))
    if ua.shape != (d,) or va.shape != (d,):
        raise ValueError(f"u, v must be {d}-dimensional lattice points")
    if np.array_equal(ua, va):
        raise ValueError("u and v must be distinct")
    duv = math.sqrt(float(np.sum((ua - va) ** 2)))
    if ball_radius < 4.0 * duv:
        raise RadiusTooSmall(
            f"ball radius {ball_radius} below 4 |u-v| = {4.0 * duv}")

    rb = int(math.floor(ball_radius))
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
