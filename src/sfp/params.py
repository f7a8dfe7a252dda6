"""Model parameters, derived exponents, and the (tau, alpha) phase diagram.

Scale-free percolation on Z^d attaches an i.i.d. Pareto weight W_x with
tail P(W >= w) = w^-(tau-1) to every vertex and opens the edge {x, y}
with probability 1 - exp(-lambda W_x W_y / |x-y|^alpha).  Long-range
percolation (LRP) is the same construction with all weights frozen at 1.

Everything downstream is controlled by a handful of exponents:

    gamma  = alpha (tau - 1) / d          degree-tail exponent
    alpha1 = alpha ^ alpha (tau - 1) / 2  (^ = min)
    alpha2 = alpha ^ (alpha (tau - 1) - d)
    Delta  = log 2 / log(2d / alpha)      and likewise Delta1, Delta2

When gamma > 2 and d < alpha < 2d, graph distances are polylogarithmic in
the Euclidean distance with exponent between Delta1 and Delta2 (Delta for
tau >= 3, where the two coincide).  The classifier below assigns each
valid parameter point to exactly one regime of the phase diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class ModelKind(Enum):
    SFP = "sfp"
    LRP = "lrp"
    SFP_NN = "sfpnn"

    @classmethod
    def parse(cls, text: str) -> "ModelKind":
        for kind in cls:
            if kind.value == text.lower():
                return kind
        raise ValueError(f"unknown model kind {text!r} (expected sfp, lrp or sfpnn)")


class ParameterError(ValueError):
    """Base class for model-parameter validation failures."""


class NonPositive(ParameterError):
    def __init__(self, field: str, value):
        self.field = field
        super().__init__(f"{field} must be positive, got {value}")


class TauTooSmall(ParameterError):
    def __init__(self, value):
        super().__init__(f"tau must exceed 1, got {value}")


class RadiusTooSmall(ValueError):
    """A truncation cutoff or ball radius below what the computation needs."""


@dataclass(frozen=True)
class ModelParams:
    """Validated model parameters (d, alpha, lambda, tau) plus model kind.

    Single source of truth: every formula in the package reads these
    fields and nothing else.  `lambda_` carries the trailing underscore
    because `lambda` is reserved in Python; the CLI still spells it
    --lambda.
    """

    d: int
    alpha: float
    lambda_: float
    tau: float
    kind: ModelKind = ModelKind.SFP

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise NonPositive("d", self.d)
        if not self.alpha > 0:
            raise NonPositive("alpha", self.alpha)
        if not self.lambda_ > 0:
            raise NonPositive("lambda", self.lambda_)
        if not self.tau > 1:
            raise TauTooSmall(self.tau)


def validate_params(d, alpha, lambda_, tau, kind=ModelKind.SFP) -> ModelParams:
    """Construct a ModelParams, rejecting out-of-range values.

    Raises NonPositive(field) for d < 1, alpha <= 0, lambda <= 0 and
    TauTooSmall for tau <= 1.
    """
    if isinstance(kind, str):
        kind = ModelKind.parse(kind)
    return ModelParams(d=d, alpha=float(alpha), lambda_=float(lambda_),
                       tau=float(tau), kind=kind)


@dataclass(frozen=True)
class DerivedExponents:
    """The six exponents derived from (d, alpha, tau).

    Delta-family values are only meaningful for alpha* < 2d; beyond that
    they are reported as +inf rather than raising, so that parameter
    sweeps never abort.
    """

    gamma: float
    alpha1: float
    alpha2: float
    delta: float
    delta1: float
    delta2: float

    @property
    def deltas_finite(self) -> bool:
        return math.isfinite(self.delta) and math.isfinite(self.delta1) \
            and math.isfinite(self.delta2)


def _delta_of(alpha_star: float, d: int) -> float:
    # log 2 / log(2d/alpha*); +inf sentinel once alpha* >= 2d.
    if alpha_star >= 2 * d:
        return math.inf
    return math.log(2.0) / math.log(2.0 * d / alpha_star)


def derived_exponents(p: ModelParams) -> DerivedExponents:
    """Compute gamma, alpha1, alpha2 and the three Delta exponents.

    Pure function of (d, alpha, tau): alpha1 and alpha2 are evaluated
    directly from alpha and tau (not through gamma) so that the exact
    identities alpha1 = alpha for tau >= 3 and alpha2 = alpha for
    alpha (tau - 2) >= d survive floating-point evaluation.
    """
    a, t, d = p.alpha, p.tau, p.d
    gamma = a * (t - 1.0) / d
    alpha1 = min(a, a * (t - 1.0) * 0.5)
    alpha2 = min(a, a * (t - 1.0) - d)
    return DerivedExponents(
        gamma=gamma,
        alpha1=alpha1,
        alpha2=alpha2,
        delta=_delta_of(a, d),
        delta1=_delta_of(alpha1, d),
        delta2=_delta_of(alpha2, d),
    )


class Regime(Enum):
    BOUNDARY = "BOUNDARY"
    TWO_HOPS = "TWO_HOPS"
    BOUNDED_HOPS = "BOUNDED_HOPS"
    LOGLOG = "LOGLOG"
    POLYLOG_A = "POLYLOG_A"
    POLYLOG_B = "POLYLOG_B"
    POLYLOG_C = "POLYLOG_C"
    LINEAR = "LINEAR"


@dataclass(frozen=True)
class RegimeLabel:
    """Phase-diagram label; k is set only for BOUNDED_HOPS (= ceil(d/(d-alpha)))."""

    label: Regime
    k: int | None = None

    def __str__(self) -> str:
        if self.label is Regime.BOUNDED_HOPS:
            return f"BOUNDED_HOPS({self.k})"
        return self.label.value


def classify_regime(p: ModelParams) -> RegimeLabel:
    """Assign the unique phase-diagram regime of a parameter point.

    Precedence: TWO_HOPS (gamma < 1) > BOUNDED_HOPS (alpha < d) >
    BOUNDARY (gamma in {1,2} or alpha in {d,2d}, exact floating-point
    comparison) > LOGLOG (gamma in (1,2), alpha > d) > LINEAR
    (gamma > 2, alpha > 2d) > POLYLOG_{A,B,C} (gamma > 2, d < alpha < 2d,
    subdivided by alpha(tau-2) < d -> A; tau < 3 and alpha(tau-2) >= d
    -> B; tau >= 3 -> C).

    The finite-hop results hold for gamma < 1 and for alpha < d
    irrespective of the gamma boundaries, so those labels win there; the
    BOUNDARY tag marks the remaining transition lines, where distances
    depend on the fine tail of the connection function and no universal
    prediction is attached.  Boundary detection is deliberately exact,
    not epsilon-based: near-boundary points are classified by the open
    region they actually lie in.
    """
    a, t, d = p.alpha, p.tau, float(p.d)
    gamma = a * (t - 1.0) / d
    if gamma < 1.0:
        return RegimeLabel(Regime.TWO_HOPS)
    if a < d:
        return RegimeLabel(Regime.BOUNDED_HOPS, k=math.ceil(d / (d - a)))
    if gamma == 1.0 or gamma == 2.0 or a == d or a == 2.0 * d:
        return RegimeLabel(Regime.BOUNDARY)
    if gamma < 2.0:
        return RegimeLabel(Regime.LOGLOG)
    # gamma > 2 from here on
    if a > 2.0 * d:
        return RegimeLabel(Regime.LINEAR)
    if a * (t - 2.0) < d:
        return RegimeLabel(Regime.POLYLOG_A)
    if t < 3.0:
        return RegimeLabel(Regime.POLYLOG_B)
    return RegimeLabel(Regime.POLYLOG_C)
