"""Monte-Carlo experiments connecting the simulator to the limit formulas.

Every experiment consumes an ExperimentConfig and emits an
ExperimentReport: point estimates with standard errors, named pass/fail
verdicts with their tolerances, and a config echo sufficient to
reproduce the run.  All randomness is keyed by
(seed, experiment point, replicate index, slot), so reports are
bit-identical for any number of worker threads; threading only splits
replicate ranges into fixed-size chunks whose partial sums are combined
in a fixed order.

Estimators for edge events average the exact conditional probability
given the sampled weights (edges are conditionally independent given
weights), which is unbiased for the same quantity as raw edge sampling
with strictly smaller variance; weights are drawn fresh per replicate.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .graph import (BoxSpec, clusters, coupled_pair, degree_sequence,
                    distances_from, generate_box)
from .moments import (BetaOutOfRange, TauOutOfRange, adjacent_expectation_exact,
                      bridging_exponent)
from .params import ModelKind, ModelParams, derived_exponents
from .randomness import derive_seed, experiment_uniforms, pareto_from_uniform

_CHUNK = 1 << 16


class KTooLarge(ValueError):
    pass


class TooFewPoints(ValueError):
    pass


class NonPositivePoint(ValueError):
    pass


class PathTooLong(ValueError):
    pass


class NoPairsInLargestCluster(RuntimeError):
    pass


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with standard error (sample std / sqrt(n))."""

    mean: float
    stderr: float
    n: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Common experiment inputs; experiment-specific knobs are kwargs."""

    params: ModelParams
    spec: BoxSpec | None = None
    seed: int = 0
    replicates: int = 1
    threads: int = 1

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.threads < 0:
            raise ValueError(f"threads must be >= 0, got {self.threads}")

    @property
    def worker_count(self) -> int:
        import os
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)


@dataclass(frozen=True)
class Verdict:
    rule: str
    passed: bool
    detail: str


@dataclass
class ExperimentReport:
    """Self-contained record of one experiment run.

    The CSV body (column header, data rows, #verdict lines) is a pure
    function of the configuration; only the #wallclock and #threads
    header lines vary between reruns.
    """

    name: str
    config: dict
    columns: list
    rows: list
    verdicts: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    wallclock: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict(self, rule: str) -> Verdict:
        for v in self.verdicts:
            if v.rule == rule:
                return v
        raise KeyError(rule)

    def to_csv(self) -> str:
        lines = [f"#experiment={self.name}", f"#version=sfp-{__version__}",
                 "#seedrule=keyed-hash(seed, experiment point, replicate, slot)"]
        for key in sorted(self.config):
            if key == "threads":
                continue
            lines.append(f"#config {key}={_text(self.config[key])}")
        lines.append(f"#threads={self.config.get('threads', 1)}")
        for flag in self.flags:
            lines.append(f"#flag {flag}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_text(v) for v in row))
        for v in self.verdicts:
            lines.append(f"#verdict {v.rule} {'pass' if v.passed else 'FAIL'} {v.detail}")
        lines.append(f"#wallclock={self.wallclock:.3f}")
        return "\n".join(lines) + "\n"


def _text(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, ModelKind):
        return v.value
    return str(v)


def _config_echo(cfg: ExperimentConfig, **knobs) -> dict:
    out = {"seed": cfg.seed, "replicates": cfg.replicates, "threads": cfg.threads,
           "d": cfg.params.d, "alpha": cfg.params.alpha, "lambda": cfg.params.lambda_,
           "tau": cfg.params.tau, "model": cfg.params.kind}
    if cfg.spec is not None:
        out["L"] = cfg.spec.side
        if any(c != 0 for c in cfg.spec.origin):
            out["origin"] = ",".join(str(c) for c in cfg.spec.origin)
    out.update(knobs)
    return out


def _chunk_ranges(n: int, size: int = _CHUNK):
    return [(a, min(a + size, n)) for a in range(0, n, size)]

def _run_chunks(fn, ranges, workers: int):
    """Map fn over replicate ranges; list order (hence any reduction) is fixed."""
    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, ranges))
    return [fn(rg) for rg in ranges]


def _combine_mean_se(sums, n: int) -> EstimateWithCI:
    s1 = sum(s[0] for s in sums)
    s2 = sum(s[1] for s in sums)
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    return EstimateWithCI(mean=mean, stderr=math.sqrt(var / n), n=n)


# ---------------------------------------------------------------------------
# Generic estimation utilities
# ---------------------------------------------------------------------------

def hill_estimator(samples, k: int) -> EstimateWithCI:
    """Hill tail-index estimate from the top k order statistics.

    Inverse of the mean log-excess over the (k+1)-th largest sample;
    stderr is estimate / sqrt(k).  Scale-invariant.  Raises KTooLarge
    for k >= n and ValueError when the log-excesses vanish (constant
    samples).
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if not 1 <= k < n:
        raise KTooLarge(f"need 1 <= k < n, got k={k}, n={n}")
    if x[0] <= 0:
        raise ValueError("samples must be positive")
    top = x[n - k:]
    threshold = x[n - k - 1]
    mean_excess = float(np.mean(np.log(top / threshold)))
    if mean_excess <= 0:
        raise ValueError("zero log-excess: samples constant over the tail")
    est = 1.0 / mean_excess
    return EstimateWithCI(mean=est, stderr=est / math.sqrt(k), n=k)


def loglog_slope(points) -> EstimateWithCI:
    """Least-squares slope of log y against log x with its standard error."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        arr = arr.reshape(-1, 2)
    n = len(arr)
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    if np.any(arr <= 0):
        raise NonPositivePoint("log-log fit needs strictly positive coordinates")
    lx = np.log(arr[:, 0])
    ly = np.log(arr[:, 1])
    dx = lx - lx.mean()
    sxx = float(np.sum(dx * dx))
    if sxx == 0:
        raise TooFewPoints("all x coincide")
    slope = float(np.sum(dx * ly) / sxx)
    resid = ly - ly.mean() - slope * dx
    s2 = float(np.sum(resid * resid)) / (n - 2)
    return EstimateWithCI(mean=slope, stderr=math.sqrt(s2 / sxx), n=n)


def _pareto_draws(seed: int, tau: float, point: int, lo: int, hi: int,
                  slot0: int, nslots: int):
    """Keyed Pareto weights of shape (hi - lo, nslots): replicates by slots."""
    reps = np.arange(lo, hi, dtype=np.uint64)[:, None]
    slots = np.arange(slot0, slot0 + nslots, dtype=np.uint64)[None, :]
    u = experiment_uniforms(seed, np.uint64(point), reps, slots)
    return pareto_from_uniform(u, tau)


# ---------------------------------------------------------------------------
# Adjacent edges: sandwich and decay slope
# ---------------------------------------------------------------------------

def _adjacent_estimate(cfg: ExperimentConfig, point: int, r_xy: float, r_yz: float,
                       replicates: int) -> EstimateWithCI:
    lam, alpha, tau = cfg.params.lambda_, cfg.params.alpha, cfg.params.tau
    cxy = lam * r_xy ** -alpha
    cyz = lam * r_yz ** -alpha
    lrp = cfg.params.kind is ModelKind.LRP

    def chunk(rg):
        lo, hi = rg
        if lrp:
            p1 = -np.expm1(-cxy)
            p2 = -np.expm1(-cyz)
            prod = np.full(hi - lo, p1 * p2)
        else:
            # One slot per call keeps each hashed array small enough to stay in cache.
            wx, wy, wz = (_pareto_draws(cfg.seed, tau, point, lo, hi, slot, 1)[:, 0]
                          for slot in range(3))
            # expm1(-t) = -(1 - e^-t), so the product of the two is p1 * p2.
            prod = np.expm1(-cxy * wx * wy) * np.expm1(-cyz * wy * wz)
        return float(prod.sum()), float((prod * prod).sum())

    sums = _run_chunks(chunk, _chunk_ranges(replicates), cfg.worker_count)
    return _combine_mean_se(sums, replicates)


def run_adjacent_mc(cfg: ExperimentConfig, r_xy: float, r_yz: float,
                    sweep_ryz=(8.0, 16.0, 32.0, 64.0), sweep_rxy: float = 256.0,
                    slope_tol: float = 0.3) -> ExperimentReport:
    """Estimate P(x ~ y ~ z) for a collinear triple and its decay in r_yz.

    Verdicts: the point estimate lies in the closed-form sandwich
    [middle/4, mu^2 middle] widened by 3 standard errors, and the fitted
    slope of log P against log r_yz at fixed r_xy is within `slope_tol`
    of -alpha (tau - 2).
    """
    t0 = time.monotonic()
    if not (2.0 < cfg.params.tau < 3.0):
        raise TauOutOfRange(f"adjacent-edge experiment needs tau in (2,3), got {cfg.params.tau}")
    exact = adjacent_expectation_exact(cfg.params, r_xy, r_yz)
    est = _adjacent_estimate(cfg, 0, r_xy, r_yz, cfg.replicates)
    lo_bound = exact.lower - 3.0 * est.stderr
    hi_bound = exact.upper + 3.0 * est.stderr
    verdicts = [Verdict(
        "sandwich-3se", lo_bound <= est.mean <= hi_bound,
        f"estimate {est.mean!r} in [{lo_bound!r}, {hi_bound!r}] "
        f"(middle {exact.middle_expectation!r}, se {est.stderr!r})")]

    rows = [("point", r_xy, r_yz, est.mean, est.stderr, est.n)]
    pts = []
    for i, r in enumerate(sweep_ryz):
        e = _adjacent_estimate(cfg, 1 + i, sweep_rxy, float(r), cfg.replicates)
        rows.append(("sweep", sweep_rxy, float(r), e.mean, e.stderr, e.n))
        pts.append((float(r), e.mean))
    if len(pts) >= 3:
        target = -cfg.params.alpha * (cfg.params.tau - 2.0)
        slope = loglog_slope(pts)
        verdicts.append(Verdict(
            "decay-slope", abs(slope.mean - target) <= slope_tol,
            f"slope {slope.mean!r} (se {slope.stderr!r}) vs target {target!r} +- {slope_tol}"))

    return ExperimentReport(
        name="adjacent",
        config=_config_echo(cfg, r_xy=r_xy, r_yz=r_yz, sweep_rxy=sweep_rxy,
                            sweep_ryz=",".join(repr(float(r)) for r in sweep_ryz),
                            slope_tol=slope_tol),
        columns=["kind", "r_xy", "r_yz", "estimate", "stderr", "n"],
        rows=rows, verdicts=verdicts, wallclock=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# FKG: cutting a path cannot raise its probability
# ---------------------------------------------------------------------------

def run_fkg_check(cfg: ExperimentConfig, path, equality_tol_rel: float = 1e-12) -> ExperimentReport:
    """Compare P(path open) with P(head open) P(tail open) at every cut vertex.

    The cut vertex belongs to both subpaths, so head and tail edges
    partition the path's edges.  For SFP the product can only fall short
    of the joint probability (shared weights induce positive
    correlation); for LRP the edges are independent and the two sides
    agree.  Verdict per cut: estimate(path) >= product - 3 * propagated
    stderr (- a relative epsilon guarding float rounding, which is the
    only slack left in the LRP case where the estimator is exact).
    """
    t0 = time.monotonic()
    pts = [np.atleast_1d(np.asarray(p, dtype=np.int64)) for p in path]
    n_edges = len(pts) - 1
    if not 2 <= n_edges <= 6:
        raise PathTooLong(f"path must have 2..6 edges, got {n_edges}")
    lam, alpha, tau = cfg.params.lambda_, cfg.params.alpha, cfg.params.tau
    lrp = cfg.params.kind is ModelKind.LRP
    scales = []
    for a, b in zip(pts[:-1], pts[1:]):
        r = math.sqrt(float(np.sum((a - b) ** 2)))
        if r == 0:
            raise ValueError("path repeats a vertex")
        scales.append(lam * r ** -alpha)

    nrep = cfg.replicates

    def chunk(rg):
        lo, hi = rg
        if lrp:
            w = np.ones((hi - lo, len(pts)))
        else:
            w = _pareto_draws(cfg.seed, tau, 0, lo, hi, 0, len(pts))
        probs = [-np.expm1(-scales[i] * w[:, i] * w[:, i + 1]) for i in range(n_edges)]
        out = []
        for cut in range(1, len(pts) - 1):
            head = probs[0].copy()
            for i in range(1, cut):
                head *= probs[i]
            tail = probs[cut].copy()
            for i in range(cut + 1, n_edges):
                tail *= probs[i]
            full = head * tail
            out.append((float(full.sum()), float((full * full).sum()),
                        float(head.sum()), float((head * head).sum()),
                        float(tail.sum()), float((tail * tail).sum())))
        return out

    sums = _run_chunks(chunk, _chunk_ranges(nrep), cfg.worker_count)
    rows, verdicts = [], []
    for ci, cut in enumerate(range(1, len(pts) - 1)):
        per = [s[ci] for s in sums]
        full = _combine_mean_se([(p[0], p[1]) for p in per], nrep)
        head = _combine_mean_se([(p[2], p[3]) for p in per], nrep)
        tail = _combine_mean_se([(p[4], p[5]) for p in per], nrep)
        prod = head.mean * tail.mean
        se = math.sqrt(full.stderr ** 2 + (tail.mean * head.stderr) ** 2
                       + (head.mean * tail.stderr) ** 2)
        guard = equality_tol_rel * (abs(full.mean) + abs(prod))
        rows.append((cut, full.mean, full.stderr, head.mean, tail.mean, prod, se))
        if lrp:
            ok = abs(full.mean - prod) <= 3.0 * se + guard
            verdicts.append(Verdict(
                f"factorization-cut-{cut}", ok,
                f"|{full.mean!r} - {prod!r}| <= 3se+eps, se {se!r}"))
        else:
            ok = full.mean >= prod - 3.0 * se - guard
            verdicts.append(Verdict(
                f"fkg-cut-{cut}", ok,
                f"P(path) {full.mean!r} >= product {prod!r} - 3se, se {se!r}"))

    return ExperimentReport(
        name="fkg",
        config=_config_echo(cfg, path=";".join(",".join(str(c) for c in p) for p in pts)),
        columns=["cut", "p_path", "se_path", "p_head", "p_tail", "product", "se_prop"],
        rows=rows, verdicts=verdicts, wallclock=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# Bridging through a midpoint cube
# ---------------------------------------------------------------------------

def _bridge_cube(d: int, n: int, beta: float) -> np.ndarray:
    """Lattice points of the cube mid + [-N^beta, N^beta]^d, mid = (N/2) e1."""
    half = float(n) ** beta
    mid = np.zeros(d)
    mid[0] = n / 2.0
    axes = [np.arange(math.ceil(mid[j] - half), math.floor(mid[j] + half) + 1,
                      dtype=np.int64) for j in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def run_bridge_experiment(cfg: ExperimentConfig, beta: float,
                          n_list=(64, 128, 256, 512, 1024),
                          slope_tol: float = 0.3) -> ExperimentReport:
    """Estimate P(x ~ A ~ y) for A the midpoint cube of half-width N^beta.

    Per replicate, fresh weights for x, y and every cube vertex; the
    success probability 1 - prod_z (1 - p_xz p_zy) is exact given the
    weights.  Verdicts: fitted slope of log P against log N within
    `slope_tol` of -(2 alpha1 - d beta), and positive mass at every N.
    """
    t0 = time.monotonic()
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"beta must lie in (0,1), got {beta}")
    if not (2.0 < cfg.params.tau < 3.0):
        raise TauOutOfRange(f"bridge experiment needs tau in (2,3), got {cfg.params.tau}")
    d, lam, alpha, tau = cfg.params.d, cfg.params.lambda_, cfg.params.alpha, cfg.params.tau

    rows, pts, flags = [], [], []
    for ni, n in enumerate(n_list):
        cube = _bridge_cube(d, int(n), beta)
        x = np.zeros(d, dtype=np.int64)
        y = np.zeros(d, dtype=np.int64)
        y[0] = int(n)
        if len(cube) == 0 or np.any(np.all(cube == x, axis=1)) or np.any(np.all(cube == y, axis=1)):
            flags.append(f"GeometryDegenerate N={n}: cube touches an endpoint")
            continue
        r_xz = np.sqrt(np.sum((cube - x) ** 2, axis=1).astype(np.float64))
        r_zy = np.sqrt(np.sum((cube - y) ** 2, axis=1).astype(np.float64))
        cxz = lam * r_xz ** -alpha
        czy = lam * r_zy ** -alpha
        nz = len(cube)

        def chunk(rg, cxz=cxz, czy=czy, nz=nz, ni=ni):
            lo, hi = rg
            wx = _pareto_draws(cfg.seed, tau, ni, lo, hi, 0, 1)
            wy = _pareto_draws(cfg.seed, tau, ni, lo, hi, 1, 1)
            wz = _pareto_draws(cfg.seed, tau, ni, lo, hi, 2, nz)
            q = np.expm1(-cxz[None, :] * wx * wz) * np.expm1(-czy[None, :] * wz * wy)
            # q = p_xz * p_zy; success = 1 - prod_z (1 - q).  A saturated
            # q == 1 gives log1p(-q) = -inf and a success probability of
            # exactly 1, which is the intended value.
            with np.errstate(divide="ignore"):
                np.log1p(-q, out=q)
            s = -np.expm1(q.sum(axis=1))
            return float(s.sum()), float((s * s).sum())

        sums = _run_chunks(chunk, _chunk_ranges(cfg.replicates, 1 << 14), cfg.worker_count)
        est = _combine_mean_se(sums, cfg.replicates)
        rows.append((int(n), nz, est.mean, est.stderr, est.n))
        pts.append((float(n), est.mean))

    verdicts = []
    target = -bridging_exponent(cfg.params, beta)
    if len(pts) >= 3:
        slope = loglog_slope(pts)
        verdicts.append(Verdict(
            "bridge-slope", abs(slope.mean - target) <= slope_tol,
            f"slope {slope.mean!r} (se {slope.stderr!r}) vs target {target!r} +- {slope_tol}"))
    verdicts.append(Verdict(
        "positive-mass", all(row[2] > 0 for row in rows),
        "every estimate strictly positive"))

    return ExperimentReport(
        name="bridge",
        config=_config_echo(cfg, beta=beta,
                            n_list=",".join(str(int(n)) for n in n_list),
                            slope_tol=slope_tol),
        columns=["N", "cube_size", "estimate", "stderr", "n"],
        rows=rows, verdicts=verdicts, flags=flags, wallclock=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# Coupling domination
# ---------------------------------------------------------------------------

def run_coupling_check(cfg: ExperimentConfig, lambda_lrp: float | None = None,
                       cutoff: float | None = None) -> ExperimentReport:
    """Count violations of LRP-edges-inside-SFP over coupled replicates.

    With equal intensities the verdict demands exactly zero violations.
    With a mismatched LRP intensity (lambda_lrp) the inclusion argument
    does not apply: violations are only counted, no verdict.
    """
    t0 = time.monotonic()
    if cfg.spec is None:
        raise ValueError("coupling check needs a box spec")
    sfp_params = replace(cfg.params, kind=ModelKind.SFP)
    lrp_params = replace(cfg.params, kind=ModelKind.LRP,
                         lambda_=cfg.params.lambda_ if lambda_lrp is None else lambda_lrp)

    def one(i: int):
        seed_i = derive_seed(cfg.seed, i)
        sfp = generate_box(sfp_params, seed_i, cfg.spec, cutoff)
        lrp = generate_box(lrp_params, seed_i, cfg.spec, cutoff)
        nv = cfg.spec.vertex_count
        sfp_keys = sfp.edges[:, 0] * nv + sfp.edges[:, 1]
        lrp_keys = lrp.edges[:, 0] * nv + lrp.edges[:, 1]
        missing = int(np.count_nonzero(~np.isin(lrp_keys, sfp_keys)))
        return missing, len(lrp_keys), len(sfp_keys)

    def chunk(rg):
        lo, hi = rg
        return [one(i) for i in range(lo, hi)]

    per_seed = []
    for part in _run_chunks(chunk, _chunk_ranges(cfg.replicates, 8), cfg.worker_count):
        per_seed.extend(part)

    total_viol = sum(p[0] for p in per_seed)
    rows = [(i, p[0], p[1], p[2]) for i, p in enumerate(per_seed)]
    verdicts = []
    if lambda_lrp is None:
        verdicts.append(Verdict("coupling-domination", total_viol == 0,
                                f"{total_viol} violations over {cfg.replicates} seeds"))
    return ExperimentReport(
        name="coupling",
        config=_config_echo(cfg, lambda_lrp=lambda_lrp, cutoff=cutoff),
        columns=["replicate", "violations", "lrp_edges", "sfp_edges"],
        rows=rows, verdicts=verdicts, wallclock=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# Degree tail
# ---------------------------------------------------------------------------

def run_degree_experiment(cfg: ExperimentConfig, margin: int = 0,
                          hill_k: int | None = None, cutoff: float | None = None,
                          tol: float = 0.3) -> ExperimentReport:
    """Estimate the degree-tail exponent and compare it to gamma.

    Simulates `replicates` boxes (derived seeds), pools interior degrees
    (boundary margin excluded), and estimates the tail index two ways:
    Hill on the top-k order statistics and a log-log regression of the
    empirical survival function over the same tail.  The verdict checks
    the Hill estimate against gamma = alpha (tau - 1) / d.
    """
    t0 = time.monotonic()
    if cfg.spec is None:
        raise ValueError("degree experiment needs a box spec")
    if not cfg.params.alpha > cfg.params.d:
        raise ValueError("degree tail needs alpha > d (locally finite degrees)")

    def one(i: int):
        r = generate_box(cfg.params, derive_seed(cfg.seed, i), cfg.spec, cutoff)
        return degree_sequence(r, margin), r.trunc_bias

    parts = _run_chunks(lambda rg: [one(i) for i in range(*rg)],
                        _chunk_ranges(cfg.replicates, 1), cfg.worker_count)
    degs, biases = [], []
    for part in parts:
        for dg, bias in part:
            degs.append(dg)
            biases.append(bias)
    degrees = np.concatenate(degs)
    n = len(degrees)
    gamma = derived_exponents(cfg.params).gamma
    config = _config_echo(cfg, margin=margin, cutoff=cutoff, gamma=gamma, tol=tol)
    if biases and biases[0] is not None:
        config["trunc_bias_mean"] = float(np.mean([b for b in biases if b is not None]))

    # Isolated vertices carry no tail information; the estimators see only
    # the positive degrees.
    positive = degrees[degrees > 0].astype(np.float64)
    n_pos = len(positive)
    k = hill_k if hill_k is not None else max(10, n // 50)
    if n < 1000 or n_pos < 2 * k:
        return ExperimentReport(
            name="degrees", config=config,
            columns=["estimator", "estimate", "stderr", "k", "threshold"],
            rows=[], verdicts=[], flags=[f"InsufficientTail n={n} positive={n_pos}"],
            wallclock=time.monotonic() - t0)

    hill = hill_estimator(positive, k)
    threshold = float(np.sort(positive)[n_pos - k - 1])

    # Survival regression over the same tail range.
    tail_vals = np.unique(positive[positive >= max(threshold, 1.0)])
    surv = [(float(s), float(np.count_nonzero(positive >= s)) / n_pos)
            for s in tail_vals]
    reg = loglog_slope(surv) if len(surv) >= 3 else None

    rows = [("hill", hill.mean, hill.stderr, k, threshold)]
    if reg is not None:
        rows.append(("survival-regression", -reg.mean, reg.stderr, len(surv), threshold))
    verdicts = [Verdict("hill-vs-gamma", abs(hill.mean - gamma) <= tol,
                        f"hill {hill.mean!r} vs gamma {gamma!r} +- {tol}")]
    return ExperimentReport(
        name="degrees", config=config,
        columns=["estimator", "estimate", "stderr", "k", "threshold"],
        rows=rows, verdicts=verdicts, wallclock=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# Distance scaling
# ---------------------------------------------------------------------------

def run_distance_experiment(cfg: ExperimentConfig, n_list=None, n_sources: int = 32,
                            cutoff: float | None = None, compare_lrp: bool = False,
                            tiny_cluster_fraction: float = 0.05) -> ExperimentReport:
    """Graph distance against Euclidean distance at dyadic separations.

    From each of `n_sources` sources in the largest cluster, one BFS
    yields D(s, s + N e1) for every N at once; pairs with the target
    outside the largest cluster are excluded and counted.  Reports the
    median D per N, verdicts that the medians are nondecreasing and that
    median D / N is decreasing, and (informational) the fitted exponent
    of log D against log log N with the loose band [Delta1 - 1,
    Delta2 + 1].  With compare_lrp=True, a coupled LRP realization is
    measured on the same pairs and the median domination at every N is
    an exact verdict.
    """
    t0 = time.monotonic()
    if cfg.spec is None:
        raise ValueError("distance experiment needs a box spec")
    spec = cfg.spec
    if n_list is None:
        n_list = [2 ** k for k in range(4, 11)]
    n_list = sorted(int(n) for n in n_list)
    n_max = n_list[-1]
    if n_max >= spec.side:
        raise ValueError(f"largest separation {n_max} does not fit in the box")

    if compare_lrp:
        base = replace(cfg.params, kind=ModelKind.SFP)
        sfp, lrp = coupled_pair(base, cfg.seed, spec, cutoff=cutoff)
        reals = [("sfp", sfp), ("lrp", lrp)]
    else:
        reals = [(cfg.params.kind.value, generate_box(cfg.params, cfg.seed, spec, cutoff))]

    # Pair eligibility is decided on the most restrictive realization
    # (the coupled LRP if present: its largest cluster is contained in a
    # single SFP cluster, so domination is checked pairwise).
    ref = reals[-1][1]
    cl = clusters(ref)
    frac = cl.sizes[cl.largest] / spec.vertex_count
    config = _config_echo(cfg, n_list=",".join(str(n) for n in n_list),
                          n_sources=n_sources, cutoff=cutoff, compare_lrp=compare_lrp)
    ex = derived_exponents(cfg.params)
    if frac < tiny_cluster_fraction:
        return ExperimentReport(
            name="distances", config=config,
            columns=["model", "N", "median_hops", "samples", "excluded"],
            rows=[], verdicts=[],
            flags=[f"LargestClusterTiny fraction={frac!r}"],
            wallclock=time.monotonic() - t0)

    mask = cl.largest_mask()
    stride = spec.side ** (spec.d - 1)  # flat jump of +1 along the first axis
    max_source_row = spec.side - 1 - n_max
    candidates = np.nonzero(mask)[0]
    candidates = candidates[(candidates // stride) <= max_source_row]
    if len(candidates) == 0:
        raise NoPairsInLargestCluster(
            "no largest-cluster vertex leaves room for the largest separation")
    step = max(1, len(candidates) // n_sources)
    sources = candidates[::step][:n_sources]

    medians = {}
    rows = []
    excluded = {name: 0 for name, _ in reals}
    samples = {name: {n: [] for n in n_list} for name, _ in reals}
    for name, real in reals:
        for s in sources:
            dist = distances_from(real, int(s))
            for n in n_list:
                tgt = int(s) + n * stride
                if not mask[tgt]:
                    excluded[name] += 1
                    continue
                hops = int(dist[tgt])
                if hops < 0:
                    excluded[name] += 1
                    continue
                samples[name][n].append(hops)
        medians[name] = {n: float(np.median(v)) if v else math.nan
                         for n, v in samples[name].items()}
        for n in n_list:
            rows.append((name, n, medians[name][n], len(samples[name][n]), excluded[name]))

    primary = reals[0][0]
    med = [medians[primary][n] for n in n_list]
    verdicts = [
        Verdict("median-nondecreasing",
                all(b >= a for a, b in zip(med[:-1], med[1:])),
                f"medians {med}"),
        Verdict("hops-per-distance-decreasing",
                all(b / nb < a / na for (a, na), (b, nb)
                    in zip(zip(med[:-1], n_list[:-1]), zip(med[1:], n_list[1:]))),
                f"D/N {[m / n for m, n in zip(med, n_list)]}"),
    ]
    if compare_lrp:
        dom = all(medians["sfp"][n] <= medians["lrp"][n] for n in n_list)
        verdicts.append(Verdict("coupled-median-domination", dom,
                                f"sfp {[medians['sfp'][n] for n in n_list]} vs "
                                f"lrp {[medians['lrp'][n] for n in n_list]}"))

    flags = []
    try:
        fit = loglog_slope([(math.log(n), m) for n, m in zip(n_list, med) if m > 0])
        flags.append(f"polylog-exponent-estimate {fit.mean!r} se {fit.stderr!r} "
                     f"band [{ex.delta1 - 1.0!r}, {ex.delta2 + 1.0!r}] informational")
    except (TooFewPoints, NonPositivePoint):
        flags.append("polylog-exponent-estimate unavailable")

    return ExperimentReport(
        name="distances", config=config,
        columns=["model", "N", "median_hops", "samples", "excluded"],
        rows=rows, verdicts=verdicts, flags=flags, wallclock=time.monotonic() - t0)
