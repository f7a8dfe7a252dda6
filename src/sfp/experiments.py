"""Monte-Carlo experiments connecting the simulator to the limit formulas.

Every experiment consumes an ExperimentConfig and emits an
ExperimentReport: point estimates with standard errors, named pass/fail
verdicts with their tolerances, and a config echo sufficient to
reproduce the run.  All randomness is keyed by
(seed, experiment point, replicate index, slot), so reports are
bit-identical for any number of workers.  Threads split replicate
ranges into fixed-size chunks whose partial sums are combined in a fixed
order.  A box experiment runs fewer boxes than workers one after
another, each box's pairs split over all the workers; more boxes go in
contiguous groups, one box at a time per worker, each group in a forked
process (`_map_boxes`).  A box's edges do not depend on either split.

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
from .graph import (BoxSpec, _check_margin, _map_forked, clusters, coupled_pair,
                    degree_sequence, distances_from, generate_box, usable_cores)
from .moments import adjacent_expectation_exact, bridging_exponent
from .params import MAX_WORKERS, ModelKind, ModelParams, ParameterError, derived_exponents
from .randomness import (TAG_EXPERIMENT, absorb, derive_seed, keyed_words,
                         unit_from_word_inplace)

_CHUNK = 1 << 16
# Elements per tile buffer.  A chunk is computed in row tiles whose buffers
# are allocated once per chunk and written in place, so the working set
# stays near the L2 cache.  A path chunk (2^16 rows of one weight per
# buffer) is a single tile; a bridge chunk is split.  Much
# smaller tiles lose to per-call numpy overhead and GIL handoffs.
_TILE = 1 << 16
# Verdict constants: a fitted slope's or the Hill estimate's distance
# from its target, the fkg verdicts' relative slack for float rounding,
# the largest-cluster share below which distances are not measured, and
# the r_xy of the adjacent decay sweep.
_SLOPE_TOL = 0.3
_HILL_TOL = 0.3
_EQUALITY_TOL_REL = 1e-12
_TINY_CLUSTER_FRACTION = 0.05
_SWEEP_RXY = 256.0
# Most lattice points a bridge cube may hold: a d = 3 cube of 101^3 points
# (N = 2500, beta = 0.5) raised peak memory by ~90 MB.
_BRIDGE_POINTS = 1 << 20


class FitUndefined(ValueError):
    """A fit has no value: a log-log fit with too few points, a point <= 0 or all
    x equal, or a Hill estimate over a tail of equal samples."""


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
            raise ParameterError(f"replicates must be >= 1, got {self.replicates}")
        if not 0 <= self.threads <= MAX_WORKERS:
            raise ParameterError(f"threads must be in [0, {MAX_WORKERS}], got {self.threads}")

    @property
    def worker_count(self) -> int:
        """`threads`, or for 0 the usable cores, at most MAX_WORKERS."""
        return self.threads if self.threads > 0 else min(usable_cores(), MAX_WORKERS)


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


def _require_sfp(cfg: ExperimentConfig, command: str):
    if cfg.params.kind is not ModelKind.SFP:
        raise ParameterError(
            f"{command} supports only --model sfp, got {cfg.params.kind.value}")


def _chunk_ranges(n: int, size: int = _CHUNK):
    return [(a, min(a + size, n)) for a in range(0, n, size)]

def _run_chunks(fn, ranges, workers: int):
    """Map fn over replicate ranges on threads; list order (hence any reduction) is fixed."""
    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, ranges))
    return [fn(rg) for rg in ranges]


def _map_boxes(one, cfg: ExperimentConfig) -> list:
    """[one(i, workers) for each box i], in box order.

    Fewer boxes than workers run here one after another, each on all the
    workers.  Otherwise each worker takes a contiguous group of boxes, one
    box at a time (`graph._map_forked`).  Only the calling thread forks,
    and no child forks again.
    """
    boxes, workers = cfg.replicates, cfg.worker_count
    if boxes < workers:
        return [one(i, workers) for i in range(boxes)]
    found = _map_forked(lambda g: [one(i, 1) for i in g], range(boxes), [1] * boxes, workers)
    return [r for group in found for r in group]


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
    stderr is estimate / sqrt(k).  Scale-invariant.  Raises ValueError
    unless 1 <= k < n and for a sample <= 0; raises FitUndefined when the
    log-excesses vanish (constant samples).
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if x[0] <= 0:
        raise ValueError("samples must be positive")
    top = x[n - k:]
    threshold = x[n - k - 1]
    mean_excess = float(np.mean(np.log(top / threshold)))
    if mean_excess <= 0:
        raise FitUndefined("zero log-excess: samples constant over the tail")
    est = 1.0 / mean_excess
    return EstimateWithCI(mean=est, stderr=est / math.sqrt(k), n=k)


def loglog_slope(points) -> EstimateWithCI:
    """Least-squares slope of log y against log x with its standard error."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        arr = arr.reshape(-1, 2)
    n = len(arr)
    if n < 3:
        raise FitUndefined(f"need at least 3 points, got {n}")
    if np.any(arr <= 0):
        raise FitUndefined("log-log fit needs strictly positive coordinates")
    lx = np.log(arr[:, 0])
    ly = np.log(arr[:, 1])
    dx = lx - lx.mean()
    sxx = float(np.sum(dx * dx))
    if sxx == 0:
        raise FitUndefined("all x coincide")
    slope = float(np.sum(dx * ly) / sxx)
    resid = ly - ly.mean() - slope * dx
    s2 = float(np.sum(resid * resid)) / (n - 2)
    return EstimateWithCI(mean=slope, stderr=math.sqrt(s2 / sxx), n=n)


def _slope_verdict(rule: str, pts, target: float, points: str, verdicts: list, flags: list):
    """Verdict `rule`, the log-log slope of `pts` within _SLOPE_TOL of `target`, or a flag."""
    if len(pts) < 3:
        flags.append(f"{rule} skipped: {len(pts)} {points}, the fit needs 3")
        return
    try:
        slope = loglog_slope(pts)
    except FitUndefined as exc:  # an estimate of 0, or x equal as floats
        flags.append(f"{rule} skipped: {exc}")
        return
    verdicts.append(Verdict(
        rule, abs(slope.mean - target) <= _SLOPE_TOL,
        f"slope {slope.mean!r} (se {slope.stderr!r}) vs target {target!r} +- {_SLOPE_TOL}"))


def _replicate_states(seed: int, point: int, lo: int, hi: int) -> np.ndarray:
    """Hash states of the keys (point, replicate) for replicates lo..hi-1."""
    return keyed_words(seed, TAG_EXPERIMENT, np.uint64(point),
                       np.arange(lo, hi, dtype=np.uint64))


def _pareto_into(states, slots, tau: float, out, tmp) -> np.ndarray:
    """Keyed Pareto weights of `slots` for the replicates of `states`.

    Absorbs the slot indices into the uint64 buffer `out` (of the
    broadcast shape of states and slots; `tmp` is scratch of that shape)
    and returns its float64 view, holding bit for bit
    pareto_from_uniform(experiment_uniforms(seed, point, reps, slots), tau).
    """
    u = unit_from_word_inplace(absorb(states, slots, out, tmp), tmp)
    return np.power(u, -1.0 / (tau - 1.0), out=u)


def _edge_term(c, wa, wb, out) -> np.ndarray:
    """expm1(-c wa wb), evaluated as ((-c) wa) wb, into out: minus P(edge open)."""
    np.multiply(wa, -c, out=out)
    np.multiply(out, wb, out=out)
    return np.expm1(out, out=out)


def _path_estimates(cfg: ExperimentConfig, point: int, lengths) -> list:
    """(path, head, tail) estimates of P(all edges open) at every cut of a path.

    Edge i, of length lengths[i] between the vertices keyed as slots i and
    i + 1 of `point`, opens with probability 1 - exp(-t) by the rule of
    `graph._open_pairs`: t = lambda W_i W_{i+1} r^-alpha, with unit weights
    for LRP and t = inf (open surely) for a unit edge of SFP_NN.  The cut
    at vertex k leaves the head of edges 0..k-1 and the tail of edges k..;
    products are left folds.
    """
    n_edges = len(lengths)
    lrp = cfg.params.kind is ModelKind.LRP
    forced = cfg.params.kind is ModelKind.SFP_NN
    scales = [math.inf if forced and r == 1.0 else cfg.params.lambda_ * r ** -cfg.params.alpha
              for r in lengths]

    def chunk(rg):
        lo, hi = rg
        # A chunk is one tile of n_edges + 2 rows, each overwritten after its
        # last read: edge i's probability replaces its first endpoint's weight,
        # the head grows in place of edge 0's, the last two rows take the tail
        # and the squares.
        words = np.empty((n_edges + 2, hi - lo), np.uint64)
        if lrp:
            w = words[:-1].view(np.float64)
            w.fill(1.0)
        else:
            states = _replicate_states(cfg.seed, point, lo, hi)
            w = [_pareto_into(states, np.uint64(slot), cfg.params.tau, words[slot], words[-1])
                 for slot in range(n_edges + 1)]
        probs = []
        for i in range(n_edges):
            p = _edge_term(scales[i], w[i], w[i + 1], w[i])
            probs.append(np.negative(p, out=p))
        head = probs[0]
        tail_row, sq = words[n_edges:].view(np.float64)

        def sums(x):
            return float(x.sum()), float(np.multiply(x, x, out=sq).sum())

        out = []
        for cut in range(1, n_edges):
            if cut > 1:
                head *= probs[cut - 1]
            tail = probs[cut]
            for p in probs[cut + 1:]:
                tail = np.multiply(tail, p, out=tail_row)
            head_sums, tail_sums = sums(head), sums(tail)
            # The tail is spent: its row is refilled at the next cut, and a
            # one-edge tail is the last edge at its last cut.
            out.append((sums(np.multiply(head, tail, out=tail)), head_sums, tail_sums))
        return out

    sums = _run_chunks(chunk, _chunk_ranges(cfg.replicates), cfg.worker_count)
    return [tuple(_combine_mean_se([s[ci][j] for s in sums], cfg.replicates) for j in range(3))
            for ci in range(n_edges - 1)]


# ---------------------------------------------------------------------------
# Adjacent edges: sandwich and decay slope
# ---------------------------------------------------------------------------

def run_adjacent_mc(cfg: ExperimentConfig, r_xy: float, r_yz: float,
                    sweep_ryz=(8.0, 16.0, 32.0, 64.0)) -> ExperimentReport:
    """Estimate P(x ~ y ~ z) for a collinear triple and its decay in r_yz.

    P(x ~ y ~ z) is the two-edge case of `_path_estimates`.  Verdicts:
    the point estimate lies in the closed-form sandwich [middle/4,
    mu^2 middle] widened by 3 standard errors, and the fitted slope of
    log P against log r_yz at r_xy = _SWEEP_RXY is within _SLOPE_TOL of
    -alpha (tau - 2).  The sweep distances must be positive and distinct;
    with fewer than three of them the slope verdict is skipped, and a
    flag says so.  The sandwich and the target are SFP's, so other model
    kinds raise ParameterError.
    """
    t0 = time.monotonic()
    _require_sfp(cfg, "adjacent")
    exact = adjacent_expectation_exact(cfg.params, r_xy, r_yz)
    if not all(r > 0 for r in sweep_ryz):
        raise ParameterError(f"sweep distances must be positive, got {sweep_ryz}")
    if len(set(sweep_ryz)) < len(sweep_ryz):
        raise ParameterError(f"sweep distances must not repeat, got {list(sweep_ryz)}")
    est = _path_estimates(cfg, 0, [r_xy, r_yz])[0][0]
    lo_bound = exact.lower - 3.0 * est.stderr
    hi_bound = exact.upper + 3.0 * est.stderr
    verdicts = [Verdict(
        "sandwich-3se", lo_bound <= est.mean <= hi_bound,
        f"estimate {est.mean!r} in [{lo_bound!r}, {hi_bound!r}] "
        f"(middle {exact.middle_expectation!r}, se {est.stderr!r})")]

    rows = [("point", r_xy, r_yz, est.mean, est.stderr, est.n)]
    pts, flags = [], []
    for i, r in enumerate(sweep_ryz):
        e = _path_estimates(cfg, 1 + i, [_SWEEP_RXY, float(r)])[0][0]
        rows.append(("sweep", _SWEEP_RXY, float(r), e.mean, e.stderr, e.n))
        pts.append((float(r), e.mean))
    _slope_verdict("decay-slope", pts, -cfg.params.alpha * (cfg.params.tau - 2.0),
                   "sweep points", verdicts, flags)

    return ExperimentReport(
        name="adjacent",
        config=_config_echo(cfg, r_xy=r_xy, r_yz=r_yz, sweep_rxy=_SWEEP_RXY,
                            sweep_ryz=",".join(repr(float(r)) for r in sweep_ryz),
                            slope_tol=_SLOPE_TOL),
        columns=["kind", "r_xy", "r_yz", "estimate", "stderr", "n"],
        rows=rows, verdicts=verdicts, flags=flags, wallclock=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# FKG: cutting a path cannot raise its probability
# ---------------------------------------------------------------------------

def run_fkg_check(cfg: ExperimentConfig, path) -> ExperimentReport:
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
    try:
        pts = [np.atleast_1d(np.asarray(p, dtype=np.int64)) for p in path]
    except OverflowError:
        raise ParameterError("path coordinates must fit in 64-bit integers") from None
    n_edges = len(pts) - 1
    if not 2 <= n_edges <= 6:
        raise ParameterError(f"path must have 2..6 edges, got {n_edges}")
    if any(p.shape != (cfg.params.d,) for p in pts):
        raise ParameterError(f"path vertices must be {cfg.params.d}-dimensional")
    if len({tuple(p) for p in pts}) < len(pts):
        raise ParameterError("path repeats a vertex")
    # Squared in Python ints: an int64 square wraps above a difference of ~3e9.
    lengths = [math.sqrt(sum((int(x) - int(y)) ** 2 for x, y in zip(a, b)))
               for a, b in zip(pts[:-1], pts[1:])]

    lrp = cfg.params.kind is ModelKind.LRP
    rows, verdicts = [], []
    for cut, (full, head, tail) in enumerate(_path_estimates(cfg, 0, lengths), start=1):
        prod = head.mean * tail.mean
        se = math.sqrt(full.stderr ** 2 + (tail.mean * head.stderr) ** 2
                       + (head.mean * tail.stderr) ** 2)
        guard = _EQUALITY_TOL_REL * (abs(full.mean) + abs(prod))
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

def _bridge_axes(d: int, n: int, beta: float) -> list:
    """Per axis, the first and last coordinate of mid + [-N^beta, N^beta]^d, mid = (N/2) e1."""
    half = float(n) ** beta
    return [(math.ceil(m - half), math.floor(m + half)) for m in [n / 2.0] + [0.0] * (d - 1)]


def _bridge_cube(axes) -> np.ndarray:
    """The lattice points of the cube with these `_bridge_axes`, as an (nz, d) array."""
    grids = np.meshgrid(*[np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in axes],
                        indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def run_bridge_experiment(cfg: ExperimentConfig, beta: float,
                          n_list=(64, 128, 256, 512, 1024)) -> ExperimentReport:
    """Estimate P(x ~ A ~ y) for A the midpoint cube of half-width N^beta.

    Per replicate, fresh weights for x, y and every cube vertex; the
    success probability 1 - prod_z (1 - p_xz p_zy) is exact given the
    weights.  Verdicts: fitted slope of log P against log N within
    _SLOPE_TOL of -(2 alpha1 - d beta), flagged as skipped when fewer
    than three N give estimates, and positive mass at every N.  Both
    the weights and the target are SFP's, so other model kinds raise
    ParameterError.  The N must be distinct and >= 1, so every
    cube has at least two vertices.
    """
    t0 = time.monotonic()
    _require_sfp(cfg, "bridge")
    target = -bridging_exponent(cfg.params, beta)  # rejects beta before any chunk runs
    if not (2.0 < cfg.params.tau < 3.0):
        raise ParameterError(f"bridge experiment needs tau in (2,3), got {cfg.params.tau}")
    if (not n_list or min(n_list) < 1 or max(n_list) >= 2 ** 63
            or len(set(n_list)) < len(n_list)):
        raise ParameterError(f"bridge needs distinct N in [1, 2^63), got {list(n_list)}")
    d, lam, alpha, tau = cfg.params.d, cfg.params.lambda_, cfg.params.alpha, cfg.params.tau
    # Counted in Python ints before any array is built: numpy would fail to allocate.
    axes = [_bridge_axes(d, int(n), beta) for n in n_list]
    for n, ax in zip(n_list, axes):
        if math.prod(hi - lo + 1 for lo, hi in ax) > _BRIDGE_POINTS:
            raise ParameterError(f"the bridge cube at N={n} has over {_BRIDGE_POINTS} lattice "
                                 f"points; lower N or beta")

    rows, pts, flags = [], [], []
    for ni, n in enumerate(n_list):
        cube = _bridge_cube(axes[ni])
        x = np.zeros(d, dtype=np.int64)
        y = np.zeros(d, dtype=np.int64)
        y[0] = int(n)
        if np.any(np.all(cube == x, axis=1)) or np.any(np.all(cube == y, axis=1)):
            flags.append(f"GeometryDegenerate N={n}: cube touches an endpoint")
            continue
        # Squared in float64: an int64 square wraps above a difference of ~3e9.
        r_xz, r_zy = (np.sqrt(np.sum((cube - v).astype(np.float64) ** 2, axis=1)) for v in (x, y))
        cxz = lam * r_xz ** -alpha
        czy = lam * r_zy ** -alpha
        nz = len(cube)

        def chunk(rg, cxz=cxz, czy=czy, nz=nz, ni=ni):
            lo, hi = rg
            states = _replicate_states(cfg.seed, ni, lo, hi)[:, None]
            # Slots 0 and 1 are x and y, the cube takes 2, 3, ...  The two
            # go to separate buffers: numpy's transcendental ufuncs run about
            # a third slower on strided views of one.
            xy_slots = np.arange(2, dtype=np.uint64)[None, :]
            z_slots = np.arange(2, 2 + nz, dtype=np.uint64)[None, :]
            rows = min(hi - lo, max(1, _TILE // nz))
            xy_words, xy_scratch = np.empty((2, rows, 2), np.uint64)
            z_words, scratch = np.empty((2, rows, nz), np.uint64)
            log_miss = np.empty(hi - lo)
            for a in range(0, hi - lo, rows):
                t = min(rows, hi - lo - a)
                wxy = _pareto_into(states[a:a + t], xy_slots, tau, xy_words[:t], xy_scratch[:t])
                wz = _pareto_into(states[a:a + t], z_slots, tau, z_words[:t], scratch[:t])
                # q = p_xz * p_zy; success = 1 - prod_z (1 - q).  A saturated
                # q == 1 gives log1p(-q) = -inf and a success probability of
                # exactly 1, which is the intended value.
                q = _edge_term(cxz, wxy[:, :1], wz, scratch[:t].view(np.float64))
                q *= _edge_term(czy, wz, wxy[:, 1:], wz)
                np.negative(q, out=q)
                with np.errstate(divide="ignore"):
                    np.log1p(q, out=q)
                np.sum(q, axis=1, out=log_miss[a:a + t])
            s = -np.expm1(log_miss)
            return float(s.sum()), float((s * s).sum())

        sums = _run_chunks(chunk, _chunk_ranges(cfg.replicates, 1 << 14), cfg.worker_count)
        est = _combine_mean_se(sums, cfg.replicates)
        rows.append((int(n), nz, est.mean, est.stderr, est.n))
        pts.append((float(n), est.mean))

    verdicts = []
    _slope_verdict("bridge-slope", pts, target, "N values", verdicts, flags)
    verdicts.append(Verdict(
        "positive-mass", all(row[2] > 0 for row in rows),
        "every estimate strictly positive"))

    return ExperimentReport(
        name="bridge",
        config=_config_echo(cfg, beta=beta,
                            n_list=",".join(str(int(n)) for n in n_list),
                            slope_tol=_SLOPE_TOL),
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
    does not apply: violations are only counted, no verdict.  The SFP
    side is the model itself, so other model kinds raise
    ParameterError.
    """
    t0 = time.monotonic()
    if cfg.spec is None:
        raise ParameterError("coupling check needs a box spec")
    _require_sfp(cfg, "coupling")
    lrp_params = replace(cfg.params, kind=ModelKind.LRP,
                         lambda_=cfg.params.lambda_ if lambda_lrp is None else lambda_lrp)

    def one(i: int, workers: int):
        seed_i = derive_seed(cfg.seed, i)
        sfp = generate_box(cfg.params, seed_i, cfg.spec, cutoff, workers=workers)
        lrp = generate_box(lrp_params, seed_i, cfg.spec, cutoff, workers=workers)
        return int(np.count_nonzero(~sfp.has_edges(lrp.edges))), lrp.n_edges, sfp.n_edges

    per_seed = _map_boxes(one, cfg)
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
                          hill_k: int | None = None,
                          cutoff: float | None = None) -> ExperimentReport:
    """Estimate the degree-tail exponent and compare it to gamma.

    Simulates `replicates` boxes (derived seeds), pools interior degrees
    (boundary margin excluded), and estimates the tail index two ways:
    Hill on the top-k order statistics and a log-log regression of the
    empirical survival function over the same tail.  The verdict checks
    the Hill estimate against gamma = alpha (tau - 1) / d, within _HILL_TOL.
    """
    t0 = time.monotonic()
    if cfg.spec is None:
        raise ParameterError("degree experiment needs a box spec")
    if not cfg.params.alpha > cfg.params.d:
        raise ParameterError("degree tail needs alpha > d (locally finite degrees)")
    _check_margin(cfg.spec.side, margin)  # before any box is built

    def one(i: int, workers: int):
        r = generate_box(cfg.params, derive_seed(cfg.seed, i), cfg.spec, cutoff, workers=workers)
        return degree_sequence(r, margin), r.trunc_bias

    boxes = _map_boxes(one, cfg)
    degrees = np.concatenate([dg for dg, _ in boxes])
    n = len(degrees)
    gamma = derived_exponents(cfg.params).gamma
    config = _config_echo(cfg, margin=margin, cutoff=cutoff, gamma=gamma, tol=_HILL_TOL)
    if cutoff is not None:
        config["trunc_bias_mean"] = float(np.mean([bias for _, bias in boxes]))
    columns = ["estimator", "estimate", "stderr", "k", "threshold"]

    # Isolated vertices carry no tail information; the estimators see only
    # the positive degrees, sorted.
    positive = np.sort(degrees[degrees > 0]).astype(np.float64)
    n_pos = len(positive)
    k = hill_k if hill_k is not None else max(10, n // 50)

    def no_rows(flag: str) -> ExperimentReport:
        return ExperimentReport(name="degrees", config=config, columns=columns, rows=[],
                                verdicts=[], flags=[flag], wallclock=time.monotonic() - t0)

    if n < 1000 or n_pos < 2 * k:
        return no_rows(f"InsufficientTail n={n} positive={n_pos}")
    try:
        hill = hill_estimator(positive, k)
    except FitUndefined as exc:  # the top k degrees all equal the threshold
        return no_rows(f"hill-vs-gamma skipped: {exc}")
    threshold = float(positive[n_pos - k - 1])

    # Survival regression over the same tail range.
    tail_vals = np.unique(positive[positive >= max(threshold, 1.0)])
    surv = np.column_stack((tail_vals, (n_pos - np.searchsorted(positive, tail_vals)) / n_pos))
    reg = loglog_slope(surv) if len(surv) >= 3 else None

    rows = [("hill", hill.mean, hill.stderr, k, threshold)]
    if reg is not None:
        rows.append(("survival-regression", -reg.mean, reg.stderr, len(surv), threshold))
    verdicts = [Verdict("hill-vs-gamma", abs(hill.mean - gamma) <= _HILL_TOL,
                        f"hill {hill.mean!r} vs gamma {gamma!r} +- {_HILL_TOL}")]
    return ExperimentReport(name="degrees", config=config, columns=columns,
                            rows=rows, verdicts=verdicts, wallclock=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# Distance scaling
# ---------------------------------------------------------------------------

def run_distance_experiment(cfg: ExperimentConfig, n_list=None, n_sources: int = 32,
                            cutoff: float | None = None,
                            compare_lrp: bool = False) -> ExperimentReport:
    """Graph distance against Euclidean distance at dyadic separations.

    One multi-source BFS per realization yields D(s, s + N e1) for each
    of `n_sources` sources in the largest cluster and every N at once;
    pairs with the target outside the largest cluster are excluded and
    counted.  Reports the median D per N, verdicts that the medians are
    nondecreasing and that median D / N is decreasing, and
    (informational) the fitted exponent of log D against log log N with
    the loose band [Delta1 - 1, Delta2 + 1].  With compare_lrp=True, a
    coupled LRP realization is measured on the same pairs and the median
    domination at every N is an exact verdict; the coupling is SFP's, so
    other model kinds raise ParameterError, as does `n_sources` < 1.
    """
    t0 = time.monotonic()
    if cfg.spec is None:
        raise ParameterError("distance experiment needs a box spec")
    if not n_sources >= 1:
        raise ParameterError(f"need at least one source, got {n_sources}")
    spec = cfg.spec
    if n_list is None:
        n_list = [2 ** k for k in range(4, 11)]
    n_list = sorted(int(n) for n in n_list)
    if not n_list or not 1 <= n_list[0] <= n_list[-1] < spec.side:
        raise ParameterError(f"need one or more separations in [1, {spec.side}), got {n_list}")
    n_max = n_list[-1]
    if len(set(n_list)) < len(n_list):
        raise ParameterError(f"separations must not repeat, got {n_list}")

    if compare_lrp:
        _require_sfp(cfg, "distances --compare-lrp")
        sfp, lrp = coupled_pair(cfg.params, cfg.seed, spec, cutoff, workers=cfg.worker_count)
        reals = [("sfp", sfp), ("lrp", lrp)]
    else:
        reals = [(cfg.params.kind.value,
                  generate_box(cfg.params, cfg.seed, spec, cutoff, workers=cfg.worker_count))]

    # Pair eligibility is decided on the most restrictive realization
    # (the coupled LRP if present: its largest cluster is contained in a
    # single SFP cluster, so domination is checked pairwise).
    ref = reals[-1][1]
    cl = clusters(ref)
    frac = cl.sizes[cl.largest] / spec.vertex_count
    config = _config_echo(cfg, n_list=",".join(str(n) for n in n_list),
                          n_sources=n_sources, cutoff=cutoff, compare_lrp=compare_lrp)
    ex = derived_exponents(cfg.params)
    columns = ["model", "N", "median_hops", "samples", "excluded"]
    if frac < _TINY_CLUSTER_FRACTION:
        return ExperimentReport(
            name="distances", config=config, columns=columns, rows=[], verdicts=[],
            flags=[f"LargestClusterTiny fraction={frac!r}"],
            wallclock=time.monotonic() - t0)

    mask = cl.largest_mask()
    stride = spec.strides[0]  # flat jump of +1 along the first axis
    max_source_row = spec.side - 1 - n_max
    candidates = np.nonzero(mask)[0]
    candidates = candidates[(candidates // stride) <= max_source_row]
    if len(candidates) == 0:
        raise RuntimeError(
            "no largest-cluster vertex leaves room for the largest separation")
    step = max(1, len(candidates) // n_sources)
    sources = candidates[::step][:n_sources]

    # Row i, column j: the pair (sources[i], sources[i] + n_list[j] e1).  A
    # pair counts when its target is in the largest cluster and reached.
    # The BFS is sent each other target's own source (hop 0), so it never
    # waits for a target the count drops.
    targets = sources[:, None] + np.array(n_list) * stride
    wanted = np.where(mask[targets], targets, sources[:, None])
    medians, rows = {}, []
    for name, real in reals:
        hops = distances_from(real, sources, wanted, workers=cfg.worker_count)
        ok = mask[targets] & (hops >= 0)
        excluded = int(np.count_nonzero(~ok))
        medians[name] = [float(np.median(col[keep])) if keep.any() else math.nan
                         for col, keep in zip(hops.T, ok.T)]
        rows += [(name, n, m, int(c), excluded)
                 for n, m, c in zip(n_list, medians[name], ok.sum(axis=0))]

    med = medians[reals[0][0]]
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
        dom = all(a <= b for a, b in zip(medians["sfp"], medians["lrp"]))
        verdicts.append(Verdict("coupled-median-domination", dom,
                                f"sfp {medians['sfp']} vs lrp {medians['lrp']}"))

    flags = []
    try:
        fit = loglog_slope([(math.log(n), m) for n, m in zip(n_list, med) if m > 0])
        flags.append(f"polylog-exponent-estimate {fit.mean!r} se {fit.stderr!r} "
                     f"band [{ex.delta1 - 1.0!r}, {ex.delta2 + 1.0!r}] informational")
    except FitUndefined:
        flags.append("polylog-exponent-estimate unavailable")

    return ExperimentReport(name="distances", config=config, columns=columns, rows=rows,
                            verdicts=verdicts, flags=flags, wallclock=time.monotonic() - t0)
