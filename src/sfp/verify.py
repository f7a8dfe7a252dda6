"""The built-in verification suite behind `sfp verify`.

Each criterion function performs one self-contained check of the
implementation against its mathematical target and returns a
CriterionResult.  `quick` mode runs the fast deterministic subset at
reduced Monte-Carlo sizes (seconds); the full suite runs everything at
the declared sizes (tens of minutes).

Criterion 10 (the second-moment shape) checks the exact m(r) = E[p_xy^2],
which `single_edge_second_moment` evaluates in closed form, against its
exact leading term L r^(-2 alpha1) log r, with L computed from the
parameters.  At (d=1, alpha=1.5, tau=2.5, lambda=1) the exact moment is
m(r) = r^-2.25 (9 log r - 8) + 9 r^-3 and L = 9, so the ratio
g(r) = m(r) r^2.25 / (9 log r) climbs from 0.575 at r=2 to 0.920 at
r=2^16: within the declared factor 3 of the asymptote, from below.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .experiments import (ExperimentConfig, run_adjacent_mc, run_bridge_experiment,
                          run_coupling_check, run_degree_experiment,
                          run_distance_experiment, run_fkg_check)
from .graph import BoxRealization, BoxSpec, _pair_keys
from .hierarchy import (Hierarchy, check_gap_paths_condition, decompose_paths,
                        validate_hierarchy)
from .moments import (adjacent_expectation_exact, adjacent_expectation_quadrature,
                      single_edge_second_moment)
from .params import ModelKind, ModelParams, derived_exponents, validate_params

# Full-suite sizes of the criteria that run at one size only.
_IDENTITY_POINTS = 10_000
_DECAY_REPLICATES = 10_000_000
_DEGREE_SIDE = 100_000
_BRIDGE_REPLICATES = 10_000_000
_FKG_PATHS = 20
_FKG_REPLICATES = 1_000_000


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(cid, name, passed, detail, t0) -> CriterionResult:
    return CriterionResult(cid=cid, name=name, passed=passed, detail=detail,
                           elapsed=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# 1. Exponent identities on a random parameter grid
# ---------------------------------------------------------------------------

def criterion_exponent_identities(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    rng = np.random.default_rng(seed)
    bad = 0
    witness = ""
    for _ in range(_IDENTITY_POINTS):
        d = int(rng.integers(1, 4))
        alpha = d * rng.uniform(1.0 + 1e-6, 2.0 - 1e-6)
        tau_min = 1.0 + 2.0 * d / alpha
        tau = tau_min * (1.0 + 1e-9) + rng.uniform(0.0, 5.0)
        ex = derived_exponents(validate_params(d, alpha, 1.0, tau))
        ok = (d < ex.alpha1 <= ex.alpha2 <= alpha
              and ex.delta1 <= ex.delta2 <= ex.delta)
        if tau >= 3.0:
            ok = ok and ex.delta1 == ex.delta2 == ex.delta
        if tau < 3.0 and alpha * (tau - 2.0) >= d:
            ok = ok and ex.delta2 == ex.delta
        if not ok:
            bad += 1
            if not witness:
                witness = f" first failure at d={d} alpha={alpha!r} tau={tau!r}"
    return _result("1", "exponent-identities", bad == 0,
                   f"{_IDENTITY_POINTS - bad}/{_IDENTITY_POINTS} grid points satisfy the exact"
                   f" orderings and equalities{witness}", t0)


# ---------------------------------------------------------------------------
# 2. Closed form against the quadrature oracle
# ---------------------------------------------------------------------------

def criterion_closed_form_vs_oracle() -> CriterionResult:
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for tau in np.linspace(2.05, 2.95, 12):
        for lam in (0.5, 1.0, 2.0):
            for ratio in (1.0, 10.0, 100.0):
                p = validate_params(1, 1.5, lam, float(tau))
                b = 10.0
                a = b * ratio
                r_yz = b ** (1.0 / p.alpha)
                r_xy = a ** (1.0 / p.alpha)
                exact = adjacent_expectation_exact(p, r_xy, r_yz).middle_expectation
                oracle = adjacent_expectation_quadrature(p, r_xy, r_yz)
                worst = max(worst, abs(exact - oracle) / abs(oracle))
                count += 1
    pref = validate_params(1, 1.5, 1.0, 2.5)
    reference = adjacent_expectation_exact(
        pref, 100.0 ** (2.0 / 3.0), 10.0 ** (2.0 / 3.0)).middle_expectation
    ref_ok = abs(reference - 0.013973665961010275) < 1e-12
    ok = worst <= 1e-9 and ref_ok
    return _result("2", "closed-form-vs-oracle", ok,
                   f"worst relative gap {worst:.3e} over {count} grid points; "
                   f"reference middle {reference!r} (0.0139737...)", t0)


# ---------------------------------------------------------------------------
# 3. Adjacent-edge sandwich by Monte Carlo
# ---------------------------------------------------------------------------

def criterion_adjacent_sandwich(seed: int = 0, replicates: int = 1_000_000,
                                threads: int = 1) -> CriterionResult:
    t0 = time.monotonic()
    p = validate_params(1, 1.5, 1.0, 2.5)
    cfg = ExperimentConfig(params=p, seed=seed, replicates=replicates, threads=threads)
    r_xy = 100.0 ** (2.0 / 3.0)
    r_yz = 10.0 ** (2.0 / 3.0)
    rep = run_adjacent_mc(cfg, r_xy, r_yz, sweep_ryz=())
    v = rep.verdict("sandwich-3se")
    return _result("3", "adjacent-sandwich", v.passed, v.detail, t0)


# ---------------------------------------------------------------------------
# 4. Adjacent-edge decay exponent
# ---------------------------------------------------------------------------

def criterion_adjacent_decay(seed: int = 0, threads: int = 1) -> CriterionResult:
    t0 = time.monotonic()
    p = validate_params(1, 1.5, 1.0, 2.5)
    cfg = ExperimentConfig(params=p, seed=seed, replicates=_DECAY_REPLICATES,
                           threads=threads)
    rep = run_adjacent_mc(cfg, 100.0 ** (2.0 / 3.0), 10.0 ** (2.0 / 3.0),
                          sweep_ryz=(8.0, 16.0, 32.0, 64.0))
    v = rep.verdict("decay-slope")
    return _result("4", "adjacent-decay-slope", v.passed, v.detail, t0)


# ---------------------------------------------------------------------------
# 5. Coupling domination
# ---------------------------------------------------------------------------

def criterion_coupling(seed: int = 0, n_seeds: int = 100, side: int = 256,
                       threads: int = 1) -> CriterionResult:
    t0 = time.monotonic()
    p = validate_params(1, 1.5, 1.0, 2.5)
    cfg = ExperimentConfig(params=p, spec=BoxSpec(d=1, side=side), seed=seed,
                           replicates=n_seeds, threads=threads)
    rep = run_coupling_check(cfg)
    v = rep.verdict("coupling-domination")
    return _result("5", "coupling-domination", v.passed, v.detail, t0)


# ---------------------------------------------------------------------------
# 6. Degree tail against gamma
# ---------------------------------------------------------------------------

def criterion_degree_tail(seed: int = 0, threads: int = 1) -> CriterionResult:
    t0 = time.monotonic()
    cases = [
        # (tau, cutoff, hill_k): cutoffs keep the pair count ~L*R with a
        # recorded bias small against the top degrees; k picked where the
        # Hill plateau sits (integer-degree ties make it jumpy beyond).
        (3.5, 10_000.0, 800),
        (2.5, 30_000.0, 2_000),
    ]
    details = []
    ok = True
    for tau, cutoff, k in cases:
        p = validate_params(1, 1.5, 1.0, tau)
        cfg = ExperimentConfig(params=p, spec=BoxSpec(d=1, side=_DEGREE_SIDE),
                               seed=seed, threads=threads)
        rep = run_degree_experiment(cfg, margin=1_000, hill_k=k, cutoff=cutoff)
        v = rep.verdict("hill-vs-gamma")
        ok = ok and v.passed
        details.append(f"tau={tau}: {v.detail}")
    return _result("6", "degree-tail", ok, "; ".join(details), t0)


# ---------------------------------------------------------------------------
# 7. Bridging slope
# ---------------------------------------------------------------------------

def criterion_bridge_slope(seed: int = 0, threads: int = 1) -> CriterionResult:
    t0 = time.monotonic()
    p = validate_params(1, 1.5, 1.0, 2.5)
    cfg = ExperimentConfig(params=p, seed=seed, replicates=_BRIDGE_REPLICATES,
                           threads=threads)
    rep = run_bridge_experiment(cfg, beta=0.5, n_list=(64, 128, 256, 512, 1024))
    v = rep.verdict("bridge-slope")
    return _result("7", "bridge-slope", v.passed, v.detail, t0)


# ---------------------------------------------------------------------------
# 8. FKG inequality on random short paths
# ---------------------------------------------------------------------------

def _random_short_paths(seed: int, n_paths: int):
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(n_paths):
        n_edges = int(rng.integers(2, 5))
        while True:
            steps = rng.integers(-40, 41, size=n_edges)
            if np.all(steps != 0):
                verts = np.concatenate([[0], np.cumsum(steps)])
                if len(set(verts.tolist())) == len(verts):
                    break
        paths.append([int(v) for v in verts])
    return paths


def criterion_fkg(seed: int = 0, threads: int = 1) -> CriterionResult:
    t0 = time.monotonic()
    base = validate_params(1, 1.5, 1.0, 2.5)
    paths = _random_short_paths(seed, _FKG_PATHS)
    failures = []
    for i, path in enumerate(paths):
        cfg = ExperimentConfig(params=base, seed=seed + i, replicates=_FKG_REPLICATES,
                               threads=threads)
        rep = run_fkg_check(cfg, path)
        if not rep.all_pass:
            failures.append(f"sfp path {path}")
        lcfg = ExperimentConfig(params=replace(base, kind=ModelKind.LRP),
                                seed=seed + i, replicates=10_000, threads=threads)
        lrep = run_fkg_check(lcfg, path)
        if not lrep.all_pass:
            failures.append(f"lrp path {path}")
    return _result("8", "fkg-inequality", not failures,
                   f"{_FKG_PATHS} paths, every cut: product bound holds for sfp, "
                   f"factorization exact for lrp"
                   + (f"; failures: {failures}" if failures else ""), t0)


# ---------------------------------------------------------------------------
# 9. Hierarchy machinery on the depth-4 toy example
# ---------------------------------------------------------------------------

def toy_hierarchy() -> Hierarchy:
    """The depth-4 example with two degenerate sites (integerized coordinates)."""
    x = (-5, -5)
    y = (7, -5)
    z01 = (-4, 3)
    z10 = (5, 5)
    z001 = (-5, -3)
    z0001 = (-3, -5)
    z010 = (-2, 1)
    z0110 = (-5, 2)
    z110 = (2, -2)
    z101 = (6, 1)
    z1001 = (2, 3)
    z1010 = (4, 1)
    z1101 = (3, -3)
    z1110 = (6, -4)
    sites = {
        "0": x, "1": y,
        "00": x, "01": z01, "10": z10, "11": y,
        "000": x, "001": z001, "010": z010, "011": z01,
        "100": z10, "101": z101, "110": z110, "111": y,
        "0000": x, "0001": z0001, "0010": z001, "0011": z001,
        "0100": z010, "0101": z010, "0110": z0110, "0111": z01,
        "1000": z10, "1001": z1001, "1010": z1010, "1011": z101,
        "1100": z110, "1101": z1101, "1110": z1110, "1111": y,
    }
    return Hierarchy(depth=4, sites=sites)


def forced_realization(edges) -> BoxRealization:
    """A synthetic realization of the toy hierarchy's box [-6, 8]^2: `edges` open, no other."""
    spec = BoxSpec(d=2, side=15, origin=(-6, -6))
    params = ModelParams(d=2, alpha=1.5, lambda_=1.0, tau=2.5, kind=ModelKind.LRP)
    flat = np.sort(spec.flat_of(np.array(edges, dtype=np.int64).reshape(-1, 2, 2)), axis=1)
    flat = flat[np.argsort(_pair_keys(*flat.T, spec.vertex_count))]
    return BoxRealization(spec=spec, params=params, seed=0, weights=None, edges=flat)


def criterion_hierarchy_machinery() -> CriterionResult:
    t0 = time.monotonic()
    h = toy_hierarchy()
    real = forced_realization(h.required_edges())
    checks = []

    checks.append(("toy-validates", validate_hierarchy(h, real) is None))

    paths = decompose_paths(h)
    expected = [
        [(-5, 2), (-2, 1), (-5, -3), (-3, -5)],   # long component through the degeneracies
        [(-4, 3), (5, 5)],
        [(2, 3), (4, 1)],
        [(6, 1), (2, -2)],
        [(3, -3), (6, -4)],
    ]
    def edge_set(path):
        return frozenset(frozenset((a, b)) for a, b in zip(path[:-1], path[1:]))
    got = {edge_set(p) for p in paths}
    want = {edge_set(p) for p in expected}
    checks.append(("decomposes-into-5-paths", len(paths) == 5 and got == want))

    # One mutation per condition 2..5, each rejected with its own index.
    s2 = dict(h.sites); s2["0011"] = (0, -6)
    v = validate_hierarchy(Hierarchy(depth=4, sites=s2), real)
    checks.append(("mutation-condition-2", v is not None and v.condition == 2))

    v = validate_hierarchy(h, forced_realization(h.required_edges()[1:]))
    checks.append(("mutation-condition-3", v is not None and v.condition == 3))

    s4 = dict(h.sites); s4["1001"] = (-5, -3); s4["1010"] = (-2, 1)
    v = validate_hierarchy(Hierarchy(depth=4, sites=s4), real)
    checks.append(("mutation-condition-4", v is not None and v.condition == 4))

    s5 = dict(h.sites); s5["0110"] = (3, -3)
    v = validate_hierarchy(Hierarchy(depth=4, sites=s5), real)
    checks.append(("mutation-condition-5", v is not None and v.condition == 5))

    # Depth-3 gap-path lengths 1+3+1+2 = 7 < 8: the length bound fails.
    g = Hierarchy(depth=3, sites={
        "0": (0, 0), "1": (20, 0),
        "00": (0, 0), "01": (8, 4), "10": (14, -2), "11": (20, 0),
        "000": (0, 0), "001": (3, -3), "010": (6, 5), "011": (8, 4),
        "100": (14, -2), "101": (16, 1), "110": (18, 2), "111": (20, 0),
    })
    gap_paths = {
        "00": [(0, 0), (3, -3)],
        "01": [(6, 5), (7, 7), (7, 6), (8, 4)],
        "10": [(14, -2), (16, 1)],
        "11": [(18, 2), (19, 3), (20, 0)],
    }
    checks.append(("gap-length-7-lt-8", check_gap_paths_condition(g, gap_paths) is False))

    failed = [name for name, ok in checks if not ok]
    return _result("9", "hierarchy-machinery", not failed,
                   f"{len(checks)} exact checks"
                   + (f"; failed: {failed}" if failed else " all hold"), t0)


# ---------------------------------------------------------------------------
# 10. Second-moment shape: m(r) within a factor 3 below L r^-2alpha1 log r
# ---------------------------------------------------------------------------

def criterion_second_moment_shape() -> CriterionResult:
    t0 = time.monotonic()
    p = validate_params(1, 1.5, 1.0, 2.5)
    alpha, lam, tau = p.alpha, p.lambda_, p.tau
    two_alpha1 = 2.0 * derived_exponents(p).alpha1
    # Leading term of m(r) for tau in (2, 3).  With z* = r^alpha / lambda > 1
    # and the product density (tau-1)^2 z^-tau log z,
    #   m = (tau-1)^2 [z*^-2 int_1^z* z^(2-tau) log z dz + int_z*^inf z^-tau log z dz]
    #     = (tau-1)^2 z*^(1-tau) [(1/(3-tau) + 1/(tau-1)) log z*
    #                             + 1/(tau-1)^2 - 1/(3-tau)^2]
    #       + (tau-1)^2 z*^-2 / (3-tau)^2.
    # Since z*^(1-tau) = lambda^(tau-1) r^-alpha(tau-1), alpha(tau-1) = 2 alpha1
    # and log z* = alpha log r - log lambda, m(r) ~ L r^-2alpha1 log r with
    #   L = alpha lambda^(tau-1) (tau-1)^2 (1/(3-tau) + 1/(tau-1))  (= 9 here).
    # The constant correction is negative here (-8 r^-2.25 against +9 r^-3),
    # so m approaches its asymptote from below.
    big_l = (alpha * lam ** (tau - 1.0) * (tau - 1.0) ** 2
             * (1.0 / (3.0 - tau) + 1.0 / (tau - 1.0)))
    ks = range(1, 17)
    g = []
    for k in ks:
        r = 2.0 ** k
        m = single_edge_second_moment(p, r)
        g.append(m * r ** two_alpha1 / (big_l * math.log(r)))
    k_min = ks[int(np.argmin(g))]
    k_max = ks[int(np.argmax(g))]
    passed = 1.0 / 3.0 <= min(g) and max(g) <= 1.0
    return _result(
        "10", "second-moment-shape", passed,
        f"g(r) = m(r) r^{two_alpha1:g} / (L log r) with L = {big_l:.4f} lies in "
        f"[{min(g):.4f}, {max(g):.4f}] over r in [2, 2^16] (min at r=2^{k_min}, "
        f"max at r=2^{k_max}); required in [1/3, 1], i.e. within a factor 3 "
        f"of the asymptote and below it", t0)


# ---------------------------------------------------------------------------
# 11. Distance-scaling property suite (polylog exponents are desk-infeasible)
# ---------------------------------------------------------------------------

def criterion_distance_suite(seed: int = 0, threads: int = 1,
                             full_scale: bool = True) -> CriterionResult:
    t0 = time.monotonic()
    details = []
    ok = True

    # (i) coupled realizations: SFP medians never exceed LRP medians (exact).
    p = validate_params(1, 1.5, 5.0, 3.5)
    side_i = 12_288 if full_scale else 2_048
    n_max_i = 4_096 if full_scale else 512
    cfg = ExperimentConfig(params=p, spec=BoxSpec(d=1, side=side_i), seed=seed,
                           threads=threads)
    rep = run_distance_experiment(
        cfg, n_list=[2 ** k for k in range(4, int(math.log2(n_max_i)) + 1)],
        n_sources=24, compare_lrp=True)
    v = rep.verdict("coupled-median-domination")
    ok = ok and v.passed
    details.append(f"(i) {v.detail}")

    # (ii) nearest-neighbour-augmented model: median D nondecreasing, D/N decreasing.
    pnn = ModelParams(d=1, alpha=1.5, lambda_=5.0, tau=3.5, kind=ModelKind.SFP_NN)
    if full_scale:
        side_ii, n_hi, cutoff, sources = 139_264, 17, 16_384.0, 96
    else:
        side_ii, n_hi, cutoff, sources = 5_120, 12, 512.0, 48
    cfg2 = ExperimentConfig(params=pnn, spec=BoxSpec(d=1, side=side_ii), seed=seed,
                            threads=threads)
    rep2 = run_distance_experiment(cfg2, n_list=[2 ** k for k in range(4, n_hi + 1)],
                                   n_sources=sources, cutoff=cutoff)
    v1 = rep2.verdict("median-nondecreasing")
    v2 = rep2.verdict("hops-per-distance-decreasing")
    ok = ok and v1.passed and v2.passed
    details.append(f"(ii) {v1.detail} | {v2.detail}")

    # (iii) informational: the loose polylog exponent band.
    details.append(f"(iii) {'; '.join(f for f in rep2.flags)}")
    return _result("11", "distance-property-suite", ok, " || ".join(details), t0)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def run_suite(quick: bool = False, seed: int = 0, threads: int = 1):
    """Run the verification criteria; quick mode = fast subset, reduced sizes."""
    results = []
    results.append(criterion_exponent_identities(seed))
    results.append(criterion_closed_form_vs_oracle())
    if quick:
        results.append(criterion_adjacent_sandwich(seed, replicates=100_000, threads=threads))
        results.append(criterion_coupling(seed, n_seeds=20, side=128, threads=threads))
        results.append(criterion_hierarchy_machinery())
        return results
    results.append(criterion_adjacent_sandwich(seed, threads=threads))
    results.append(criterion_adjacent_decay(seed, threads=threads))
    results.append(criterion_coupling(seed, threads=threads))
    results.append(criterion_degree_tail(seed, threads=threads))
    results.append(criterion_bridge_slope(seed, threads=threads))
    results.append(criterion_fkg(seed, threads=threads))
    results.append(criterion_hierarchy_machinery())
    results.append(criterion_second_moment_shape())
    results.append(criterion_distance_suite(seed, threads=threads))
    return results
