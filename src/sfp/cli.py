"""Command-line entry point.

Subcommands: exponents, generate, degrees, distances, adjacent, fkg,
bridge, coupling, moments {adjacent,second,convolution}, hierarchy check,
verify.  Exit codes: 0 success / all verdicts pass, 1 usage error, 2
verdict failure, 3 runtime error.  A usage error is a rejected flag or
parameter: every input check a run can reach, argparse's included,
raises `params.ParameterError`, the only exception mapped to exit 1;
any other exception is a runtime error.  Diagnostics go to stderr; CSV
(with '#'-prefixed metadata lines) goes to stdout or --out.

A flat config file (`key = value` per line, '#' comments) can seed any
flag via --config; explicit flags override the file.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

import numpy as np

from . import __version__
from .params import (DEFAULT_PAIR_BUDGET, MAX_WORKERS, ModelKind, ParameterError,
                     classify_regime, derived_exponents, validate_params)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _checked(kind, ok, what):
    """argparse type: a `kind` value for which `ok` holds, else a usage error."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {what}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its "invalid" message
    return parse


def _at_least(low, kind=int):
    return _checked(kind, lambda v: v >= low, f"be at least {low}")


_finite = _checked(float, math.isfinite, "be finite")
# A finite float whose nearest integer fits in int64.
_int64_float = _checked(_finite, lambda v: -2.0 ** 63 <= v < 2.0 ** 63, "round into int64")
# The seeds the 64-bit hash keys take.
_u64 = _checked(int, lambda v: 0 <= v < 2 ** 64, "be in [0, 2^64)")


def _int_list(text: str) -> list:
    return [int(s) for s in text.split(",") if s.strip()]


def _float_list(text: str) -> list:
    return [float(s) for s in text.split(",") if s.strip()]


def _int_path(text: str) -> list:
    return [_int_list(part) for part in text.split(";")]


@functools.cache
def _build_parser(required: bool = True) -> _Parser:
    """The CLI parser, built once per `required` value (parsing leaves it as it is);
    with `required=False` no option is required, to check one flag alone."""
    top = _Parser(prog="sfp", description=__doc__)
    top.add_argument("--version", action="version", version=f"sfp {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_u64, default=0)
    # Checked here, not by ExperimentConfig: `verify` runs two criteria first.
    common.add_argument("--threads", default=0,
                        type=_checked(_at_least(0), lambda v: v <= MAX_WORKERS,
                                      f"be in [0, {MAX_WORKERS}]"),
                        help=f"worker cap for parallel sections "
                             f"(0 = every usable core, at most {MAX_WORKERS})")
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--config", type=str, default=None,
                        help="flat key = value file; flags override it")

    model = _Parser(add_help=False, parents=[common])
    model.add_argument("--dim", type=_at_least(1), default=1)
    model.add_argument("--alpha", type=float, required=required)
    model.add_argument("--tau", type=float, required=required)
    model.add_argument("--lambda", dest="lambda_", type=float, default=1.0)
    model.add_argument("--model", type=str, default="sfp",
                       choices=["sfp", "lrp", "sfpnn"])

    box = _Parser(add_help=False, parents=[model])
    box.add_argument("--side", type=_at_least(2), required=required)
    box.add_argument("--trunc", type=_at_least(1.0, float), default=None,
                     help="decide only pairs within this Euclidean distance")

    p = sub.add_parser("exponents", parents=[model],
                       help="derived exponents and phase-diagram regime")

    p = sub.add_parser("generate", parents=[box], help="sample one realization")
    p.add_argument("--pair-budget", type=_at_least(1), default=DEFAULT_PAIR_BUDGET)

    p = sub.add_parser("degrees", parents=[box], help="degree-tail experiment")
    p.add_argument("--replicates", type=_at_least(1), default=1)
    p.add_argument("--margin", type=_at_least(0), default=0)
    p.add_argument("--hill-k", type=_at_least(1), default=None)

    p = sub.add_parser("distances", parents=[box], help="distance-scaling experiment")
    p.add_argument("--n-list", type=_int_list, default=None,
                   help="comma-separated separations, e.g. 16,32,64")
    p.add_argument("--sources", type=_at_least(1), default=32)
    p.add_argument("--compare-lrp", action="store_true")

    p = sub.add_parser("adjacent", parents=[model],
                       help="adjacent-edge probability: sandwich and decay")
    p.add_argument("--replicates", type=_at_least(1), default=1_000_000)
    p.add_argument("--rxy", type=float, required=required)
    p.add_argument("--ryz", type=float, required=required)
    p.add_argument("--sweep-ryz", type=_float_list, default="8,16,32,64")

    p = sub.add_parser("fkg", parents=[model], help="path-cut correlation check")
    p.add_argument("--replicates", type=_at_least(1), default=1_000_000)
    p.add_argument("--path", type=_int_path, required=required,
                   help="semicolon-separated vertices, comma-separated coords")

    p = sub.add_parser("bridge", parents=[model], help="midpoint-cube bridging slope")
    p.add_argument("--replicates", type=_at_least(1), default=1_000_000)
    p.add_argument("--beta", type=float, required=required)
    p.add_argument("--n-list", type=_int_list, default="64,128,256,512,1024")

    p = sub.add_parser("coupling", parents=[box], help="SFP/LRP inclusion check")
    p.add_argument("--replicates", type=_at_least(1), default=100)
    p.add_argument("--lambda-lrp", type=float, default=None)

    mom = sub.add_parser("moments", help="closed-form / quadrature calculators")
    msub = mom.add_subparsers(dest="moments_command", required=True)
    p = msub.add_parser("adjacent", parents=[model])
    p.add_argument("--rxy", type=float, required=required)
    p.add_argument("--ryz", type=float, required=required)
    p.add_argument("--oracle", action="store_true",
                   help="also run the quadrature oracle")
    p = msub.add_parser("second", parents=[model])
    p.add_argument("--r", type=_finite, required=required)
    p = msub.add_parser("convolution", parents=[common])
    p.add_argument("--dim", type=_at_least(1), default=1)
    p.add_argument("--alpha", type=float, required=required)
    p.add_argument("--dist", type=_int64_float, required=required)
    p.add_argument("--radius", type=_checked(_finite, lambda v: v > 0, "be positive"),
                   default=None,
                   help="truncation ball radius (default 1e4 for d=1, 200 for d=2, 50 above)")

    hier = sub.add_parser("hierarchy", help="hierarchy tools")
    hsub = hier.add_subparsers(dest="hierarchy_command", required=True)
    p = hsub.add_parser("check", parents=[common])
    p.add_argument("--realization", type=str, required=required)
    p.add_argument("--hierarchy", type=str, required=required)

    p = sub.add_parser("verify", parents=[common], help="run the verification suite")
    p.add_argument("--quick", action="store_true")

    return top


def _apply_config_file(argv):
    """Turn the entries of the --config file into leading defaults.

    File entries become flags placed before the explicit ones, so
    command-line flags win.  A flag that takes no value (a switch such
    as --oracle) is set by `key = true` and left out by `key = false`.
    Each entry is first parsed alone, so one that argparse rejects is
    reported with its file and line.
    """
    pre = _Parser(add_help=False)
    pre.add_argument("--config")  # so `--config=PATH` is found too
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    head = list(itertools.takewhile(lambda a: not a.startswith("-"), argv))
    single = _build_parser(required=False)
    single.parse_args(head)  # a bad subcommand is no fault of the file
    extra = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParameterError(f"{path}:{ln}: expected key = value")
                key, value = (s.strip() for s in line.split("=", 1))
                flag = "--" + key.replace("_", "-")
                if flag == "--config":
                    raise ParameterError(f"{path}:{ln}: config files cannot nest")
                try:  # only a switch parses without its value
                    single.parse_args(head + [flag])
                except ParameterError:
                    entry = [flag, value]
                else:
                    if value not in ("true", "false"):
                        raise ParameterError(
                            f"{path}:{ln}: {flag} takes true or false, got {value!r}")
                    entry = [flag] if value == "true" else []
                try:
                    single.parse_args(head + entry)
                except ParameterError as exc:
                    raise ParameterError(f"{path}:{ln}: {exc}") from None
                extra.extend(entry)
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    # Insert right after the subcommand path, before explicit flags.
    return head + extra + argv[len(head):]


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params_from(args):
    return validate_params(args.dim, args.alpha, args.lambda_, args.tau,
                           ModelKind.parse(args.model))


def _header(args) -> list:
    lines = [f"#version=sfp-{__version__}"]
    echo = {"seed": args.seed}
    for key in ("dim", "alpha", "tau", "lambda_", "model"):
        if hasattr(args, key):
            echo[key.rstrip("_")] = getattr(args, key)
    for k in sorted(echo):
        lines.append(f"#config {k}={_fmt(echo[k])}")
    return lines


def _report_exit(report, args) -> int:
    _emit(report.to_csv(), args.out)
    return 0 if report.all_pass else 2


def _cmd_exponents(args) -> int:
    p = _params_from(args)
    ex = derived_exponents(p)
    regime = classify_regime(p)
    lines = _header(args)
    lines.append("d,alpha,tau,lambda,gamma,alpha1,alpha2,delta,delta1,delta2,regime")
    lines.append(",".join([
        str(p.d), _fmt(p.alpha), _fmt(p.tau), _fmt(p.lambda_), _fmt(ex.gamma),
        _fmt(ex.alpha1), _fmt(ex.alpha2), _fmt(ex.delta), _fmt(ex.delta1),
        _fmt(ex.delta2), str(regime)]))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_generate(args) -> int:
    from .graph import generate_box, save_realization
    if not args.out:
        raise ParameterError("generate requires --out FILE")
    cfg = _experiment_config(args)
    r = generate_box(cfg.params, cfg.seed, cfg.spec, args.trunc, pair_budget=args.pair_budget,
                     workers=cfg.worker_count)
    save_realization(r, args.out)
    print(f"wrote {r.n_edges} edges on {r.n_vertices} vertices to {args.out}",
          file=sys.stderr)
    return 0


def _experiment_config(args):
    from .experiments import ExperimentConfig
    from .graph import BoxSpec
    spec = BoxSpec(d=args.dim, side=args.side) if hasattr(args, "side") else None
    return ExperimentConfig(params=_params_from(args), spec=spec, seed=args.seed,
                            replicates=getattr(args, "replicates", 1),
                            threads=args.threads)


def _cmd_degrees(args) -> int:
    from .experiments import run_degree_experiment
    cfg = _experiment_config(args)
    rep = run_degree_experiment(cfg, margin=args.margin, hill_k=args.hill_k, cutoff=args.trunc)
    return _report_exit(rep, args)


def _cmd_distances(args) -> int:
    from .experiments import run_distance_experiment
    cfg = _experiment_config(args)
    rep = run_distance_experiment(cfg, n_list=args.n_list, n_sources=args.sources,
                                  cutoff=args.trunc, compare_lrp=args.compare_lrp)
    return _report_exit(rep, args)


def _cmd_adjacent(args) -> int:
    from .experiments import run_adjacent_mc
    cfg = _experiment_config(args)
    rep = run_adjacent_mc(cfg, args.rxy, args.ryz, sweep_ryz=tuple(args.sweep_ryz))
    return _report_exit(rep, args)


def _cmd_fkg(args) -> int:
    from .experiments import run_fkg_check
    cfg = _experiment_config(args)
    rep = run_fkg_check(cfg, args.path)
    return _report_exit(rep, args)


def _cmd_bridge(args) -> int:
    from .experiments import run_bridge_experiment
    cfg = _experiment_config(args)
    rep = run_bridge_experiment(cfg, beta=args.beta, n_list=args.n_list)
    return _report_exit(rep, args)


def _cmd_coupling(args) -> int:
    from .experiments import run_coupling_check
    cfg = _experiment_config(args)
    rep = run_coupling_check(cfg, lambda_lrp=args.lambda_lrp, cutoff=args.trunc)
    return _report_exit(rep, args)


def _cmd_moments(args) -> int:
    from . import moments
    lines = _header(args)
    if args.moments_command == "adjacent":
        p = _params_from(args)
        res = moments.adjacent_expectation_exact(p, args.rxy, args.ryz)
        cols = "r_xy,r_yz,middle,lower,upper"
        row = [_fmt(args.rxy), _fmt(args.ryz), _fmt(res.middle_expectation),
               _fmt(res.lower), _fmt(res.upper)]
        if args.oracle:
            oracle = moments.adjacent_expectation_quadrature(p, args.rxy, args.ryz)
            cols += ",oracle,rel_gap"
            diff = abs(res.middle_expectation - oracle)
            gap = diff / abs(oracle) if oracle else (0.0 if diff == 0 else math.inf)
            row += [_fmt(oracle), _fmt(gap)]
        lines += [cols, ",".join(row)]
    elif args.moments_command == "second":
        p = _params_from(args)
        m = moments.single_edge_second_moment(p, args.r)
        lines.append("r,second_moment")
        lines.append(f"{_fmt(args.r)},{_fmt(m)}")
    else:  # convolution
        p = validate_params(args.dim, args.alpha, 1.0, 2.5)
        radius = args.radius or {1: 1e4, 2: 200.0}.get(args.dim, 50.0)  # --radius is > 0
        u = np.zeros(args.dim, dtype=np.int64)
        v = np.zeros(args.dim, dtype=np.int64)
        v[0] = int(round(args.dist))
        res = moments.convolution_ratio(p, u, v, radius)
        lines.append("dist,radius,sum,ratio,tail_bound")
        lines.append(",".join(_fmt(x) for x in
                              [args.dist, radius, res.s, res.ratio, res.tail_bound]))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_hierarchy_check(args) -> int:
    from .graph import VertexOutOfBox, load_realization
    from .hierarchy import Hierarchy, validate_hierarchy
    real = load_realization(args.realization)
    sites, site_line = {}, {}
    with open(args.hierarchy, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            where = f"{args.hierarchy}:{ln}"
            if parts[0] != "s" or len(parts) != 2 + real.spec.d:
                raise ParameterError(f"{where}: expected 's <binary> <{real.spec.d} coords>'")
            key = parts[1]
            if any(c not in "01" for c in key):
                raise ParameterError(f"{where}: site key {key!r} is not a binary string")
            if key in sites:
                raise ParameterError(f"{where}: site key {key!r} already given on line "
                                     f"{site_line[key]}")
            try:
                sites[key] = tuple(int(c) for c in parts[2:])
            except ValueError:
                # A decimal literal int() refuses is past its digit limit, so outside the box.
                big = [c for c in parts[2:] if len(c) > 20 and c[c[0] in "+-":].isdecimal()]
                what = (f"site key {key!r}: coordinate {big[0][:12]}... outside box" if big
                        else f"coordinates {' '.join(parts[2:])!r} are not integers")
                raise ParameterError(f"{where}: {what}") from None
            try:
                real.spec.flat_of(sites[key])
            except VertexOutOfBox as exc:
                raise ParameterError(f"{where}: site key {key!r}: {exc}") from None
            site_line[key] = ln
    if not sites:
        raise ParameterError(f"{args.hierarchy}: no site lines")
    depth = max(len(k) for k in sites)
    h = Hierarchy(depth=depth, sites=sites)
    violation = validate_hierarchy(h, real)
    _emit(f"{'valid' if violation is None else violation}\n", args.out)
    return 0 if violation is None else 2


def _cmd_verify(args) -> int:
    from .experiments import ExperimentReport, Verdict
    from .verify import run_suite
    results = run_suite(quick=args.quick, seed=args.seed, threads=args.threads)
    n_pass = sum(r.passed for r in results)
    return _report_exit(ExperimentReport(
        name="verify", config={"quick": args.quick, "seed": args.seed, "threads": args.threads},
        columns=["criterion", "name", "result", "detail"],
        rows=[(r.cid, r.name, "pass" if r.passed else "FAIL",
               r.detail.replace("\n", " ").replace(",", ";")) for r in results],
        verdicts=[Verdict("verify", n_pass == len(results),
                          f"{n_pass}/{len(results)} criteria passed")],
        wallclock=sum(r.elapsed for r in results)), args)


_DISPATCH = {
    "exponents": _cmd_exponents,
    "generate": _cmd_generate,
    "degrees": _cmd_degrees,
    "distances": _cmd_distances,
    "adjacent": _cmd_adjacent,
    "fkg": _cmd_fkg,
    "bridge": _cmd_bridge,
    "coupling": _cmd_coupling,
    "moments": _cmd_moments,
    "hierarchy": _cmd_hierarchy_check,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
