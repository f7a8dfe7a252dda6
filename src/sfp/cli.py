"""Command-line entry point.

Subcommands: exponents, generate, degrees, distances, adjacent, fkg,
bridge, coupling, moments {adjacent,second,convolution}, hierarchy check,
verify.  Exit codes: 0 success / all verdicts pass, 1 usage error,
2 verdict failure, 3 runtime error.  Diagnostics go to stderr; CSV
(with '#'-prefixed metadata lines) goes to stdout or --out.

A flat config file (`key = value` per line, '#' comments) can seed any
flag via --config; explicit flags override the file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .params import ModelKind, ParameterError, classify_regime, derived_exponents, validate_params


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _build_parser() -> _Parser:
    top = _Parser(prog="sfp", description=__doc__)
    top.add_argument("--version", action="version", version=f"sfp {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=1,
                        help="worker cap for parallel sections (0 = auto)")
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--config", type=str, default=None,
                        help="flat key = value file; flags override it")

    model = _Parser(add_help=False, parents=[common])
    model.add_argument("--dim", type=int, default=1)
    model.add_argument("--alpha", type=float, required=True)
    model.add_argument("--tau", type=float, required=True)
    model.add_argument("--lambda", dest="lambda_", type=float, default=1.0)
    model.add_argument("--model", type=str, default="sfp",
                       choices=["sfp", "lrp", "sfpnn"])

    box = _Parser(add_help=False, parents=[model])
    box.add_argument("--side", type=int, required=True)
    box.add_argument("--trunc", type=float, default=None,
                     help="decide only pairs within this Euclidean distance")

    p = sub.add_parser("exponents", parents=[model],
                       help="derived exponents and phase-diagram regime")

    p = sub.add_parser("generate", parents=[box], help="sample one realization")
    p.add_argument("--pair-budget", type=int, default=None)

    p = sub.add_parser("degrees", parents=[box], help="degree-tail experiment")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--margin", type=int, default=0)
    p.add_argument("--hill-k", type=int, default=None)
    p.add_argument("--tol", type=float, default=0.3)

    p = sub.add_parser("distances", parents=[box], help="distance-scaling experiment")
    p.add_argument("--n-list", type=str, default=None,
                   help="comma-separated separations, e.g. 16,32,64")
    p.add_argument("--sources", type=int, default=32)
    p.add_argument("--compare-lrp", action="store_true")

    p = sub.add_parser("adjacent", parents=[model],
                       help="adjacent-edge probability: sandwich and decay")
    p.add_argument("--replicates", type=int, default=1_000_000)
    p.add_argument("--rxy", type=float, required=True)
    p.add_argument("--ryz", type=float, required=True)
    p.add_argument("--sweep-ryz", type=str, default="8,16,32,64")
    p.add_argument("--sweep-rxy", type=float, default=256.0)

    p = sub.add_parser("fkg", parents=[model], help="path-cut correlation check")
    p.add_argument("--replicates", type=int, default=1_000_000)
    p.add_argument("--path", type=str, required=True,
                   help="semicolon-separated vertices, comma-separated coords")

    p = sub.add_parser("bridge", parents=[model], help="midpoint-cube bridging slope")
    p.add_argument("--replicates", type=int, default=1_000_000)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n-list", type=str, default="64,128,256,512,1024")

    p = sub.add_parser("coupling", parents=[box], help="SFP/LRP inclusion check")
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--lambda-lrp", type=float, default=None)

    mom = sub.add_parser("moments", help="closed-form / quadrature calculators")
    msub = mom.add_subparsers(dest="moments_command", required=True)
    p = msub.add_parser("adjacent", parents=[model])
    p.add_argument("--rxy", type=float, required=True)
    p.add_argument("--ryz", type=float, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the quadrature oracle")
    p = msub.add_parser("second", parents=[model])
    p.add_argument("--r", type=float, required=True)
    p = msub.add_parser("convolution", parents=[common])
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--dist", type=float, required=True)
    p.add_argument("--radius", type=float, default=None,
                   help="truncation ball radius (default 1e4 for d=1, 200 for d=2, 50 above)")

    hier = sub.add_parser("hierarchy", help="hierarchy tools")
    hsub = hier.add_subparsers(dest="hierarchy_command", required=True)
    p = hsub.add_parser("check", parents=[common])
    p.add_argument("--realization", type=str, required=True)
    p.add_argument("--hierarchy", type=str, required=True)

    p = sub.add_parser("verify", parents=[common], help="run the verification suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--hook-break-sandwich", action="store_true", help=argparse.SUPPRESS)

    return top


def _apply_config_file(argv):
    """Pre-scan for --config and turn file entries into leading defaults.

    File entries become flags placed before the explicit ones, so
    command-line flags win.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = argv[i + 1]
    extra = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected key = value")
                key, value = (s.strip() for s in line.split("=", 1))
                flag = "--" + key.replace("_", "-")
                if flag == "--config":
                    raise UsageError(f"{path}:{ln}: config files cannot nest")
                extra.extend([flag, value])
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    # Insert right after the subcommand path, before explicit flags.
    head = []
    rest = list(argv)
    while rest and not rest[0].startswith("-"):
        head.append(rest.pop(0))
    return head + extra + rest


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params_from(args):
    return validate_params(args.dim, args.alpha, args.lambda_, args.tau,
                           ModelKind.parse(args.model))


def _header(args, **extra) -> list:
    lines = [f"#version=sfp-{__version__}"]
    echo = {"seed": getattr(args, "seed", 0)}
    for key in ("dim", "alpha", "tau", "lambda_", "model", "side", "trunc"):
        if hasattr(args, key) and getattr(args, key) is not None:
            echo[key.rstrip("_")] = getattr(args, key)
    echo.update(extra)
    for k in sorted(echo):
        lines.append(f"#config {k}={_fmt(echo[k])}")
    return lines


def _int_list(text: str) -> list:
    return [int(s) for s in text.split(",") if s.strip()]


def _float_list(text: str) -> list:
    return [float(s) for s in text.split(",") if s.strip()]


def _parse_path(text: str, d: int) -> list:
    verts = []
    for part in text.split(";"):
        coords = [int(c) for c in part.split(",") if c.strip()]
        if len(coords) != d:
            raise UsageError(f"path vertex {part!r} is not {d}-dimensional")
        verts.append(tuple(coords))
    return verts


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
    from .graph import DEFAULT_PAIR_BUDGET, BoxSpec, generate_box, save_realization
    if not args.out:
        raise UsageError("generate requires --out FILE")
    p = _params_from(args)
    spec = BoxSpec(d=args.dim, side=args.side)
    budget = args.pair_budget if args.pair_budget else DEFAULT_PAIR_BUDGET
    r = generate_box(p, args.seed, spec, args.trunc, pair_budget=budget)
    save_realization(r, args.out)
    print(f"wrote {r.n_edges} edges on {r.n_vertices} vertices to {args.out}",
          file=sys.stderr)
    return 0


def _experiment_config(args, need_spec: bool):
    from .experiments import ExperimentConfig
    from .graph import BoxSpec
    spec = BoxSpec(d=args.dim, side=args.side) if need_spec else None
    return ExperimentConfig(params=_params_from(args), spec=spec, seed=args.seed,
                            replicates=getattr(args, "replicates", 1),
                            threads=args.threads)


def _cmd_degrees(args) -> int:
    from .experiments import run_degree_experiment
    cfg = _experiment_config(args, need_spec=True)
    rep = run_degree_experiment(cfg, margin=args.margin, hill_k=args.hill_k,
                                cutoff=args.trunc, tol=args.tol)
    return _report_exit(rep, args)


def _cmd_distances(args) -> int:
    from .experiments import run_distance_experiment
    cfg = _experiment_config(args, need_spec=True)
    n_list = _int_list(args.n_list) if args.n_list else None
    rep = run_distance_experiment(cfg, n_list=n_list, n_sources=args.sources,
                                  cutoff=args.trunc, compare_lrp=args.compare_lrp)
    return _report_exit(rep, args)


def _cmd_adjacent(args) -> int:
    from .experiments import run_adjacent_mc
    cfg = _experiment_config(args, need_spec=False)
    rep = run_adjacent_mc(cfg, args.rxy, args.ryz,
                          sweep_ryz=tuple(_float_list(args.sweep_ryz)),
                          sweep_rxy=args.sweep_rxy)
    return _report_exit(rep, args)


def _cmd_fkg(args) -> int:
    from .experiments import run_fkg_check
    cfg = _experiment_config(args, need_spec=False)
    rep = run_fkg_check(cfg, _parse_path(args.path, args.dim))
    return _report_exit(rep, args)


def _cmd_bridge(args) -> int:
    from .experiments import run_bridge_experiment
    cfg = _experiment_config(args, need_spec=False)
    rep = run_bridge_experiment(cfg, beta=args.beta, n_list=_int_list(args.n_list))
    return _report_exit(rep, args)


def _cmd_coupling(args) -> int:
    from .experiments import run_coupling_check
    cfg = _experiment_config(args, need_spec=True)
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
            gap = abs(res.middle_expectation - oracle) / abs(oracle)
            row += [_fmt(oracle), _fmt(gap)]
        lines.append(cols)
        lines.append(",".join(row))
    elif args.moments_command == "second":
        p = _params_from(args)
        m = moments.single_edge_second_moment(p, args.r)
        lines.append("r,second_moment")
        lines.append(f"{_fmt(args.r)},{_fmt(m)}")
    else:  # convolution
        p = validate_params(args.dim, args.alpha, 1.0, 2.5)
        radius = args.radius
        if radius is None:
            radius = {1: 1e4, 2: 200.0}.get(args.dim, 50.0)
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
    from .graph import load_realization
    from .hierarchy import Hierarchy, validate_hierarchy
    real = load_realization(args.realization)
    sites = {}
    with open(args.hierarchy, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] != "s" or len(parts) != 2 + real.spec.d:
                raise UsageError(f"{args.hierarchy}:{ln}: expected "
                                 f"'s <binary> <{real.spec.d} coords>'")
            sites[parts[1]] = tuple(int(c) for c in parts[2:])
    if not sites:
        raise UsageError(f"{args.hierarchy}: no site lines")
    depth = max(len(k) for k in sites)
    h = Hierarchy(depth=depth, sites=sites)
    violation = validate_hierarchy(h, real)
    if violation is None:
        print("valid")
        return 0
    print(str(violation))
    return 2


def _cmd_verify(args) -> int:
    from .verify import run_suite
    results = run_suite(quick=args.quick, seed=args.seed, threads=args.threads,
                        break_sandwich_hook=args.hook_break_sandwich)
    lines = [f"#experiment=verify", f"#version=sfp-{__version__}",
             f"#config quick={args.quick}", f"#config seed={args.seed}",
             f"#threads={args.threads}"]
    lines.append("criterion,name,result,detail")
    for r in results:
        detail = r.detail.replace("\n", " ").replace(",", ";")
        lines.append(f"{r.cid},{r.name},{'pass' if r.passed else 'FAIL'},{detail}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"#verdict verify {'pass' if n_fail == 0 else 'FAIL'} "
                 f"{len(results) - n_fail}/{len(results)} criteria passed")
    lines.append("#wallclock={:.3f}".format(sum(r.elapsed for r in results)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if n_fail == 0 else 2


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
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        if args.command == "hierarchy":
            return _cmd_hierarchy_check(args)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParameterError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
