"""Command line front end: evaluate functions, run verification suites,
tabulate/invert transforms and sample densities.

Exit codes: 0 success / all checks pass, 1 verification failure (also an
inversion whose cross-check fails), 2 usage or domain error, 3 no convergence.
"""

import argparse
import inspect
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import barnes, densities, laplace, specfun, suites
from .errors import ConvergenceError, DomainError, InversionDisagreementError


@dataclass
class RunConfig:
    """Defaults merged from an optional JSON config file; explicit command
    line flags win."""

    tolerances: dict = field(default_factory=dict)
    seed: int = 20260808
    fmt: str = "csv"
    dt: float = 1e-3
    t_max: float = 12.0

    @staticmethod
    def load(path):
        cfg = RunConfig()
        if not path:
            return cfg
        with open(path) as fh:
            try:
                data = json.load(fh)
                if not isinstance(data, dict):
                    raise TypeError("not a JSON object")
                cfg.tolerances = {k: float(v) for k, v in
                                  dict(data.get("tolerances", {})).items()}
                cfg.seed = int(data.get("seed", cfg.seed))
                cfg.fmt = data.get("format", cfg.fmt)
                cfg.dt = float(data.get("dt", cfg.dt))
                cfg.t_max = float(data.get("t_max", cfg.t_max))
            except (TypeError, ValueError) as exc:
                raise DomainError(f"config file {path}: {exc}") from None
        if cfg.fmt not in ("csv", "json"):
            raise DomainError(f"config file {path}: format must be csv or "
                              f"json, got {cfg.fmt!r}")
        return cfg


# each key's value at one x, given the parsed arguments
_EVAL = {
    "beta": lambda x, args: specfun.nielsen_beta(x),
    "digamma": lambda x, args: specfun.digamma(x),
    "trigamma": lambda x, args: specfun.trigamma(x),
    "prym": lambda x, args: specfun.prym_P(x),
    "beta-a-lambda": lambda x, args: specfun.beta_a_lambda(x, args.a, args.lam),
    "gamma-ratio-log": lambda x, args: specfun.gamma_ratio_log(x, args.a,
                                                                args.b),
    "si": lambda x, args: specfun.sin_cos_integrals(x)[0],
    "ci": lambda x, args: specfun.sin_cos_integrals(x)[1],
    "p-kernel": lambda x, args: barnes.p_kernel(x, args.n),
    "r22": lambda x, args: barnes.r_2_2n(x, args.n),
}
_EVAL_KEYS = tuple(_EVAL)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tolerance(tol):
    """``tol`` if finite and > 0; any other makes every verdict meaningless."""
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and positive, got {tol}")
    return tol


def _report_json(report):
    return json.dumps(report, sort_keys=True, indent=2,
                      default=float) + "\n"


def cmd_eval(args, cfg):
    fmt = args.fmt or cfg.fmt
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        values = [(x, _EVAL[args.key](x, args)) for x in args.x]
    for x, v in values:
        if not math.isfinite(v):
            raise DomainError(f"{args.key}({x:.12g}) is not finite: {v}")
    if fmt == "json":
        text = _report_json({"function": args.key,
                             "rows": [{"x": x, "value": v}
                                      for x, v in values]})
    else:
        rows = ["x,value"] + [f"{x:.12g},{v:.17g}" for x, v in values]
        text = "\n".join(rows) + "\n"
    _emit(text, args.out)
    return 0


def cmd_check(args, cfg):
    params = inspect.signature(suites.SUITES[args.suite]).parameters
    tol = args.tol if args.tol is not None else cfg.tolerances.get(args.suite)
    overrides = {k: v for k, v in (("tol", tol), ("r", args.r))
                 if v is not None}
    for name in overrides:
        if name not in params:
            source = (f"--{name}" if getattr(args, name) is not None
                      else "the config file")
            raise DomainError(f"suite {args.suite} takes no {name}, but "
                              f"{source} sets one")
    if tol is not None:
        _tolerance(tol)
    seed = args.seed if args.seed is not None else cfg.seed
    overrides.update((k, v) for k, v in
                     (("seed", seed), ("dt", cfg.dt), ("t_max", cfg.t_max))
                     if k in params)
    report = suites.run_suite(args.suite, **overrides)
    _emit(_report_json(report), args.out)
    return 0 if report["passed"] else 1


def cmd_invert(args, cfg):
    dt = args.dt if args.dt is not None else cfg.dt
    t_max = args.tmax if args.tmax is not None else cfg.t_max
    dens = laplace.semigroup_density(args.c, dt, t_max)
    _emit(dens.to_csv(), args.out)
    if args.diag:
        diag = {"methods": ["fft", "euler"],
                "method_spread": dens.method_spread,
                "spread_t": dens.spread_t, "fft_points": dens.fft_points,
                "fft_band": dens.fft_band,
                "raw_min": dens.raw_min, "c": args.c,
                "dt": dt, "t_max": t_max}
        with open(args.diag, "w") as fh:
            fh.write(_report_json(diag))
    return 0


def cmd_semigroup(args, cfg):
    dt = args.dt if args.dt is not None else cfg.dt
    t_max = args.tmax if args.tmax is not None else cfg.t_max
    tol = _tolerance(args.tol if args.tol is not None else
                     cfg.tolerances.get("semigroup", laplace.SEMIGROUP_TOL))
    sup = laplace.semigroup_check(args.c, args.d, dt, t_max)
    report = {"c": args.c, "d": args.d, "dt": dt, "t_max": t_max,
              "sup_discrepancy": sup, "tol": tol, "passed": sup < tol}
    _emit(_report_json(report), args.out)
    return 0 if report["passed"] else 1


def cmd_sample(args, cfg):
    spec = densities.DensitySpec(args.family, args.a)
    seed = args.seed if args.seed is not None else cfg.seed
    samples = densities.density_sample(spec, args.count, seed)
    _emit(densities.samples_to_csv(samples), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmfun",
        description="Special functions, Stieltjes measures and complete-"
                    "monotonicity checks around Nielsen's beta function.")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        help="output format where applicable")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function on points")
    p_eval.add_argument("key", choices=_EVAL_KEYS)
    p_eval.add_argument("x", type=float, nargs="+")
    p_eval.add_argument("--a", type=float, default=0.5)
    p_eval.add_argument("--b", type=float, default=1.0)
    p_eval.add_argument("--lam", type=float, default=1.0)
    p_eval.add_argument("--n", type=int, default=1)
    p_eval.add_argument("--out")
    p_eval.set_defaults(fn=cmd_eval)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=sorted(suites.SUITES))
    p_check.add_argument("--tol", type=float)
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--r", type=float,
                         help="order parameter for the counterexample suite")
    p_check.add_argument("--out")
    p_check.set_defaults(fn=cmd_check)

    p_inv = sub.add_parser("invert", help="tabulate an inverse transform")
    p_inv.add_argument("key", choices=("beta-pow-c",))
    p_inv.add_argument("--c", type=float, required=True)
    p_inv.add_argument("--dt", type=float)
    p_inv.add_argument("--tmax", type=float)
    p_inv.add_argument("--out")
    p_inv.add_argument("--diag", help="write method diagnostics JSON here")
    p_inv.set_defaults(fn=cmd_invert)

    p_semi = sub.add_parser("semigroup", help="convolution semigroup check")
    p_semi.add_argument("c", type=float)
    p_semi.add_argument("d", type=float)
    p_semi.add_argument("--dt", type=float)
    p_semi.add_argument("--tmax", type=float)
    p_semi.add_argument("--tol", type=float)
    p_semi.add_argument("--out")
    p_semi.set_defaults(fn=cmd_semigroup)

    p_samp = sub.add_parser("sample", help="draw density samples")
    p_samp.add_argument("--family", choices=densities.FAMILIES, required=True)
    p_samp.add_argument("--a", type=float, required=True)
    p_samp.add_argument("--count", type=int, required=True)
    p_samp.add_argument("--seed", type=int)
    p_samp.add_argument("--out")
    p_samp.set_defaults(fn=cmd_sample)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args, RunConfig.load(args.config))
    except (ConvergenceError, ValueError, KeyError, OSError) as exc:
        # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InversionDisagreementError):
            return 1
        return 3 if isinstance(exc, ConvergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
