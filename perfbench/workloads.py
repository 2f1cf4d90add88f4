"""The three workloads: the ops of one pass, drawn from the seed.

Every drawn parameter comes from ``numpy.random.default_rng(seed)``.  Where
the cost or the outcome of an op depends strongly on a parameter, the draw
is stratified: one value is drawn uniformly inside each stratum, and the
strata cover the constructor's whole domain (but for the one gap described
at GAMMA_RECIPROCAL_S).  The mix of cheap, expensive and known-failing ops
is then the same for every seed, so runs with different seeds are
comparable, while every part of the domain is still exercised.
"""

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

import reference as ref
from ops import CheckFailed, Op, err_ratio, match_known

WORKLOADS = ("cli-check", "inversion", "measures")

EVAL_X = 8                  # x values per eval key and per measure
# scalar inversions per pass: enough that the median op of the inversion
# workload falls well inside this group rather than at its edge
SCALAR_INVERSIONS = 16
SAMPLE_COUNT = 10_000
INVERT_ROWS = 12_000        # t_max / dt at the CLI defaults
SEMIGROUP_TOL = 1e-4        # the CLI's default tolerance for the semigroup
SPREAD_TOL = 1e-4           # laplace_invert's default method-spread gate
THREE_WAY_TOL = 1e-7        # the cesaro suite's three-way tolerance

# Error fields of suite items that carry no "tol" of their own, with the
# tolerance the suite applies to them.
ITEM_TOL = {
    "p1-series-crosscheck": ("max_error", 1e-10),
    "lemma-iterated-sums": ("max_error", 1e-12),
    "prym-kappa-closed-form": ("max_error", 1e-12),
    "half-gumbel-normalization": ("max_error", 1e-8),
    "conjugate-symmetry": ("max_spread", 1e-12),
    "m1-closed-form": ("max_error", 1e-6),
    "semigroup-half-half": ("sup_discrepancy", 1e-4),
    "normalization": ("max_error", 1e-9),
    "laplace-shift": ("max_error", 1e-9),
    "counterexample-random-r": ("max_residual", 1e-10),
}


def stratified(rng, strata):
    """One uniform draw in each (lo, hi] stratum."""
    return [hi - (hi - lo) * rng.random() for lo, hi in strata]


def between(edges):
    """The strata between consecutive edges."""
    return list(zip(edges[:-1], edges[1:]))


def log_stratified(rng, lo, hi, n):
    """n draws, one in each of n equal strata of [log lo, log hi]."""
    edges = np.linspace(math.log(lo), math.log(hi), n + 1)
    return [math.exp(v) for v in stratified(rng, between(edges))]


class CliResult:
    """Exit code and captured standard output of one in-process CLI call."""

    def __init__(self, rc, out, files=()):
        self.rc = rc
        self.out = out
        self.files = files

    def output_bytes(self):
        return len(self.out.encode()) + sum(
            os.path.getsize(f) for f in self.files if os.path.exists(f))


def cli_call(cmfun, argv, files=()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cmfun.cli.main(argv)
    return CliResult(rc, out.getvalue(), files)


def _csv_values(text, n_rows):
    lines = text.strip().splitlines()
    if len(lines) != n_rows + 1:
        raise CheckFailed("rows")
    return np.array([float(line.rsplit(",", 1)[-1]) for line in lines[1:]])


# ---------------------------------------------------------------------------
# cli-check
# ---------------------------------------------------------------------------

def _check_suite(res):
    if res.rc == 2:
        raise CheckFailed("exit 2")
    report = json.loads(res.out)
    bad = sorted(it["name"] for it in report["items"] if not it["passed"])
    if bad or res.rc != 0 or not report["passed"]:
        raise CheckFailed("items:" + ",".join(bad))
    worst = 0.0
    for it in report["items"]:
        name = it["name"]
        if "tol" in it and "max_error" in it:
            worst = max(worst, it["max_error"] / it["tol"])
        elif name == "sampling":
            worst = max(worst, it["ks"] / it["critical"])
        elif name.startswith("three-way:"):
            worst = max(worst, it["max_spread"] / THREE_WAY_TOL)
        elif name.startswith("counterexample-r="):
            worst = max(worst, it["residual"] / 1e-10)
        elif name in ITEM_TOL:
            field, tol = ITEM_TOL[name]
            worst = max(worst, it[field] / tol)
    return worst


def _eval_op(cmfun, key, xs):
    refs = [ref.eval_reference(key, x) for x in xs]

    def check(res):
        if res.rc != 0:
            raise CheckFailed(f"exit {res.rc}")
        values = _csv_values(res.out, len(xs))
        return max(err_ratio(v, r, rtol, atol)
                   for v, (r, rtol, atol) in zip(values, refs))

    argv = ["eval", key] + [repr(x) for x in xs]
    return Op("eval", f"eval {key}", lambda: cli_call(cmfun, argv), check,
              {"key": key})


def _sample_op(cmfun, a, seed):
    mean, var = ref.nu_moments(a)
    argv = ["sample", "--family", "nu", "--a", repr(a),
            "--count", str(SAMPLE_COUNT), "--seed", str(seed)]

    def check(res):
        if res.rc != 0:
            raise CheckFailed(f"exit {res.rc}")
        values = _csv_values(res.out, SAMPLE_COUNT)
        if not np.all(np.isfinite(values) & (values > 0)):
            raise CheckFailed("support")
        # the sample mean within five standard errors of the exact mean
        return abs(values.mean() - mean) / (5.0 * math.sqrt(var / len(values)))

    return Op("sample", f"sample nu a={a:.4g}", lambda: cli_call(cmfun, argv),
              check, {"a": a})


def cli_check_ops(cmfun, rng):
    suite_seed = int(rng.integers(1, 2 ** 31))
    ops = []
    for suite in rng.permutation(sorted(cmfun.suites.SUITES)):
        suite = str(suite)
        argv = ["check", suite, "--seed", str(suite_seed)]
        ops.append(Op("check", f"check {suite}",
                      lambda argv=argv: cli_call(cmfun, argv), _check_suite,
                      {"suite": suite}))
    for key in cmfun.cli._EVAL_KEYS:
        ops.append(_eval_op(cmfun, key, log_stratified(rng, 0.1, 40.0, EVAL_X)))
    ops.append(_sample_op(cmfun, float(rng.uniform(0.2, 2.0)),
                          int(rng.integers(1, 2 ** 31))))
    return ops


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def _semigroup_op(cmfun, c, d):
    return Op("semigroup_check", f"semigroup_check c={c:.4g} d={d:.4g}",
              lambda: cmfun.laplace.semigroup_check(c, d),
              lambda sup: sup / SEMIGROUP_TOL, {"c": c, "d": d})


def _density_one_op(cmfun):
    def check(dens):
        mask = (dens.t >= 0.1) & (dens.t <= 5.0)
        exact = 1.0 / (1.0 + np.exp(-dens.t[mask]))
        err = float(np.max(np.abs(dens.values[mask] - exact)))
        return max(err / 1e-6, dens.method_spread / SPREAD_TOL)

    return Op("semigroup_density", "semigroup_density c=1",
              lambda: cmfun.laplace.semigroup_density(1.0), check, {"c": 1.0})


def _invert_cli_op(cmfun, c, rows, work_dir):
    dt = 1e-3
    refs = [(j, ref.beta_power_inverse(c, dt * (j + 1))) for j in rows]
    diag = str(Path(work_dir) / "diag.json")
    argv = ["invert", "beta-pow-c", "--c", repr(c), "--diag", diag]

    def check(res):
        if res.rc != 0:
            raise CheckFailed(f"exit {res.rc}")
        values = _csv_values(res.out, INVERT_ROWS)
        with open(diag) as fh:
            spread = json.load(fh)["method_spread"]
        if spread > SPREAD_TOL:
            raise CheckFailed("method_spread")
        worst = max(err_ratio(values[j], r, 1e-7, 1e-10) for j, r in refs)
        return max(worst, spread / SPREAD_TOL)

    return Op("invert", f"invert beta-pow-c c={c:.4g}",
              lambda: cli_call(cmfun, argv, files=(diag,)), check, {"c": c})


def _scalar_invert_op(cmfun, c, t):
    value = ref.beta_power_inverse(c, t)
    lap = cmfun.laplace
    return Op("laplace_invert", f"laplace_invert c={c:.4g} t={t:.4g}",
              lambda: lap.laplace_invert(lap.beta_power(c), t),
              lambda v: err_ratio(v, value, 1e-7, 1e-12), {"c": c, "t": t})


def inversion_ops(cmfun, rng, work_dir):
    lo, mid, hi = 0.2, 1.1, 2.0
    # a two-point Latin square over [lo, hi]^2: one c and one d in each half
    cs = stratified(rng, between([lo, mid, hi]))
    ds = [stratified(rng, between([lo, mid, hi]))[i]
          for i in rng.permutation(2)]
    ops = [_semigroup_op(cmfun, c, d) for c, d in zip(cs, ds)]
    ops.append(_density_one_op(cmfun))
    c_inv = float(rng.uniform(lo, hi))
    rows = sorted(int(j) for j in rng.choice(INVERT_ROWS, 4, replace=False))
    ops.append(_invert_cli_op(cmfun, c_inv, rows, work_dir))
    ts = stratified(rng, between(np.linspace(0.0, 12.0,
                                             SCALAR_INVERSIONS + 1)))
    for t in ts:
        ops.append(_scalar_invert_op(cmfun, float(rng.uniform(lo, hi)),
                                     max(t, 1e-3)))
    return ops


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

# Strata of the gamma-reciprocal s and the alternating lam.  Their edges are
# where the failures in known_failures.json and the cost of the kernel route
# change, so every seed gives the same mix of ops.  s in (0.215, 0.26) is not
# drawn: there stieltjes_eval fails for some s and not for others nearby, so
# the number of failing (and slow) ops would depend on the seed; the failure
# itself is drawn every time from (0, 0.215].
GAMMA_RECIPROCAL_S = ((0.0, 0.215), (0.26, 0.455), (0.455, 0.6), (0.6, 1.0))
ALTERNATING_LAM = between((0.0, 0.15, 0.3, 0.5, 1.0))
GAMMA_RATIOS = 5


def _measure_ops(cmfun, rng, family, params, build, check_build,
                 value):
    """Constructor op, EVAL_X stieltjes_eval ops and one kernel-route op."""
    st = cmfun.stieltjes
    label = family + " " + " ".join(
        f"{k}={v:.4g}" for k, v in params.items() if not isinstance(v, tuple))
    holder = {}

    def construct():
        holder["m"] = build()
        return holder["m"]

    ops = [Op("construct", "construct " + label, construct, check_build,
              dict(params, family=family))]
    for x in log_stratified(rng, 0.05, 50.0, EVAL_X):
        r = value(x)
        ops.append(Op("stieltjes_eval", f"stieltjes_eval {label} x={x:.4g}",
                      lambda x=x: st.stieltjes_eval(holder["m"], x),
                      lambda v, r=r: err_ratio(v, r, 1e-10, 1e-14),
                      dict(params, family=family, x=x)))
    x = log_stratified(rng, 0.05, 50.0, 1)[0]
    r = value(x)
    ops.append(Op("stieltjes_via_kernel", f"stieltjes_via_kernel {label} x={x:.4g}",
                  lambda: st.stieltjes_via_kernel(holder["m"], x),
                  lambda v: err_ratio(v, r, 1e-9, 1e-14),
                  dict(params, family=family, x=x)))
    return ops


def _close(value, expected, tol=1e-12):
    return abs(value - expected) / (tol * max(1.0, abs(expected)))


def measures_ops(cmfun, rng):
    st, ces = cmfun.stieltjes, cmfun.cesaro
    ops = []

    # five gamma-ratio measures put the median op inside the large group
    # of millisecond-scale stieltjes_eval calls rather than at its edge
    for a, b in rng.uniform(0.0, 3.0, (GAMMA_RATIOS, 2)):
        a, b = float(a), float(b)
        ops += _measure_ops(
            cmfun, rng, "gamma-ratio", {"a": a, "b": b},
            lambda a=a, b=b: st.measure_gamma_ratio(a, b),
            # the periodic tail's mean is the trapezoid area a*b
            lambda m, a=a, b=b: _close(m.tail.mean, a * b),
            lambda x, a=a, b=b: ref.gamma_ratio_measure(x, a, b))

    for s in stratified(rng, GAMMA_RECIPROCAL_S):
        ops += _measure_ops(
            cmfun, rng, "gamma-reciprocal", {"s": s},
            lambda s=s: st.measure_gamma_reciprocal_ratio(s),
            # density (1-s)_k/k! on (k, k+1): 1 on the first cell, 1-s next
            lambda m, s=s: max(_close(float(m.density(0.5)), 1.0),
                               _close(float(m.density(1.5)), 1.0 - s)),
            lambda x, s=s: ref.gamma_reciprocal_measure(x, s))

    for lam in stratified(rng, ALTERNATING_LAM):
        off = float(rng.uniform(0.0, 3.0))
        ops += _measure_ops(
            cmfun, rng, "alternating", {"lam": lam, "off": off},
            lambda lam=lam, off=off: st.measure_alternating(
                lambda n: n + off, lam),
            # weight lam on the gaps (off + 2n, off + 2n + 1), order lam + 1
            lambda m, lam=lam, off=off: max(
                _close(m.order, lam + 1.0),
                _close(float(m.density(off + 0.5)), lam),
                _close(float(m.density(off + 1.5)), 0.0)),
            lambda x, lam=lam, off=off: ref.alternating_measure(x, lam, off))

    zeros = tuple(sorted(float(z) for z in rng.uniform(0.1, 10.0, 3)))
    za, zb = (float(v) for v in rng.uniform(0.0, 2.0, 2))
    ops += _measure_ops(
        cmfun, rng, "genus1", {"zeros": zeros, "a": za, "b": zb},
        lambda: st.measure_genus1_log_ratio(zeros, za, zb),
        # one trapezoid of area a*b per zero
        lambda m: _close(m.density.mass(), 3.0 * za * zb),
        lambda x: ref.genus1_measure(x, zeros, za, zb))

    for preset in ("prym", "alternating", "ones"):
        lam = ces.preset_sequence(preset).default_lam
        x = log_stratified(rng, 0.2, 20.0, 1)[0]
        r = ref.series_reference(preset, x)

        def check(res, r=r):
            vals = (res.direct, res.stieltjes, res.laplace)
            return max(res.spread / THREE_WAY_TOL,
                       max(err_ratio(v, r, THREE_WAY_TOL) for v in vals))

        ops.append(Op("three_way", f"series_eval_three_ways {preset} x={x:.4g}",
                      lambda preset=preset, lam=lam, x=x:
                      ces.series_eval_three_ways(preset, 0, lam, x),
                      check, {"preset": preset, "x": x}))

    hyp_lam = float(rng.uniform(1.0, 2.0))

    def check_hypotheses(report):
        if report.overall != "pass":
            raise CheckFailed("verdict:" + report.overall)
        return 0.0

    ops.append(Op("hypotheses", f"hypotheses_check prym lam={hyp_lam:.4g}",
                  lambda: ces.hypotheses_check("prym", 0, hyp_lam),
                  check_hypotheses, {"lam": hyp_lam}))
    return ops


def build_ops(workload, cmfun, seed, registry, work_dir):
    """The ops of one pass, with references, and each op's registry entry."""
    rng = np.random.default_rng(seed)
    if workload == "cli-check":
        ops = cli_check_ops(cmfun, rng)
    elif workload == "inversion":
        ops = inversion_ops(cmfun, rng, work_dir)
    elif workload == "measures":
        ops = measures_ops(cmfun, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        op.known_failure = match_known(registry, op.kind, op.params)
    return ops
