"""Named verification suites backing the command line ``check`` command.

Each suite is a list of independent ``(name, check)`` items; ``check()``
returns the item's verdict dict, ``passed`` plus detail fields.  The runner
evaluates the items in order, names each verdict and assembles a
deterministic JSON-ready report.
"""

import math
from functools import partial

import numpy as np

from . import barnes, cesaro, densities, laplace, monotonicity, specfun, stieltjes
from .errors import CmfunError

# ---------------------------------------------------------------------------
# catalog functions
# ---------------------------------------------------------------------------


# the period-4 steps whose sigma and tau at alpha = 1, beta = nu are the
# kernels sigma_1 (square), sigma_2 (spike) and tau_+/- (square, sign -/+)
_SQUARE = laplace.PeriodicStep([1.0, 3.0, 4.0], [1.0, 0.0, 1.0])
_SPIKE = laplace.PeriodicStep([1.0, 3.0, 4.0], [0.0, 2.0, 0.0])


def sigma1(t, nu):
    return laplace.sigma_discrete(_SQUARE, 1.0, nu, t)


def sigma2(t, nu):
    return laplace.sigma_discrete(_SPIKE, 1.0, nu, t)


def tau_pm(t, nu, sign):
    return laplace.tau_discrete(_SQUARE, 1.0, nu, t, sign=-sign)


def sigma_cont(t, nu):
    t = np.asarray(t, dtype=float)
    return nu - np.sinh(nu * t) / t + np.cosh(nu * t) * np.tanh(t) / t


def tau_cont(t, nu, sign):
    t = np.asarray(t, dtype=float)
    return 1.0 + sign * (1.0 - np.cosh((1.0 - nu) * t) / np.cosh(t)) / t


def _beta_pair(x, nu):
    return (specfun.nielsen_beta((x + 1.0 - nu) / 2.0),
            specfun.nielsen_beta((x + 1.0 + nu) / 2.0))


def l_sigma1_closed(x, nu):
    bm, bp = _beta_pair(x, nu)
    return 1.0 / x - 0.25 * (bm + bp)


def l_sigma2_closed(x, nu):
    bm, bp = _beta_pair(x, nu)
    return 0.5 * (bm + bp)


def l_tau_closed(x, nu, sign):
    bm, bp = _beta_pair(x, nu)
    return 1.0 / x + sign * 0.5 * (bm - bp)


def l_sigma_cont_closed(x, nu):
    lg = specfun.log_gamma
    return nu / x + (lg((x - nu) / 4.0 + 1.0) + lg((x + nu) / 4.0)
                     - lg((x - nu) / 4.0 + 0.5) - lg((x + nu) / 4.0 + 0.5))


def l_tau_cont_closed(x, nu, sign):
    lg = specfun.log_gamma
    inner = (math.log(4.0) + lg((x - nu) / 4.0 + 1.0)
             + lg((x + nu) / 4.0 + 0.5) - np.log(x)
             - lg((x - nu) / 4.0 + 0.5) - lg((x + nu) / 4.0))
    return 1.0 / x + sign * inner


def _shifted(f, df):
    """x -> f(x + 1)/f(1) and its derivative."""
    return (lambda x: f(x + 1.0) / f(1.0), lambda x: df(x + 1.0) / f(1.0))


# the Laplace transforms of the shifted nu and tau densities: log-cm, so
# those densities are infinitely divisible
_SHIFTED_LCM = [
    ("beta-shift", *_shifted(specfun.nielsen_beta,
                             specfun.nielsen_beta_deriv)),
    ("trigamma-shift", *_shifted(specfun.trigamma, specfun.tetragamma)),
]


def _log_gamma_shift(s):
    """z -> log Gamma(z + s) - log Gamma(z)."""
    return lambda z: specfun.log_gamma(z + s) - specfun.log_gamma(z)


def l_omega_closed(x, a, b):
    """Laplace transform of (1 + b t^2)/(1 + a t^2) for a >= b >= 0."""
    y = x / math.sqrt(a)
    si, ci = specfun.sin_cos_integrals(y)
    return (b / a) / x + (1.0 - b / a) / math.sqrt(a) * \
        (ci * np.sin(y) - si * np.cos(y))


# ---------------------------------------------------------------------------
# verdict helpers
# ---------------------------------------------------------------------------

def _max_err(pairs, tol):
    err = max(abs(a - b) for a, b in pairs)
    return {"passed": err <= tol, "max_error": err, "tol": tol}


def _report(report):
    out = {"passed": report.passed, "worst_margin": report.worst_margin,
           "witnesses": len(report.witnesses)}
    if report.sup_im is not None:
        out["sup_im"] = report.sup_im
        out["inf_im"] = report.inf_im
    if report.error is not None:
        out["error"] = report.error
    return out


def _refuted(report):
    """A non-member's verdict: it passes when the check fails."""
    return {"passed": not report.passed, "witnesses": len(report.witnesses)}


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_cm_catalog():
    grid = monotonicity.CheckGrid.default()
    small = monotonicity.CheckGrid.default(hi=50.0, n_max=6)
    members = [
        ("beta", specfun.nielsen_beta, grid),
        ("trigamma", specfun.trigamma, grid),
        ("prym-P", specfun.prym_P, grid),
        ("sigma1-over-x", lambda x: sigma1(x, 0.3) / x, grid),
        ("sigma2-over-x", lambda x: sigma2(x, 0.3) / x, grid),
        ("tau-over-x", lambda x: tau_pm(x, 0.5, 1) / x, grid),
        ("gamma-ratio-log", lambda x: specfun.gamma_ratio_log(x, 0.5, 1.3),
         grid),
        ("beta-a-lambda", lambda x: specfun.beta_a_lambda(x, 0.5, 1.5),
         grid),
        ("p1", lambda t: barnes.p_kernel(t, 1), small),
        ("p2", lambda t: barnes.p_kernel(t, 2), small),
    ]
    non_members = [
        ("sin-plus-2", lambda x: math.sin(x) + 2.0),
        ("exp", math.exp),
        ("identity", lambda x: x),
    ]
    return ([("cm:" + name,
              lambda f=f, g=g: _report(monotonicity.cm_check(f, g)))
             for name, f, g in members]
            + [("cm-fails:" + name,
                lambda f=f: _refuted(monotonicity.cm_check(f, grid)))
               for name, f in non_members])


def _suite_lcm_catalog():
    grid = monotonicity.CheckGrid.default()
    members = [
        ("beta", specfun.nielsen_beta, specfun.nielsen_beta_deriv),
        ("one-over-sinh", lambda x: 1.0 / math.sinh(x),
         lambda x: -math.cosh(x) / math.sinh(x) ** 2),
        ("trigamma", specfun.trigamma, specfun.tetragamma),
        ("prym-P", specfun.prym_P, None),
        *_SHIFTED_LCM,
    ]
    non_members = [
        ("exp", math.exp, lambda x: math.exp(x)),
        ("identity", lambda x: x, lambda x: 1.0),
    ]

    def lcm(f, df, verdict):
        return verdict(monotonicity.lcm_check(f, grid, df=df))

    # containment: every lcm member must also pass the plain cm check
    def containment():
        bad = [name for name, f, _ in members
               if not monotonicity.cm_check(f, grid).passed]
        return {"passed": not bad, "failed": bad}

    return ([("lcm:" + name, partial(lcm, f, df, _report))
             for name, f, df in members]
            + [("lcm-fails:" + name, partial(lcm, f, df, _refuted))
               for name, f, df in non_members]
            + [("lcm-subset-of-cm", containment)])


def _suite_identities_s3(tol=1e-7):
    xs = np.array([1.5, 2.0, 3.0, 5.0, 8.0])

    def transform(phi, closed):
        # one laplace_quad and one closed form per nu on all of xs
        pairs = []
        for nu in (0.0, 0.3, 1.0):
            lhs = laplace.laplace_quad(lambda t: phi(t, nu), xs)
            pairs += zip(lhs.tolist(), closed(xs, nu).tolist())
        return _max_err(pairs, tol)

    def cauchy_kernel():
        pairs = []
        for a, b in ((1.0, 0.0), (2.0, 1.0), (4.0, 4.0)):
            lhs = laplace.laplace_quad(
                lambda t: (1.0 + b * t * t) / (1.0 + a * t * t), xs)
            pairs += zip(lhs.tolist(), l_omega_closed(xs, a, b).tolist())
        return _max_err(pairs, tol)

    transforms = [
        ("sigma1-transform", sigma1, l_sigma1_closed),
        ("sigma2-transform", sigma2, l_sigma2_closed),
        ("tau-plus-transform", lambda t, nu: tau_pm(t, nu, 1),
         lambda x, nu: l_tau_closed(x, nu, 1)),
        ("tau-minus-transform", lambda t, nu: tau_pm(t, nu, -1),
         lambda x, nu: l_tau_closed(x, nu, -1)),
        ("sawtooth-sigma-transform", sigma_cont, l_sigma_cont_closed),
        ("sawtooth-tau-plus-transform", lambda t, nu: tau_cont(t, nu, 1),
         lambda x, nu: l_tau_cont_closed(x, nu, 1)),
        ("sawtooth-tau-minus-transform", lambda t, nu: tau_cont(t, nu, -1),
         lambda x, nu: l_tau_cont_closed(x, nu, -1)),
    ]
    return ([(name, partial(transform, phi, closed))
             for name, phi, closed in transforms]
            + [("cauchy-kernel-transform", cauchy_kernel)])


def _suite_gamma_ratios(tol=1e-7):
    xs = np.array([0.5, 1.0, 2.0, 5.0, 10.0])

    def gamma_ratio(a, b):
        m = stieltjes.measure_gamma_ratio(a, b)
        pairs = zip(stieltjes.stieltjes_eval(m, xs).tolist(),
                    specfun.gamma_ratio_log(xs, a, b).tolist())
        return _max_err(pairs, tol)

    def integer_b():
        pairs = []
        for a, n in ((0.5, 2), (0.7, 1), (1.0, 3)):
            closed = [math.fsum(math.log((x + a + k) / (x + k))
                                for k in range(n)) for x in xs.tolist()]
            pairs += zip(specfun.gamma_ratio_log(xs, a, n).tolist(), closed)
        return _max_err(pairs, 1e-10)

    def log_product(zeros, a, b):
        def direct(x):
            return math.fsum(
                math.log1p((x + a) / z) + math.log1p((x + b) / z)
                - math.log1p(x / z) - math.log1p((x + a + b) / z)
                for z in zeros)

        m = stieltjes.measure_genus1_log_ratio(zeros, a, b)
        values = stieltjes.stieltjes_eval(m, np.append(xs, 1e4)).tolist()
        far = abs(values.pop())
        res = _max_err(zip(values, map(direct, xs.tolist())), 1e-8)
        return {**res, "passed": res["passed"] and far < 1e-3,
                "value_at_1e4": far}

    def gamma_reciprocal(s):
        m = stieltjes.measure_gamma_reciprocal_ratio(s)
        scale = 1.0 / math.gamma(s + 1.0)
        pairs = zip((scale * stieltjes.stieltjes_eval(m, xs)).tolist(),
                    np.exp(specfun.log_gamma(xs)
                           - specfun.log_gamma(xs + s + 1.0)).tolist())
        res = _max_err(pairs, 1e-8)
        return {**res, "passed": res["passed"]
                and abs(m.density(0.5) - 1.0) < 1e-14
                and abs(m.density(1.5) - (1.0 - s)) < 1e-14}

    return ([(f"gamma-ratio-({a},{b})", partial(gamma_ratio, a, b))
             for a, b in ((0.5, 1.3), (1.0, 1.0), (0.5, 2.0))]
            + [("gamma-ratio-integer-shift", integer_b)]
            + [(f"log-product-{list(zeros)}",
                partial(log_product, zeros, a, b))
               for zeros, a, b in (((1.0, 2.0, 3.0), 0.5, 0.5),
                                   ((0.5,), 1.0, 1.0),
                                   ((1.0, 4.0, 9.0), 0.3, 1.7))]
            + [(f"gamma-reciprocal-s={s}", partial(gamma_reciprocal, s))
               for s in (0.3, 0.5, 0.8)])


def _suite_barnes(tol=1e-7):
    grid6 = monotonicity.CheckGrid.default(n_max=6)

    def stirling():
        pairs = zip(*barnes.stirling_remainder(
            np.array([0.5, 1.0, 2.0, 5.0, 10.0, 50.0])))
        return _max_err(pairs, tol)

    def p_cm(n):
        return _report(monotonicity.cm_check(
            lambda t: barnes.p_kernel(t, n), grid6))

    def series_match():
        ts = np.array([0.01, 1.0, 7.3, 60.0])
        err = float(np.max(np.abs(barnes.p_kernel(ts, 1)
                                  - barnes.p_kernel_series(ts, n=1))))
        return {"passed": err < 1e-10, "max_error": err}

    def r22_cm():
        grid = monotonicity.CheckGrid(np.geomspace(0.5, 50.0, 12), n_max=6)
        return _report(monotonicity.cm_check(
            lambda w: barnes.r_2_2n(w, 1), grid))

    def r22_decay():
        w = 1000.0
        limit = barnes.barnes_g_limit(1)
        val = w * barnes.r_2_2n(w, 1)
        return {"passed": abs(val - limit) < 1e-2, "value": val,
                "limit": limit}

    return ([("stirling-remainder", stirling)]
            + [(f"p{n}-cm", partial(p_cm, n)) for n in (1, 2)]
            + [("p1-series-crosscheck", series_match)]
            + [(f"lemma-pos-c={c:.4f}",
                lambda c=c: _report(monotonicity.lemma_pos_check(c)))
               for c in (0.0, 1.0 / math.pi, 1.0 / (2.0 * math.pi), 1.0)]
            + [("r22-cm", r22_cm), ("r22-leading-decay", r22_decay)])


def _suite_cesaro(tol=1e-7):
    def lemma():
        rng = np.random.default_rng(20260808)
        worst = 0.0
        for _ in range(100):
            a = rng.uniform(-1.0, 1.0, 51)
            k = int(rng.integers(0, 4))
            N = int(rng.integers(k + 1, 50))
            x = float(rng.uniform(0.01, 0.99))
            lhs, rhs = cesaro.lemma_s_check(a, k, N, x)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        return {"passed": worst <= 1e-12, "max_error": worst}

    def spread(seq, k, lam):
        res = cesaro.series_eval_three_ways(
            seq, k, lam, np.array([0.5, 1.0, 2.0, 10.0]))
        worst = float(np.max(res.spread))
        return {"passed": worst < tol, "max_spread": worst}

    def prym_kappa():
        ts = np.linspace(0.05, 4.0, 20)
        err = float(np.max(np.abs(cesaro.kappa_eval("prym", 0, ts) * ts
                                  - np.exp(-np.exp(-ts)))))
        return {"passed": err <= 1e-12, "max_error": err}

    def half_gumbel_norm():
        worst = 0.0
        for a in (0.5, 1.0, 2.0):
            spec = densities.DensitySpec("half-gumbel", a)
            worst = max(worst, abs(densities.normalization_residual(spec)))
        return {"passed": worst <= 1e-8, "max_error": worst}

    three_way = [("prym", "prym", 0, 1.0),
                 ("alternating", "alternating", 0, 1.0),
                 ("binomial", cesaro.preset_sequence("binomial-a", 0.5), 0, 1.5),
                 ("ones", "ones", 0, 2.0)]
    return ([("lemma-iterated-sums", lemma)]
            + [(f"three-way:{name}", partial(spread, seq, k, lam))
               for name, seq, k, lam in three_way]
            + [("prym-kappa-closed-form", prym_kappa),
               ("half-gumbel-normalization", half_gumbel_norm)])


def _suite_pick(tol=1e-10):
    def shift(s):
        rep = monotonicity.pick_check(_log_gamma_shift(s), floor=-tol)
        below_pi = rep.sup_im < math.pi
        return {**_report(rep), "passed": rep.passed and below_pi,
                "sup_lt_pi": below_pi}

    def pick(h):
        return _report(monotonicity.pick_check(h, floor=-tol))

    def conj_sym():
        zs = np.array([0.5 + 1j, 3 + 0.3j, -2 + 2j, 7 + 5j, -9 + 1j, 1 + 9j,
                       -0.5 + 4j, 2.5 + 2.5j, -14 + 6j, 10 + 0.7j])
        spread = monotonicity.conjugate_symmetry_spread(_log_gamma_shift(0.5),
                                                        zs)
        return {"passed": spread < 1e-12, "max_spread": spread}

    return ([(f"log-gamma-shift-s={s}", partial(shift, s))
             for s in (0.25, 0.5, 0.9)]
            + [("gamma-ratio-pick-s=0.5",
                lambda: pick(lambda z: np.exp(_log_gamma_shift(0.5)(z)))),
               ("minus-reciprocal", lambda: pick(lambda z: -1.0 / z)),
               ("conjugate-symmetry", conj_sym)])


def _suite_semigroup(tol=laplace.SEMIGROUP_TOL, dt=1e-3, t_max=12.0):
    laplace._grid_size(dt, t_max)  # refuses the grid before any item

    def closed_form():
        dens = laplace.semigroup_density(1.0, dt, min(t_max, 6.0))
        mask = (dens.t >= 0.1) & (dens.t <= 5.0)
        err = float(np.max(np.abs(dens.values[mask]
                                  - 1.0 / (1.0 + np.exp(-dens.t[mask])))))
        return {"passed": err <= 1e-6, "max_error": err,
                "method_spread": dens.method_spread}

    def convolution():
        sup = laplace.semigroup_check(0.5, 0.5, dt, t_max)
        return {"passed": sup < tol, "sup_discrepancy": sup}

    def small_c():
        dens = laplace.semigroup_density(0.01, 1e-2, 6.0)
        sup = float(np.max(dens.values[dens.t >= 0.5]))
        return {"passed": sup < 0.1, "sup_beyond_half": sup}

    return [("m1-closed-form", closed_form),
            ("semigroup-half-half", convolution),
            ("small-c-sanity", small_c)]


def _suite_densities(tol=1e-9, seed=20260808):
    def norms():
        worst = 0.0
        for fam in densities.FAMILIES:
            for a in (0.5, 1.0, 1.5):
                spec = densities.DensitySpec(fam, a)
                worst = max(worst, abs(densities.normalization_residual(spec)))
        return {"passed": worst <= tol, "max_error": worst}

    def shifts():
        worst = 0.0
        xs = np.array([0.5, 1.0, 5.0])
        for a in (0.5, 1.0, 1.5):
            for fam, fn in (("nu", specfun.nielsen_beta),
                            ("tau", specfun.trigamma)):
                spec = densities.DensitySpec(fam, a)
                lhs = laplace.laplace_quad(
                    lambda t: densities.density_eval(spec, t), xs)
                worst = max(worst, float(np.max(np.abs(
                    lhs - fn(xs + a) / fn(a)))))
        return {"passed": worst <= tol, "max_error": worst}

    def infinite_divisibility():
        grid = monotonicity.CheckGrid.default()
        return {"passed": all(monotonicity.lcm_check(f, grid, df=df).passed
                              for _, f, df in _SHIFTED_LCM)}

    def sampling():
        spec = densities.DensitySpec("nu", 0.5)
        s1 = densities.density_sample(spec, 10_000, seed)
        s2 = densities.density_sample(spec, 10_000, seed)
        ks = densities.ks_statistic(s1, spec)
        crit = densities.ks_critical(10_000)
        return {"passed": np.array_equal(s1, s2) and ks < crit
                and np.all(s1 > 0), "ks": ks, "critical": crit}

    return [("normalization", norms), ("laplace-shift", shifts),
            ("shifted-transforms-log-cm", infinite_divisibility),
            ("sampling", sampling)]


def _suite_hamburger(tol=1e-8):
    def identity():
        pairs = []
        for n in (0, 1, 2, 3, 4):
            lhs, rhs = laplace.hamburger_check(n, np.array([0.5, 1.0, 3.0]))
            pairs += zip(lhs.tolist(), rhs.tolist())
        return _max_err(pairs, tol)
    return [("hamburger-identity", identity)]


def _suite_counterexample(r=3.0, tol=1e-10):
    ce = monotonicity.find_lcm_counterexample(r)  # refuses r before any item

    def main():
        return {"passed": ce.residual < tol and ce.z_c.real > 0,
                "residual": ce.residual, "c": ce.c,
                "z": [ce.z_c.real, ce.z_c.imag]}

    def random_rs():
        rng = np.random.default_rng(20260808)
        found = [monotonicity.find_lcm_counterexample(float(rng.uniform(2, 6)))
                 for _ in range(20)]
        worst = max(hit.residual for hit in found)
        return {"passed": all(hit.z_c.real > 0 for hit in found)
                and worst < tol, "max_residual": worst}

    return [(f"counterexample-r={r}", main),
            ("counterexample-random-r", random_rs)]


SUITES = {
    "cm-catalog": _suite_cm_catalog,
    "lcm-catalog": _suite_lcm_catalog,
    "identities-s3": _suite_identities_s3,
    "gamma-ratios": _suite_gamma_ratios,
    "barnes": _suite_barnes,
    "cesaro": _suite_cesaro,
    "pick": _suite_pick,
    "semigroup": _suite_semigroup,
    "densities": _suite_densities,
    "hamburger": _suite_hamburger,
    "counterexample": _suite_counterexample,
}


def _run_item(name, check):
    """``check()``'s verdict under ``name``, its ``passed`` a bool; a
    CmfunError it raises fails this item alone, and the rest of the report
    still runs."""
    try:
        verdict = check()
    except CmfunError as exc:
        verdict = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"name": name, **verdict, "passed": bool(verdict["passed"])}


def run_suite(key, **overrides):
    """Run a named suite; returns a JSON-ready report dict."""
    if key not in SUITES:
        raise KeyError(f"unknown suite {key!r}")
    items = [_run_item(name, check)
             for name, check in SUITES[key](**overrides)]
    return {"suite": key,
            "passed": all(it["passed"] for it in items),
            "items": items}
