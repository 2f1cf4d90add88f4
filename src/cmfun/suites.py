"""Named verification suites backing the command line ``check`` command.

Each suite is a list of independent items (pure thunks returning a result
dict); the runner evaluates them in order and assembles a deterministic
JSON-ready report.
"""

import math

import numpy as np

from . import barnes, cesaro, densities, laplace, monotonicity, specfun, stieltjes
from .errors import CmfunError

# ---------------------------------------------------------------------------
# catalog functions
# ---------------------------------------------------------------------------


def sigma1(t, nu):
    t = np.asarray(t, dtype=float)
    return 1.0 - np.cosh(nu * t) / (2.0 * np.cosh(t))


def sigma2(t, nu):
    t = np.asarray(t, dtype=float)
    return np.cosh(nu * t) / np.cosh(t)


def tau_pm(t, nu, sign):
    t = np.asarray(t, dtype=float)
    return 1.0 + sign * np.sinh(nu * t) / np.cosh(t)


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


def l_omega_closed(x, a, b):
    """Laplace transform of (1 + b t^2)/(1 + a t^2) for a >= b >= 0."""
    y = x / math.sqrt(a)
    si, ci = specfun.sin_cos_integrals(y)
    return (b / a) / x + (1.0 - b / a) / math.sqrt(a) * \
        (ci * np.sin(y) - si * np.cos(y))


# ---------------------------------------------------------------------------
# item helpers
# ---------------------------------------------------------------------------

def _item(name, passed, **detail):
    out = {"name": name, "passed": bool(passed)}
    out.update(detail)
    return out


def _max_err_item(name, pairs, tol):
    err = max(abs(a - b) for a, b in pairs)
    return _item(name, err <= tol, max_error=err, tol=tol)


def _report_item(name, report):
    out = _item(name, report.passed, worst_margin=report.worst_margin,
                witnesses=len(report.witnesses))
    if report.sup_im is not None:
        out["sup_im"] = report.sup_im
        out["inf_im"] = report.inf_im
    if report.error is not None:
        out["error"] = report.error
    return out


_S3_XS = (1.5, 2.0, 3.0, 5.0, 8.0)
_S3_NUS = (0.0, 0.3, 1.0)


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
    items = []
    for name, f, g in members:
        items.append(lambda f=f, g=g, name=name: _report_item(
            "cm:" + name, monotonicity.cm_check(f, g)))
    for name, f in non_members:
        def thunk(f=f, name=name):
            rep = monotonicity.cm_check(f, grid)
            return _item("cm-fails:" + name, not rep.passed,
                         witnesses=len(rep.witnesses))
        items.append(thunk)
    return items


def _suite_lcm_catalog():
    grid = monotonicity.CheckGrid.default()
    beta = specfun.nielsen_beta
    dbeta = specfun.nielsen_beta_deriv
    members = [
        ("beta", beta, dbeta),
        ("one-over-sinh", lambda x: 1.0 / math.sinh(x),
         lambda x: -math.cosh(x) / math.sinh(x) ** 2),
        ("trigamma", specfun.trigamma, specfun.tetragamma),
        ("prym-P", specfun.prym_P, None),
        ("beta-shift", lambda x: beta(x + 1.0) / beta(1.0),
         lambda x: dbeta(x + 1.0) / beta(1.0)),
        ("trigamma-shift", lambda x: specfun.trigamma(x + 1.0) / specfun.trigamma(1.0),
         lambda x: specfun.tetragamma(x + 1.0) / specfun.trigamma(1.0)),
    ]
    non_members = [
        ("exp", math.exp, lambda x: math.exp(x)),
        ("identity", lambda x: x, lambda x: 1.0),
    ]
    items = []
    for name, f, df in members:
        items.append(lambda f=f, df=df, name=name: _report_item(
            "lcm:" + name, monotonicity.lcm_check(f, grid, df=df)))
    for name, f, df in non_members:
        def thunk(f=f, df=df, name=name):
            rep = monotonicity.lcm_check(f, grid, df=df)
            return _item("lcm-fails:" + name, not rep.passed,
                         witnesses=len(rep.witnesses))
        items.append(thunk)
    # containment: every lcm member must also pass the plain cm check
    def containment():
        bad = [name for name, f, _ in members
               if not monotonicity.cm_check(f, grid).passed]
        return _item("lcm-subset-of-cm", not bad, failed=bad)
    items.append(containment)
    return items


def _suite_identities_s3(tol=1e-7):
    items = []
    xs = np.array(_S3_XS)

    def make(name, phi, rhs_fn):
        # one laplace_quad and one closed form per nu on all of _S3_XS
        def thunk():
            pairs = []
            for nu in _S3_NUS:
                lhs = laplace.laplace_quad(lambda t: phi(t, nu), xs)
                pairs += zip(lhs.tolist(), rhs_fn(xs, nu).tolist())
            return _max_err_item(name, pairs, tol)
        items.append(thunk)

    make("sigma1-transform", sigma1, l_sigma1_closed)
    make("sigma2-transform", sigma2, l_sigma2_closed)
    make("tau-plus-transform", lambda t, nu: tau_pm(t, nu, 1),
         lambda x, nu: l_tau_closed(x, nu, 1))
    make("tau-minus-transform", lambda t, nu: tau_pm(t, nu, -1),
         lambda x, nu: l_tau_closed(x, nu, -1))
    make("sawtooth-sigma-transform", sigma_cont, l_sigma_cont_closed)
    make("sawtooth-tau-plus-transform", lambda t, nu: tau_cont(t, nu, 1),
         lambda x, nu: l_tau_cont_closed(x, nu, 1))
    make("sawtooth-tau-minus-transform", lambda t, nu: tau_cont(t, nu, -1),
         lambda x, nu: l_tau_cont_closed(x, nu, -1))

    def cauchy_kernel():
        pairs = []
        for a, b in ((1.0, 0.0), (2.0, 1.0), (4.0, 4.0)):
            lhs = laplace.laplace_quad(
                lambda t: (1.0 + b * t * t) / (1.0 + a * t * t), xs)
            pairs += zip(lhs.tolist(), l_omega_closed(xs, a, b).tolist())
        return _max_err_item("cauchy-kernel-transform", pairs, tol)
    items.append(cauchy_kernel)
    return items


def _suite_gamma_ratios(tol=1e-7):
    items = []
    xs = np.array([0.5, 1.0, 2.0, 5.0, 10.0])

    def gamma_ratio(a, b):
        def thunk():
            m = stieltjes.measure_gamma_ratio(a, b)
            pairs = zip(stieltjes.stieltjes_eval(m, xs).tolist(),
                        specfun.gamma_ratio_log(xs, a, b).tolist())
            return _max_err_item(f"gamma-ratio-({a},{b})", pairs, tol)
        return thunk

    for a, b in ((0.5, 1.3), (1.0, 1.0), (0.5, 2.0)):
        items.append(gamma_ratio(a, b))

    def integer_b():
        pairs = []
        for a, n in ((0.5, 2), (0.7, 1), (1.0, 3)):
            closed = [math.fsum(math.log((x + a + k) / (x + k))
                                for k in range(n)) for x in xs.tolist()]
            pairs += zip(specfun.gamma_ratio_log(xs, a, n).tolist(), closed)
        return _max_err_item("gamma-ratio-integer-shift", pairs, 1e-10)
    items.append(integer_b)

    def log_product(zeros, a, b):
        def direct(x):
            return math.fsum(
                math.log1p((x + a) / z) + math.log1p((x + b) / z)
                - math.log1p(x / z) - math.log1p((x + a + b) / z)
                for z in zeros)

        def thunk():
            m = stieltjes.measure_genus1_log_ratio(zeros, a, b)
            values = stieltjes.stieltjes_eval(m, np.append(xs, 1e4)).tolist()
            far = abs(values.pop())
            pairs = zip(values, map(direct, xs.tolist()))
            res = _max_err_item(f"log-product-{list(zeros)}", pairs, 1e-8)
            res["passed"] = res["passed"] and far < 1e-3
            res["value_at_1e4"] = far
            return res
        return thunk

    for zeros, a, b in (((1.0, 2.0, 3.0), 0.5, 0.5), ((0.5,), 1.0, 1.0),
                        ((1.0, 4.0, 9.0), 0.3, 1.7)):
        items.append(log_product(zeros, a, b))

    def gamma_reciprocal(s):
        def thunk():
            m = stieltjes.measure_gamma_reciprocal_ratio(s)
            scale = 1.0 / math.gamma(s + 1.0)
            pairs = zip((scale * stieltjes.stieltjes_eval(m, xs)).tolist(),
                        np.exp(specfun.log_gamma(xs)
                               - specfun.log_gamma(xs + s + 1.0)).tolist())
            res = _max_err_item(f"gamma-reciprocal-s={s}", pairs, 1e-8)
            res["passed"] = res["passed"] and \
                abs(m.density(0.5) - 1.0) < 1e-14 and \
                abs(m.density(1.5) - (1.0 - s)) < 1e-14
            return res
        return thunk

    for s in (0.3, 0.5, 0.8):
        items.append(gamma_reciprocal(s))
    return items


def _suite_barnes(tol=1e-7):
    items = []

    def stirling():
        pairs = zip(*barnes.stirling_remainder(
            np.array([0.5, 1.0, 2.0, 5.0, 10.0, 50.0])))
        return _max_err_item("stirling-remainder", pairs, tol)
    items.append(stirling)

    grid6 = monotonicity.CheckGrid.default(n_max=6)
    for n in (1, 2):
        items.append(lambda n=n: _report_item(
            f"p{n}-cm", monotonicity.cm_check(
                lambda t: barnes.p_kernel(t, n), grid6)))

    def series_match():
        ts = np.array([0.01, 1.0, 7.3, 60.0])
        err = float(np.max(np.abs(barnes.p_kernel(ts, 1)
                                  - barnes.p_kernel_series(ts, n=1))))
        return _item("p1-series-crosscheck", err < 1e-10, max_error=err)
    items.append(series_match)

    for c in (0.0, 1.0 / math.pi, 1.0 / (2.0 * math.pi), 1.0):
        items.append(lambda c=c: _report_item(
            f"lemma-pos-c={c:.4f}", monotonicity.lemma_pos_check(c)))

    def r22_cm():
        grid = monotonicity.CheckGrid(np.geomspace(0.5, 50.0, 12), n_max=6)
        rep = monotonicity.cm_check(lambda w: barnes.r_2_2n(w, 1), grid)
        return _report_item("r22-cm", rep)
    items.append(r22_cm)

    def r22_decay():
        w = 1000.0
        limit = barnes.barnes_g_limit(1)
        val = w * barnes.r_2_2n(w, 1)
        return _item("r22-leading-decay", abs(val - limit) < 1e-2,
                     value=val, limit=limit)
    items.append(r22_decay)
    return items


def _suite_cesaro(tol=1e-7):
    items = []

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
        return _item("lemma-iterated-sums", worst <= 1e-12, max_error=worst)
    items.append(lemma)

    three_way = [("prym", "prym", 0, 1.0),
                 ("alternating", "alternating", 0, 1.0),
                 ("binomial", cesaro.preset_sequence("binomial-a", 0.5), 0, 1.5),
                 ("ones", "ones", 0, 2.0)]

    def spread(name, seq, k, lam):
        def thunk():
            res = cesaro.series_eval_three_ways(
                seq, k, lam, np.array([0.5, 1.0, 2.0, 10.0]))
            worst = float(np.max(res.spread))
            return _item(f"three-way:{name}", worst < tol, max_spread=worst)
        return thunk

    for name, seq, k, lam in three_way:
        items.append(spread(name, seq, k, lam))

    def prym_kappa():
        ts = np.linspace(0.05, 4.0, 20)
        err = float(np.max(np.abs(cesaro.kappa_eval("prym", 0, ts) * ts
                                  - np.exp(-np.exp(-ts)))))
        return _item("prym-kappa-closed-form", err <= 1e-12, max_error=err)
    items.append(prym_kappa)

    def half_gumbel_norm():
        worst = 0.0
        for a in (0.5, 1.0, 2.0):
            spec = densities.DensitySpec("half-gumbel", a)
            worst = max(worst, abs(densities.normalization_residual(spec)))
        return _item("half-gumbel-normalization", worst <= 1e-8,
                     max_error=worst)
    items.append(half_gumbel_norm)
    return items


def _suite_pick(tol=1e-10):
    items = []

    def shift(s):
        def h(z):
            return specfun.log_gamma_complex(z + s) - specfun.log_gamma_complex(z)

        def thunk():
            rep = monotonicity.pick_check(h, floor=-tol)
            out = _report_item(f"log-gamma-shift-s={s}", rep)
            out["passed"] = out["passed"] and rep.sup_im < math.pi
            out["sup_lt_pi"] = rep.sup_im < math.pi
            return out
        return thunk

    for s in (0.25, 0.5, 0.9):
        items.append(shift(s))

    def ratio():
        def h(z):
            return np.exp(specfun.log_gamma_complex(z + 0.5)
                          - specfun.log_gamma_complex(z))
        return _report_item("gamma-ratio-pick-s=0.5",
                            monotonicity.pick_check(h, floor=-tol))
    items.append(ratio)

    def trivial():
        return _report_item("minus-reciprocal",
                            monotonicity.pick_check(lambda z: -1.0 / z,
                                                    floor=-tol))
    items.append(trivial)

    def conj_sym():
        zs = np.array([0.5 + 1j, 3 + 0.3j, -2 + 2j, 7 + 5j, -9 + 1j, 1 + 9j,
                       -0.5 + 4j, 2.5 + 2.5j, -14 + 6j, 10 + 0.7j])
        def h(z):
            return specfun.log_gamma_complex(z + 0.5) - specfun.log_gamma_complex(z)
        spread = monotonicity.conjugate_symmetry_spread(h, zs)
        return _item("conjugate-symmetry", spread < 1e-12, max_spread=spread)
    items.append(conj_sym)
    return items


def _suite_semigroup(tol=laplace.SEMIGROUP_TOL, dt=1e-3, t_max=12.0):
    items = []

    def closed_form():
        dens = laplace.semigroup_density(1.0, dt, min(t_max, 6.0))
        mask = (dens.t >= 0.1) & (dens.t <= 5.0)
        err = float(np.max(np.abs(dens.values[mask]
                                  - 1.0 / (1.0 + np.exp(-dens.t[mask])))))
        return _item("m1-closed-form", err <= 1e-6, max_error=err,
                     method_spread=dens.method_spread)
    items.append(closed_form)

    def convolution():
        sup = laplace.semigroup_check(0.5, 0.5, dt, t_max)
        return _item("semigroup-half-half", sup < tol, sup_discrepancy=sup)
    items.append(convolution)

    def small_c():
        dens = laplace.semigroup_density(0.01, 1e-2, 6.0)
        sup = float(np.max(dens.values[dens.t >= 0.5]))
        return _item("small-c-sanity", sup < 0.1, sup_beyond_half=sup)
    items.append(small_c)
    return items


def _suite_densities(tol=1e-9, seed=20260808):
    items = []

    def norms():
        worst = 0.0
        for fam in densities.FAMILIES:
            for a in (0.5, 1.0, 1.5):
                spec = densities.DensitySpec(fam, a)
                worst = max(worst, abs(densities.normalization_residual(spec)))
        return _item("normalization", worst <= tol, max_error=worst)
    items.append(norms)

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
        return _item("laplace-shift", worst <= tol, max_error=worst)
    items.append(shifts)

    def infinite_divisibility():
        grid = monotonicity.CheckGrid.default()
        beta = specfun.nielsen_beta
        rep1 = monotonicity.lcm_check(
            lambda x: beta(x + 1.0) / beta(1.0), grid,
            df=lambda x: specfun.nielsen_beta_deriv(x + 1.0) / beta(1.0))
        rep2 = monotonicity.lcm_check(
            lambda x: specfun.trigamma(x + 1.0) / specfun.trigamma(1.0), grid,
            df=lambda x: specfun.tetragamma(x + 1.0) / specfun.trigamma(1.0))
        return _item("shifted-transforms-log-cm", rep1.passed and rep2.passed)
    items.append(infinite_divisibility)

    def sampling():
        spec = densities.DensitySpec("nu", 0.5)
        s1 = densities.density_sample(spec, 10_000, seed)
        s2 = densities.density_sample(spec, 10_000, seed)
        ks = densities.ks_statistic(s1, spec)
        crit = densities.ks_critical(10_000)
        return _item("sampling", bool(np.array_equal(s1, s2)) and ks < crit
                     and bool(np.all(s1 > 0)), ks=ks, critical=crit)
    items.append(sampling)
    return items


def _suite_hamburger(tol=1e-8):
    def thunk():
        pairs = []
        for n in (0, 1, 2, 3, 4):
            lhs, rhs = laplace.hamburger_check(n, np.array([0.5, 1.0, 3.0]))
            pairs += zip(lhs.tolist(), rhs.tolist())
        return _max_err_item("hamburger-identity", pairs, tol)
    return [thunk]


def _suite_counterexample(r=3.0, tol=1e-10):
    items = []
    ce = monotonicity.find_lcm_counterexample(r)  # refuses r before any item

    def main():
        return _item(f"counterexample-r={r}",
                     ce.residual < tol and ce.z_c.real > 0,
                     residual=ce.residual, c=ce.c,
                     z=[ce.z_c.real, ce.z_c.imag])
    items.append(main)

    def random_rs():
        rng = np.random.default_rng(20260808)
        worst = 0.0
        ok = True
        for _ in range(20):
            rr = float(rng.uniform(2.0, 6.0))
            if rr <= 2.0:
                continue
            ce = monotonicity.find_lcm_counterexample(rr)
            worst = max(worst, ce.residual)
            ok = ok and ce.z_c.real > 0
        return _item("counterexample-random-r", ok and worst < tol,
                     max_residual=worst)
    items.append(random_rs)
    return items


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


def _run_item(key, index, thunk):
    """The item's result; a CmfunError it raises fails it alone, named by
    the suite and its position, and the rest of the report still runs."""
    try:
        return thunk()
    except CmfunError as exc:
        return {"name": f"{key}[{index}]", "passed": False,
                "error": f"{type(exc).__name__}: {exc}"}


def run_suite(key, **overrides):
    """Run a named suite; returns a JSON-ready report dict."""
    if key not in SUITES:
        raise KeyError(f"unknown suite {key!r}")
    items = [_run_item(key, i, t)
             for i, t in enumerate(SUITES[key](**overrides))]
    return {"suite": key,
            "passed": all(it["passed"] for it in items),
            "items": items}
