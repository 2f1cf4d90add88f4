"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its tolerance (run with -s to stream them)."""

import math

import numpy as np

from cmfun import barnes as bn
from cmfun import cesaro as cs
from cmfun import densities as dn
from cmfun import laplace as lp
from cmfun import monotonicity as mono
from cmfun import specfun as sf
from cmfun import stieltjes as st
from cmfun import suites


def note(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status}  {label}" +
          (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_closed_values():
    # psi'(1/2) and psi'(3/2) as forced by tau_a: the 1 - e^-t = 2 e^(-t/2)
    # sinh(t/2) factor halves the printed constants
    targets = [
        (sf.nielsen_beta(1.0), math.log(2.0), "beta(1)"),
        (sf.nielsen_beta(0.5), math.pi / 2, "beta(1/2)"),
        (sf.nielsen_beta(1.5), 2.0 - math.pi / 2, "beta(3/2)"),
        (sf.trigamma(1.0), math.pi ** 2 / 6, "psi'(1)"),
        (sf.trigamma(0.5), math.pi ** 2 / 2, "psi'(1/2)"),
        (sf.trigamma(1.5), (math.pi ** 2 - 8.0) / 2, "psi'(3/2)"),
        (sf.prym_P(1.0), 1.0 - math.exp(-1.0), "P(1)"),
    ]
    worst = max(abs(v - ref) for v, ref, _ in targets)
    note(1, "closed special values at 1e-12", worst <= 1e-12,
         f"worst {worst:.2e}")


def test_criterion_02_alternating_measure():
    m = st.measure_alternating(lambda n: float(n), 1.0)
    xs = np.geomspace(0.5, 50.0, 25)
    worst = max(abs(st.stieltjes_eval(m, x) - sf.nielsen_beta(x)) for x in xs)
    note(2, "Stieltjes measure of beta on [0.5, 50] at 1e-8", worst <= 1e-8,
         f"worst {worst:.2e}")


def test_criterion_03_semigroup():
    F = lp.beta_power(1.0)
    ts = np.linspace(0.1, 5.0, 25)
    worst = max(abs(lp.laplace_invert(F, t) - 1.0 / (1.0 + math.exp(-t)))
                for t in ts)
    sup = lp.semigroup_check(0.5, 0.5, dt=1e-3, t_max=12.0)
    note(3, "inversion of beta at 1e-6 and semigroup(1/2,1/2) below 1e-4",
         worst <= 1e-6 and sup < 1e-4,
         f"invert {worst:.2e}, semigroup {sup:.2e}")


def test_criterion_04_periodic_identities():
    report = suites.run_suite("identities-s3", tol=1e-7)
    detail = "; ".join(f"{it['name']}={it['max_error']:.1e}"
                       for it in report["items"])
    note(4, "periodic-construction transform identities at 1e-7",
         report["passed"], detail)


def test_criterion_05_gamma_ratio():
    worst = 0.0
    for a, b in ((0.5, 1.3), (1.0, 1.0), (0.5, 2.0)):
        m = st.measure_gamma_ratio(a, b)
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            worst = max(worst, abs(st.stieltjes_eval(m, x)
                                   - sf.gamma_ratio_log(x, a, b)))
    worst_int = 0.0
    for a, n in ((0.5, 2), (1.0, 3)):
        for x in (0.5, 1.0, 5.0):
            closed = math.fsum(math.log((x + a + k) / (x + k))
                               for k in range(n))
            worst_int = max(worst_int,
                            abs(sf.gamma_ratio_log(x, a, n) - closed))
    note(5, "gamma-ratio measures at 1e-7, integer-shift closed form at 1e-10",
         worst <= 1e-7 and worst_int <= 1e-10,
         f"measure {worst:.2e}, closed {worst_int:.2e}")


def test_criterion_06_genus1():
    worst = 0.0
    for zeros, a, b in (((1.0, 2.0, 3.0), 0.5, 0.5), ((0.5,), 1.0, 1.0),
                        ((1.0, 4.0, 9.0), 0.3, 1.7)):
        m = st.measure_genus1_log_ratio(zeros, a, b)
        for x in (0.5, 1.0, 4.0, 20.0):
            direct = math.fsum(
                math.log1p((x + a) / z) + math.log1p((x + b) / z)
                - math.log1p(x / z) - math.log1p((x + a + b) / z)
                for z in zeros)
            worst = max(worst, abs(st.stieltjes_eval(m, x) - direct))
    note(6, "finite-zero log-product measures at 1e-8", worst <= 1e-8,
         f"worst {worst:.2e}")


def test_criterion_07_pick():
    ok = True
    sups = []
    for s in (0.25, 0.5, 0.9):
        def h(z, s=s):
            return sf.log_gamma_complex(z + s) - sf.log_gamma_complex(z)
        rep = mono.pick_check(h, floor=-1e-10)
        ok = ok and rep.passed and rep.sup_im < math.pi
        sups.append(rep.sup_im)
    note(7, "Im(log Gamma shift) within (-1e-10, pi) for three shifts", ok,
         "sup Im " + ", ".join(f"{v:.3f}" for v in sups))


def test_criterion_08_barnes():
    worst = max(abs(l - r) for l, r in
                (bn.stirling_remainder(x)
                 for x in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0)))
    grid6 = mono.CheckGrid.default(n_max=6)
    cm1 = mono.cm_check(lambda t: bn.p_kernel(t, 1), grid6).passed
    cm2 = mono.cm_check(lambda t: bn.p_kernel(t, 2), grid6).passed
    lem = all(mono.lemma_pos_check(c).passed
              for c in (0.0, 1.0 / math.pi, 1.0 / (2 * math.pi), 1.0))
    gridr = mono.CheckGrid(np.geomspace(0.5, 50.0, 12), n_max=6)
    cmr = mono.cm_check(lambda w: bn.r_2_2n(w, 1), gridr).passed
    note(8, "Stirling identity 1e-7; p1, p2, R_{2,2} CM; positivity bound",
         worst <= 1e-7 and cm1 and cm2 and lem and cmr,
         f"stirling {worst:.2e}")


def test_criterion_09_cesaro():
    rng = np.random.default_rng(20260808)
    worst_lemma = 0.0
    for _ in range(100):
        a = rng.uniform(-1.0, 1.0, 51)
        k = int(rng.integers(0, 4))
        N = int(rng.integers(k + 1, 50))
        x = float(rng.uniform(0.01, 0.99))
        lhs, rhs = cs.lemma_s_check(a, k, N, x)
        worst_lemma = max(worst_lemma, abs(lhs - rhs) / (1 + abs(lhs)))
    worst_spread = 0.0
    for seq, lam in (("prym", 1.0), ("alternating", 1.0),
                     (cs.preset_sequence("binomial-a", 0.5), 1.5)):
        for x in (0.5, 1.0, 2.0, 10.0):
            res = cs.series_eval_three_ways(seq, 0, lam, x)
            worst_spread = max(worst_spread, res.spread)
    ts = np.linspace(0.05, 4.0, 20)
    kappa_err = float(np.max(np.abs(cs.kappa_eval("prym", 0, ts) * ts
                                    - np.exp(-np.exp(-ts)))))
    note(9, "iterated-sum identity at 1e-12; three-way spreads below 1e-7; Prym kappa",
         worst_lemma <= 1e-12 and worst_spread < 1e-7 and kappa_err <= 1e-12,
         f"lemma {worst_lemma:.1e}, spread {worst_spread:.1e}, "
         f"kappa {kappa_err:.1e}")


def test_criterion_10_monotonicity_catalog():
    cm = suites.run_suite("cm-catalog")
    lcm = suites.run_suite("lcm-catalog")
    ce = mono.find_lcm_counterexample(3.0)
    ok = cm["passed"] and lcm["passed"] and ce.residual < 1e-10 \
        and ce.z_c.real > 0
    note(10, "CM/log-CM catalog verdicts and the r=3 counterexample", ok,
         f"residual {ce.residual:.1e}")


def test_criterion_11_hamburger():
    worst = 0.0
    for n in (1, 2, 3, 4):
        for x in (0.5, 1.0, 3.0):
            lhs, rhs = lp.hamburger_check(n, x)
            worst = max(worst, abs(lhs - rhs))
    note(11, "Hamburger identity at 1e-8 for n = 1..4", worst <= 1e-8,
         f"worst {worst:.2e}")


def test_criterion_12_densities():
    worst_norm = 0.0
    for fam in dn.FAMILIES:
        for a in (0.5, 1.0, 1.5):
            spec = dn.DensitySpec(fam, a)
            worst_norm = max(worst_norm,
                             abs(dn.normalization_residual(spec)))
    worst_shift = 0.0
    for a in (0.5, 1.0, 1.5):
        for x in (0.5, 1.0, 5.0):
            nu = dn.DensitySpec("nu", a)
            val = lp.laplace_quad(lambda t: dn.density_eval(nu, t), x)
            worst_shift = max(worst_shift, abs(
                val - sf.nielsen_beta(x + a) / sf.nielsen_beta(a)))
            ta = dn.DensitySpec("tau", a)
            val = lp.laplace_quad(lambda t: dn.density_eval(ta, t), x)
            worst_shift = max(worst_shift, abs(
                val - sf.trigamma(x + a) / sf.trigamma(a)))
    spec = dn.DensitySpec("nu", 0.5)
    s1 = dn.density_sample(spec, 10_000, seed=20260808)
    s2 = dn.density_sample(spec, 10_000, seed=20260808)
    ks = dn.ks_statistic(s1, spec)
    ok = (worst_norm <= 1e-9 and worst_shift <= 1e-9
          and np.array_equal(s1, s2) and ks < dn.ks_critical(10_000))
    note(12, "density normalization/shifts at 1e-9, seeded sampling, KS", ok,
         f"norm {worst_norm:.1e}, shift {worst_shift:.1e}, KS {ks:.4f}")
