"""Front-door validation: an argument outside a function's domain raises
DomainError instead of returning nan, a wrong number or a warning."""

import math

import numpy as np
import pytest

from cmfun import barnes as bn
from cmfun import cesaro as cs
from cmfun import densities as dn
from cmfun import errors
from cmfun import laplace as lp
from cmfun import monotonicity as mono
from cmfun import stieltjes as st
from cmfun.errors import DomainError

STEP = lp.PeriodicStep(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]))
NU = dn.DensitySpec("nu", 1.0)

CASES = {
    "kappa-negative-t": lambda: cs.kappa_eval("ones", 0, -1.0),
    "kappa-zero-t": lambda: cs.kappa_eval("ones", 0, 0.0),
    "kappa-nan-t": lambda: cs.kappa_eval("ones", 0, math.nan),
    "kappa-nan-in-array": lambda: cs.kappa_eval("prym", 0,
                                                np.array([1.0, math.nan])),
    "hypotheses-negative-k": lambda: cs.hypotheses_check("ones", -1, 2.0),
    "hypotheses-fractional-k": lambda: cs.hypotheses_check("ones", 1.5, 4.0),
    "hypotheses-nan-k": lambda: cs.hypotheses_check("prym", math.nan, 1.0),
    "hypotheses-nan-lam": lambda: cs.hypotheses_check("prym", 0, math.nan),
    "hypotheses-inf-lam": lambda: cs.hypotheses_check("prym", 0, math.inf),
    "hypotheses-zero-lam": lambda: cs.hypotheses_check("prym", 0, 0.0),
    "hypotheses-callable-fractional-k": lambda: cs.hypotheses_check(
        lambda n: np.ones(len(n)), 0.5, 3.0, n_probe=1000),
    # TypeError from range, from _cm_report, and OverflowError from
    # math.gamma (DomainError only after iterate_sums for k = 9..169)
    "hypotheses-fractional-n-probe": lambda: cs.hypotheses_check(
        lambda n: (-1.0) ** n, 0, 1.0, n_probe=20_000.5),
    "check-grid-fractional-n-max": lambda: mono.CheckGrid(
        np.array([0.5, 1.0]), n_max=2.5),
    "cesaro-degree-9": lambda: st.measure_cesaro([1.0, -1.0], 9, 1.0),
    "cesaro-degree-170": lambda: st.measure_cesaro([1.0, -1.0], 170, 1.0),
    "cesaro-degree-200": lambda: st.measure_cesaro([1.0, -1.0], 200, 1.0),
    "three-ways-degree-200": lambda: cs.series_eval_three_ways(
        "prym", 200, 400.0, 1.0),
    # subnormal values: barnes_g_limit(193) = 1.6e-308
    "p-kernel-n-193": lambda: bn.p_kernel(1.0, 193),
    "p-kernel-n-300": lambda: bn.p_kernel(1.0, 300),
    "p-kernel-series-n-193": lambda: bn.p_kernel_series(1.0, 193),
    "r22-n-193": lambda: bn.r_2_2n(1.0, 193),
    "r22-n-300": lambda: bn.r_2_2n(1.0, 300),
    "g-limit-n-193": lambda: bn.barnes_g_limit(193),
    "g-limit-n-300": lambda: bn.barnes_g_limit(300),
    "density-sample-past-cap": lambda: dn.density_sample(NU, 2 ** 20 + 1, 1),
    "density-eval-nan": lambda: dn.density_eval(NU, math.nan),
    "density-cdf-nan": lambda: dn.density_cdf(NU, math.nan),
    "sigma-discrete-inf": lambda: lp.sigma_discrete(STEP, 1.0, 0.5, math.inf),
    "laplace-periodic-inf": lambda: lp.laplace_quad(STEP, math.inf),
    "step-f-inf": lambda: lp.sigma_discrete(STEP, 1.0, 0.0, math.inf),
    # t_max / dt overflows to inf, which round() used to meet
    "semigroup-subnormal-dt": lambda: lp.semigroup_density(1.0, 5e-324),
    "semigroup-overflowing-grid": lambda: lp.semigroup_density(
        0.5, 1e-308, 1e308),
    "check-grid-nan": lambda: mono.CheckGrid(np.array([0.5, math.nan])),
    "check-grid-inf": lambda: mono.CheckGrid(np.array([0.5, math.inf])),
    "p-kernel-series-nan": lambda: bn.p_kernel_series(math.nan),
    "p-kernel-series-inf": lambda: bn.p_kernel_series(math.inf),
    "counterexample-inf-r": lambda: mono.find_lcm_counterexample(math.inf),
    "counterexample-underflowing-c": lambda: mono.find_lcm_counterexample(
        4000.0),
    # stieltjes_eval read -0.0909 and -0.0952 at x = 1
    "smooth-coef-tail-negative": lambda: st.RepresentingMeasure(
        order=2, tail=st.SmoothCoefTail(10, lambda m: -1 + 0 * m)),
    "atom-tail-negative": lambda: st.RepresentingMeasure(
        order=2, tail=st.AtomTail(10, lambda m: -1 + 0 * m)),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_out_of_domain_argument_raises(call):
    with pytest.raises(DomainError):
        call()


def test_integral_float_counts_are_accepted():
    report = cs.hypotheses_check(lambda n: (-1.0) ** n, 0, 1.0, n_probe=2e4)
    assert report.n_probe == 20_000 and type(report.n_probe) is int
    grid = mono.CheckGrid(np.array([0.5, 1.0]), n_max=2.0)
    assert grid.n_max == 2 and type(grid.n_max) is int
    assert mono.cm_check(lambda x: 1.0 / x, grid).passed


def test_every_error_shares_one_base_and_keeps_its_own():
    # catching CmfunError catches them all; the ValueError and RuntimeError
    # bases (and so the CLI's exit codes) stay as they were
    bases = {errors.DomainError: ValueError,
             errors.HypothesisViolationError: ValueError,
             errors.ConvergenceError: RuntimeError,
             errors.CapTooSmallError: RuntimeError,
             errors.InversionDisagreementError: RuntimeError}
    for error, base in bases.items():
        assert issubclass(error, errors.CmfunError)
        assert issubclass(error, base)
    with pytest.raises(errors.CmfunError):
        st.measure_gamma_reciprocal_ratio(1.5)
