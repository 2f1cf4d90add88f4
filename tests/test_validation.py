"""Front-door validation: an argument outside a function's domain raises
DomainError instead of returning nan, a wrong number or a warning."""

import math

import numpy as np
import pytest

from cmfun import barnes as bn
from cmfun import cesaro as cs
from cmfun import densities as dn
from cmfun import laplace as lp
from cmfun import monotonicity as mono
from cmfun.errors import DomainError

STEP = lp.PeriodicStep(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]))
NU = dn.DensitySpec("nu", 1.0)

CASES = {
    "kappa-negative-t": lambda: cs.kappa_eval("ones", 0, -1.0),
    "kappa-zero-t": lambda: cs.kappa_eval("ones", 0, 0.0),
    "kappa-nan-t": lambda: cs.kappa_eval("ones", 0, math.nan),
    "kappa-nan-in-array": lambda: cs.kappa_eval("prym", 0,
                                                np.array([1.0, math.nan])),
    "q-kernel-nan": lambda: bn.q_kernel(math.nan),
    "q-kernel-inf": lambda: bn.q_kernel(math.inf),
    "density-eval-nan": lambda: dn.density_eval(NU, math.nan),
    "density-cdf-nan": lambda: dn.density_cdf(NU, math.nan),
    "sigma-discrete-inf": lambda: lp.sigma_discrete(STEP, 1.0, 0.5, math.inf),
    "laplace-periodic-inf": lambda: lp.laplace_periodic(STEP, math.inf),
    "step-f-inf": lambda: lp.step_F(STEP, math.inf),
    "laplace-periodic-negative-period": lambda: lp.laplace_periodic(
        lambda t: 1.0, 1.0, period=-2.0),
    "laplace-periodic-inf-period": lambda: lp.laplace_periodic(
        lambda t: 1.0, 1.0, period=math.inf),
    "laplace-periodic-step-negative-period": lambda: lp.laplace_periodic(
        STEP, 1.0, period=-2.0),
    "laplace-periodic-step-other-period": lambda: lp.laplace_periodic(
        STEP, 1.0, period=7.0),
    "check-grid-nan": lambda: mono.CheckGrid(np.array([0.5, math.nan])),
    "check-grid-inf": lambda: mono.CheckGrid(np.array([0.5, math.inf])),
    "p-kernel-series-nan": lambda: bn.p_kernel_series(math.nan),
    "p-kernel-series-inf": lambda: bn.p_kernel_series(math.inf),
    "counterexample-inf-r": lambda: mono.find_lcm_counterexample(math.inf),
    "counterexample-underflowing-c": lambda: mono.find_lcm_counterexample(
        4000.0),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_out_of_domain_argument_raises(call):
    with pytest.raises(DomainError):
        call()
