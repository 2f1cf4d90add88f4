"""The point contract of the numeric API: a routine of a point x, t or w
gives a Python float (or a tuple of floats) for a scalar or 0-d point and
an ndarray of the input's shape for an array, whose entries match the
scalar calls; a point that is not a finite float > 0 raises DomainError,
with no warning on the way, and so do complex points and an empty array."""

import math
import warnings

import numpy as np
import pytest

from cmfun import barnes as bn
from cmfun import cesaro as cs
from cmfun import densities as dn
from cmfun import laplace as lp
from cmfun import stieltjes as st
from cmfun.errors import DomainError

PI = math.pi
STEP = lp.PeriodicStep(np.array([PI / 2, 3 * PI / 2, 2 * PI]),
                       np.array([1.0, 0.0, 1.0]))
NU = dn.DensitySpec("nu", 0.5)
GRID = np.array([[0.5, 1.0, 2.0], [3.0, 5.0, 7.5]])
BAD = (math.nan, math.inf, 0.0, -1.0)


def saw_slope(t):
    """phi' of the 2 pi-periodic |t| on [-pi, pi], on [0, 2 pi)."""
    return np.where(np.asarray(t) < PI, 1.0, -1.0)


def three_way(x):
    res = cs.series_eval_three_ways("prym", 0, 1.0, x)
    return res.direct, res.stieltjes, res.laplace


# name: (routine of one point argument, whether it returns a tuple, the
# agreement of array entries with scalar calls, relative to max(1, |value|);
# 0 is 4 ulp).  Three kinds agree to rounding of another order instead:
# the routines that share one adaptive panel set among the entries, to
# their quadrature tolerance, as laplace_quad does; CmKernel, whose lattice
# sum meets the rows of all t in matrix products over its classes and
# anchors; and the inversion, whose Euler weights meet the partial sums of
# all t in one matrix product (numpy's product of an (n, 19) array rounds
# each row otherwise than one row alone, and the partial sums cancel)
ROUTINES = {
    "CmKernel": (st.CmKernel(st.measure_gamma_ratio(0.5, 1.3)), False,
                 1e-14),
    "p_kernel": (lambda t: bn.p_kernel(t, 2), False, 0),
    "p_kernel_series": (lambda t: bn.p_kernel_series(t, 2), False, 0),
    "r_2_2n": (lambda w: bn.r_2_2n(w, 1), False, 5e-14),
    "stirling_remainder": (bn.stirling_remainder, True, 0),
    "density_eval": (lambda t: dn.density_eval(NU, t), False, 0),
    "density_cdf": (lambda t: dn.density_cdf(NU, t), False, 0),
    "density_quantile": (lambda u: dn.density_quantile(NU, u), False, 0),
    "kappa_eval": (lambda t: cs.kappa_eval("prym", 0, t), False, 0),
    "kappa_eval_series": (
        lambda t: cs.kappa_eval(lambda n: 1.0 / (1.0 + n) ** 2, 1, t),
        False, 0),
    "direct_series": (lambda x: cs.direct_series("prym", 1.0, x), False, 0),
    "series_eval_three_ways": (three_way, True, 1e-12),
    "laplace_periodic_step": (lambda x: lp.laplace_periodic(STEP, x),
                              False, 0),
    "laplace_periodic_callable": (
        lambda x: lp.laplace_periodic(lambda t: 2.0 + np.cos(t), x,
                                      period=2 * PI), False, 1e-12),
    "step_F": (lambda x: lp.step_F(STEP, x), False, 0),
    "sigma_discrete": (lambda x: lp.sigma_discrete(STEP, PI / 2, 0.3, x),
                       False, 0),
    "tau_discrete": (lambda x: lp.tau_discrete(STEP, PI / 2, 0.3, x, -1),
                     False, 0),
    "sigma_continuous": (
        lambda x: lp.sigma_continuous(saw_slope, 2 * PI, PI / 2, 0.6, x,
                                      phi_at_beta=0.6, breaks=[PI]),
        False, 1e-12),
    "tau_continuous": (
        lambda x: lp.tau_continuous(saw_slope, 2 * PI, PI / 2, 0.6, x,
                                    phi_max=PI, sign=1, breaks=[PI]),
        False, 1e-12),
    "laplace_invert": (lambda t: lp.laplace_invert(lp.beta_power(0.5), t),
                       False, 1e-12),
    "laplace_invert_diag": (
        lambda t: lp.laplace_invert_diag(lp.beta_power(0.5), t), True, 1e-12),
}
# density_quantile takes u in (0, 1); density_cdf takes t >= 0, inf too
POINTS = {"density_quantile": GRID / 8.0}
REFUSED = {"density_cdf": (math.nan, -1.0),
           "density_quantile": BAD + (1.0,)}


def parts(name, value):
    return value if ROUTINES[name][1] else (value,)


def inputs(grid):
    p = float(grid[0, 1])
    return {"float": p, "float64": np.float64(p), "0-d": np.array(p),
            "list": grid[0].tolist(), "2-D": grid}


def close(got, want, rel):
    if rel:
        return np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want))
    return np.abs(got - want) <= 4.0 * np.spacing(np.abs(want))


@pytest.mark.parametrize("kind", ["float", "float64", "0-d", "list", "2-D"])
@pytest.mark.parametrize("name", ROUTINES)
def test_shape_and_type_follow_the_input(name, kind):
    grid = POINTS.get(name, GRID)
    x = inputs(grid)[kind]
    f, _, rel = ROUTINES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = parts(name, f(x))
    if np.ndim(x) == 0:
        assert all(type(v) is float for v in got), [type(v) for v in got]
        return
    shape = np.shape(x)
    scalar = [parts(name, f(v)) for v in np.ravel(x).tolist()]
    for i, value in enumerate(got):
        assert type(value) is np.ndarray and value.shape == shape
        want = np.array([s[i] for s in scalar]).reshape(shape)
        assert np.all(close(value, want, rel)), (value, want)


@pytest.mark.parametrize("name", ROUTINES)
def test_a_bad_point_in_an_array_is_a_domain_error(name):
    f = ROUTINES[name][0]
    for bad in REFUSED.get(name, BAD):
        x = POINTS.get(name, GRID).copy()
        x[1, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                f(x)


@pytest.mark.parametrize("name", ROUTINES)
def test_complex_and_empty_points_are_a_domain_error(name):
    f = ROUTINES[name][0]
    grid = POINTS.get(name, GRID)
    p = float(grid[0, 1])
    for x in (complex(p, p), np.complex128(p), grid + 1j * grid,
              [complex(p)], [], np.empty(0), np.empty((0, 3))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                f(x)


def test_the_kernel_route_takes_one_point():
    m = st.measure_gamma_ratio(0.5, 1.3)
    for x in (2.0, np.float64(2.0), np.array(2.0)):
        assert type(st.stieltjes_via_kernel(m, x)) is float
    for x in ([1.0, 2.0], GRID, [2.0], 2.0 + 1j, []) + BAD:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                st.stieltjes_via_kernel(m, x)


def test_density_cdf_keeps_its_closed_domain():
    assert dn.density_cdf(NU, 0.0) == 0.0
    assert dn.density_cdf(NU, math.inf) == dn.density_cdf(NU, 1e6)
