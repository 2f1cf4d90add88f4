"""Oracle tests of every truncated-series tail completion: each must land
within 1e-13 * max(1, |ref|) of an independent mpmath or scipy value."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.special import polygamma

from cmfun import _quadrature, barnes, cesaro
from cmfun import stieltjes as st
from cmfun.errors import ConvergenceError

mpmath.mp.dps = 30
XS = (0.05, 0.3, 1.0, 3.7, 12.0, 50.0)


def assert_close(value, ref):
    assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))


def mp_log_gamma(x):
    return mpmath.loggamma(mpmath.mpf(x))


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.2])
def test_gap_tail(lam):
    m = st.measure_alternating(lambda n: n, lam)
    assert isinstance(m.tail, st.GapTail)
    for x in XS:
        assert_close(st.stieltjes_eval(m, x), float(mpmath.lerchphi(-1, lam, x)))


def test_periodic_tail_gamma_ratio():
    a, b = 0.5, 1.3
    m = st.measure_gamma_ratio(a, b)
    assert isinstance(m.tail, st.PeriodicTail)
    for x in XS:
        ref = (mp_log_gamma(x) + mp_log_gamma(x + a + b)
               - mp_log_gamma(x + a) - mp_log_gamma(x + b))
        assert_close(st.stieltjes_eval(m, x), float(ref))


def test_periodic_tail_stirling_kernel():
    for x in XS:
        xm = mpmath.mpf(x)
        ref = mp_log_gamma(x) - ((xm - 0.5) * mpmath.log(xm) - xm
                                 + mpmath.log(2 * mpmath.pi) / 2)
        assert_close(barnes._Q_MEASURE(x), float(ref))


def test_atom_tail():
    m = st.measure_integer_atoms()
    assert isinstance(m.tail, st.AtomTail)
    for x in XS:
        assert_close(st.stieltjes_eval(m, x), float(polygamma(1, x)))


@pytest.mark.parametrize("s", [0.01, 0.1, 0.2, 0.25, 0.3, 0.5, 0.8])
def test_cell_tail_pochhammer(s):
    m = st.measure_gamma_reciprocal_ratio(s)
    assert isinstance(m.tail, st.SmoothCoefTail)
    for x in XS:
        ref = mpmath.gamma(x) / mpmath.gamma(x + s + 1)
        assert_close(st.stieltjes_eval(m, x) / math.gamma(s + 1), float(ref))


@pytest.mark.parametrize("s", [0.01, 0.1, 0.2, 0.25, 0.5, 0.8, 0.99])
def test_cell_tail_pochhammer_kernel_route(s):
    m = st.measure_gamma_reciprocal_ratio(s)
    for x in (0.3, 12.0):
        ref = mpmath.gamma(s + 1) * mpmath.gamma(x) / mpmath.gamma(x + s + 1)
        assert_close(st.stieltjes_via_kernel(m, x), float(ref))


@settings(max_examples=200, deadline=None)
@given(k=hs.floats(99.5, 1e9), s=hs.floats(0.005, 0.995))
def test_pochhammer_coefficient(k, s):
    # (1-s)_k / k! = Gamma(k+1-s) / (Gamma(1-s) Gamma(k+1)), smooth in k
    ref = mpmath.exp(mpmath.loggamma(k + 1 - mpmath.mpf(s))
                     - mpmath.loggamma(k + 1)) / mpmath.gamma(1 - s)
    assert float(st._pochhammer_coef(k, s)) == pytest.approx(
        float(ref), rel=1e-15, abs=0.0)


def test_coef_tail_laplace_matches_direct_sums():
    # the exp-sinh rule serves every t: it agrees with a direct sum to
    # start + 45/t to rounding relative to kappa
    s = 0.3
    tail = st.measure_gamma_reciprocal_ratio(s).tail
    t = np.array([0.7, 1e-3, 0.02, 5.0, 0.3])
    for ti, value in zip(t, tail.laplace(t) / tail._unit_laplace(t)):
        m = np.arange(tail.start, tail.start + math.ceil(45.0 / ti) + 1.0)
        direct = float(np.sum(tail.coef(m) * np.exp(-m * ti)))
        assert abs(value - direct) <= 1e-15 * gamma_reciprocal_kappa(s, ti)


def test_cell_tail_affine():
    m = st.measure_cesaro(cesaro.preset_sequence("ones").coef, 0, 2.0)
    assert isinstance(m.tail, st.SmoothCoefTail)
    # cell m carries lam (m + 1) = 2 m + 2, affine in m
    assert np.array_equal(m.tail.coef(np.array([4096.0, 5000.0])),
                          [8194.0, 10002.0])
    for x in XS:
        assert_close(st.stieltjes_eval(m, x), float(polygamma(1, x)))


KAPPA_TS = (1e-20, 1e-14, 1e-12, 1e-9, 1e-6, 9.99e-4, 1e-3, 0.5, 20.0)


def gamma_reciprocal_kappa(s, t):
    return (-math.expm1(-t)) ** s / t


def ones_kernel(lam):
    # cell m carries lam (m + 1), so kappa(t) = lam / (t (1 - e^(-t)))
    return st.CmKernel(st.measure_cesaro(cesaro.preset_sequence("ones").coef,
                                         0, lam))


def assert_rel(value, ref, rel):
    assert abs(value - ref) <= rel * abs(ref), (value, ref)


@pytest.mark.parametrize("s", [0.01, 0.3, 0.5, 0.9, 0.99])
def test_kernel_gamma_reciprocal_closed_form(s):
    kappa = st.CmKernel(st.measure_gamma_reciprocal_ratio(s))
    values = kappa(np.array(KAPPA_TS))
    for t, value in zip(KAPPA_TS, values):
        assert_rel(value, gamma_reciprocal_kappa(s, t), 1e-13)


def test_kernel_integer_atoms_closed_form():
    kappa = st.CmKernel(st.measure_integer_atoms())
    for t in KAPPA_TS:
        assert_rel(kappa(t), 1.0 / -math.expm1(-t), 1e-13)


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_kernel_affine_cells_closed_form(lam):
    kappa = ones_kernel(lam)
    for t in KAPPA_TS:
        assert_rel(kappa(t), lam / (t * -math.expm1(-t)), 1e-13)


def closed_form_kernels():
    # mpmath's expm1: 1 - exp(-t) at 30 digits is itself 1e-12 off at 1e-20
    for s in (0.01, 0.5, 0.9, 0.99):
        yield f"gamma-reciprocal-{s}", \
            lambda s=s: st.measure_gamma_reciprocal_ratio(s), \
            lambda t, s=s: (-mpmath.expm1(-t)) ** s / t
    yield "integer-atoms", st.measure_integer_atoms, \
        lambda t: 1 / -mpmath.expm1(-t)


@pytest.mark.parametrize("build,closed",
                         [c[1:] for c in closed_form_kernels()],
                         ids=[c[0] for c in closed_form_kernels()])
def test_kernel_vector_within_2e_14_of_closed_form(build, closed):
    # one call on 300 t, so the density's small-t band is interpolated
    ts = np.geomspace(1e-20, 10.0, 300)
    values = st.CmKernel(build())(ts)
    ref = np.array([float(closed(mpmath.mpf(t))) for t in ts])
    assert np.max(np.abs(values / ref - 1.0)) <= 2e-14


@settings(max_examples=60, deadline=None)
@given(s=hs.floats(0.005, 0.995), log_t=hs.floats(-20.0, 1.0))
def test_kernel_gamma_reciprocal_property(s, log_t):
    t = 10.0 ** log_t
    kappa = st.CmKernel(st.measure_gamma_reciprocal_ratio(s))
    assert_rel(kappa(t), gamma_reciprocal_kappa(s, t), 1e-13)


@pytest.mark.parametrize("t", [2.3e-308, 1e-200, 1e-50])
def test_kernels_at_tiny_t(t):
    # finite and within 1e-3 wherever the closed form is finite, inf where
    # it overflows, and no floating-point warning on the way
    tm = mpmath.mpf(t)
    cases = [(st.measure_gamma_reciprocal_ratio(s),
              (-mpmath.expm1(-tm)) ** s / tm) for s in (0.01, 0.5, 0.99)]
    cases.append((st.measure_integer_atoms(), 1 / -mpmath.expm1(-tm)))
    cases += [(ones_kernel(lam).measure, lam / (tm * -mpmath.expm1(-tm)))
              for lam in (1.0, 2.0)]
    for measure, ref in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = st.CmKernel(measure)(t)
        ref = float(ref)
        if math.isinf(ref):
            assert value == math.inf
        else:
            assert_rel(value, ref, 1e-3)


def record_quad_calls(monkeypatch):
    """The list that collects the args of every adaptive ``quad`` call.
    stieltjes imports no quadrature, so a tail could reach quad only
    through a helper that looks it up in _quadrature."""
    quad_calls = []
    real_quad = _quadrature.quad

    def quad(*args, **kwargs):
        quad_calls.append(args)
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(_quadrature, "quad", quad)
    return quad_calls


def test_small_t_kernel_runs_no_quad_and_one_coef_batch(monkeypatch):
    quad_calls = record_quad_calls(monkeypatch)
    m = st.measure_gamma_reciprocal_ratio(0.3)
    coef_calls = []

    def coef(k):
        coef_calls.append(np.shape(k))
        return m.tail.coef(k)

    kappa = st.CmKernel(dataclasses.replace(
        m, tail=dataclasses.replace(m.tail, coef=coef)))
    small = np.logspace(-15, -4, 14)
    large = np.linspace(2e-3, 5.0, 14)
    counts = []
    for n_small in (1, 10, 14):
        coef_calls.clear()
        values = kappa(np.concatenate([small[:n_small],
                                       large[:15 - n_small]]))
        assert np.all(np.isfinite(values))
        counts.append(len(coef_calls))
    assert quad_calls == []
    assert counts[0] == counts[1] == counts[2]


def test_direct_series_positive_coefficients():
    for x in XS:
        assert_close(cesaro.direct_series("ones", 1.5, x),
                     float(mpmath.zeta(1.5, x)))


def test_coef_tails_share_fields_and_differ_in_unit():
    def one(k):
        return np.ones_like(np.asarray(k, dtype=float))

    atoms = st.AtomTail(start=3, coef=one)
    cells = st.SmoothCoefTail(start=3, coef=one)
    assert (atoms.brute, cells.brute) == (512, 512)
    # brute is a class constant, not a settable field
    for tail in (atoms, cells, st.GapTail(0.0, 1.0, 1.0, 3),
                 barnes._Q_MEASURE.tail):
        assert "brute" not in {f.name for f in dataclasses.fields(tail)}
    t = np.array([0.5, 2.0])
    assert np.allclose(cells.laplace(t), atoms.laplace(t) * -np.expm1(-t) / t,
                       rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("build", [
    lambda: st.measure_gamma_reciprocal_ratio(0.3), st.measure_integer_atoms,
], ids=["gamma-reciprocal", "integer-atoms"])
def test_stieltjes_tail_runs_no_quad_and_four_coef_calls(monkeypatch, build):
    # per x: the direct head, the nested exp-sinh rule's levels at steps
    # 1/8 and 1/16, and the midpoint stencil
    quad_calls = record_quad_calls(monkeypatch)
    m = build()
    coef_calls = []

    def coef(k):
        coef_calls.append(np.shape(k))
        return m.tail.coef(k)

    counted = dataclasses.replace(m, tail=dataclasses.replace(m.tail,
                                                              coef=coef))
    for x in XS:
        coef_calls.clear()
        assert math.isfinite(st.stieltjes_eval(counted, x))
        assert len(coef_calls) <= 4, (x, coef_calls)
    assert quad_calls == []


# The coefficient tails completed by the nested exp-sinh rule, against
# independent oracles to 1e-14 relative, out to x = 1e12.
GRID_X = (1e-3, 0.05, 1.0, 37.0, 1e3, 1e6, 1e9, 1e12)


@pytest.mark.parametrize("s", [0.01, 0.1, 0.3, 0.5, 0.9, 0.99])
def test_gamma_reciprocal_tail_grid(s):
    m = st.measure_gamma_reciprocal_ratio(s)
    sm = mpmath.mpf(s)
    for x in GRID_X:
        xm = mpmath.mpf(x)
        ref = mpmath.gamma(sm + 1) * mpmath.exp(
            mpmath.loggamma(xm) - mpmath.loggamma(xm + sm + 1))
        assert_rel(st.stieltjes_eval(m, x), float(ref), 1e-14)


def test_atom_tail_grid():
    m = st.measure_integer_atoms()
    for x in GRID_X:
        assert_rel(st.stieltjes_eval(m, x), float(mpmath.psi(1, x)), 1e-14)


@pytest.mark.parametrize("lam", [1.2, 1.5, 2.0, 3.0])
def test_ones_direct_and_stieltjes_grid(lam):
    m = st.measure_cesaro(cesaro.preset_sequence("ones").coef, 0, lam)
    for x in GRID_X:
        ref = float(mpmath.zeta(lam, x))
        assert_rel(cesaro.direct_series("ones", lam, x), ref, 1e-14)
        assert_rel(st.stieltjes_eval(m, x), ref, 1e-14)


def test_p_kernel_series_grid():
    for t in (0.01, 0.1, 1.0, 5.0, 20.0, 60.0):
        assert_rel(barnes.p_kernel_series(t), barnes.p_kernel(t), 1e-14)


@pytest.mark.parametrize("x", [0.5, 3.0])
def test_ones_too_slow_to_complete_raises(x):
    # at lam = 1.05 the part beyond the rule's range is 5e-8 of the tail
    # integral: both legs raise instead of returning it (or inf)
    m = st.measure_cesaro(cesaro.preset_sequence("ones").coef, 0, 1.05)
    with pytest.raises(ConvergenceError):
        cesaro.direct_series("ones", 1.05, x)
    with pytest.raises(ConvergenceError):
        st.stieltjes_eval(m, x)
