"""The measure layer on x arrays: ``stieltjes_eval``, the four tails,
``midpoint_tail`` and ``exp_sinh_to_inf`` take leading axes, and an array
entry agrees with the scalar call to rounding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from cmfun import barnes, cesaro, suites
from cmfun import stieltjes as st
from cmfun._quadrature import exp_sinh_to_inf
from cmfun._series import midpoint_tail
from cmfun.errors import ConvergenceError, DomainError


def catalog():
    """Every catalog constructor, the Cesaro presets and the Stirling
    kernel's periodic measure."""
    out = {
        "alternating-affine": st.measure_alternating(lambda n: n, 1.0),
        "alternating-half": st.measure_alternating(
            lambda n: 1.5 * n + 0.5, 0.5),
        "alternating-sqrt": st.measure_alternating(
            np.sqrt(np.arange(4096.0)), 0.7),
        "alternating-finite": st.measure_alternating(
            [0.0, 1.0, 2.5, 3.0, 4.0], 0.8),
        "integer-atoms": st.measure_integer_atoms(),
        "gamma-ratio": st.measure_gamma_ratio(0.5, 1.3),
        "genus1": st.measure_genus1_log_ratio((1.0, 2.0, 3.0), 0.5, 0.5),
        "gamma-reciprocal": st.measure_gamma_reciprocal_ratio(0.3),
        "cesaro-affine": st.measure_cesaro(lambda n: 1.0 + 0.0 * n, 0, 1.5),
        "stirling-q": barnes._Q_MEASURE,
    }
    for key in cesaro.PRESET_KEYS:
        preset = cesaro.preset_sequence(key)
        out["cesaro-" + key] = st.measure_cesaro(preset.coef, 0,
                                                 preset.default_lam)
    return out


MEASURES = catalog()


def assert_ulps(values, scalars, ulps=4):
    values, scalars = np.asarray(values), np.asarray(scalars)
    assert values.shape == scalars.shape
    assert np.all(np.abs(values - scalars)
                  <= ulps * np.spacing(np.abs(scalars)))


@pytest.mark.parametrize("name", sorted(MEASURES))
@settings(max_examples=15, deadline=None)
@given(shape=hs.sampled_from([(), (1,), (4,), (2, 3)]),
       logs=hs.lists(hs.floats(-3.0, 8.0), min_size=6, max_size=6))
def test_array_entries_match_scalar_calls(name, shape, logs):
    m = MEASURES[name]
    x = (10.0 ** np.array(logs))[:math.prod(shape)].reshape(shape)
    values = st.stieltjes_eval(m, x)
    scalars = [st.stieltjes_eval(m, v) for v in x.ravel().tolist()]
    if shape:
        assert isinstance(values, np.ndarray) and values.shape == shape
    else:
        assert type(values) is float
    assert_ulps(np.ravel(values), scalars)


def test_scalar_call_returns_a_float_and_arrays_are_checked():
    m = MEASURES["gamma-ratio"]
    assert type(st.stieltjes_eval(m, 2)) is float
    assert type(st.stieltjes_eval(m, np.float64(2.0))) is float
    for bad in (np.array([1.0, 0.0]), np.array([[2.0], [math.nan]]),
                np.empty((0, 3))):
        with pytest.raises(DomainError):
            st.stieltjes_eval(m, bad)


def test_tails_broadcast_over_x():
    x = np.array([[0.05, 1.0], [7.0, 300.0]])
    for name in ("alternating-affine", "gamma-ratio", "gamma-reciprocal",
                 "integer-atoms"):
        tail = MEASURES[name].tail
        order = MEASURES[name].order
        values = tail.stieltjes(x, order)
        assert values.shape == x.shape
        assert_ulps(values.ravel(), [tail.stieltjes(v, order)
                                     for v in x.ravel().tolist()])


def test_atoms_are_stored_as_one_array():
    m = st.RepresentingMeasure(order=2.0, atoms=[(0.5, 1.0), (2, 3)])
    assert m.atoms.shape == (2, 2) and m.atoms.dtype == float
    assert not m.atoms.flags.writeable
    assert st.RepresentingMeasure(order=2.0).atoms.shape == (0, 2)
    assert st.measure_integer_atoms().atoms.shape == (512, 2)
    x = np.array([1.0, 4.0])
    expected = 1.0 / (x + 0.5) ** 2 + 3.0 / (x + 2.0) ** 2
    assert np.allclose(st.stieltjes_eval(m, x), expected, rtol=1e-15)


def power_rows(x, p):
    """g(m) = (x + m)^(-p), one row per x."""
    x = np.asarray(x, dtype=float)[..., None]
    return lambda m: (x + m) ** (-p)


def levels_used(g, a):
    calls = []

    def counted(m):
        calls.append(m.size)
        return g(m)

    return exp_sinh_to_inf(counted, a), len(calls)


def test_exp_sinh_rows_close_at_their_own_levels():
    # knees at m = x: the far ones need finer steps than the near ones
    x = np.array([[0.0, 3.0, 1e4], [1e7, 1e10, 1e12]])
    values = exp_sinh_to_inf(power_rows(x, 2.5), 2.0)
    assert values.shape == x.shape
    singles = [levels_used(power_rows(v, 2.5), 2.0)
               for v in x.ravel().tolist()]
    assert len({n for _, n in singles}) >= 3
    assert_ulps(values.ravel(), [v for v, _ in singles], ulps=1)
    exact = (x + 2.0) ** -1.5 / 1.5
    assert np.all(np.abs(values - exact) <= 1e-14 * exact)


def test_exp_sinh_scalar_g_gives_a_scalar():
    value = exp_sinh_to_inf(lambda m: 1.0 / (m * m), 2.0)
    assert np.ndim(value) == 0 and abs(value - 0.5) <= 1e-16


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_exp_sinh_one_bad_row_raises(bad):
    with pytest.raises(ConvergenceError):
        exp_sinh_to_inf(lambda m: np.stack(
            [m ** -2.0, np.full_like(m, bad), m ** -3.0]), 1.0)


def test_exp_sinh_one_slow_row_raises():
    # p = 1.05 leaves 5e-8 of the integral beyond the last node
    p = np.array([[2.0], [1.05]])
    with pytest.raises(ConvergenceError):
        exp_sinh_to_inf(lambda m: m ** -p, 10.0)


def test_exp_sinh_one_far_knee_raises():
    # step 1/512 cannot resolve a knee at 1e100 for g ~ m^-2
    with pytest.raises(ConvergenceError):
        exp_sinh_to_inf(power_rows([1.0, 1e100], 2.0), 1.0)


def test_midpoint_tail_rows_match_one_dimensional_calls():
    x = np.array([0.5, 40.0, 1e6, 1e11])
    values = midpoint_tail(power_rows(x, 2.0), 1, 16)
    assert values.shape == x.shape
    assert_ulps(values, [midpoint_tail(power_rows(v, 2.0), 1, 16)
                         for v in x.tolist()], ulps=1)
    # sum_{m>=1} (1/2 + m)^-2 = psi'(3/2) = pi^2/2 - 4
    assert abs(values[0] - (math.pi ** 2 / 2.0 - 4.0)) <= 1e-10
    # no direct terms: the completion alone, one row per x
    tail = midpoint_tail(power_rows(x, 2.0), 1, 0, integral=1.0 / (x + 0.5))
    assert_ulps(tail, [midpoint_tail(power_rows(v, 2.0), 1, 0)
                       for v in x.tolist()])


def test_direct_series_takes_an_array():
    x = np.array([[0.5, 2.0], [10.0, 300.0]])
    for seq, lam in (("prym", 1.0), ("alternating", 1.0), ("ones", 2.0),
                     ([1.0, -0.5, 0.25], 1.0)):
        values = cesaro.direct_series(seq, lam, x)
        assert values.shape == x.shape
        assert_ulps(values.ravel(), [cesaro.direct_series(seq, lam, v)
                                     for v in x.ravel().tolist()])
    assert np.ndim(cesaro.direct_series("prym", 1.0, 2.0)) == 0


def test_gamma_ratios_suite_calls_each_measure_once(monkeypatch):
    # a loop over x would make 48 calls: one per x, one for the far value
    calls, built = [], []
    evaluate = st.stieltjes_eval

    def counted(m, x):
        calls.append(np.shape(x))
        return evaluate(m, x)

    monkeypatch.setattr(st, "stieltjes_eval", counted)
    for name in ("measure_gamma_ratio", "measure_genus1_log_ratio",
                 "measure_gamma_reciprocal_ratio"):
        build = getattr(st, name)
        monkeypatch.setattr(st, name, lambda *a, build=build: (
            built.append(a), build(*a))[1])
    report = suites.run_suite("gamma-ratios")
    assert report["passed"]
    assert len(built) == 9 and len(calls) == len(built)
    assert all(shape in ((5,), (6,)) for shape in calls)
