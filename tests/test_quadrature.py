import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from cmfun import _quadrature
from cmfun._quadrature import (EXP_SINH_LEVELS, _NESTED_LEVELS, _NODES,
                               _WEIGHTS_G, _WEIGHTS_K, _XK, _nested_levels,
                               _panels, exp_sinh_rule, exp_sinh_to_inf, quad)
from cmfun.errors import ConvergenceError


def test_rule_weights_sum_to_interval_length():
    assert abs(np.sum(_WEIGHTS_K) - 2.0) <= 4.5e-16
    assert abs(np.sum(_WEIGHTS_G) - 2.0) <= 4.5e-16


def test_rules_exact_to_their_degree():
    # K15 is exact through degree 22, G7 through degree 12
    assert abs(_WEIGHTS_K @ _NODES ** 22 - 2.0 / 23.0) <= 2e-16
    assert abs(_WEIGHTS_G @ _NODES ** 12 - 2.0 / 13.0) <= 2e-16


# int_0^8 e^(-t) sin(5t) dt and int_0^8 e^(it) dt
DAMPED = (5.0 - math.exp(-8.0) * (math.sin(40.0) + 5.0 * math.cos(40.0))) / 26.0
OSCILLATING = complex(math.sin(8.0), 1.0 - math.cos(8.0))


@pytest.mark.parametrize("f, exact", [
    (lambda t: np.exp(-t) * np.sin(5.0 * t), DAMPED),
    (lambda t: np.exp(1j * t), OSCILLATING),
], ids=["real", "complex"])
def test_every_call_hands_f_one_generation_of_whole_panels(f, exact):
    # no probe call: the first call holds the seed panels [0, 1] and
    # [1, 8]; each later call holds both halves of every panel it splits,
    # left halves first, and the leaves always tile [0, 8]
    calls = []

    def counted(t):
        calls.append(np.asarray(t))
        return f(t)

    value = quad(counted, 0.0, 8.0, points=[1.0])
    assert abs(value - exact) <= 1e-12
    leaves = set()
    for g, t in enumerate(calls):
        assert t.ndim == 1 and len(t) % 15 == 0
        rows = t.reshape(-1, 15)
        half = (rows[:, -1] - rows[:, 0]) / (2.0 * _XK[0])
        lo, hi = rows[:, 7] - half, rows[:, 7] + half
        np.testing.assert_allclose(rows, (lo + hi)[:, None] / 2.0
                                   + half[:, None] * _NODES, atol=1e-15)
        if g == 0:
            np.testing.assert_allclose([lo, hi], [[0.0, 1.0], [1.0, 8.0]],
                                       atol=1e-15)
            leaves = set(zip(lo.round(12), hi.round(12)))
            continue
        n = len(lo) // 2
        assert len(lo) == 2 * n and n > 0
        np.testing.assert_allclose(hi[:n], lo[n:], atol=1e-15)
        for parent in zip(lo[:n].round(12), hi[n:].round(12)):
            leaves.remove(parent)
        leaves |= set(zip(lo.round(12), hi.round(12)))
    edges = sorted(leaves)
    assert edges[0][0] == 0.0 and edges[-1][1] == 8.0
    assert all(a[1] == b[0] for a, b in zip(edges[:-1], edges[1:]))
    assert 2 <= len(calls) <= 8


def test_vector_integrand_converges_every_component():
    # rows of e^(-x t) for x spread over five decades share the panels;
    # each row meets its own tolerance
    x = np.array([[1e-2, 0.3], [1.0, 4.0], [50.0, 1e3]])
    calls = []

    def f(t):
        calls.append(len(t))
        return np.exp(-x[..., None] * t)

    value = quad(f, 0.0, 1.0, abs_tol=0.0, rel_tol=1e-13)
    assert value.shape == x.shape
    exact = -np.expm1(-x) / x
    assert np.all(np.abs(value - exact) <= 1e-13 * exact)
    assert len(calls) <= 12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_quad_raises_on_a_non_finite_integrand(value):
    # a nan error sum used to end the refinement and return the nan total
    with pytest.raises(ConvergenceError):
        quad(lambda t: np.full(np.shape(t), value), 0.0, 1.0)


def test_complex_panel_keeps_the_promoted_products():
    # a complex integrand's Kronrod sums are its weighted sums, panel by
    # panel
    rng = np.random.default_rng(3)
    fx = rng.normal(size=(2, 45)) + 1j * rng.normal(size=(2, 45))
    lo, hi = np.array([0.0, 1.0, 3.0]), np.array([1.0, 3.0, 7.0])
    value, _ = _panels(lambda t: fx, lo, hi)
    assert value.shape == (2, 3)
    for row, v in zip(fx, value):
        for p, panel in enumerate(row.reshape(3, 15)):
            assert v[p] == 0.5 * (hi[p] - lo[p]) * np.sum(_WEIGHTS_K * panel)


def test_quad_raises_past_the_panel_limit():
    # |t - 1/3|^(-0.9) has an integrable peak that _LIMIT panels do not
    # resolve to 1e-12; the generation that would take the panels
    # evaluated past the limit raises instead of being evaluated
    sizes = []

    def f(t):
        sizes.append(len(t))
        return np.abs(t - 1.0 / 3.0) ** -0.9

    with pytest.raises(ConvergenceError, match="did not converge"):
        quad(f, 0.0, 1.0)
    assert sum(sizes) <= 15 * _quadrature._LIMIT


def test_nested_levels_add_only_new_nodes():
    # every tau = j/512 on [-4.5, 6.0625] once, 85 of them at step 1/8
    steps = [step for step, _, _ in _NESTED_LEVELS]
    assert steps == [2.0 ** -k for k in range(3, 10)]
    assert [len(u) for _, u, _ in _NESTED_LEVELS[:2]] == [85, 85]
    u = np.sort(np.concatenate([u for _, u, _ in _NESTED_LEVELS]))
    tau = np.arcsinh(np.log(u) / (0.5 * math.pi)) * 512.0
    assert np.allclose(tau, np.arange(-2304, 3105), rtol=0.0, atol=1e-8)


def test_exp_sinh_levels_add_only_new_nodes():
    # every tau = j/512 on [-3480/512, 864/512] once, 68 at step 1/8, and
    # the first four levels are the step-1/64 rule tau = i/64
    steps = [step for step, _, _ in EXP_SINH_LEVELS]
    assert steps == [2.0 ** -k for k in range(3, 10)]
    assert [len(w) for _, w, _ in EXP_SINH_LEVELS[:2]] == [68, 68]
    w = np.sort(np.concatenate([w for _, w, _ in EXP_SINH_LEVELS]))
    tau = np.arcsinh(np.log(w) / (0.5 * math.pi)) * 512.0
    assert np.allclose(tau, np.arange(-3480, 865), rtol=0.0, atol=1e-8)
    w64, h64 = exp_sinh_rule(4)
    tau64 = np.arange(-435, 109) / 64.0
    np.testing.assert_array_equal(w64, np.exp(0.5 * np.pi * np.sinh(tau64)))
    np.testing.assert_array_equal(
        h64, (0.5 * np.pi / 64.0) * np.cosh(tau64) * w64 * np.exp(-w64))


@pytest.mark.parametrize("levels", range(3, 8))
def test_exp_sinh_rule_integrates_powers(levels):
    # int_0^inf w^p e^(-w) dw = Gamma(p + 1), from step 1/32 on
    w, h = exp_sinh_rule(levels)
    for p in (-0.5, 0.0, 0.3, 1.0, 4.0):
        assert abs(h @ w ** p / math.gamma(p + 1.0) - 1.0) <= 2e-15


def test_exp_sinh_calls_g_once_per_level_on_new_nodes():
    sizes = []

    def g(m):
        sizes.append(np.size(m))
        return 1.0 / (m * m)

    assert abs(exp_sinh_to_inf(g, 2.0) - 0.5) <= 1e-16
    assert sizes == [85, 85]


@settings(max_examples=300, deadline=None)
@given(p=hs.floats(1.2, 6.0), a=hs.floats(1.0, 1e4), x=hs.floats(0.0, 1e12))
def test_exp_sinh_power_tail(p, a, x):
    # int_a^inf (x+m)^(-p) dm = (x+a)^(1-p)/(p-1); a knee at m = x up to
    # 1e12 a takes the levels down to step 1/128 at most
    ref = (x + a) ** (1.0 - p) / (p - 1.0)
    assert abs(exp_sinh_to_inf(lambda m: (x + m) ** (-p), a) - ref) <= \
        1e-14 * ref


@pytest.mark.parametrize("p", [2.0, 6.0])
def test_exp_sinh_reaches_far_knees(p):
    # step 1/512 serves a knee at m = x up to 1e51 a for g ~ m^-6; beyond
    # the reach of the finest step the rule raises instead of guessing
    for x in (1e20, 1e30, 1e50):
        value = exp_sinh_to_inf(lambda m: (x + m) ** (-p), 1.0)
        assert abs(value * (p - 1.0) * (x + 1.0) ** (p - 1.0) - 1.0) <= 1e-14
    if p == 2.0:  # at p = 6 the terms at x = 1e100 underflow to 0
        with pytest.raises(ConvergenceError):
            exp_sinh_to_inf(lambda m: (1e100 + m) ** (-p), 1.0)


@pytest.mark.parametrize("p", [1.05, 1.1])
def test_exp_sinh_raises_when_g_decays_too_slowly(p):
    # the part beyond u = 3e146 is 5e-8 (p = 1.05), 2.5e-15 (p = 1.1) of it
    with pytest.raises(ConvergenceError):
        exp_sinh_to_inf(lambda m: m ** -p, 10.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_exp_sinh_raises_on_a_non_finite_level(value):
    with pytest.raises(ConvergenceError):
        exp_sinh_to_inf(lambda m: np.full_like(m, value), 1.0)


def test_exp_sinh_far_overflow_reads_zero():
    # 1/(1 + m^2)^2 overflows m^2 at the far nodes; those terms are 0
    value = exp_sinh_to_inf(lambda m: 1.0 / (1.0 + m * m) ** 2, 1.0)
    assert abs(value - (math.pi / 8.0 - 0.25)) <= 1e-16


def scripted(values, opened):
    """A level_sum under which row i reads values[i][k] at level k; it
    notes the rows each level is asked for."""
    values = np.array(values, dtype=float)
    steps = [step for step, _, _ in EXP_SINH_LEVELS]

    def level_sum(level, nodes, weights, rows):
        opened.append(np.arange(len(values))[rows].tolist())
        before = values[rows, level - 1] if level else 0.0
        return (values[rows, level] - 0.5 * before) / steps[level]
    return level_sum


def test_nested_level_driver_closes_each_row_on_its_own():
    # agreement at level 1, at level 3, never (the last level stands);
    # offset 1e4 scales the third row's 1e-8 change below 1e-10
    opened = []
    rows = [[1.0] * 7, [1.0, 2.0, 1.5, 1.5, 9.0, 9.0, 9.0],
            [1.0, 2.0] * 3 + [1.0], [1.0, 1.0 + 1e-8] + [5.0] * 5]
    total, closed = _nested_levels(EXP_SINH_LEVELS, scripted(rows, opened),
                                   offset=[0.0, 0.0, 0.0, 1e4])
    assert total[:3].tolist() == [1.0, 1.5, 1.0]
    assert abs(total[3] - 1.0 - 1e-8) <= 1e-16
    assert closed.tolist() == [1 / 16, 1 / 64, 0.0, 1 / 16]
    assert opened == [[0, 1, 2, 3], [0, 1, 2, 3], [1, 2], [1, 2], [2], [2],
                      [2]]


def test_nested_level_driver_waits_for_the_knee_step():
    # step * knee <= 1 first holds at step 1/128 for a knee of 100
    opened = []
    total, closed = _nested_levels(
        EXP_SINH_LEVELS, scripted([[2.0] * 7, [2.0] * 7], opened),
        knee=np.array([100.0, 0.0]))
    assert total.tolist() == [2.0, 2.0]
    assert closed.tolist() == [1 / 128, 1 / 16]
    assert len(opened) == 5


def test_nested_level_driver_closes_inf_and_raises_on_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total, closed = _nested_levels(
            EXP_SINH_LEVELS, scripted([[1.0] + [math.inf] * 6], []))
    assert total.tolist() == [math.inf] and closed.tolist() == [1 / 16]
    for late in (0, 3):
        row = [1.0] * 7
        row[late] = math.nan
        with pytest.raises(ConvergenceError, match="is nan at step"):
            _nested_levels(EXP_SINH_LEVELS, scripted([row, [1.0] * 7], []),
                           knee=[1e3, 0.0])


def _integrand_calls(monkeypatch, suite):
    """{item name: integrand calls of its adaptive quadratures} for one
    check suite; every item must pass."""
    from cmfun import laplace, suites
    calls = []
    real = laplace.quad

    def counted(f, *args, **kwargs):
        def g(t):
            calls.append(np.size(t))
            return f(t)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(laplace, "quad", counted)
    out = {}
    for name, check in suites.SUITES[suite]():
        before = len(calls)
        verdict = check()
        assert verdict["passed"], (name, verdict)
        out[name] = len(calls) - before
    return out


def test_laplace_suites_share_panels_across_x(monkeypatch):
    # r22-cm reaches r_2_2n with its whole grid, and each identities-s3
    # item makes one laplace_quad per (function, nu) on all its x; one
    # adaptive quad per point made 84 quads of about 860 integrand calls
    # for r22-cm and 1,276 calls for identities-s3
    barnes = _integrand_calls(monkeypatch, "barnes")
    assert 0 < barnes["r22-cm"] <= 8
    s3 = _integrand_calls(monkeypatch, "identities-s3")
    assert len(s3) == 8 and 0 < sum(s3.values()) <= 100
