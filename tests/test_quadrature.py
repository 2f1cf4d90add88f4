import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from cmfun._quadrature import (EXP_SINH_LEVELS, _NESTED_LEVELS, _NODES,
                               _WEIGHTS_G, _WEIGHTS_K, _panel,
                               exp_sinh_rule, exp_sinh_to_inf, quad)
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
def test_every_call_hands_f_one_panel(f, exact):
    # no probe call: f sees only the 15 Kronrod nodes of one panel at a time
    sizes = []

    def counted(t):
        sizes.append(np.size(t))
        return f(t)

    value = quad(counted, 0.0, 8.0, points=[1.0])
    assert len(sizes) > 2 and set(sizes) == {15}
    assert abs(value - exact) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf, complex(math.inf, 0.0),
                                   complex(0.0, -math.inf)])
def test_quad_raises_on_a_non_finite_integrand(value):
    # a nan error sum used to end the refinement and return the nan total;
    # a complex inf used to warn 0 * inf = nan from the weights' 0j first
    with pytest.raises(ConvergenceError):
        quad(lambda t: np.full(np.shape(t), value), 0.0, 1.0)


def test_complex_panel_keeps_the_promoted_products():
    # the Kronrod products of a complex integrand have the bits of the
    # complex multiply they replace, so a complex quad keeps its value
    rng = np.random.default_rng(3)
    fx = rng.normal(size=15) + 1j * rng.normal(size=15)
    value, _ = _panel(lambda t: fx, 0.0, 1.0)
    assert value == 0.5 * np.sum(_WEIGHTS_K * fx)


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
