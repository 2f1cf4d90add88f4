import math

import numpy as np
import pytest

from cmfun._quadrature import _NODES, _WEIGHTS_G, _WEIGHTS_K, quad


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
