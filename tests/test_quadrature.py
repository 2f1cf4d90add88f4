import numpy as np

from cmfun._quadrature import _NODES, _WEIGHTS_G, _WEIGHTS_K


def test_rule_weights_sum_to_interval_length():
    assert abs(np.sum(_WEIGHTS_K) - 2.0) <= 4.5e-16
    assert abs(np.sum(_WEIGHTS_G) - 2.0) <= 4.5e-16


def test_rules_exact_to_their_degree():
    # K15 is exact through degree 22, G7 through degree 12
    assert abs(_WEIGHTS_K @ _NODES ** 22 - 2.0 / 23.0) <= 2e-16
    assert abs(_WEIGHTS_G @ _NODES ** 12 - 2.0 / 13.0) <= 2e-16
