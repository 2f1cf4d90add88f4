import math
import warnings

import mpmath
import numpy as np
import pytest

from cmfun import barnes as bn
from cmfun import monotonicity as mono
from cmfun import specfun as sf
from cmfun.errors import DomainError


class TestQKernel:
    def test_values(self):
        assert bn.q_kernel(0.0) == 0.0
        assert bn.q_kernel(0.5) == pytest.approx(0.125, abs=1e-16)
        assert bn.q_kernel(2.5) == pytest.approx(0.125, abs=1e-16)

    def test_range_and_period(self):
        ts = np.linspace(0.0, 7.0, 701)
        vals = bn.q_kernel(ts)
        assert np.all((vals >= 0.0) & (vals <= 0.125))
        assert np.max(np.abs(bn.q_kernel(ts) - bn.q_kernel(ts + 3.0))) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            bn.q_kernel(-0.1)


class TestStirlingRemainder:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
    def test_identity(self, x):
        lhs, rhs = bn.stirling_remainder(x)
        assert abs(lhs - rhs) <= 1e-7

    def test_value_at_one(self):
        lhs, _ = bn.stirling_remainder(1.0)
        assert abs(lhs - (1.0 - 0.5 * math.log(2 * math.pi))) <= 1e-12

    def test_first_correction(self):
        lhs, _ = bn.stirling_remainder(10.0)
        assert abs(lhs - 1.0 / 120.0) <= 0.05 / 120.0

    def test_asymptotics(self):
        lhs, _ = bn.stirling_remainder(1e4)
        assert abs(12.0e4 * lhs - 1.0) <= 1e-3


class TestPKernel:
    def test_brute_force_cross_check(self):
        for n in (1, 2, 3):
            for t in (0.01, 1.0, 7.3, 60.0, 1000.0):
                a = bn.p_kernel(t, n)
                assert abs(a - bn.p_kernel_series(t, n=n)) <= 1e-15 * a

    @pytest.mark.parametrize("n", [2, 3])
    def test_higher_orders_match_series(self, n):
        for t in (0.5, 5.0):
            a = bn.p_kernel(t, n)
            assert abs(a - bn.p_kernel_series(t, n=n)) <= 1e-12 * abs(a)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_positive_and_decreasing(self, n):
        ts = np.geomspace(1e-2, 150.0, 100)
        vals = bn.p_kernel(ts, n)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_large_t_without_overflow(self):
        # csch^2 as 1/sinh^2 overflowed for t > ~710
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bn.r_2_2n(0.05)
            value = bn.p_kernel(1000.0)
        assert abs(value - bn.p_kernel_series(1000.0, n=1)) <= 1e-12 * value

    def test_small_t_limit(self):
        # t^2 p_n(t) -> 2 (2 pi)^(-2n) zeta(2n); equals 1/12 for n = 1
        assert bn.barnes_g_limit(1) == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert abs(1e-12 * bn.p_kernel(1e-6, 1) - 1.0 / 12.0) <= 1e-8

    def test_params_validation(self):
        with pytest.raises(DomainError):
            bn.p_kernel_series(1.0, n=0)

    def test_largest_order_is_normal(self):
        # n = 192 is the last order whose values are normal floats
        limit = bn.barnes_g_limit(192)
        assert limit == pytest.approx(6.309e-307, rel=1e-3)
        values = bn.p_kernel(np.array([1e-3, 1.0, 3.0]), 192)
        assert np.all(np.isfinite(values))
        assert np.all(values >= np.finfo(float).tiny)


def test_aux_sums_small_a_match_mpmath():
    a = np.array([1e-3, 0.05, 0.2, 0.35, 0.4999])
    s1, s2 = bn._aux_sums(a, 3)
    for m in range(4):
        for k, ak in enumerate(a):
            r1 = mpmath.nsum(lambda n: n ** (-2 * m) / (n * n + ak * ak),
                             [1, mpmath.inf])
            r2 = mpmath.nsum(lambda n: n ** (-2 * m) / (n * n + ak * ak) ** 2,
                             [1, mpmath.inf])
            assert abs(s1[m, k] - float(r1)) <= 2e-14 * float(r1)
            assert abs(s2[m, k] - float(r2)) <= 2e-14 * float(r2)


def test_kernel_keeps_its_leading_terms_up_to_t_1e300():
    # t^2 p_1(t) = (7/12) / t - 1/t^2 + O(t^-3); a^2 overflowed beyond
    # t ~ 8e154 and dropped the S1_1 term, a seventh of the value
    t = np.geomspace(1e10, 1e300, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = t * bn._t2_p_kernel(t, 1)
    assert np.all(np.abs(value - (7.0 / 12.0 - 1.0 / t)) <= 1e-14)


@pytest.mark.parametrize("a", [0.5, 0.9, 3.0, 1e3, 1e100, 1e160, 1e300])
def test_aux_sums_large_a_match_the_exact_recurrence(a):
    # S1_m from the coth closed form and S1_m = (zeta(2m) - S1_(m-1))/a^2
    # in 60 digits; the returned sums are times _sum_scale(a)
    scale = float(bn._sum_scale(a))
    assert scale == 2.0 ** math.frexp(a)[1] and a < scale <= 2.0 * a
    s1, _ = bn._aux_sums(np.array([a]), 3)
    with mpmath.workdps(60):
        am = mpmath.mpf(a)
        ref = mpmath.pi * mpmath.coth(mpmath.pi * am) / (2 * am) \
            - 1 / (2 * am ** 2)
        for m in range(4):
            if m:
                ref = (mpmath.zeta(2 * m) - ref) / am ** 2
            want = float(ref * scale)
            if want > 1e-290:
                assert abs(s1[m, 0] - want) <= 1e-14 * want


class TestR22:
    def test_positive_decreasing(self):
        r5 = bn.r_2_2n(5.0, 1)
        r10 = bn.r_2_2n(10.0, 1)
        assert 0.0 < r10 < r5

    def test_leading_decay(self):
        # w R(w) -> t^2 p_1(0+) = 1/12 (the integrand does not vanish at 0)
        w = 1000.0
        assert abs(w * bn.r_2_2n(w, 1) - 1.0 / 12.0) <= 1e-2

    def test_huge_w_follows_the_leading_decay(self):
        # t^2 p_1(t) is finite where 1/t^2 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in (1e200, 1e300):
                assert bn.r_2_2n(w, 1) == pytest.approx(
                    bn.barnes_g_limit(1) / w, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("w, value", [(0.1, 0.5775539164402133),
                                          (1.0, 0.08457885629954907),
                                          (40.0, 0.0020858937176136847)])
    def test_moderate_w_values(self, w, value):
        assert bn.r_2_2n(w, 1) == pytest.approx(value, rel=1e-14, abs=0.0)

    def test_cm(self):
        grid = mono.CheckGrid(np.geomspace(0.5, 50.0, 12), n_max=6)
        assert mono.cm_check(lambda w: bn.r_2_2n(w, 1), grid).passed

    @pytest.mark.parametrize("n", [1, 2])
    def test_array_w_matches_scalar_calls(self, n):
        # the cm grid's points x + j h in one call, on one panel set
        grid = mono.CheckGrid(np.geomspace(0.5, 50.0, 12), n_max=6)
        w = mono._grid_points(grid)
        values = bn.r_2_2n(w, n)
        assert values.shape == w.shape
        one = np.array([bn.r_2_2n(float(v), n) for v in w.flat])
        # r_2_2n's tolerance: max(1e-16, 5e-14 |R|)
        assert np.all(np.abs(values.ravel() - one)
                      <= np.maximum(1e-16, 5e-14 * one))

    def test_array_w_domain(self):
        for w in (np.array([1.0, 0.0]), np.array([1.0, math.inf]),
                  np.array([])):
            with pytest.raises(DomainError):
                bn.r_2_2n(w, 1)

    def test_positivity_object(self):
        # positivity of t - sin t + c(1 - cos t - t sin(t)/2) at c = 1/(pi k)
        for k in (1, 2, 10):
            assert mono.lemma_pos_check(1.0 / (math.pi * k)).passed

    def test_domain(self):
        with pytest.raises(DomainError):
            bn.r_2_2n(0.0, 1)
        with pytest.raises(DomainError):
            bn.r_2_2n(1.0, 0)


def test_p1_p2_cm_acceptance_order():
    grid = mono.CheckGrid.default(n_max=6)
    assert mono.cm_check(lambda t: bn.p_kernel(t, 1), grid).passed
    assert mono.cm_check(lambda t: bn.p_kernel(t, 2), grid).passed


@pytest.mark.parametrize("fn", [bn.r_2_2n, sf.sin_cos_integrals],
                         ids=["r22", "si-ci"])
@pytest.mark.parametrize("w", [math.inf, math.nan])
def test_non_finite_argument_raises(fn, w):
    # Laplace-type integrals of a non-finite argument have no value
    with pytest.raises(DomainError):
        fn(w)
