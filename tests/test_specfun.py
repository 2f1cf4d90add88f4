import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as hs

from cmfun import specfun as sf
from cmfun._quadrature import quad
from cmfun._series import ordered_sum
from cmfun.errors import ConvergenceError, DomainError

LOG2 = math.log(2.0)
GRID = np.geomspace(1e-2, 1e3, 40)


def euler_tail(terms):
    """Sum of an alternating-decaying tail given its leading terms.

    ``terms`` holds t_0, t_1, ... with signs included (t_j alternating).
    Repeated averaging of the partial sums; returns the converged diagonal.
    """
    row = np.cumsum(np.asarray(terms, dtype=float))
    best = row[-1]
    for _ in range(len(terms) - 1):
        row = 0.5 * (row[1:] + row[:-1])
        best = row[-1]
        if len(row) >= 2 and abs(row[-1] - row[-2]) < 1e-17 * (1 + abs(row[-1])):
            break
    return best


class TestClosedValues:
    @pytest.mark.parametrize("x,expected", [
        (1.0, LOG2),
        (0.5, math.pi / 2),
        (1.5, 2.0 - math.pi / 2),
        (2.0, 1.0 - LOG2),          # recurrence beta(x) + beta(x+1) = 1/x
    ])
    def test_nielsen_beta(self, x, expected):
        assert abs(sf.nielsen_beta(x) - expected) <= 1e-13

    @pytest.mark.parametrize("x,expected", [
        (1.0, math.pi ** 2 / 6),            # tau_1 = (6/pi^2) t/(e^t - 1)
        (0.5, math.pi ** 2 / 2),            # tau_1/2 = t/(pi^2 sinh(t/2))
        (1.5, (math.pi ** 2 - 8.0) / 2),    # tau_3/2 = t e^-t/((pi^2-8) sinh(t/2))
    ])
    def test_trigamma(self, x, expected):
        # 1 - e^-t = 2 e^(-t/2) sinh(t/2), so the tau_a normalizations force
        # 2 psi'(1/2) = pi^2 and 2 psi'(3/2) = pi^2 - 8
        assert abs(sf.trigamma(x) - expected) <= 1e-13

    def test_log_gamma_at_one(self):
        assert abs(sf.log_gamma(1.0)) <= 1e-13


class TestAgainstScipy:
    def test_digamma(self):
        err = np.abs(sf.digamma(GRID) - sp.digamma(GRID))
        assert np.all(err <= 1e-13 * (1.0 + np.abs(sp.digamma(GRID))))

    def test_trigamma(self):
        ref = sp.polygamma(1, GRID)
        assert np.all(np.abs(sf.trigamma(GRID) - ref) <= 1e-13 * (1 + ref))

    def test_tetragamma(self):
        ref = sp.polygamma(2, GRID)
        assert np.all(np.abs(sf.tetragamma(GRID) - ref)
                      <= 1e-13 * (1 + np.abs(ref)))

    def test_log_gamma(self):
        ref = sp.gammaln(GRID)
        assert np.all(np.abs(sf.log_gamma(GRID) - ref)
                      <= 1e-13 * (1 + np.abs(ref)))

    def test_complex_variants(self):
        zs = np.array([0.5 + 3j, 2 - 1j, 10 + 10j, 0.01 + 0.01j,
                       -5 + 0.5j, -15 + 2j])
        assert np.max(np.abs(sf.log_gamma(zs) - sp.loggamma(zs))) < 1e-12
        assert np.max(np.abs(sf.digamma(zs) - sp.digamma(zs))) < 1e-13
        for fn in (sf.digamma, sf.log_gamma):
            with pytest.raises(DomainError):
                fn(np.array([1.0 + 1j, -2.0 + 0j]))

    def test_si_ci(self):
        for x in (0.1, 1.0, 3.9, 4.1, 10.0, 100.0, 1e4):
            si, ci = sf.sin_cos_integrals(x)
            ref_si, ref_ci = sp.sici(x)
            assert abs(si - (ref_si - math.pi / 2)) <= 1e-12
            assert abs(ci - ref_ci) <= 1e-12


class TestComplexBeta:
    def test_real_axis(self):
        assert abs(sf.nielsen_beta(1.0 + 0j) - LOG2) <= 1e-13
        assert abs(sf.nielsen_beta(2.0 + 0j) - (1 - LOG2)) <= 1e-13

    def test_conjugate_symmetry(self):
        for z in (0.7 + 2.3j, 5.0 + 0.1j, 0.01 + 40j):
            assert abs(sf.nielsen_beta(z.conjugate())
                       - sf.nielsen_beta(z).conjugate()) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.nielsen_beta(-1.0 + 1j)
        with pytest.raises(DomainError):
            sf.nielsen_beta(np.array([0.7 + 2.3j, -1.0 + 1j]))


class TestSinCosIntegrals:
    def test_limit_at_zero(self):
        si, _ = sf.sin_cos_integrals(1e-8)
        assert abs(si + math.pi / 2) < 1e-7

    def test_cauchy_kernel_at_one(self):
        # independent oracle: sum of half-period panels of sin t/(1+t),
        # accelerated as an alternating series
        panels = [quad(lambda t: np.sin(t) / (1.0 + t),
                       k * math.pi, (k + 1) * math.pi,
                       abs_tol=1e-14, rel_tol=1e-13) for k in range(40)]
        oracle = euler_tail(panels)
        si, ci = sf.sin_cos_integrals(1.0)
        value = ci * math.sin(1.0) - si * math.cos(1.0)
        assert abs(value - oracle) <= 1e-8

    def test_asymptotic_decay(self):
        x = 1e4
        si, ci = sf.sin_cos_integrals(x)
        assert abs((ci * math.sin(x) - si * math.cos(x)) * x - 1.0) <= 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.sin_cos_integrals(0.0)

    def test_against_mpmath_on_a_log_grid(self):
        # both methods: the series up to x = 4 and the exp-sinh rule beyond;
        # the error is taken against the unrounded reference
        xs = np.concatenate([np.geomspace(1e-8, 1e6, 240),
                             [3.999999, 4.0, 4.000001]])
        si, ci = sf.sin_cos_integrals(xs)
        with mpmath.workdps(40):
            for x, s_val, c_val in zip(xs, si, ci):
                m = mpmath.mpf(x)
                assert abs(s_val - (mpmath.si(m) - mpmath.pi / 2)) <= 2e-15, x
                assert abs(c_val - mpmath.ci(m)) <= 2e-15, x

    def test_exp_sinh_branch_keeps_the_fixed_step_64_rule(self):
        # the rule before the nested table, written out: tau = i/64 for
        # -435 <= i <= 108, w = exp(pi/2 sinh tau), one ordered sum per x
        tau = np.arange(-435, 109) / 64.0
        w = np.exp(0.5 * np.pi * np.sinh(tau))
        weights = (0.5 * np.pi / 64.0) * np.cosh(tau) * w * np.exp(-w)
        xs = np.concatenate([np.geomspace(4.0, 1e6, 400)[1:],
                             [4.000001, 7.25, 1e6]])
        u = w / xs[:, None]
        h = weights / (1.0 + u * u)
        f = ordered_sum(h) / xs
        g = ordered_sum(h * u) / xs
        si, ci = sf.sin_cos_integrals(xs)
        np.testing.assert_array_equal(si, -f * np.cos(xs) - g * np.sin(xs))
        np.testing.assert_array_equal(ci, f * np.sin(xs) - g * np.cos(xs))


class TestPrym:
    def test_value_at_one(self):
        assert abs(sf.prym_P(1.0) - (1.0 - math.exp(-1.0))) <= 1e-13

    def test_value_at_two(self):
        # int_0^1 t e^(-t) dt = 1 - 2/e by parts
        assert abs(sf.prym_P(2.0) - (1.0 - 2.0 * math.exp(-1.0))) <= 1e-13

    def test_series_vs_integral(self):
        # P(x) = int_0^1 t^(x-1) e^(-t) dt, the lower incomplete gamma
        for x in (0.4, 1.0, 1.7, 6.0):
            assert abs(sf.prym_P(x) - float(mpmath.gammainc(x, 0, 1))) <= 1e-13

    def test_against_mpmath_on_a_log_grid(self):
        xs = np.geomspace(1e-3, 1e6, 120)
        with mpmath.workdps(40):
            for x, p in zip(xs, sf.prym_P(xs)):
                ref = mpmath.gammainc(mpmath.mpf(x), 0, 1)
                assert abs(p / ref - 1) <= 1e-15, x

    def test_gamma_decomposition(self):
        # Q(x) = int_1^inf t^(x-1) e^(-t) dt completes P to Gamma(x)
        x = 1.7
        q = float(mpmath.gammainc(x, 1))
        assert abs(sf.prym_P(x) + q - math.gamma(x)) <= 1e-13


@pytest.mark.parametrize("fn", [sf.digamma, sf.trigamma, sf.tetragamma,
                                sf.log_gamma, sf.nielsen_beta,
                                sf.nielsen_beta_deriv])
def test_huge_points_raise_no_warning(fn):
    # 1/(w*w) in the asymptotic series reads 0 once w*w overflows; the
    # overflow warned (an error under the test filter) past |w| = 1.34e154
    values = [fn(1e155), fn(1e300), fn(1e155 + 1j)]
    assert np.all(np.isfinite(values))


class TestBetaALambda:
    def test_reduces_to_beta(self):
        assert abs(sf.beta_a_lambda(0.9, 1.0, 1.0)
                   - sf.nielsen_beta(0.9)) <= 1e-12

    def test_log2(self):
        assert abs(sf.beta_a_lambda(1.0, 1.0, 1.0) - LOG2) <= 1e-13

    def test_vs_integral(self):
        # (1/Gamma(lam)) int_0^inf e^(-xt) (1 + e^(-t))^(-a) t^(lam-1) dt
        for x, a, lam in ((2.0, 0.5, 1.5), (1.0, 0.3, 1.0), (0.7, 1.0, 2.5)):
            with mpmath.workdps(30):
                ref = mpmath.quad(lambda t: mpmath.exp(-x * t) * t ** (lam - 1)
                                  * (1 + mpmath.exp(-t)) ** (-a),
                                  [0, 1, mpmath.inf]) / mpmath.gamma(lam)
            assert abs(sf.beta_a_lambda(x, a, lam) - float(ref)) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.beta_a_lambda(1.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            sf.beta_a_lambda(1.0, 0.5, 0.0)


class TestGammaRatioLog:
    def test_collapses(self):
        assert sf.gamma_ratio_log(1.3, 0.0, 0.9) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric(self):
        assert sf.gamma_ratio_log(1.3, 0.4, 0.9) == pytest.approx(
            sf.gamma_ratio_log(1.3, 0.9, 0.4), abs=1e-14)

    def test_integer_b(self):
        assert abs(sf.gamma_ratio_log(1.0, 0.5, 2.0)
                   - math.log(1.5 * 2.5 / 2.0)) <= 1e-14

    def test_nonnegative(self):
        for x in GRID:
            assert sf.gamma_ratio_log(x, 0.5, 1.3) >= 0.0

    def test_no_shift_is_exactly_zero(self):
        assert sf.gamma_ratio_log(1e8, 0.0, 1.3) == 0.0
        assert type(sf.gamma_ratio_log(2.0, 0.7, 0.0)) is float
        out = sf.gamma_ratio_log(np.array([[0.5, 1e12]]), 0.7, 0.0)
        assert out.shape == (1, 2) and not out.any()

    def test_matches_mpmath_or_refuses(self):
        # 30-digit log-gammas of the exact shifts; a point where the four
        # cancel past 1e-8 of the value raises instead
        refused = 0
        for x in np.geomspace(0.01, 1e7, 19).tolist():
            for a, b in ((0.5, 1.3), (1.0, 1.0), (3.0, 0.2), (1e4, 2e4)):
                with mpmath.workdps(30):
                    xm, lg = mpmath.mpf(x), mpmath.loggamma
                    ref = float(lg(xm) + lg(xm + a + b) - lg(xm + a)
                                - lg(xm + b))
                try:
                    value = sf.gamma_ratio_log(x, a, b)
                except ConvergenceError:
                    refused += 1
                    continue
                assert abs(value - ref) <= 1e-8 * ref, (x, a, b, value, ref)
        assert 0 < refused < 19 * 4

    @pytest.mark.parametrize("x, a, b", [(1e8, 0.5, 1.3), (1.0, 1e12, 0.5),
                                         (1.0, 1e300, 1.0)])
    def test_cancellation_raises(self, x, a, b):
        # these read 0.0 (6.5e-9 is true), 2.2e-4 off and -3.6e-15 (690.8)
        with np.errstate(over="ignore"):
            with pytest.raises(ConvergenceError, match="cancels"):
                sf.gamma_ratio_log(x, a, b)
            with pytest.raises(ConvergenceError, match="cancels"):
                sf.gamma_ratio_log(np.array([2.0, x]), a, b)


def log_uniform(lo, hi):
    return hs.floats(math.log(lo), math.log(hi)).map(math.exp)


REAL = log_uniform(1e-3, 1e4)
RIGHT_HALF = hs.builds(complex, hs.floats(0.01, 40.0), log_uniform(0.1, 1e3))
CUT_PLANE = hs.builds(complex, hs.floats(-20.0, 40.0), log_uniform(0.1, 1e3))


def mp_beta(z):
    return (mpmath.digamma((z + 1) / 2) - mpmath.digamma(z / 2)) / 2


def mp_beta_deriv(z):
    return (mpmath.psi(1, (z + 1) / 2) - mpmath.psi(1, z / 2)) / 4


class TestAgainstMpmath:
    """Hypothesis draws against mpmath at 30 digits: the beta pair and the
    polygammas within a few ulp, log-gamma within the scipy bounds above."""

    def check(self, fn, oracle, z, rel, floor=0.0):
        with mpmath.workdps(30):
            ref = oracle(mpmath.mpmathify(z))
            ref = complex(ref) if isinstance(z, complex) else float(ref)
        assert abs(fn(z) - ref) <= rel * (floor + abs(ref))

    @settings(max_examples=300, deadline=None)
    @given(z=hs.one_of(REAL, RIGHT_HALF))
    def test_nielsen_beta(self, z):
        self.check(sf.nielsen_beta, mp_beta, z, 2e-15)

    @settings(max_examples=300, deadline=None)
    @given(z=hs.one_of(REAL, RIGHT_HALF))
    def test_nielsen_beta_deriv(self, z):
        self.check(sf.nielsen_beta_deriv, mp_beta_deriv, z, 4e-15)

    @settings(max_examples=200, deadline=None)
    @given(z=hs.one_of(REAL, CUT_PLANE))
    def test_digamma_and_log_gamma(self, z):
        self.check(sf.digamma, mpmath.digamma, z, 1e-13, 1.0)
        self.check(sf.log_gamma, mpmath.loggamma, z, 1e-13, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(z=hs.one_of(REAL, RIGHT_HALF))
    def test_trigamma_and_tetragamma(self, z):
        self.check(sf.trigamma, lambda w: mpmath.psi(1, w), z, 1e-13, 1.0)
        self.check(sf.tetragamma, lambda w: mpmath.psi(2, w), z, 1e-13, 1.0)


@pytest.mark.parametrize("fn", [sf.nielsen_beta, sf.nielsen_beta_deriv,
                                sf.digamma, sf.trigamma, sf.tetragamma,
                                sf.log_gamma])
def test_batch_bits_match_single_points(fn):
    # 1/(w*(w+1)) in place of beta's 1/(w*w + w) differs here in 34 of 1500
    rng = np.random.default_rng(3)
    zs = rng.uniform(0.01, 80.0, 20000) + 1j * rng.uniform(-100.0, 100.0, 20000)
    pick = rng.choice(zs.size, 1500, replace=False)
    assert np.array_equal(fn(zs)[pick], [fn(complex(z)) for z in zs[pick]])


def _block_spanning_points(complex_plane):
    """3 _BLOCK / 12 + 1 points that each take at least one shift step
    (1-12 for the polygammas and 15-20 for beta on the real line, up to 42
    in the complex plane), so every function's array spans at least three
    _BLOCK blocks."""
    rng = np.random.default_rng(29)
    n = 3 * sf._BLOCK // 12 + 1
    if not complex_plane:
        return rng.uniform(1e-3, 11.9, n)
    return rng.uniform(-30.0, 11.9, n) + 1j * rng.choice(
        [-1.0, 1.0], n) * rng.uniform(0.05, 30.0, n)


def assert_bits_of_scalar_calls(fn, points):
    out = fn(points)
    assert out.tobytes() == np.array([fn(p) for p in points.tolist()],
                                     dtype=out.dtype).tobytes()


@pytest.mark.parametrize("fn", [sf.nielsen_beta, sf.nielsen_beta_deriv,
                                sf.digamma, sf.trigamma])
def test_entries_keep_their_bits_across_blocks(fn):
    assert_bits_of_scalar_calls(fn, _block_spanning_points(False))
    z = _block_spanning_points(True)
    if fn is not sf.digamma:    # the others need Re z > 0
        z = np.abs(z.real) + 1e-3 + 1j * z.imag
    assert_bits_of_scalar_calls(fn, z)


def test_complex_log_gamma_keeps_its_bits_across_blocks():
    assert_bits_of_scalar_calls(sf.log_gamma, _block_spanning_points(True))


@pytest.mark.parametrize("fn", [sf.log_gamma, sf.digamma],
                         ids=["log_gamma_complex", "digamma"])
def test_point_past_one_block_of_steps(fn):
    # -9e3 + i takes 9,012 steps, more than a block holds: each point is
    # then a block of its own (the block's row count is floored at 1)
    far = complex(-9e3, 1.0)
    assert math.ceil(sf._SHIFT - far.real) > sf._BLOCK
    z = np.concatenate([[far], _block_spanning_points(True)[:30], [far]])
    assert_bits_of_scalar_calls(fn, z)


class TestInvariants:
    def test_beta_recurrence(self):
        err = np.abs(sf.nielsen_beta(GRID) + sf.nielsen_beta(GRID + 1.0)
                     - 1.0 / GRID)
        assert np.max(err) <= 1e-12

    def test_series_route_agrees(self):
        # mpmath's accelerated sum of (-1)^n / (x+n)
        for x in GRID:
            with mpmath.workdps(30):
                ref = mpmath.nsum(lambda n: (-1) ** n / (x + n),
                                  [0, mpmath.inf])
            assert abs(float(ref) - sf.nielsen_beta(x)) <= 1e-13

    def test_trigamma_recurrence(self):
        err = np.abs(sf.trigamma(GRID) - sf.trigamma(GRID + 1.0)
                     - 1.0 / GRID ** 2)
        assert np.all(err <= 1e-12 * (1.0 + sf.trigamma(GRID)))

    def test_beta_positive_decreasing(self):
        vals = sf.nielsen_beta(GRID)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_beta_a_lambda_reduction_on_grid(self):
        for x in np.geomspace(0.1, 50, 12):
            assert abs(sf.beta_a_lambda(x, 1.0, 1.0)
                       - sf.nielsen_beta(x)) <= 1e-12


@pytest.mark.parametrize("fn", [sf.nielsen_beta, sf.digamma, sf.trigamma,
                                sf.log_gamma, sf.prym_P])
def test_domain_errors(fn):
    with pytest.raises(DomainError):
        fn(0.0)
    with pytest.raises(DomainError):
        fn(-2.0)


def test_shift_step_cap():
    # a point 2e4 left of the axis would need a (rows x 2e4) broadcast
    with pytest.raises(ConvergenceError):
        sf.log_gamma(complex(-2e4, 1.0))
    assert np.isfinite(sf.log_gamma(complex(-9e3, 1.0)))


@pytest.mark.parametrize("fn", [
    sf.prym_P,
    sf.nielsen_beta,
    # a, b large enough that no point cancels past gamma_ratio_log's gate
    lambda x: sf.gamma_ratio_log(x, 200.0, 300.0),
    lambda x: sf.sin_cos_integrals(x)[0],
    lambda x: sf.sin_cos_integrals(x)[1],
], ids=["prym", "beta", "gamma-ratio-log", "si", "ci"])
def test_array_input_matches_scalar_calls(fn):
    # each entry equals the scalar call
    xs = np.array([[0.03, 0.7, 5.0], [40.0, 3e3, 9e4]])
    out = fn(xs)
    assert out.shape == xs.shape
    assert np.array_equal(out, [[fn(float(x)) for x in row] for row in xs])
    assert isinstance(fn(0.7), float)


def test_beta_a_lambda_array_input():
    # numpy's array power may differ from the scalar pow by an ulp
    xs = np.geomspace(0.05, 100.0, 32)
    ref = np.array([sf.beta_a_lambda(float(x), 0.5, 1.5) for x in xs])
    assert np.allclose(sf.beta_a_lambda(xs, 0.5, 1.5), ref, rtol=4e-15,
                       atol=0.0)


@pytest.mark.parametrize("fn", [sf.prym_P, sf.nielsen_beta,
                                lambda x: sf.beta_a_lambda(x, 0.5, 1.0),
                                lambda x: sf.gamma_ratio_log(x, 0.5, 1.0)])
def test_array_domain_errors(fn):
    with pytest.raises(DomainError):
        fn(np.array([1.0, 0.0, 2.0]))


@pytest.mark.parametrize("s", [-3.9, -3.5, -2.7, -1.5, -1.01, -0.99, -0.5,
                               -0.1, 1e-9, 0.3, 0.9, 0.999])
def test_zeta_matches_mpmath(s):
    ref = float(mpmath.zeta(s))
    assert abs(sf._zeta(s) - ref) <= 5e-14 * abs(ref)


@pytest.mark.parametrize("s", [0.0, -1.0, -2.0])
def test_zeta_at_non_positive_integers(s):
    assert abs(sf._zeta(s) - float(mpmath.zeta(s))) <= 1e-15

