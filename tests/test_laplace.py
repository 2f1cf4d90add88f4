import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from cmfun import laplace as lp
from cmfun import specfun as sf
from cmfun.errors import (ConvergenceError, DomainError,
                          InversionDisagreementError)

PI = math.pi

SQUARE_STEP = lp.PeriodicStep(np.array([PI / 2, 3 * PI / 2, 2 * PI]),
                             np.array([1.0, 0.0, 1.0]))


def talbot_m(c, t):
    """m_c(t), the inverse of beta^c, by mpmath's Talbot contour at 20
    digits (about 0.1 s a point)."""
    with mpmath.workdps(20):
        def F(p):
            return ((mpmath.digamma((p + 1) / 2) - mpmath.digamma(p / 2))
                    / 2) ** c
        return float(mpmath.invertlaplace(F, t, method="talbot"))


def full_band_grid(c, dt, t, K=None):
    """The FFT grid by the complex inverse FFT of the first K frequencies,
    all M by default, with the head's inverses as J real powers: the
    reference the band and the real FFT are held to."""
    n = len(t)
    L = math.ceil(dt / lp._FFT_STEP)
    M = max(2 ** 15, 1 << (4 * n * L - 1).bit_length())
    period = M * dt / L
    t_max = n * dt
    a = (25.0 + max(c - 1.0, 0.0) * math.log1p(period / t_max)) \
        / (period - t_max)
    z = a + 2j * math.pi * np.arange(M if K is None else K) / period
    w = 1.0 / (z + lp._HEAD_SHIFT)
    residual = lp.beta_power(c)(z)
    added = np.zeros(n)
    wk = w ** c
    for j, b in enumerate(lp._beta_power_head(c)[:lp._HEAD_TERMS]):
        residual -= b * wk
        wk *= w
        added += b * t ** (c + j - 1.0) / math.gamma(c + j)
    residual[0] *= 0.5
    series = np.fft.ifft(residual, M)[L:n * L + 1:L].real * (2.0 * M / period)
    return series * np.exp(a * t) + added * np.exp(-lp._HEAD_SHIFT * t)


class TestStepClosedForms:
    def test_constant_levels(self):
        phi = lp.PeriodicStep(np.array([0.5, 2.0]), np.array([3.0, 3.0]))
        assert lp.step_F(phi, 2.0) == pytest.approx(3.0 / 2.0, abs=1e-14)

    def test_three_level_data(self):
        val = lp.step_F(SQUARE_STEP, 1.0)
        assert abs(val - (1.0 - 1.0 / (2.0 * math.cosh(PI / 2)))) <= 1e-14

    def test_asymmetric_vs_periodic(self):
        phi = lp.PeriodicStep(np.array([0.4, 1.1, 1.7]),
                              np.array([2.0, 0.5, 2.0]))
        for x in (0.3, 1.0, 2.1, 7.0):
            assert abs(lp.step_F(phi, x) - lp.laplace_periodic(phi, x)) <= 1e-12

    def test_requires_matching_levels(self):
        phi = lp.PeriodicStep(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            lp.step_F(phi, 1.0)


class TestLaplacePeriodic:
    def test_constant(self):
        phi = lp.PeriodicStep(np.array([1.0]), np.array([1.0]))
        assert lp.laplace_periodic(phi, 3.0) == pytest.approx(1.0 / 3.0,
                                                              abs=1e-14)

    def test_three_level_transform(self):
        x = 1.0
        val = lp.laplace_periodic(SQUARE_STEP, x)
        assert abs(val - (1.0 - 1.0 / (2.0 * math.cosh(PI * x / 2)))
                   / x) <= 1e-14

    def test_square_wave(self):
        phi = lp.PeriodicStep(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
        x = 1.3
        expected = (1.0 / x) * (1 - math.exp(-x)) / (1 - math.exp(-2 * x))
        assert lp.laplace_periodic(phi, x) == pytest.approx(expected, abs=1e-14)

    def test_callable_matches_brute_force(self):
        phi = lp.PeriodicStep(np.array([0.7, 1.5, 2.2]),
                              np.array([1.0, 0.2, 1.0]))
        for x in (0.8, 2.0):
            closed = lp.laplace_periodic(lambda t: phi(t), x, period=phi.period)
            brute = lp.laplace_quad(lambda t: phi(t), x, abs_tol=1e-13)
            assert abs(closed - brute) <= 1e-10


class TestLaplaceQuad:
    def test_constant(self):
        assert abs(lp.laplace_quad(lambda t: np.ones_like(t), 2.0) - 0.5) <= 1e-12

    def test_beta_cosh(self):
        val = lp.laplace_quad(lambda t: 1.0 / np.cosh(t), 1.0)
        assert abs(val - sf.nielsen_beta(1.0)) <= 1e-12

    def test_trigamma_kernel(self):
        val = lp.laplace_quad(lambda t: t / -np.expm1(-t), 1.0)
        assert abs(val - math.pi ** 2 / 6) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            lp.laplace_quad(lambda t: t, 0.0)
        for x in (np.array([1.0, -1.0]), np.array([1.0, 2.0j]),
                  np.array([]), np.array([1.0, math.nan]), math.inf):
            with pytest.raises(DomainError):
                lp.laplace_quad(np.sin, x)

    @pytest.mark.parametrize("f, closed", [
        (np.sin, lambda x: 1.0 / (1.0 + x * x)),
        (lambda t: 2.0 * np.exp(-t) / (1.0 + np.exp(-2.0 * t)),
         lambda x: sf.nielsen_beta((x + 1.0) / 2.0)),
    ], ids=["sin", "sech"])
    def test_array_x_matches_scalar_calls_and_closed_forms(self, f, closed):
        # L[sin](x) = 1/(1+x^2), L[1/cosh](x) = beta((x+1)/2); one panel
        # set serves every x, so each entry meets the tolerance of a
        # scalar call without having its bits
        x = np.geomspace(0.05, 50.0, 13)
        values = lp.laplace_quad(f, x)
        exact = closed(x)
        assert values.shape == x.shape
        assert np.all(np.abs(values - exact) <= 1e-13 * exact)
        for xi, v in zip(x, values):
            one = lp.laplace_quad(f, float(xi))
            assert abs(v - one) <= max(1e-13, 1e-12 * abs(one))

    def test_array_x_calls_f_once_per_generation(self):
        # f sees the nodes only; e^(-x t) makes one row per x
        sizes = []

        def f(t):
            sizes.append(np.shape(t))
            return np.sin(t)

        x = np.array([[0.5, 1.0, 2.0], [4.0, 8.0, 16.0]])
        values = lp.laplace_quad(f, x)
        assert values.shape == (2, 3)
        assert np.all(np.abs(values - 1.0 / (1.0 + x * x))
                      <= 1e-13 / (1.0 + x * x))
        assert all(len(s) == 1 and s[0] % 15 == 0 for s in sizes)
        assert len(sizes) <= 8

    def test_complex_scalar_x(self):
        z = 1.0 + 2.0j
        assert abs(lp.laplace_quad(np.sin, z) - 1.0 / (1.0 + z * z)) <= 1e-13
        assert abs(lp.laplace_quad(np.ones_like, z) - 1.0 / z) <= 1e-13

    def test_array_x_raises_past_the_panel_limit(self):
        # an integrable peak |t - 1/3|^(-0.9) that _LIMIT panels do not
        # resolve to the tolerance
        with pytest.raises(ConvergenceError, match="did not converge"):
            lp.laplace_quad(lambda t: np.abs(t - 1.0 / 3.0) ** -0.9,
                            np.array([1.0, 2.0, 5.0]))


class TestSigmaTauDiscrete:
    def test_square_profile_sigma(self):
        alpha, nu, x = PI / 2, 0.3, 1.0
        val = lp.sigma_discrete(SQUARE_STEP, alpha, PI * nu / 2, x)
        assert abs(val - (1.0 - math.cosh(nu * x)
                          / (2.0 * math.cosh(x)))) <= 1e-14

    def test_square_profile_tau(self):
        nu, x = 0.5, 1.0
        val = lp.tau_discrete(SQUARE_STEP, PI / 2, PI * nu / 2, x, sign=1)
        assert abs(val - (1.0 - math.sinh(nu * x) / math.cosh(x))) <= 1e-14

    def test_beta_zero_reduces_to_step(self):
        alpha, x = PI / 2, 1.3
        val = lp.sigma_discrete(SQUARE_STEP, alpha, 0.0, x)
        scaled = lp.PeriodicStep(SQUARE_STEP.breakpoints / alpha,
                                 SQUARE_STEP.levels)
        assert abs(val - x * lp.step_F(scaled, x)) <= 1e-13

    @staticmethod
    def _jump_points(alpha, beta, x):
        """t where phi(alpha t +/- beta) jumps, to seed quadrature panels."""
        t_max = lp.transform_cutoff(x)
        T = SQUARE_STEP.period
        pts = []
        for lam in np.concatenate([[0.0], SQUARE_STEP.breakpoints]):
            for m in range(int(alpha * t_max / T) + 2):
                for sign in (1.0, -1.0):
                    t = (lam + m * T + sign * beta) / alpha
                    if 0 < t < t_max:
                        pts.append(t)
        return sorted(pts)

    def test_sigma_against_shifted_quadrature(self):
        alpha, beta, x = PI / 2, 0.45, 1.1
        val = lp.sigma_discrete(SQUARE_STEP, alpha, beta, x)
        pts = self._jump_points(alpha, beta, x)
        from cmfun._quadrature import quad
        oracle = sum(quad(
            lambda t: np.exp(-x * t) * 0.5 * (SQUARE_STEP(alpha * t + beta)
                                              + SQUARE_STEP(alpha * t - beta)),
            lo, hi, abs_tol=1e-14, rel_tol=1e-13)
            for lo, hi in zip([0.0] + pts, pts + [pts[-1] + 1e-9]))
        assert abs(val / x - oracle) <= 1e-9

    def test_tau_against_shifted_quadrature(self):
        alpha, beta, x = PI / 2, 0.45, 0.9
        val = lp.tau_discrete(SQUARE_STEP, alpha, beta, x, sign=-1)
        pts = self._jump_points(alpha, beta, x)
        from cmfun._quadrature import quad
        oracle = sum(quad(
            lambda t: np.exp(-x * t) * (1.0 - SQUARE_STEP(alpha * t + beta)
                                        + SQUARE_STEP(alpha * t - beta)),
            lo, hi, abs_tol=1e-14, rel_tol=1e-13)
            for lo, hi in zip([0.0] + pts, pts + [pts[-1] + 1e-9]))
        assert abs(val / x - oracle) <= 1e-9

    def test_hypothesis_violations(self):
        with pytest.raises(DomainError):
            lp.sigma_discrete(SQUARE_STEP, PI / 2, 3.0, 1.0)  # beta > l_1
        with pytest.raises(DomainError):
            lp.tau_discrete(SQUARE_STEP, PI / 2, 0.3, 1.0, sign=2)


STEPS = {
    "square": lp.PeriodicStep([1.0, 3.0, 4.0], [1.0, 0.0, 1.0]),
    "spike": lp.PeriodicStep([1.0, 3.0, 4.0], [0.0, 2.0, 0.0]),
    "uneven": lp.PeriodicStep([0.4, 1.1, 1.7, 2.5], [2.0, 0.5, 1.5, 2.0]),
}


def _mp_step(phi, alpha, beta, x, kind, sign=1):
    """(value, leading constant) of sigma, tau or F at the float x, from the
    defining step sum at enough digits to survive its cancellation."""
    bp = [mpmath.mpf(float(b)) for b in phi.breakpoints]
    a = [mpmath.mpf(float(v)) for v in phi.levels]
    with mpmath.workdps(40 + int(float(bp[0]) * x / alpha / 2.3)):
        y = mpmath.mpf(x) / alpha
        s = sum((a[k] - a[k + 1]) * (1 - mpmath.exp(-bp[k] * y))
                for k in range(len(a) - 1)) / (1 - mpmath.exp(-bp[-1] * y))
        if kind == "sigma":
            return float(a[0] + mpmath.cosh(beta * y) * s), a[0]
        if kind == "tau":
            return float(max(a) + sign * 2 * mpmath.sinh(beta * y) * s), max(a)
        return float((a[-1] + s) / x), a[-1] / x


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(STEPS))
@pytest.mark.parametrize("alpha", [1.0, 0.8])
@pytest.mark.parametrize("frac", [0.0, 0.3, 1.0])
def test_step_constructions_match_mpmath_to_large_x(name, alpha, frac):
    """sigma, tau and step_F on x up to 1e4, beta = 0, inside (0, l_1) and
    at l_1: relative to the leading constant plus the value, within the
    rounding of the exponents, 8 eps (1 + l_n x / alpha)."""
    phi = STEPS[name]
    beta = frac * phi.breakpoints[0]
    xs = np.geomspace(1e-6, 1e4, 25)
    got = {"sigma": lp.sigma_discrete(phi, alpha, beta, xs),
           ("tau", 1): lp.tau_discrete(phi, alpha, beta, xs, sign=1),
           ("tau", -1): lp.tau_discrete(phi, alpha, beta, xs, sign=-1),
           "F": lp.step_F(phi, xs)}
    for key, vals in got.items():
        kind, sign = key if isinstance(key, tuple) else (key, 1)
        a = 1.0 if kind == "F" else alpha
        for x, v in zip(xs.tolist(), vals.tolist()):
            ref, lead = _mp_step(phi, a, beta, x, kind, sign)
            tol = 8 * 2.2e-16 * (1 + phi.period * x / a)
            assert abs(v - ref) <= tol * (abs(float(lead)) + abs(ref)), \
                (key, x, v, ref)


def _abs_saw(T=2 * PI):
    """Even 2 pi periodic extension of |t| with derivative +-1."""
    def dphi(t):
        return np.where(np.asarray(t) % T < PI, 1.0, -1.0)

    def phi(t):
        u = np.asarray(t) % T
        return np.minimum(u, T - u)

    return phi, dphi


class TestSigmaTauContinuous:
    def test_sawtooth_bracket(self):
        # the displayed bracket equals alpha * (nu - sinh(nu x)/x +
        # cosh(nu x) tanh(x)/x) for the |t| profile
        phi, dphi = _abs_saw()
        T, alpha, nu, x = 2 * PI, PI / 2, 0.4, 1.0
        beta = nu * PI / 2
        val = lp.sigma_continuous(dphi, T, alpha, beta, x,
                                  phi_at_beta=beta, breaks=[PI])
        closed = alpha * (nu - math.sinh(nu * x) / x
                          + math.cosh(nu * x) * math.tanh(x) / x)
        assert abs(val - closed) <= 1e-12

    def test_sigma_rewrite_identity(self):
        nu = 0.4
        for x in (0.5, 1.0, 2.0, 4.0, 8.0):
            form1 = nu - math.sinh(nu * x) / x \
                + math.cosh(nu * x) * math.tanh(x) / x
            form2 = nu + math.sinh((1 - nu) * x) / (x * math.cosh(x))
            assert abs(form1 - form2) <= 1e-10

    def test_sigma_against_shifted_quadrature(self):
        phi, dphi = _abs_saw()
        T, alpha, nu, x = 2 * PI, PI / 2, 0.4, 1.0
        beta = nu * PI / 2
        val = lp.sigma_continuous(dphi, T, alpha, beta, x,
                                  phi_at_beta=beta, breaks=[PI])
        oracle = lp.laplace_quad(
            lambda t: 0.5 * (phi(alpha * t + beta) + phi(alpha * t - beta)),
            x, abs_tol=1e-12, rel_tol=1e-11)
        assert abs(val / x - oracle) <= 1e-8

    def test_tau_bracket(self):
        phi, dphi = _abs_saw()
        T, alpha, nu, x = 2 * PI, PI / 2, 0.4, 1.0
        beta = nu * PI / 2
        val = lp.tau_continuous(dphi, T, alpha, beta, x, phi_max=PI,
                                sign=1, breaks=[PI])
        closed = PI * (1 + (1 - math.cosh((1 - nu) * x) / math.cosh(x)) / x)
        assert abs(val - closed) <= 1e-12

    def test_cosine_profile(self):
        # phi = 1 - (1 - b/a) cos(t/sqrt(a)), beta = 0: the bracket is
        # x L(phi)(x) = (1 + b x^2)/(1 + a x^2)
        a, b, x = 2.0, 1.0, 1.0
        root = math.sqrt(a)
        T = 2 * PI * root
        val = lp.sigma_continuous(
            lambda t: (1 - b / a) * np.sin(np.asarray(t) / root) / root,
            T, 1.0, 0.0, x, phi_at_beta=b / a)
        assert abs(val - (1 + b * x * x) / (1 + a * x * x)) <= 1e-12

    @pytest.mark.parametrize("x", [20.0, 30.0, 40.0, 100.0, 1000.0])
    def test_cancellation_is_refused(self, x):
        # the two e^(beta x/alpha)-sized terms cancel: unchecked, sigma read
        # 1.5693359375 at x = 30 (closed form pi/2), -8.0 at 40 and 1.08e27
        # at 100; at 1000 cosh overflows inside the head quadrature
        _, dphi = _abs_saw()
        args = (dphi, 2 * PI, PI / 2, PI / 2)
        with pytest.raises(ConvergenceError):
            lp.sigma_continuous(*args, x, phi_at_beta=PI / 2, breaks=[PI])
        with pytest.raises(ConvergenceError):
            lp.tau_continuous(*args, x, phi_max=PI, breaks=[PI])
        with pytest.raises(ConvergenceError):
            lp.sigma_continuous(*args, np.array([1.0, x]), phi_at_beta=PI / 2,
                                breaks=[PI])

    def test_sawtooth_up_to_x_8_is_kept(self):
        # nu = 1: sigma = pi/2 and tau = pi (1 + (1 - 1/cosh x)/x)
        _, dphi = _abs_saw()
        x = np.array([0.5, 2.0, 8.0])
        args = (dphi, 2 * PI, PI / 2, PI / 2, x)
        sigma = lp.sigma_continuous(*args, phi_at_beta=PI / 2, breaks=[PI])
        tau = lp.tau_continuous(*args, phi_max=PI, breaks=[PI])
        assert np.max(np.abs(sigma - PI / 2)) <= 1e-12
        assert np.max(np.abs(tau - PI * (1 + (1 - 1 / np.cosh(x)) / x))) \
            <= 1e-12


class TestInversion:
    def test_simple_pole(self):
        assert abs(lp.laplace_invert(lambda z: 1.0 / (z + 1.0), 1.0)
                   - math.exp(-1.0)) <= 1e-9

    def test_ramp(self):
        assert abs(lp.laplace_invert(lambda z: 1.0 / z ** 2, 2.0) - 2.0) <= 1e-8

    def test_beta_recovers_logistic(self):
        F = lp.beta_power(1.0)
        for t in (0.1, 0.5, 1.0, 3.0, 5.0):
            assert abs(lp.laplace_invert(F, t)
                       - 1.0 / (1.0 + math.exp(-t))) <= 1e-6

    def test_round_trip(self):
        # the second Euler line stays within the default gate on a transform
        # that is itself an adaptive quadrature (spreads about 1e-8)
        cases = [
            (lambda t: np.ones_like(np.asarray(t, dtype=float)), lambda t: 1.0),
            (lambda t: np.exp(-np.asarray(t, dtype=float)), lambda t: math.exp(-t)),
            (lambda t: 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float))),
             lambda t: 1.0 / (1.0 + math.exp(-t))),
        ]
        for f, exact in cases:
            def F(z, f=f):
                return lp.laplace_quad(f, z, abs_tol=1e-13)
            for t in (0.2, 1.0, 5.0):
                assert abs(lp.laplace_invert(F, t) - exact(t)) <= 1e-6

    def test_nan_spread_is_a_disagreement(self):
        with pytest.raises(InversionDisagreementError):
            lp.laplace_invert(lambda z: z * math.nan, 1.0)

    def test_unstable_pole_is_a_disagreement(self):
        # e^(1.5 t): both Euler lines alias the growth, by e^(-A + 3t)
        # relative, so they part once t is large
        F = lambda z: 1.0 / (z - 1.5)  # noqa: E731
        assert lp.laplace_invert(F, 1.0) == pytest.approx(math.exp(1.5),
                                                          rel=1e-8)
        for t in (6.0, 9.0, 12.0):
            with pytest.raises(InversionDisagreementError):
                lp.laplace_invert(F, t)

    def test_diagnostics(self):
        value, spread = lp.laplace_invert_diag(lp.beta_power(1.0), 1.0)
        assert spread < 1e-6
        assert abs(value - 1.0 / (1.0 + math.exp(-1.0))) < 1e-8

    def test_one_batched_call_per_method(self):
        calls = []

        def F(z):
            calls.append(z)
            return 1.0 / (z + 1.0)

        assert abs(lp.laplace_invert(F, 1.0) - math.exp(-1.0)) <= 1e-9
        assert len(calls) == 2
        assert all(isinstance(z, np.ndarray) for z in calls)

    def test_scalar_only_transform(self):
        value = lp.laplace_invert(lambda z: 1 / (complex(z) + 1), 1.0)
        assert abs(value - math.exp(-1.0)) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            lp.laplace_invert(lambda z: 1.0 / z, 0.0)
        with pytest.raises(DomainError):
            lp.beta_power(-1.0)

    def test_c_range_ends_where_the_head_overflows(self):
        # c = C_MAX still forms the head (the Euler check then refuses the
        # default grid); just past it Gamma(c + 5) overflows
        assert math.isfinite(math.gamma(lp.C_MAX + lp._HEAD_TERMS - 1))
        with pytest.raises(OverflowError):
            math.gamma(lp.C_MAX + 0.7 + lp._HEAD_TERMS - 1)
        with pytest.raises(InversionDisagreementError):
            lp.semigroup_density(lp.C_MAX)
        for c in (lp.C_MAX + 0.7, 200.0):
            with pytest.raises(DomainError, match=r"\(0, 166\]"):
                lp.semigroup_density(c)

    def test_grid_beyond_the_fft_bound_is_refused_before_allocating(self):
        # 1e15 steps of dt = 1 would take an FFT of 2^59 points and a grid
        # of t of 8 PB; the refusal comes before either is built (a grid
        # just past the bound costs seconds and a gigabyte without it)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"2\^22"):
                lp.semigroup_density(0.5, 1.0, 1e15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        # the finest grid the tests use takes 2^19 points
        assert lp.semigroup_density(0.5, 1e-4, 12.0).fft_points == 2 ** 19

    @pytest.mark.filterwarnings("error")
    def test_euler_underflow_is_a_disagreement_without_a_warning(self):
        # at c = 166 every Euler value on dt = 0.5, t_max = 2 underflows
        # to 0: no spread can be formed, and none is divided by zero
        with pytest.raises(InversionDisagreementError, match="underflow"):
            lp.semigroup_density(lp.C_MAX, 0.5, 2.0)


class TestSemigroup:
    def test_density_matches_logistic(self):
        dens = lp.semigroup_density(1.0, dt=1e-2, t_max=5.0)
        err = np.max(np.abs(dens.values - 1.0 / (1.0 + np.exp(-dens.t))))
        assert err <= 1e-6
        assert dens.raw_min >= -1e-8

    def test_convolution_commutes(self):
        dc = lp.semigroup_density(0.5, dt=1e-2, t_max=4.0)
        dd = lp.semigroup_density(1.0, dt=1e-2, t_max=4.0)
        assert (dc.c, dd.c) == (0.5, 1.0)   # the orders the convolution uses
        cd = lp.convolve_densities(dc, dd)
        dcr = lp.convolve_densities(dd, dc)
        assert np.max(np.abs(cd - dcr)) <= 1e-12

    def test_unit_pair_reproduces_order_two(self):
        assert lp.semigroup_check(1.0, 1.0, dt=2e-3, t_max=8.0) < 1e-4

    def test_grid_and_scalar_match_talbot(self):
        # the FFT grid and the scalar Euler path are different methods;
        # hold each to an independent oracle
        dens = lp.semigroup_density(0.7, 1e-2, 6)
        F = lp.beta_power(0.7)
        for j in (0, 17, 150, 599):
            t = dens.t[j]
            ref = talbot_m(0.7, t)
            assert abs(dens.values[j] - ref) <= 1e-9 * ref
            assert abs(lp.laplace_invert(F, t) - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("grid", [(1e-3, 12.0), (1e-2, 6.0), (0.5, 2.0)])
    @pytest.mark.parametrize("c", [0.01, 0.2, 1.0, 2.0, 4.0])
    def test_density_matches_talbot(self, c, grid):
        # the FFT error is absolute, so scale by max |m_c|: near t = 0,
        # m_4 ~ t^3 is tiny and a pointwise relative error means nothing
        dens = lp.semigroup_density(c, *grid)
        scale = np.max(dens.values)
        for j in (0, len(dens.t) - 1):
            assert abs(dens.values[j] - talbot_m(c, dens.t[j])) \
                <= 1e-9 * scale, dens.t[j]
        assert dens.method_spread <= 1e-8
        assert dens.spread_t in dens.t

    def test_scaled_fft_is_caught(self, monkeypatch):
        fft = lp._fft_inversion_grid

        def scaled(*args):
            values, M = fft(*args)
            return values * (1.0 + 1e-5), M

        monkeypatch.setattr(lp, "_fft_inversion_grid", scaled)
        with pytest.raises(InversionDisagreementError):
            lp.semigroup_density(1.0, 1e-2, 6.0)

    def test_fft_size_follows_the_grid(self):
        assert lp.semigroup_density(1.0, 0.5, 2.0).fft_points == 2 ** 15
        assert lp.semigroup_density(1.0).fft_points == 2 ** 16
        # a coarse grid is sampled at dt / 100 here
        assert lp.semigroup_density(1.0, 1.0, 100.0).fft_points == 2 ** 16

    def test_band_limits_the_transform_points(self, monkeypatch):
        # the band's bound: 2^14 frequencies of M = 2^16 at c <= 0.5,
        # halving as c grows; a coarse grid keeps all M
        sizes = []
        beta_power = lp.beta_power

        def counted(c):
            F = beta_power(c)

            def G(z):
                sizes.append(np.size(z))
                return F(z)
            return G

        monkeypatch.setattr(lp, "beta_power", counted)
        for c, K in ((0.2, 2 ** 14), (1.0, 2 ** 13), (2.0, 2 ** 12),
                     (4.0, 2 ** 11)):
            sizes.clear()
            dens = lp.semigroup_density(c)
            assert (dens.fft_band, dens.fft_points) == (K, 2 ** 16)
            assert sizes[0] == K and max(sizes) <= 2 ** 14
        for c in (0.2, 1.0, 2.0):
            sizes.clear()
            dens = lp.semigroup_density(c, 1.0, 100.0)
            assert sizes[0] == dens.fft_band == dens.fft_points == 2 ** 16

    @pytest.mark.parametrize("grid", [(1e-3, 12.0), (1e-2, 6.0), (0.5, 2.0)])
    @pytest.mark.parametrize("c", [0.01, 0.2, 1.0, 2.0, 4.0])
    def test_band_matches_the_full_band(self, c, grid):
        # at c = 0.01 on the default grid they differ by 3.7e-14, the full
        # band's rounding noise
        dt, t_max = grid
        t = dt * np.arange(1, int(round(t_max / dt)) + 1)
        band, (M, K) = lp._fft_inversion_grid(c, dt, t)
        full = full_band_grid(c, dt, t)
        assert np.max(np.abs(band - full)) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize("c,grid", [
        (0.01, (1e-3, 12.0)), (0.5, (1e-3, 12.0)), (1.0, (1e-3, 12.0)),
        (4.0, (1e-3, 12.0))] + [
        (c, grid) for c in (0.01, 0.5)
        for grid in ((1e-2, 6.0), (0.5, 12.0), (2.0, 20.0), (1.0, 100.0))])
    def test_real_fft_matches_the_complex_one(self, c, grid):
        # the irfft of the Hermitian fold against the complex ifft of the
        # same band.  The coarse grids keep K = M, so the fold's conjugate
        # terms are nonzero there; at c = 0.01 leaving them out moves the
        # grid by 3.1e-14 (dt = 2) and 4.3e-13 (dt = 1) of max |m_c|
        dt, t_max = grid
        t = dt * np.arange(1, int(round(t_max / dt)) + 1)
        values, (M, K) = lp._fft_inversion_grid(c, dt, t)
        assert (K > M // 2 + 1) == (dt > 1e-3)
        ref = full_band_grid(c, dt, t, K)
        assert np.max(np.abs(values - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("c,d", [(0.1, 0.1), (0.2, 0.2), (0.5, 1.5),
                                     (1.6, 0.7), (2.0, 2.0)])
    def test_convolution_matches_talbot(self, c, d):
        # j <= 132 is the batched head, j >= 133 the FFT trapezoid with
        # Navot's end terms, j = n its one-sided stencil
        conv = lp.convolve_densities(lp.semigroup_density(c),
                                     lp.semigroup_density(d))
        for j in (1, 2, 10, 132, 133, 1000, len(conv)):
            ref = talbot_m(c + d, 1e-3 * j)
            assert abs(conv[j - 1] - ref) <= 1e-8 * ref, j

    def test_tolerance_holds_over_the_grid(self):
        cs = (0.1, 0.2, 0.5, 1.0, 2.0)
        dens = {c: lp.semigroup_density(c) for c in cs}
        for c in cs:
            for d in cs:
                cd = dens.get(c + d) or lp.semigroup_density(c + d)
                conv = lp.convolve_densities(dens[c], dens[d])
                sup = np.max(np.abs(conv - cd.values))
                assert sup <= lp.SEMIGROUP_TOL / 10, (c, d)

    def test_convolution_runs_no_quad_or_direct_sum(self, monkeypatch):
        dc = lp.semigroup_density(0.3, 1e-2, 4.0)
        dd = lp.semigroup_density(0.8, 1e-2, 4.0)
        expected = lp.convolve_densities(dc, dd)

        def refuse(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(lp, "quad", refuse)
        monkeypatch.setattr(np, "convolve", refuse)
        assert np.array_equal(lp.convolve_densities(dc, dd),
                              expected)

    @pytest.mark.parametrize("n", [3, 132, 1001])
    def test_fft_trapezoid_matches_direct_sum(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.random(n), rng.random(n)
        direct = np.convolve(a, b)[:n]
        assert np.max(np.abs(lp._causal_conv(a, b, n) - direct)) \
            <= 1e-13 * np.max(direct)
        cols = rng.random((n, 3))
        assert np.allclose(lp._causal_conv(cols, cols, n)[:, 1],
                           np.convolve(cols[:, 1], cols[:, 1])[:n],
                           rtol=0.0, atol=1e-13 * n)

    def test_mismatched_grids_are_refused(self):
        dc = lp.semigroup_density(0.5, 1e-2, 4.0)
        for other in (lp.semigroup_density(0.5, 2e-2, 4.0),
                      lp.semigroup_density(0.5, 1e-2, 3.0)):
            with pytest.raises(DomainError):
                lp.convolve_densities(dc, other)
        short = lp.semigroup_density(0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            lp.convolve_densities(short, short)

    def test_csv_format(self):
        dens = lp.semigroup_density(1.0, dt=0.5, t_max=2.0)
        lines = dens.to_csv().strip().split("\n")
        assert lines[0] == "t,value"
        assert len(lines) == 1 + len(dens.t)
        assert float(lines[1].split(",")[0]) == pytest.approx(0.5)

    def test_csv_bytes_match_numpy_scalar_formatting(self):
        # Python floats format as the numpy scalars did, byte for byte
        rng = np.random.default_rng(11)
        special = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1,
                   1.0, -123456789012345.6]
        t = np.concatenate([special, rng.uniform(0.0, 1e3, 500)])
        v = np.concatenate([special[::-1], rng.normal(size=500)
                            * 10.0 ** rng.uniform(-300.0, 300.0, 500)])
        dens = lp.SampledDensity(c=1.0, t=t, values=v, raw_min=0.0,
                                 method_spread=0.0, spread_t=0.0,
                                 fft_points=0, fft_band=0)
        old = "\n".join(["t,value"] + [f"{ti:.12g},{vi:.15g}"
                                        for ti, vi in zip(t, v)]) + "\n"
        assert dens.to_csv() == old


class TestHamburger:
    def test_degenerate(self):
        lhs, rhs = lp.hamburger_check(0, 2.0)
        assert lhs == pytest.approx(0.5, abs=1e-12)
        assert rhs == pytest.approx(0.5, abs=1e-10)

    def test_elementary_n1(self):
        x = 1.0
        lhs, rhs = lp.hamburger_check(1, x)
        elementary = 1.0 / x - x / (x * x + PI * PI)
        assert abs(lhs - PI ** 2 / (x * (x * x + PI * PI))) <= 1e-14
        assert abs(rhs - 2.0 * elementary / 2.0) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_identity(self, n, x):
        lhs, rhs = lp.hamburger_check(n, x)
        assert abs(lhs - rhs) <= 1e-8

    def test_array_x(self):
        # one laplace_quad for all x; each entry as a scalar call gives it
        x = np.array([0.5, 1.0, 3.0, 7.0])
        for n in (0, 2, 4):
            lhs, rhs = lp.hamburger_check(n, x)
            assert lhs.shape == rhs.shape == x.shape
            for xi, a, b in zip(x, lhs, rhs):
                one_lhs, one_rhs = lp.hamburger_check(n, float(xi))
                assert a == one_lhs
                assert abs(b - one_rhs) <= max(1e-13, 1e-12 * abs(one_rhs))
                assert abs(a - b) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            lp.hamburger_check(7, 1.0)
        with pytest.raises(DomainError):
            lp.hamburger_check(2, np.array([1.0, 0.0]))
