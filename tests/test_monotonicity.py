import cmath
import math

import numpy as np
import pytest

from cmfun import monotonicity as mono
from cmfun import specfun as sf
from cmfun import suites
from cmfun.errors import DomainError


class TestCmCheck:
    def test_exponential_passes(self):
        assert mono.cm_check(lambda x: math.exp(-x)).passed

    def test_sin_plus_two_fails_low_order(self):
        rep = mono.cm_check(lambda x: math.sin(x) + 2.0)
        assert not rep.passed
        assert any(w.n <= 2 for w in rep.witnesses)

    def test_identity_fails(self):
        rep = mono.cm_check(lambda x: x)
        assert not rep.passed and rep.worst_margin < 0

    def test_beta_passes(self):
        assert mono.cm_check(sf.nielsen_beta).passed

    def test_noise_beyond_rounding_fails(self):
        # the slack is fixed at rounding size: relative noise of 1e-9 on a
        # CM function, or a non-CM function, is refuted
        rng = np.random.default_rng(3)
        noise = {}

        def noisy(x):
            if x not in noise:
                noise[x] = 1e-9 * rng.standard_normal()
            return math.exp(-x) * (1.0 + noise[x])

        grid = mono.CheckGrid.default(n_points=8)
        assert not mono.cm_check(noisy, grid).passed
        assert not mono.cm_check(lambda x: math.sin(x) + 2.0).passed

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            mono.CheckGrid(np.array([1.0, 0.5]))
        with pytest.raises(DomainError):
            mono.CheckGrid(np.array([0.5, 1.0]), n_max=0)


class TestLcmCheck:
    def test_beta(self):
        rep = mono.lcm_check(sf.nielsen_beta, df=sf.nielsen_beta_deriv)
        assert rep.passed

    def test_one_over_sinh(self):
        rep = mono.lcm_check(lambda x: 1.0 / math.sinh(x),
                             df=lambda x: -math.cosh(x) / math.sinh(x) ** 2)
        assert rep.passed

    def test_exp_fails(self):
        rep = mono.lcm_check(math.exp, df=math.exp)
        assert not rep.passed

    def test_positivity_gate(self):
        rep = mono.lcm_check(lambda x: x - 1.0, df=lambda x: 1.0)
        assert not rep.passed and rep.witnesses

    def test_numeric_derivative_fallback(self):
        assert mono.lcm_check(sf.prym_P).passed

    def test_members_are_cm(self):
        # the class of log-CM functions sits inside the CM class
        for f in (sf.nielsen_beta, sf.trigamma, sf.prym_P):
            assert mono.cm_check(f).passed


def powers_are_cm(f, alphas=(0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 2.0),
                  grid=None):
    return all(mono.cm_check(lambda x, a=a: f(x) ** a, grid).passed
               for a in alphas)


class TestHornCheck:
    # Horn: every power f^alpha, alpha > 0, of a log-CM f is CM
    def test_beta_half_power(self):
        grid = mono.CheckGrid.default(n_points=16)
        assert powers_are_cm(sf.nielsen_beta, alphas=(0.5,), grid=grid)

    def test_reciprocal(self):
        assert powers_are_cm(lambda x: 1.0 / x)

    def test_constant(self):
        assert powers_are_cm(lambda x: 1.0)

    def test_default_alphas(self):
        grid = mono.CheckGrid.default(n_points=8)
        assert powers_are_cm(sf.nielsen_beta, grid=grid)


class TestPickCheck:
    def test_minus_reciprocal(self):
        rep = mono.pick_check(lambda z: -1.0 / z)
        assert rep.passed and rep.inf_im >= 0.0

    def test_log_gamma_shift(self):
        s = 0.5

        def h(z):
            return sf.log_gamma(z + s) - sf.log_gamma(z)

        rep = mono.pick_check(h)
        assert rep.passed
        assert rep.sup_im < math.pi

    def test_gamma_ratio(self):
        def h(z):
            return cmath.exp(sf.log_gamma(z + 0.5)
                             - sf.log_gamma(z))
        assert mono.pick_check(h).passed

    def test_not_pick(self):
        rep = mono.pick_check(lambda z: 1.0 / z)
        assert not rep.passed

    def test_conjugate_symmetry(self):
        def h(z):
            return sf.log_gamma(z + 0.5) - sf.log_gamma(z)
        zs = [0.5 + 1j, 3.0 + 0.3j, -2.0 + 2j, 7.0 + 5j, -9.0 + 1j,
              1.0 + 9j, -0.5 + 4j, 2.5 + 2.5j, -14.0 + 6j, 10.0 + 0.7j]
        assert mono.conjugate_symmetry_spread(h, zs) < 1e-12

    def test_the_first_exception_is_reported(self):
        def h(z):
            z = complex(z)  # one point at a time: the region call raises
            if z.real > 10.0:
                raise ValueError(f"no value at {z.real:g}")
            return -1.0 / z

        rep = mono.pick_check(h)
        assert not rep.passed and rep.error.startswith("ValueError: no value")
        assert all(math.isnan(w.value) for w in rep.witnesses)
        assert suites._report(rep)["error"] == rep.error
        # a function that raises nowhere reports no error, and the item has
        # no error field
        rep = mono.pick_check(lambda z: -1.0 / z)
        assert rep.error is None and "error" not in suites._report(rep)

    def test_region_excludes_cut(self):
        pts = mono.pick_region()
        assert all(abs(z.imag) >= 0.1 or z.real > 0 for z in pts)


class TestCounterexample:
    def test_r3_reference_values(self):
        ce = mono.find_lcm_counterexample(3.0)
        assert ce.c == pytest.approx(0.064, abs=1e-12)
        assert ce.z_c.real == pytest.approx(0.052632, abs=1e-6)
        assert ce.z_c.imag == pytest.approx(0.455803, abs=1e-6)
        assert ce.residual < 1e-10

    @pytest.mark.parametrize("r", [2.5, 2.01, 4.7])
    def test_right_half_plane(self, r):
        ce = mono.find_lcm_counterexample(r)
        assert ce.z_c.real > 0
        assert ce.residual < 1e-10

    def test_random_orders(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = float(rng.uniform(2.0, 6.0))
            if r <= 2.0:
                continue
            ce = mono.find_lcm_counterexample(r)
            assert ce.residual < 1e-10 and ce.z_c.real > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            mono.find_lcm_counterexample(2.0)


class TestLemmaPos:
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
    def test_nonnegative(self, c):
        assert mono.lemma_pos_check(c).passed

    def test_value_at_pi(self):
        # h(pi) = pi + c (1 - (-1)) = pi + 2c
        c = 0.5
        h = math.pi - math.sin(math.pi) + c * (1 - math.cos(math.pi)
                                               - 0.5 * math.pi * math.sin(math.pi))
        assert h == pytest.approx(math.pi + 2 * c, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            mono.lemma_pos_check(1.5)


class CountingCalls:
    """Wraps ``f`` and records the type of each argument it is called on."""

    def __init__(self, f):
        self.f = f
        self.args = []

    def __call__(self, x):
        self.args.append(type(x))
        return self.f(x)


def reference_cm(f, grid, eps=mono._EPS):
    """Per-point cm_check: one scalar call of f per grid point."""
    witnesses = []
    worst = math.inf
    for x in grid.x_points:
        h = x / 16.0
        vals = [float(f(x + j * h)) for j in range(grid.n_max + 1)]
        scale = max(abs(v) for v in vals)
        for n in range(grid.n_max + 1):
            diff = math.fsum((-1) ** j * math.comb(n, j) * vals[j]
                             for j in range(n + 1))
            slack = 16.0 * 2 ** n * eps * scale
            worst = min(worst, diff + slack)
            if diff < -slack:
                witnesses.append(mono.Witness(float(x), n, diff, slack))
    return worst, tuple(witnesses)


def reference_pick(h, floor=-1e-10):
    """Per-point pick_check over the default region."""
    witnesses = []
    worst = math.inf
    for z in mono.pick_region():
        im = complex(h(complex(z))).imag
        worst = min(worst, im - floor)
        if im < floor:
            witnesses.append(mono.Witness(float(z.real), 0, im,
                                          float(z.imag)))
    return worst, tuple(witnesses)


class TestBatchedEvaluation:
    def test_cm_check_one_call(self):
        f = CountingCalls(lambda x: np.exp(-x))
        assert mono.cm_check(f).passed
        assert f.args == [np.ndarray]

    def test_lcm_check_one_call(self):
        f = CountingCalls(sf.nielsen_beta)
        df = CountingCalls(sf.nielsen_beta_deriv)
        assert mono.lcm_check(f, df=df).passed
        assert f.args == [np.ndarray] and df.args == [np.ndarray]
        f = CountingCalls(sf.nielsen_beta)
        assert mono.lcm_check(f).passed
        assert f.args == [np.ndarray]

    def test_pick_check_one_call(self):
        h = CountingCalls(lambda z: -1.0 / z)
        assert mono.pick_check(h).passed
        assert h.args == [np.ndarray]

    def test_scalar_only_callables(self):
        assert not mono.cm_check(math.sin).passed
        assert not mono.cm_check(lambda x: math.sin(x) + 2.0).passed
        assert not mono.cm_check(math.exp).passed
        assert mono.cm_check(lambda x: 1.0).passed
        assert not mono.lcm_check(math.exp, df=math.exp).passed
        assert mono.pick_check(lambda z: -1.0 / complex(z)).passed
        assert not mono.pick_check(cmath.exp).passed

    @pytest.mark.parametrize("f", [sf.nielsen_beta,
                                   lambda x: np.sin(x) + 2.0],
                             ids=["beta", "sin-plus-2"])
    def test_matches_per_point_reference(self, f):
        grid = mono.CheckGrid.default()
        rep = mono.cm_check(f, grid)
        worst, witnesses = reference_cm(f, grid)
        assert rep.worst_margin == worst
        assert rep.witnesses == witnesses

    def test_pick_matches_per_point_reference(self):
        def h(z):
            return sf.log_gamma(z + 0.5) - sf.log_gamma(z)
        for fn in (h, lambda z: z * z):
            rep = mono.pick_check(fn)
            worst, witnesses = reference_pick(fn)
            assert rep.worst_margin == worst
            assert rep.witnesses == witnesses

    def test_pick_failures_are_witnesses(self):
        def h(z):
            if np.any(np.real(z) < 0):
                raise ValueError("left half plane")
            return -1.0 / z
        rep = mono.pick_check(h)
        assert not rep.passed
        assert all(math.isnan(w.value) and w.x < 0 for w in rep.witnesses)
        assert len(rep.witnesses) == np.sum(mono.pick_region().real < 0)

    def test_nan_values_fail(self):
        assert not mono.cm_check(lambda x: x * np.nan).passed
        assert not mono.pick_check(lambda z: z * np.nan).passed


class TestVerdict:
    def test_nan_is_a_witness_and_the_margin_ignores_it(self):
        rep = mono._verdict(np.array([1.0, 2.0, 3.0, 4.0]), 0,
                            np.array([1.0, math.nan, -1.0, 0.5]), 0.0, 0.25)
        assert not rep.passed and rep.worst_margin == -1.0
        assert rep.witnesses == (mono.Witness(2.0, 0, rep.witnesses[0].value,
                                              0.25),
                                 mono.Witness(3.0, 0, -1.0, 0.25))
        assert math.isnan(rep.witnesses[0].value)

    def test_witnesses_in_c_order(self):
        values = np.array([[0.0, -1.0], [-2.0, 0.0]])
        rep = mono._verdict(np.array([[1.0], [2.0]]), np.arange(2), values,
                            -0.5, 0.5)
        assert [(w.x, w.n) for w in rep.witnesses] == [(1.0, 1), (2.0, 0)]
        assert rep.worst_margin == -1.5

    def test_value_at_its_floor_passes(self):
        rep = mono._verdict(np.array([1.0]), 0, np.array([-0.5]), -0.5, 0.5)
        assert rep.passed and rep.worst_margin == 0.0

    @pytest.mark.parametrize("j", [0, 3])
    def test_a_nan_value_fails_the_differences_it_enters(self, j):
        grid = mono.CheckGrid.default()
        target = mono._grid_points(grid)[5, j]
        rep = mono.cm_check(lambda x: np.where(x == target, math.nan,
                                               np.exp(-x)), grid)
        assert not rep.passed and math.isfinite(rep.worst_margin)
        assert [(w.x, w.n) for w in rep.witnesses] == [
            (grid.x_points[5], n) for n in range(j, grid.n_max + 1)]

    def test_lcm_positivity_gate_counts_nan_and_zero(self):
        grid = mono.CheckGrid(np.array([1.0, 2.0]), n_max=1)
        rep = mono.lcm_check(lambda x: np.where(x == 2.0, math.nan,
                                                np.where(x > 2.0, 0.0, 1.0)),
                             grid, df=lambda x: 0.0 * x)
        assert not rep.passed
        assert [w.x for w in rep.witnesses] == [2.0, 2.125]
