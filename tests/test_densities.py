import math

import mpmath
import numpy as np
import pytest

from cmfun import densities as dn
from cmfun import laplace as lp
from cmfun import specfun as sf
from cmfun.errors import DomainError


class TestEval:
    def test_nu_half_closed_form(self):
        spec = dn.DensitySpec("nu", 0.5)
        for t in (0.3, 1.0, 4.0):
            assert dn.density_eval(spec, t) == pytest.approx(
                1.0 / (math.pi * math.cosh(t / 2.0)), abs=1e-14)

    def test_nu_one_closed_form(self):
        spec = dn.DensitySpec("nu", 1.0)
        assert dn.density_eval(spec, 1.0) == pytest.approx(
            1.0 / (math.log(2.0) * (math.e + 1.0)), abs=1e-14)

    def test_tau_one_closed_form(self):
        spec = dn.DensitySpec("tau", 1.0)
        assert dn.density_eval(spec, 2.0) == pytest.approx(
            (6.0 / math.pi ** 2) * 2.0 / (math.exp(2.0) - 1.0), abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            dn.DensitySpec("nu", 0.0)
        with pytest.raises(DomainError):
            dn.DensitySpec("weibull", 1.0)
        with pytest.raises(DomainError):
            dn.density_eval(dn.DensitySpec("nu", 1.0), 0.0)


class TestNormalization:
    @pytest.mark.parametrize("family", dn.FAMILIES)
    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    def test_unit_mass(self, family, a):
        spec = dn.DensitySpec(family, a)
        assert abs(dn.normalization_residual(spec)) <= 1e-9

    def test_half_gumbel_normalizer(self):
        # P(1) = 1 - 1/e normalizes the a = 1 case
        spec = dn.DensitySpec("half-gumbel", 1.0)
        assert spec.normalization == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-14)


    @pytest.mark.parametrize("family, name", [
        ("nu", "nielsen_beta"), ("tau", "trigamma"),
        ("half-gumbel", "prym_P")])
    def test_constant_is_computed_once_per_spec(self, monkeypatch, family,
                                                name):
        calls, real = [], getattr(dn, name)
        monkeypatch.setattr(dn, name, lambda a: (calls.append(a), real(a))[1])
        spec = dn.DensitySpec(family, 0.7)
        norm = spec.normalization
        for t in (0.5, np.array([1.0, 2.0])):
            dn.density_eval(spec, t)
        dn.density_quantile(spec, 0.3)
        assert spec.normalization == norm == real(0.7)
        assert calls == [0.7]


class TestCdfQuantile:
    def test_round_trip(self):
        spec = dn.DensitySpec("nu", 0.5)
        for u in (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6):
            q = dn.density_quantile(spec, u)
            assert abs(dn.density_cdf(spec, q) - u) <= 1e-10

    def test_median_against_closed_antiderivative(self):
        # int_0^t dt/(pi cosh(t/2)) = (4/pi) atan(tanh(t/4))
        spec = dn.DensitySpec("nu", 0.5)
        med = dn.density_quantile(spec, 0.5)
        assert abs((4.0 / math.pi) * math.atan(math.tanh(med / 4.0))
                   - 0.5) <= 1e-10

    def test_small_u_goes_to_zero(self):
        spec = dn.DensitySpec("tau", 1.0)
        assert dn.density_quantile(spec, 1e-8) < 1e-3

    def test_monotone_cdf(self):
        spec = dn.DensitySpec("half-gumbel", 1.0)
        ts = np.linspace(0.01, 20.0, 200)
        cdf = dn.density_cdf(spec, ts)
        assert np.all(np.diff(cdf) >= 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            dn.density_quantile(dn.DensitySpec("nu", 1.0), 1.5)

    @pytest.mark.parametrize("family,a", [("nu", 0.5), ("nu", 1.181),
                                          ("tau", 0.3), ("half-gumbel", 2.0)])
    def test_quantile_stops_at_rounding_level(self, family, a, monkeypatch):
        # Newton returns the iterate whose residual it has just computed:
        # three CDF passes for 10,000 draws, and the residual of the
        # returned points is at rounding level, not merely below 1e-10
        spec = dn.DensitySpec(family, a)
        u = np.clip(np.random.default_rng(5).random(10_000), 1e-15,
                    1.0 - 1e-15)
        passes = []
        cdf = dn.density_cdf

        def counted(spec, t):
            passes.append(np.size(t))
            return cdf(spec, t)

        monkeypatch.setattr(dn, "density_cdf", counted)
        q = dn.density_quantile(spec, u)
        assert passes == [10_000] * 3
        assert np.max(np.abs(cdf(spec, q) - u)) <= 2.0 ** -52


class TestSampling:
    def test_deterministic(self):
        spec = dn.DensitySpec("nu", 0.5)
        s1 = dn.density_sample(spec, 1000, seed=42)
        s2 = dn.density_sample(spec, 1000, seed=42)
        assert np.array_equal(s1, s2)
        assert not np.array_equal(s1, dn.density_sample(spec, 1000, seed=43))

    def test_positive(self):
        s = dn.density_sample(dn.DensitySpec("tau", 1.0), 2000, seed=7)
        assert np.all(s > 0)

    def test_ks_below_critical(self):
        spec = dn.DensitySpec("nu", 0.5)
        s = dn.density_sample(spec, 10_000, seed=20260808)
        assert dn.ks_statistic(s, spec) < dn.ks_critical(10_000, alpha=0.01)

    def test_mean_within_three_standard_errors(self):
        spec = dn.DensitySpec("nu", 1.0)
        n = 100_000
        s = dn.density_sample(spec, n, seed=1)
        # L(nu_a)(x) = beta(a + x)/beta(a), so the moments are
        # -beta'(a)/beta(a) and beta''(a)/beta(a), here at a = 1
        with mpmath.workdps(30):
            b0, b1, b2 = (mpmath.psi(k, 1.0) - mpmath.psi(k, 0.5)
                          for k in (0, 1, 2))
            mu = float(-b1 / 2 / b0)
            var = float(b2 / 4 / b0) - mu * mu
        assert abs(np.mean(s) - mu) <= 3.0 * math.sqrt(var / n)

    @pytest.mark.parametrize("family", dn.FAMILIES)
    @pytest.mark.parametrize("a", [0.02, 1.0, 50.0])
    def test_samples_invert_the_exact_cdf(self, family, a):
        spec = dn.DensitySpec(family, a)
        s = dn.density_sample(spec, 2000, seed=11)
        u = np.clip(np.random.default_rng(11).random(2000), 1e-15, 1 - 1e-15)
        assert np.max(np.abs(dn.density_cdf(spec, s) - u)) <= 1e-10

    def test_count_validation(self):
        with pytest.raises(DomainError):
            dn.density_sample(dn.DensitySpec("nu", 1.0), 0, seed=1)


class TestLaplaceConsistency:
    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
    def test_nu_shift(self, a, x):
        spec = dn.DensitySpec("nu", a)
        lhs = lp.laplace_quad(lambda t: dn.density_eval(spec, t), x)
        assert abs(lhs - sf.nielsen_beta(x + a) / sf.nielsen_beta(a)) <= 1e-9

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
    def test_tau_shift(self, a, x):
        spec = dn.DensitySpec("tau", a)
        lhs = lp.laplace_quad(lambda t: dn.density_eval(spec, t), x)
        assert abs(lhs - sf.trigamma(x + a) / sf.trigamma(a)) <= 1e-9

    def test_half_gumbel_transform(self):
        # L(d_a)(x) = P(x + a)/P(a)
        spec = dn.DensitySpec("half-gumbel", 1.0)
        for x in (0.5, 2.0):
            lhs = lp.laplace_quad(lambda t: dn.density_eval(spec, t), x)
            assert abs(lhs - sf.prym_P(x + 1.0) / sf.prym_P(1.0)) <= 1e-9

    def test_csv(self):
        s = dn.density_sample(dn.DensitySpec("nu", 1.0), 3, seed=5)
        text = dn.samples_to_csv(s)
        lines = text.strip().split("\n")
        assert lines[0] == "t" and len(lines) == 4

    def test_csv_bytes_match_numpy_scalar_formatting(self):
        # Python floats format as the numpy scalars did, byte for byte
        rng = np.random.default_rng(12)
        s = np.concatenate([
            [0.0, -0.0, 5e-324, -1e-310, 1.7976931348623157e308, 0.1, -1.0],
            rng.normal(size=1000) * 10.0 ** rng.uniform(-300.0, 300.0, 1000),
            dn.density_sample(dn.DensitySpec("nu", 0.5), 200, seed=3)])
        old = "\n".join(["t"] + [f"{v:.15g}" for v in s]) + "\n"
        assert dn.samples_to_csv(s) == old

    def test_csv_bytes_match_the_row_join(self):
        # one % pass over the list writes what the per-row f-string join did
        values = [5e-324, 2.5e-320, 2.2250738585072014e-308, 1e300, -1e300,
                  3, 0, -7, 12345678901234567, 0.1, 1.0 / 3.0, 1e-5, 1e16]
        old = "\n".join(["t"] + [f"{v:.15g}" for v in
                                 np.asarray(values, dtype=float).tolist()])
        assert dn.samples_to_csv(values) == old + "\n"
        assert dn.samples_to_csv(np.array([2, 3])) == "t\n2\n3\n"
