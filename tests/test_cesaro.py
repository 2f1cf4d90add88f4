import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from cmfun import cesaro as cs
from cmfun import specfun as sf
from cmfun.errors import DomainError, HypothesisViolationError


class TestIterateSums:
    def test_alternating_level0(self):
        s = cs.iterate_sums([1, -1, 1, -1, 1, -1], 0)
        assert np.array_equal(s[0], [1, 0, 1, 0, 1, 0])

    def test_alternating_level1(self):
        s = cs.iterate_sums([1, -1, 1, -1, 1, -1], 1)
        assert np.array_equal(s[1], [1, 1, 2, 2, 3, 3])

    def test_delta_sequence_level2(self):
        # s^(0) is already one cumulative sum, so level k is k+1 cumsums
        a = np.zeros(10)
        a[0] = 1.0
        s = cs.iterate_sums(a, 2)
        oracle = np.cumsum(np.cumsum(np.cumsum(a)))
        assert np.array_equal(s[2], oracle)
        n = np.arange(10)
        assert np.array_equal(s[1], n + 1)
        assert np.array_equal(s[2], (n + 1) * (n + 2) // 2)


class TestLemmaS:
    def test_spec_example(self):
        lhs, rhs = cs.lemma_s_check([1, -1, 1, -1, 1, -1, 1, -1], 1, 7, 0.37)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_trivial_base(self):
        a0 = 2.5
        lhs, rhs = cs.lemma_s_check([a0], 0, 0, 0.3)
        assert lhs == pytest.approx((1 - 0.3) * a0, abs=1e-15)
        assert rhs == pytest.approx(a0 - 0.3 * a0, abs=1e-15)

    def test_hundred_random_draws(self):
        rng = np.random.default_rng(20260808)
        for _ in range(100):
            a = rng.uniform(-1.0, 1.0, 51)
            k = int(rng.integers(0, 4))
            N = int(rng.integers(k + 1, 50))
            x = float(rng.uniform(0.01, 0.99))
            lhs, rhs = cs.lemma_s_check(a, k, N, x)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_domain(self):
        with pytest.raises(DomainError):
            cs.lemma_s_check([1.0, 2.0], 0, 1, 1.5)


class TestHypotheses:
    def test_alternating_passes(self):
        rep = cs.hypotheses_check("alternating", 0, 1.0)
        assert rep.overall == "pass"

    def test_binomial_passes(self):
        rep = cs.hypotheses_check(cs.preset_sequence("binomial-a", 0.5), 0, 1.0)
        assert rep.overall == "pass"

    def test_ones_fails_for_lam_one(self):
        rep = cs.hypotheses_check("ones", 0, 1.0, n_probe=100_000)
        assert rep.decay == "fail"
        assert rep.overall == "fail"

    def test_ones_passes_for_lam_two(self):
        rep = cs.hypotheses_check("ones", 0, 2.0, n_probe=2_000_000)
        assert rep.nonneg == "pass" and rep.decay == "pass"

    def test_probe_floor(self):
        with pytest.raises(DomainError):
            cs.hypotheses_check("ones", 0, 1.0, n_probe=10)


def unchunked_hypotheses(seq, k, lam, n_probe):
    """The whole-prefix probe: (verdicts, (min, max |s|, windows, total,
    recent)) from one array of n_probe + 1 partial sums."""
    s = np.asarray(cs._as_coef(seq)(np.arange(n_probe + 1)), dtype=float)
    for _ in range(k + 1):
        s = np.cumsum(s)

    def window_max(idx):
        lo = max(1, int(0.9 * idx))
        return float(np.max(np.abs(s[lo:idx + 1]))) / idx ** lam

    n = np.arange(1, n_probe + 1, dtype=float)
    terms = s[1:] / n ** (1.0 + lam)
    stats = (float(np.min(s)), float(np.max(np.abs(s))),
             window_max(n_probe // 10), window_max(n_probe),
             float(np.sum(terms)), float(np.sum(terms[n_probe // 10:])))
    s_min, s_max, r_old, r_new, total, recent = stats
    nonneg = "pass" if s_min >= -1e-12 * max(1.0, s_max) else "fail"
    if r_old == 0.0 and r_new == 0.0:
        decay = "pass"
    else:
        ratio = r_new / max(r_old, 1e-300)
        decay = "pass" if ratio <= 0.5 else (
            "fail" if ratio >= 0.9 else "inconclusive")
    if total <= 0:
        summable = "pass" if nonneg == "pass" else "inconclusive"
    else:
        growth = recent / total
        summable = "pass" if growth < 1e-6 else (
            "fail" if growth > 1e-2 else "inconclusive")
    return (nonneg, decay, summable), stats


PRESETS = [("alternating", "alternating", 1.0),
           ("binomial", cs.preset_sequence("binomial-a", 0.5), 1.5),
           ("prym", "prym", 1.0),
           ("ones", "ones", 2.0)]


class TestHypothesesStreaming:
    # the presets' coefficients as plain callables, which take the probe
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("name,seq,lam", PRESETS,
                             ids=[p[0] for p in PRESETS])
    def test_matches_unchunked(self, monkeypatch, name, seq, lam, k):
        monkeypatch.setattr(cs, "_CHUNK", 1000)
        coef = cs._as_coef(seq)
        n_probe = 12_345
        verdicts, stats = unchunked_hypotheses(coef, k, lam, n_probe)
        rep = cs.hypotheses_check(coef, k, lam, n_probe=n_probe)
        assert (rep.nonneg, rep.decay, rep.summable) == verdicts
        assert rep.n_probe == n_probe
        got = cs._prefix_stats(coef, k, lam, n_probe)
        assert got[:4] == stats[:4]
        assert got[4:] == pytest.approx(stats[4:], rel=1e-12, abs=1e-300)

    def test_default_chunk_binomial(self):
        coef = cs.preset_sequence("binomial-a", 0.5).coef
        n_probe = (1 << 20) + 4321
        verdicts, stats = unchunked_hypotheses(coef, 1, 1.5, n_probe)
        got = cs._prefix_stats(coef, 1, 1.5, n_probe)
        assert got[:4] == stats[:4]
        assert got[4:] == pytest.approx(stats[4:], rel=1e-12)
        rep = cs.hypotheses_check(coef, 1, 1.5, n_probe=n_probe)
        assert (rep.nonneg, rep.decay, rep.summable) == verdicts


def exact_cases():
    """(preset, growth e, k, lam) over k = 0..2 and lam in k+e + (-1/2, 0,
    1/2, 1), lam > 0."""
    presets = [("alternating", cs.preset_sequence("alternating"), 0),
               ("prym", cs.preset_sequence("prym"), 0),
               ("ones", cs.preset_sequence("ones"), 1)]
    presets += [(f"binomial-{a}", cs.preset_sequence("binomial-a", a), 0)
                for a in (0.25, 0.5, 1.0)]
    for name, preset, e in presets:
        for k in range(3):
            for lam in (k + e - 0.5, k + e, k + e + 0.5, k + e + 1.0):
                if lam > 0:
                    yield name, preset, e, k, lam


class TestExactHypotheses:
    def test_agrees_with_probe(self):
        # the probe on the same coefficients as a plain callable never
        # contradicts the exact verdict; it may only be inconclusive
        cases = list(exact_cases())
        assert len(cases) == 62
        conclusive = 0
        for name, preset, e, k, lam in cases:
            exact = cs.hypotheses_check(preset, k, lam)
            assert exact.n_probe == 0
            expected = "pass" if lam > k + e else "fail"
            assert (exact.nonneg, exact.decay, exact.summable) == (
                "pass", expected, expected), (name, k, lam)
            probe = cs.hypotheses_check(preset.coef, k, lam, n_probe=100_000)
            for got, want in zip(
                    (probe.nonneg, probe.decay, probe.summable),
                    (exact.nonneg, exact.decay, exact.summable)):
                assert got in (want, "inconclusive"), (name, k, lam)
                conclusive += got == want
        assert conclusive >= 150

    @pytest.mark.parametrize("seq", ["alternating", "binomial-a", "prym",
                                     "ones"] + [cs.preset_sequence(
                                         "binomial-a", a) for a in
                                         (0.001, 0.5, 1.0)])
    def test_presets_never_probe(self, monkeypatch, seq):
        def forbidden(*args):
            raise AssertionError("a preset reached the streamed probe")

        monkeypatch.setattr(cs, "_prefix_stats", forbidden)
        for k in range(4):
            for lam in (0.5, 1.0, 2.5, 7.0):
                rep = cs.hypotheses_check(seq, k, lam)
                assert rep.overall in ("pass", "fail") and rep.n_probe == 0
        cs.series_eval_three_ways(seq, 0, 2.0, 1.0)

    def test_user_preset_is_probed(self):
        alt = cs.preset_sequence("alternating")
        user = cs.SequencePreset("mine", alt.coef, alt.gen)
        assert cs.hypotheses_check(user, 0, 1.0, n_probe=10_000).n_probe \
            == 10_000

    @settings(max_examples=40, deadline=None)
    @given(a=hs.floats(min_value=1e-300, max_value=1.0))
    def test_binomial_leibniz_bounds(self, a):
        # below about 1e-305 the coefficients go subnormal by n = 2000
        coef = cs.preset_sequence("binomial-a", a).coef(np.arange(2001))
        assert coef[0] == 1.0
        ratio = coef[1:] / coef[:-1]
        assert np.all((ratio >= -1.0) & (ratio < 0.0))
        s0 = np.cumsum(coef)
        assert np.all((s0 >= 0.0) & (s0 <= 1.0))


def test_cesaro_suite_gates_every_three_way_call(monkeypatch):
    # each three-way item passes the hypotheses gate once for its 4 x,
    # and the gate is exact and O(1) for the suite's presets
    from cmfun import suites
    reports = []
    probe = cs.hypotheses_check

    def recording(*args, **kwargs):
        reports.append(probe(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cs, "hypotheses_check", recording)
    three_way = 0
    for name, check in suites._suite_cesaro():
        before = len(reports)
        verdict = check()
        expected = 1 if name.startswith("three-way:") else 0
        three_way += expected
        assert verdict["passed"] and len(reports) - before == expected, name
    assert three_way == 4
    assert all(r.n_probe == 0 and r.overall == "pass" for r in reports)


class TestFiniteArrays:
    # a finite array is the whole sequence, zero past its end
    def test_probe_reads_zero_past_the_end(self):
        a = [1.0, -0.5, 0.25]
        padded = np.concatenate([a, np.zeros(20_000)])
        verdicts, stats = unchunked_hypotheses(padded, 0, 1.0, 12_345)
        assert cs._prefix_stats(a, 0, 1.0, 12_345) == stats
        rep = cs.hypotheses_check(a, 0, 1.0, n_probe=12_345)
        assert (rep.nonneg, rep.decay, rep.summable) == verdicts

    def test_three_ways_sum_the_finite_array(self):
        # the direct leg is the exact ordered sum; the sign probe that saw
        # the zeros past the end and raised DomainError is not consulted
        a = [1.0, -0.5, 0.25]
        exact = 1.0 - 0.25 + 0.25 / 3.0
        assert cs.direct_series(a, 1.0, 1.0) == exact
        res = cs.series_eval_three_ways(a, 0, 1.0, 1.0)
        for value in (res.direct, res.stieltjes, res.laplace):
            assert value == pytest.approx(exact, rel=1e-14)

    def test_kappa_is_the_finite_sum(self):
        a = [1.0, -0.5, 0.25]
        for t in (0.5, 2.0):
            exact = math.fsum(an * math.exp(-n * t) for n, an in enumerate(a))
            assert cs.kappa_eval(a, 0, t) == pytest.approx(exact / t,
                                                           rel=1e-15)


class TestKappa:
    def test_generic_series_memory_is_bounded(self):
        # 1.67e6 terms at 15 t: one (terms x t) array would take 400 MB
        ts = np.geomspace(3e-5, 2.0, 15)
        tracemalloc.start()
        try:
            cs.kappa_eval(lambda n: 1.0 / (1.0 + n) ** 2, 0, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20, peak

    def test_generic_series_to_rounding(self):
        # sum e^(-nt)/(1+n)^2 = e^t Li_2(e^(-t)); summed row by row, the
        # 1.67e6 terms at t = 3e-5 were 1.35e-12 off
        ts = np.array([3e-5, 1e-3, 0.1])
        vals = cs.kappa_eval(lambda n: 1.0 / (1.0 + n) ** 2, 0, ts)
        with mpmath.workdps(30):
            ref = [float(mpmath.exp(t) * mpmath.polylog(2, mpmath.exp(-t)) / t)
                   for t in ts]
        np.testing.assert_allclose(vals, ref, rtol=1e-14, atol=0)

    def test_prym_closed_form(self):
        ts = np.linspace(0.05, 4.0, 20)
        vals = cs.kappa_eval("prym", 0, ts)
        assert np.max(np.abs(vals * ts - np.exp(-np.exp(-ts)))) <= 1e-12

    def test_alternating_closed_form(self):
        for t in (0.1, 1.0, 3.0):
            assert cs.kappa_eval("alternating", 0, t) == pytest.approx(
                1.0 / (t * (1.0 + math.exp(-t))), abs=1e-14)

    def test_ones_closed_form_to_tiny_t(self):
        # 1/(1 - e^(-t)) lost eps/t relative and was inf below t = 1e-16
        ts = np.geomspace(1e-15, 30.0, 200)
        ref = np.array([float(1 / -mpmath.expm1(-mpmath.mpf(t)))
                        for t in ts])
        np.testing.assert_allclose(cs.kappa_eval("ones", 0, ts) * ts, ref,
                                   rtol=4e-16, atol=0)

    def test_other_presets_keep_their_bits(self):
        ts = np.geomspace(1e-15, 30.0, 200)
        u = np.exp(-ts)
        old = {"alternating": 1.0 / (1.0 + u),
               "binomial-a": (1.0 + u) ** -0.5, "prym": np.exp(-u)}
        for key, core in old.items():
            np.testing.assert_array_equal(cs.kappa_eval(key, 0, ts),
                                          core / ts)

    def test_generic_series_matches_preset(self):
        coef = cs.preset_sequence("binomial-a", 0.5).coef
        for t in (0.3, 1.0):
            series = cs.kappa_eval(coef, 0, np.array([t]))[0]
            closed = cs.kappa_eval(cs.preset_sequence("binomial-a", 0.5), 0, t)
            assert abs(series - closed) <= 1e-12


class TestThreeWays:
    def test_prym_value(self):
        res = cs.series_eval_three_ways("prym", 0, 1.0, 1.0)
        target = 1.0 - math.exp(-1.0)
        for v in (res.direct, res.stieltjes, res.laplace):
            assert abs(v - target) <= 1e-8

    def test_nielsen_value(self):
        res = cs.series_eval_three_ways("alternating", 0, 1.0, 1.0)
        assert abs(res.direct - math.log(2.0)) <= 1e-12
        assert res.spread <= 1e-7

    def test_binomial_agreement(self):
        seq = cs.preset_sequence("binomial-a", 0.5)
        res = cs.series_eval_three_ways(seq, 0, 1.5, 2.0)
        assert res.spread <= 1e-7
        assert abs(res.direct - sf.beta_a_lambda(2.0, 0.5, 1.5)) <= 1e-10

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0])
    def test_catalog_spread(self, x):
        for seq, lam in (("prym", 1.0), ("alternating", 1.0), ("ones", 2.0)):
            res = cs.series_eval_three_ways(seq, 0, lam, x)
            assert res.spread <= 1e-7, (seq, x)

    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisViolationError):
            cs.series_eval_three_ways("ones", 0, 1.0, 1.0)
        with pytest.raises(HypothesisViolationError):
            cs.series_eval_three_ways("ones", 0, 1.0, np.array([1.0, 2.0]))

    def test_scalar_x_gives_floats(self):
        res = cs.series_eval_three_ways("alternating", 0, 1.0, 2.0)
        for v in (res.direct, res.stieltjes, res.laplace, res.spread):
            assert type(v) is float

    @pytest.mark.parametrize("seq, lam", [("prym", 1.0), ("alternating", 1.0),
                                          ("ones", 2.0)])
    def test_array_x_matches_scalar_calls(self, seq, lam):
        # the direct and Stieltjes legs are the scalar ones point by point;
        # the Laplace leg shares one panel set, so it meets the scalar
        # call's tolerance without its bits
        x = np.array([0.5, 1.0, 2.0, 10.0])
        res = cs.series_eval_three_ways(seq, 0, lam, x)
        spread = res.spread
        assert spread.shape == x.shape and np.all(spread <= 1e-7)
        for i, xi in enumerate(x):
            one = cs.series_eval_three_ways(seq, 0, lam, float(xi))
            assert res.direct[i] == one.direct
            assert res.stieltjes[i] == one.stieltjes
            assert abs(res.laplace[i] - one.laplace) <= 1e-12 * abs(one.laplace)

    def test_array_x_probes_a_callable_once(self, monkeypatch):
        # a user callable's hypotheses probe runs once per call, not per x
        calls = []
        check = cs.hypotheses_check

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(cs, "hypotheses_check", counted)
        x = np.array([0.5, 2.0, 10.0])
        res = cs.series_eval_three_ways(lambda n: (-1.0) ** n, 0, 1.0, x)
        assert len(calls) == 1
        assert np.all(np.abs(res.direct - sf.nielsen_beta(x)) <= 1e-12)
        assert np.all(res.spread <= 1e-7)

    def test_x_domain(self):
        for x in (0.0, np.array([1.0, -1.0]), np.inf, np.array([1.0, np.nan])):
            with pytest.raises(DomainError):
                cs.series_eval_three_ways("prym", 0, 1.0, x)
        # a 2-D x is one more array: each field keeps its shape
        res = cs.series_eval_three_ways("prym", 0, 1.0, np.ones((2, 2)))
        for field in (res.direct, res.stieltjes, res.laplace, res.spread):
            assert field.shape == (2, 2)


def test_preset_keys():
    for key in cs.PRESET_KEYS:
        preset = cs.preset_sequence(key)
        assert preset.coef(np.arange(4)).shape == (4,)
    with pytest.raises(DomainError):
        cs.preset_sequence("unknown")


@pytest.mark.parametrize("key,a", [("prym", None), ("binomial-a", 0.25),
                                   ("binomial-a", 0.5), ("binomial-a", 0.77),
                                   ("binomial-a", 1.0), ("binomial-a", 0.001),
                                   ("binomial-a", 0.013)])
def test_product_form_coefficients(key, a):
    # prym: (-1)^n / n!; binomial-a: (-1)^n (a)_n / n!; 1/n! underflows
    # past n = 170
    preset = cs.preset_sequence(key) if a is None else \
        cs.preset_sequence(key, a)
    n = np.arange(170)
    got = preset.coef(n)
    with mpmath.workdps(40):
        for k in n:
            top = 1 if a is None else mpmath.rf(mpmath.mpf(a), int(k))
            ref = float((-1) ** int(k) * top / mpmath.factorial(int(k)))
            assert got[k] == pytest.approx(ref, rel=1e-14, abs=0.0), k
    # any index set reads the same table as the contiguous range
    picks = np.array([169, 3, 0, 77])
    assert np.array_equal(preset.coef(picks), got[picks])
