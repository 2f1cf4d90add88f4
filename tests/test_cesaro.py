import math

import mpmath
import numpy as np
import pytest

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
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("name,seq,lam", PRESETS,
                             ids=[p[0] for p in PRESETS])
    def test_matches_unchunked(self, monkeypatch, name, seq, lam, k):
        monkeypatch.setattr(cs, "_CHUNK", 1000)
        n_probe = 12_345
        verdicts, stats = unchunked_hypotheses(seq, k, lam, n_probe)
        rep = cs.hypotheses_check(seq, k, lam, n_probe=n_probe)
        assert (rep.nonneg, rep.decay, rep.summable) == verdicts
        got = cs._prefix_stats(seq, k, lam, n_probe)
        assert got[:4] == stats[:4]
        assert got[4:] == pytest.approx(stats[4:], rel=1e-12, abs=1e-300)

    def test_default_chunk_binomial(self):
        seq = cs.preset_sequence("binomial-a", 0.5)
        n_probe = (1 << 20) + 4321
        verdicts, stats = unchunked_hypotheses(seq, 1, 1.5, n_probe)
        got = cs._prefix_stats(seq, 1, 1.5, n_probe)
        assert got[:4] == stats[:4]
        assert got[4:] == pytest.approx(stats[4:], rel=1e-12)
        rep = cs.hypotheses_check(seq, 1, 1.5, n_probe=n_probe)
        assert (rep.nonneg, rep.decay, rep.summable) == verdicts


def test_cesaro_suite_probes_once_per_item(monkeypatch):
    from cmfun import suites
    calls = []
    probe = cs.hypotheses_check

    def counting(*args, **kwargs):
        calls.append(args[:3])
        return probe(*args, **kwargs)

    monkeypatch.setattr(cs, "hypotheses_check", counting)
    three_way = 0
    for thunk in suites._suite_cesaro():
        before = len(calls)
        item = thunk()
        expected = 1 if item["name"].startswith("three-way:") else 0
        three_way += expected
        assert item["passed"] and len(calls) - before == expected, item
    assert three_way == 4


class TestKappa:
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
        res = cs.series_eval_three_ways("prym", 0, 1.0, 1.0,
                                        n_probe=2_000_000)
        target = 1.0 - math.exp(-1.0)
        for v in (res.direct, res.stieltjes, res.laplace):
            assert abs(v - target) <= 1e-8

    def test_nielsen_value(self):
        res = cs.series_eval_three_ways("alternating", 0, 1.0, 1.0,
                                        n_probe=2_000_000)
        assert abs(res.direct - math.log(2.0)) <= 1e-12
        assert res.spread <= 1e-7

    def test_binomial_agreement(self):
        seq = cs.preset_sequence("binomial-a", 0.5)
        res = cs.series_eval_three_ways(seq, 0, 1.5, 2.0, n_probe=2_000_000)
        assert res.spread <= 1e-7
        assert abs(res.direct - sf.beta_a_lambda(2.0, 0.5, 1.5)) <= 1e-10

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0])
    def test_catalog_spread(self, x):
        for seq, lam in (("prym", 1.0), ("alternating", 1.0), ("ones", 2.0)):
            res = cs.series_eval_three_ways(seq, 0, lam, x,
                                            n_probe=1_000_000)
            assert res.spread <= 1e-7, (seq, x)

    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisViolationError):
            cs.series_eval_three_ways("ones", 0, 1.0, 1.0, n_probe=100_000)
        # explicit override evaluates anyway (spread is then meaningless
        # for the divergent direct route, so just check it runs)
        res = cs.series_eval_three_ways("ones", 0, 2.0, 1.0,
                                        n_probe=100_000,
                                        skip_hypotheses=True)
        assert abs(res.direct - sf.trigamma(1.0)) <= 1e-9


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
