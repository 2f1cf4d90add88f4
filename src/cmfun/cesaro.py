"""Iterated partial sums, the polynomial identity relating them to the
generating function, checks of the representation hypotheses (exact for the
presets, probed otherwise), and three-way evaluation of sums
a_n / (x+n)^lam (direct series, Stieltjes measure, Laplace kernel)."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._series import (alternating_sum, iterate_sums, midpoint_tail,
                      ordered_sum, running_product)
from .errors import CapTooSmallError, DomainError, HypothesisViolationError
from .laplace import laplace_quad
from .stieltjes import measure_cesaro, stieltjes_eval


def lemma_s_check(a, k, N, x):
    """(lhs, rhs) of the partial-sum identity

        (1-x)^(k+1) sum_{n<=N} s_n^(k) x^n
            = sum_{n<=N} a_n x^n - x^(N+1) sum_{j<=k} s_N^(j) (1-x)^j.
    """
    if not 0 < x < 1:
        raise DomainError("x must lie in (0, 1)")
    a = np.asarray(a, dtype=float)
    if N >= len(a):
        raise DomainError("N exceeds the available prefix")
    s = iterate_sums(a[:N + 1], k)
    powers = x ** np.arange(N + 1)
    lhs = (1.0 - x) ** (k + 1) * float(np.sum(s[k] * powers))
    rhs = float(np.sum(a[:N + 1] * powers)) - x ** (N + 1) * float(
        np.sum(s[:, N] * (1.0 - x) ** np.arange(k + 1)))
    return lhs, rhs


@dataclass(frozen=True)
class HypothesesReport:
    """Verdicts for the three representation hypotheses, each 'pass',
    'fail' or 'inconclusive'.  ``n_probe`` is the length of the probed
    prefix; 0 means the verdicts are exact (the built-in presets) and
    never 'inconclusive', which only the finite-prefix probe returns."""

    nonneg: str
    decay: str
    summable: str
    n_probe: int

    @property
    def overall(self):
        verdicts = (self.nonneg, self.decay, self.summable)
        if any(v == "fail" for v in verdicts):
            return "fail"
        if all(v == "pass" for v in verdicts):
            return "pass"
        return "inconclusive"

    def to_dict(self):
        return {"nonneg": self.nonneg, "decay": self.decay,
                "summable": self.summable, "overall": self.overall,
                "n_probe": self.n_probe}


_CHUNK = 1 << 20  # terms per chunk of the streamed hypotheses probe
_KAPPA_BLOCK = 1 << 16  # terms per block of the generic kappa series


def _prefix_stats(seq, k, lam, n_probe):
    """Streamed statistics of s = s^(k) on n <= n_probe: (min s, max |s|,
    the windowed maxima of |s|/n^lam ending at n_probe // 10 and n_probe,
    total and recent sums of s_n / n^(1+lam)).

    Each cumsum level carries its running sum into the next chunk, so the
    prefix sums are bit-identical to whole-array cumsums; the two sums are
    sums of per-chunk sums.
    """
    coef = _as_coef(seq)
    carry = np.zeros(int(k) + 1)
    windows = [(n_probe // 10, max(1, int(0.9 * (n_probe // 10)))),
               (n_probe, max(1, int(0.9 * n_probe)))]
    peak = [0.0, 0.0]
    s_min, s_max, total, recent = math.inf, 0.0, 0.0, 0.0
    for lo in range(0, n_probe + 1, _CHUNK):
        hi = min(lo + _CHUNK, n_probe + 1)
        s = np.asarray(coef(np.arange(lo, hi)), dtype=float)
        for level in range(len(carry)):
            s[0] += carry[level]
            np.cumsum(s, out=s)
            carry[level] = s[-1]
        mag = np.abs(s)
        s_min = min(s_min, float(np.min(s)))
        s_max = max(s_max, float(np.max(mag)))
        for i, (idx, start) in enumerate(windows):
            a, b = max(start, lo), min(idx + 1, hi)
            if a < b:
                peak[i] = max(peak[i], float(np.max(mag[a - lo:b - lo])))
        first = max(lo, 1)
        n = np.arange(first, hi, dtype=float)
        terms = s[first - lo:] / n ** (1.0 + lam)
        total += float(np.sum(terms))
        recent += float(np.sum(terms[max(n_probe // 10 + 1 - first, 0):]))
    return (s_min, s_max, peak[0] / windows[0][0] ** lam,
            peak[1] / windows[1][0] ** lam, total, recent)


def hypotheses_check(seq, k, lam, n_probe=20_000_000):
    """Verdicts on (i) s^(k) >= 0, (ii) s^(k)_n / n^lam -> 0, (iii)
    sum s^(k)_n / n^(1+lam) < inf, for an integer k >= 0 and a finite
    lam > 0.

    The built-in presets are decided exactly, in O(1).  The product forms
    (alternating, binomial-a with 0 < a <= 1, prym) have a_0 = 1 and
    a_n / a_(n-1) in [-1, 0) for n >= 1, so by Leibniz 0 <= s^(0)_n <= 1;
    by Abel and Cesaro summation the means of s^(0) tend to G(1) = gen(0)
    (1/2, 2^(-a), 1/e), which is positive.  Every s^(k) is then >= 0 and
    grows like n^k, so (ii) and (iii) hold exactly when lam > k.  For
    ones, s^(k)_n = C(n+k+1, k+1) ~ n^(k+1), so they hold exactly when
    lam > k+1.  The preset's ``growth`` is that excess exponent (0 or 1);
    the report has n_probe = 0.

    Any other sequence is probed on the prefix n <= n_probe.  (ii)
    requires the windowed maximum of s/n^lam to drop by a factor 2 over the
    last decade; (iii) requires the partial sums to grow by less than 1e-6
    relative over the last decade (for the bounded-sum catalog this needs a
    prefix of order 10^7).  The prefix streams in chunks of 2^20 terms, so
    memory does not grow with ``n_probe``.
    """
    if not float(k).is_integer() or k < 0:
        raise DomainError(f"k must be an integer >= 0, got {k}")
    if not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"lam must be finite and > 0, got {lam}")
    if n_probe < 1000:
        raise DomainError("n_probe must be >= 1000")
    preset = _as_preset(seq)
    if preset is not None and preset.growth is not None:
        exact = "pass" if lam > k + preset.growth else "fail"
        return HypothesesReport(nonneg="pass", decay=exact, summable=exact,
                                n_probe=0)
    s_min, s_max, r_old, r_new, total, recent = _prefix_stats(
        seq, k, lam, n_probe)
    scale = max(1.0, s_max)
    nonneg = "pass" if s_min >= -1e-12 * scale else "fail"
    if r_old == 0.0 and r_new == 0.0:
        decay = "pass"
    else:
        ratio = r_new / max(r_old, 1e-300)
        decay = "pass" if ratio <= 0.5 else ("fail" if ratio >= 0.9
                                             else "inconclusive")
    if total <= 0:
        summable = "pass" if nonneg == "pass" else "inconclusive"
    else:
        growth = recent / total
        summable = "pass" if growth < 1e-6 else ("fail" if growth > 1e-2
                                                 else "inconclusive")
    return HypothesesReport(nonneg=nonneg, decay=decay, summable=summable,
                            n_probe=int(n_probe))


# ---------------------------------------------------------------------------
# named coefficient presets with closed generating functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequencePreset:
    """Coefficients a_n with ``gen(t)``, the closed form of sum a_n e^(-nt).

    ``growth`` is e when s^(k)_n >= 0 grows like n^(k+e) for every k, as
    shown for the built-in presets in ``hypotheses_check``, which then
    decides the hypotheses exactly; None (a user-built preset) leaves them
    to the streamed probe.
    """

    name: str
    coef: Callable
    gen: Callable
    default_lam: float = 1.0
    growth: int = None


def _product_coef(ratio):
    """a_n at integer n for a_0 = 1, a_n = a_(n-1) ratio(n): one table of
    running products up to the largest n requested."""
    def coef(n):
        n = np.asarray(n, dtype=np.int64)
        return running_product(ratio, np.max(n, initial=0) + 1)[n]

    return coef


def _ones_coef(n):
    return np.ones_like(np.asarray(n, dtype=float))


def preset_sequence(key, a=0.5):
    """Presets: 'alternating', 'binomial-a' (parameter a), 'prym', 'ones'."""
    if key == "ones":
        return SequencePreset("ones", _ones_coef,
                              lambda t: -1.0 / np.expm1(-t), default_lam=2.0,
                              growth=1)
    if key == "binomial-a" and not 0 < a <= 1:
        raise DomainError("binomial parameter must be in (0, 1]")
    product_forms = {  # generating function and ratio a_n / a_(n-1)
        "alternating": (lambda t: 1.0 / (1.0 + np.exp(-t)),
                        lambda n: -np.ones_like(n)),
        "binomial-a": (lambda t: (1.0 + np.exp(-t)) ** (-a),
                       lambda n: -((a + (n - 1.0)) / n)),
        "prym": (lambda t: np.exp(-np.exp(-t)), lambda n: -1.0 / n),
    }
    if key not in product_forms:
        raise DomainError(f"unknown sequence preset {key!r}")
    gen, ratio = product_forms[key]
    return SequencePreset(key, _product_coef(ratio), gen, growth=0)


PRESET_KEYS = ("alternating", "binomial-a", "prym", "ones")


def _as_preset(seq):
    """The preset named or given by ``seq``, or None for other sequences."""
    if isinstance(seq, SequencePreset):
        return seq
    return preset_sequence(seq) if isinstance(seq, str) else None


def _as_coef(seq):
    if isinstance(seq, str):
        return preset_sequence(seq).coef
    if isinstance(seq, SequencePreset):
        return seq.coef
    if callable(seq):
        return seq
    # a finite array is the whole sequence: zero past its end
    arr = np.append(np.asarray(seq, dtype=float), 0.0)
    return lambda n: arr[np.minimum(np.asarray(n, dtype=int), len(arr) - 1)]


def kappa_eval(seq, k, t):
    """kappa(t) = t^(-(k+1)) sum a_n e^(-nt); closed generating function for
    presets, truncated series otherwise, each block of 2^16 terms summed
    pairwise and the block sums added in order; t must be positive and
    finite."""
    t = np.asarray(t, dtype=float)
    if not np.all((t > 0) & np.isfinite(t)):
        raise DomainError(f"kappa is evaluated for finite t > 0, got {t}")
    preset = _as_preset(seq)
    if preset is not None:
        core = preset.gen(t)
    else:
        n_terms = int(min(50.0 / max(np.min(t), 1e-6), 2_000_000))
        if n_terms >= 2_000_000:
            raise CapTooSmallError("generic kappa series needs too many terms")
        coef, ts = _as_coef(seq), np.atleast_1d(t).ravel()
        core = np.zeros_like(ts)
        for lo in range(0, n_terms + 1, _KAPPA_BLOCK):
            # one row per t: numpy sums the contiguous last axis pairwise
            ns = np.arange(lo, min(lo + _KAPPA_BLOCK, n_terms + 1), 1.0)
            block = np.multiply.outer(ts, -ns)
            np.exp(block, out=block)
            block *= coef(ns)
            core += np.sum(block, axis=-1)
        core = core if t.ndim else float(core[0])
    return core / t ** (k + 1.0)


@dataclass(frozen=True)
class ThreeWayResult:
    """The three evaluations: floats for a scalar x, arrays for an array."""

    direct: float
    stieltjes: float
    laplace: float

    @property
    def spread(self):
        """(max - min) / max |value| of the three evaluations, per x."""
        vals = np.array([self.direct, self.stieltjes, self.laplace])
        out = (vals.max(axis=0) - vals.min(axis=0)) / np.abs(vals).max(axis=0)
        return out if out.ndim else float(out)


def direct_series(seq, lam, x):
    """sum a_n/(x+n)^lam: the ordered sum of a finite array, accelerated
    when the signs alternate, 8192 terms plus a midpoint tail when the
    coefficients are positive and smooth."""
    if _as_preset(seq) is None and not callable(seq):
        a = np.asarray(seq, dtype=float)
        return float(ordered_sum(a * (x + np.arange(len(a))) ** (-lam)))
    coef = _as_coef(seq)
    probe = coef(np.arange(64))
    signs = np.sign(probe[probe != 0.0])
    if len(signs) >= 8 and np.all(signs[::2] == signs[0]) and \
            np.all(signs[1::2] == -signs[0]):
        def term(n):
            return np.abs(coef(n)) * (x + n) ** (-lam)
        return float(signs[0] * alternating_sum(term, n_terms=36))
    if np.all(probe > 0):
        return midpoint_tail(lambda n: coef(n) * (x + n) ** (-lam), 0, 8192)
    raise DomainError("direct series needs alternating or positive smooth "
                      "coefficients")


def series_eval_three_ways(seq, k, lam, x):
    """(direct, stieltjes, laplace) evaluations of sum a_n/(x+n)^lam, the
    last by ``laplace_quad`` of t^(lam+k) kappa(t) / Gamma(lam).  First
    ``hypotheses_check`` (exact and O(1) for the presets, else probed on
    its default prefix); a failure raises HypothesisViolationError.

    ``x`` is a positive scalar or 1-D array.  An array takes one gate,
    one ``measure_cesaro`` and one array ``laplace_quad``, and the three
    fields are arrays over x."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1 or not np.all(xs > 0):
        raise DomainError("x must be positive, a scalar or a 1-D array")
    seq = _as_preset(seq) or seq
    report = hypotheses_check(seq, k, lam)
    if report.overall == "fail":
        raise HypothesisViolationError(
            f"representation hypotheses fail: {report.to_dict()}")
    measure = measure_cesaro(
        seq.coef if isinstance(seq, SequencePreset) else seq, k, lam)
    points = np.atleast_1d(xs).tolist()
    direct = np.array([direct_series(seq, lam, v) for v in points])
    stieltjes = np.array([stieltjes_eval(measure, v) for v in points])
    laplace = laplace_quad(
        lambda t: t ** (lam + k) * kappa_eval(seq, k, t), xs,
        abs_tol=1e-15) / math.gamma(lam)
    if xs.ndim:
        return ThreeWayResult(direct, stieltjes, laplace)
    return ThreeWayResult(float(direct[0]), float(stieltjes[0]),
                          float(laplace))
