"""Iterated partial sums, the polynomial identity relating them to the
generating function, numerical checks of the representation hypotheses, and
three-way evaluation of sums a_n / (x+n)^lam (direct series, Stieltjes
measure, Laplace kernel)."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quadrature import quad
from ._series import alternating_sum, midpoint_tail, running_product
from .errors import CapTooSmallError, DomainError, HypothesisViolationError
from .laplace import transform_cutoff
from .stieltjes import measure_cesaro, stieltjes_eval


def iterate_sums(a, k):
    """The (k+1, N) table whose row j is s^(j): s^(0) = cumsum(a),
    s^(j) = cumsum(s^(j-1)) up to depth k."""
    a = np.asarray(a, dtype=float)
    if k < 0 or int(k) != k:
        raise DomainError("k must be a nonnegative integer")
    table = np.empty((k + 1, len(a)))
    table[0] = np.cumsum(a)
    for j in range(1, k + 1):
        table[j] = np.cumsum(table[j - 1])
    return table


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
    """Verdicts for the three representation hypotheses; each one is
    'pass', 'fail' or 'inconclusive' (they are limit statements, probed on
    a finite prefix)."""

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


# terms per chunk of the streamed hypotheses probe
_CHUNK = 1 << 20


def _coef_chunks(seq, stop):
    """a_0 .. a_(stop-1) in consecutive chunks of at most _CHUNK terms; a
    product-form preset carries its running product across chunks."""
    preset = _as_preset(seq)
    coef = _as_coef(seq)
    prev = None
    for lo in range(0, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        if lo and preset is not None and preset.ratio is not None:
            a = preset.ratio(np.arange(lo, hi, dtype=float))
            a[0] *= prev
            np.cumprod(a, out=a)
        else:
            a = np.asarray(coef(np.arange(lo, hi)), dtype=float)
        prev = a[-1]
        yield a


def _prefix_stats(seq, k, lam, n_probe):
    """Streamed statistics of s = s^(k) on n <= n_probe: (min s, max |s|,
    the windowed maxima of |s|/n^lam ending at n_probe // 10 and n_probe,
    total and recent sums of s_n / n^(1+lam)).

    Each cumsum level carries its running sum into the next chunk, so the
    prefix sums are bit-identical to whole-array cumsums; the two sums are
    sums of per-chunk sums.
    """
    carry = np.zeros(int(k) + 1)
    windows = [(n_probe // 10, max(1, int(0.9 * (n_probe // 10)))),
               (n_probe, max(1, int(0.9 * n_probe)))]
    peak = [0.0, 0.0]
    s_min, s_max, total, recent = math.inf, 0.0, 0.0, 0.0
    lo = 0
    for s in _coef_chunks(seq, n_probe + 1):
        hi = lo + len(s)
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
        lo = hi
    return (s_min, s_max, peak[0] / windows[0][0] ** lam,
            peak[1] / windows[1][0] ** lam, total, recent)


def hypotheses_check(seq, k, lam, n_probe=20_000_000):
    """Probe (i) s^(k) >= 0, (ii) s^(k)_n / n^lam -> 0, (iii)
    sum s^(k)_n / n^(1+lam) < inf on the prefix n <= n_probe.

    (ii) requires the windowed maximum of s/n^lam to drop by a factor 2 over
    the last decade; (iii) requires the partial sums to grow by less than
    1e-6 relative over the last decade (for the bounded-sum catalog this
    needs a prefix of order 10^7).  The prefix streams in chunks of 2^20
    terms, so memory does not grow with ``n_probe``.
    """
    if n_probe < 1000:
        raise DomainError("n_probe must be >= 1000")
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


def require_hypotheses(seq, k, lam, n_probe):
    """Probe the representation hypotheses once; raise
    HypothesisViolationError when one of them fails."""
    report = hypotheses_check(seq, k, lam, n_probe=n_probe)
    if report.overall == "fail":
        raise HypothesisViolationError(
            f"representation hypotheses fail: {report.to_dict()}")
    return report


# ---------------------------------------------------------------------------
# named coefficient presets with closed generating functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequencePreset:
    """Coefficients a_n with ``gen(t)``, the closed form of sum a_n e^(-nt).

    ``ratio`` maps n >= 1 to a_n / a_(n-1) when a_0 = 1 and the coefficients
    are that running product; the hypotheses probe then carries the product
    from chunk to chunk.
    """

    name: str
    coef: Callable
    gen: Callable
    default_lam: float = 1.0
    ratio: Callable = None


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
                              lambda t: -1.0 / np.expm1(-t), default_lam=2.0)
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
    return SequencePreset(key, _product_coef(ratio), gen, ratio=ratio)


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
    arr = np.asarray(seq, dtype=float)
    return lambda n: arr[np.asarray(n, dtype=int)]


def kappa_eval(seq, k, t):
    """kappa(t) = t^(-(k+1)) sum a_n e^(-nt); closed generating function for
    presets, truncated series otherwise; t must be positive and finite."""
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
        ns = np.arange(n_terms + 1, dtype=float)
        core = np.sum(_as_coef(seq)(ns)[:, None]
                      * np.exp(-np.outer(ns, np.atleast_1d(t))), axis=0)
        core = core if t.ndim else float(core[0])
    return core / t ** (k + 1.0)


@dataclass(frozen=True)
class ThreeWayResult:
    direct: float
    stieltjes: float
    laplace: float

    @property
    def spread(self):
        vals = (self.direct, self.stieltjes, self.laplace)
        return max(vals) - min(vals)


def direct_series(seq, lam, x):
    """sum a_n/(x+n)^lam: accelerated when the signs alternate, 8192 terms
    plus a midpoint tail when the coefficients are positive and smooth."""
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


def series_eval_three_ways(seq, k, lam, x, n_probe=2_000_000,
                           skip_hypotheses=False):
    """(direct, stieltjes, laplace) evaluations of sum a_n/(x+n)^lam.

    The hypotheses are probed first (``require_hypotheses``) and a failure
    raises; pass ``skip_hypotheses=True`` when the caller has probed them
    already, or to override explicitly.
    """
    if not x > 0:
        raise DomainError("x must be positive")
    preset = _as_preset(seq)
    coef = preset.coef if preset is not None else _as_coef(seq)
    if not skip_hypotheses:
        require_hypotheses(preset or coef, k, lam, n_probe=n_probe)
    direct = direct_series(coef, lam, x)
    measure = measure_cesaro(coef, k, lam)
    stieltjes = stieltjes_eval(measure, x)
    t_hi = transform_cutoff(x)
    kappa_src = preset if preset is not None else coef

    def integrand(t):
        return np.exp(-x * t) * t ** (lam + k) * kappa_eval(kappa_src, k, t)

    laplace = quad(integrand, 0.0, t_hi, abs_tol=1e-15,
                   rel_tol=1e-12) / math.gamma(lam)
    return ThreeWayResult(direct=direct, stieltjes=stieltjes, laplace=laplace)
