"""Stirling and Barnes double-Gamma remainder objects: the periodic kernel
Q(t), the remainder kernels p_n, and the even-indexed remainder integral
R_{2,2n}(w) = int e^(-wt) t^(2n) p_n(t) dt.
"""

import math
from functools import lru_cache

import numpy as np

from ._series import midpoint_tail
from .errors import DomainError
from .laplace import laplace_quad
from .specfun import _like, _positive, _zeta, log_gamma
from .stieltjes import PeriodicTail, PiecewisePolynomial, RepresentingMeasure

_TWO_PI = 2.0 * math.pi
# the largest n whose barnes_g_limit(n) is a normal float (6.3e-307); from
# n = 193 it and p_n near t = 0 are subnormal, with few significant bits
_N_MAX = 192


def q_kernel(t):
    """Q(t) = (t - [t] - (t - [t])^2)/2, 1-periodic with values in [0, 1/8]."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & np.isfinite(t)):
        raise DomainError("q_kernel needs finite t >= 0")
    u = t - np.floor(t)
    out = 0.5 * (u - u * u)
    return out if out.ndim else float(out)


# Q as a periodic representing measure of order 2: the Stirling remainder is
# exactly its Stieltjes transform.
_Q_MEASURE = RepresentingMeasure(
    order=2.0,
    tail=PeriodicTail(start=0.0, period=1.0,
                      profile=PiecewisePolynomial(np.array([0.0, 1.0]),
                                                  np.array([[0.0, 0.5, -0.5]]))))


def stirling_remainder(x):
    """(lhs, rhs) of

        log Gamma(x) - ((x - 1/2) log x - x + log(2 pi)/2)
            = int_0^inf Q(t)/(x+t)^2 dt.
    """
    x = _positive(x)
    lhs = log_gamma(x) - ((x - 0.5) * np.log(x) - x
                          + 0.5 * math.log(2.0 * math.pi))
    return _like(x, lhs), _like(x, _Q_MEASURE(x))


@lru_cache(maxsize=16)
def _taylor_coefficients(m_max):
    """(-1)^i zeta(2(m+1+i)) and (-1)^i (i+1) zeta(2(m+2+i)), the
    coefficients of a^(2i), i < 26, in S1_m and S2_m for m = 0..m_max."""
    m, i = np.arange(m_max + 1)[:, None], np.arange(26)
    zeta = np.vectorize(_zeta)
    sign = (-1.0) ** i
    return (sign * zeta(2.0 * (m + 1 + i)),
            sign * (i + 1) * zeta(2.0 * (m + 2 + i)))


def _aux_sums(a, m_max):
    """S1_m = sum_k k^(-2m)/(k^2+a^2) and S2_m = sum_k k^(-2m)/(k^2+a^2)^2
    for m = 0..m_max, elementwise over the array a, times ``_sum_scale(a)``.

    Small a: Taylor series in a^2 with even zeta values.  Otherwise the
    coth/csch^2 closed forms seed upward recurrences in m that divide by
    a^2/scale = a f, so no a^2 overflows and S1_m ~ zeta(2m)/a^2 stays in
    range up to t = 2 pi a = 1e300; a power-of-two scale rounds nothing.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    small = a < 0.5
    s1 = np.empty((m_max + 1,) + a.shape)
    s2 = np.empty_like(s1)
    if small.any():
        powers = a[small] ** (2 * np.arange(26)[:, None])
        c1, c2 = _taylor_coefficients(m_max)
        s1[:, small] = c1 @ powers
        s2[:, small] = c2 @ powers
    big = ~small
    if big.any():
        ab = a[big]
        scale = _sum_scale(ab)
        f = ab / scale
        af = ab * f  # a^2 / scale
        pa = math.pi * ab
        coth = 1.0 / np.tanh(pa)
        # 1 / sinh(pa)^2, whose square overflows for pa > 355
        csch2 = 4.0 * np.exp(-2.0 * pa) / np.expm1(-2.0 * pa) ** 2
        t1 = math.pi * coth / (2.0 * f) - 1.0 / (2.0 * af)
        t2 = (math.pi ** 2 * csch2 / (4.0 * af)
              + math.pi * coth / (4.0 * f ** 3) / scale / scale
              - 1.0 / (2.0 * f ** 4) / scale / scale / scale)
        s1[0][big] = t1
        s2[0][big] = t2
        for m in range(1, m_max + 1):
            t1 = (_zeta(2.0 * m) - t1 / scale) / af
            t2 = (t1 / scale - t2 / scale) / af
            s1[m][big] = t1
            s2[m][big] = t2
    return s1, s2


def _check_n(n):
    if not 1 <= n <= _N_MAX or int(n) != n:
        raise DomainError(f"n must be an integer in [1, {_N_MAX}], got {n}")


def _points(t, n):
    """``t`` through ``_positive``, once n is checked by ``_check_n``."""
    _check_n(n)
    return _positive(t)


def _sum_scale(a):
    """2^e for a = f 2^e, 1/2 <= f < 1; 1 for a < 1/2."""
    return np.ldexp(1.0, np.maximum(np.frexp(a)[1], 0))


def p_kernel(t, n=1):
    """The Barnes remainder kernel

        p_n(t) = (1/t^2) sum_k (2 pi k)^(1-2n) [ 4 pi k/(t^2+(2 pi k)^2)
                 + 8 pi k t/(t^2+(2 pi k)^2)^2
                 + ((2n-1)/(2 pi k)) 2t/(t^2+(2 pi k)^2) ],

    reduced to coth/csch^2 sums; accurate to ~1e-14 relative for all t > 0.
    """
    t = _points(t, n)
    return _like(t, (_t2_p_kernel(t, n) / t ** 2).reshape(t.shape))


def _t2_p_kernel(t, n):
    """t^2 p_n(t) for an array of t > 0; finite as t -> 0, where 1/t^2
    overflows."""
    a = t / _TWO_PI
    s1, s2 = _aux_sums(a, n)
    return _TWO_PI ** (-2.0 * n) * (
        2.0 * s1[n - 1] + (t / math.pi ** 2) * s2[n - 1]
        + ((2.0 * n - 1.0) * t / (2.0 * math.pi ** 2)) * s1[n]) / _sum_scale(a)


def p_kernel_series(t, n=1):
    """The k-series of p_n, its first 1000 terms summed directly and the
    rest by the midpoint Euler-Maclaurin completion; the independent
    cross-check for p_kernel; one sum per entry of t."""
    t = _points(t, n)
    tr = t[..., None]  # t against the k axis

    def term(k):
        w = _TWO_PI * k
        den = tr * tr + w * w
        return w ** (1.0 - 2.0 * n) * (4.0 * math.pi * k / den
                                       + 8.0 * math.pi * k * tr / den ** 2
                                       + (2.0 * n - 1.0) / w * 2.0 * tr / den)

    return _like(t, midpoint_tail(term, 1, 1000) / (t * t))


def r_2_2n(w, n=1):
    """R_{2,2n}(w) = int_0^inf e^(-wt) t^(2n) p_n(t) dt, positive and
    decreasing in w.  An array of w, of any shape, takes one
    ``laplace_quad`` on one shared panel set."""
    w = _points(w, n)
    return _like(w, laplace_quad(
        lambda t: t ** (2.0 * n - 2.0) * _t2_p_kernel(t, n), w,
        abs_tol=1e-16, rel_tol=5e-14))


def barnes_g_limit(n=1):
    """lim_{t -> 0} t^2 p_n(t) = 2 (2 pi)^(-2n) zeta(2n); fixes the leading
    w -> inf decay R_{2,2n}(w) ~ barnes_g_limit(n)/w."""
    _check_n(n)
    return 2.0 * _TWO_PI ** (-2.0 * n) * _zeta(2.0 * n)
