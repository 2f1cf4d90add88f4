"""Series helpers: acceleration of alternating sums, zeta tables and the
midpoint Euler-Maclaurin completion of truncated sums."""

import math

import numpy as np

from ._quadrature import quad_to_inf


def zeta_even(m):
    """zeta(2m) for integer m >= 1, accurate to ~1e-16."""
    s = 2 * m
    k = np.arange(1.0, 100.0)
    head = float(np.sum(k ** (-s)))
    # Euler-Maclaurin tail from K=100
    K = 100.0
    tail = K ** (1 - s) / (s - 1) + 0.5 * K ** (-s) + s / 12.0 * K ** (-s - 1) \
        - s * (s + 1) * (s + 2) / 720.0 * K ** (-s - 3)
    return head + tail


_ZETA_EVEN = {m: zeta_even(m) for m in range(1, 41)}


def zeta_even_cached(m):
    return _ZETA_EVEN[m] if m in _ZETA_EVEN else zeta_even(m)


def alternating_sum(term, n_terms=28):
    """Accelerated value of sum_{k>=0} (-1)^k term(k).

    Chebyshev-polynomial acceleration; for totally monotone term sequences the
    error decays like (3 + sqrt(8))^(-n_terms), so the default 28 terms reach
    full double precision.
    """
    d = (3.0 + math.sqrt(8.0)) ** n_terms
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n_terms):
        c = b - c
        s += c * term(k)
        b = (k + n_terms) * (k - n_terms) * b / ((k + 0.5) * (k + 1.0))
    return s / d


def pochhammer_ratio_terms(a, n_max):
    """Array of (a)_n / n! for n = 0..n_max-1 via a stable running product."""
    out = np.empty(n_max)
    out[0] = 1.0
    for n in range(1, n_max):
        out[n] = out[n - 1] * (a + n - 1) / n
    return out


# offsets of the 4-point central stencil of step 1/8 around a midpoint a
_STEP = 0.125
MIDPOINT_STENCIL = _STEP * np.array([-2.0, -1.0, 1.0, 2.0])


def midpoint_correction(g_stencil):
    """g'(a)/24 - 7 g'''(a)/5760 from ``g_stencil`` = g(a + MIDPOINT_STENCIL)
    along the last axis; leading axes broadcast, one correction per row."""
    h = _STEP
    gm2, gm1, gp1, gp2 = np.moveaxis(np.asarray(g_stencil), -1, 0)
    d1 = (gm2 - 8.0 * gm1 + 8.0 * gp1 - gp2) / (12.0 * h)
    d3 = (gp2 - 2.0 * gp1 + 2.0 * gm1 - gm2) / (2.0 * h ** 3)
    return d1 / 24.0 - 7.0 * d3 / 5760.0


def midpoint_tail(g, start, brute, integral=None):
    """sum_{m >= start} g(m) for g smooth and integrable in a real m.

    The first ``brute`` terms are summed directly; the rest is completed by
    the midpoint Euler-Maclaurin rule

        int_a^inf g + g'(a)/24 - 7 g'''(a)/5760,   a = start + brute - 1/2,

    with g' and g''' from ``midpoint_correction``.  ``integral`` is
    int_a^inf g when the caller has it in closed form; otherwise it is
    integrated numerically.  ``g`` maps an ndarray of m to an ndarray.
    """
    a = start + brute - 0.5
    head = float(np.sum(g(np.arange(start, start + brute, dtype=float))))
    if integral is None:
        integral = quad_to_inf(g, a, abs_tol=1e-16, rel_tol=1e-12)
    return float(head + integral
                 + midpoint_correction(g(a + MIDPOINT_STENCIL)))
