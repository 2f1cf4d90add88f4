"""Series helpers: acceleration of alternating sums, ordered sums, running
products, iterated partial sums and the midpoint Euler-Maclaurin
completion of truncated sums."""

import math

import numpy as np

from ._quadrature import exp_sinh_to_inf
from .errors import DomainError


def alternating_sum(term, n_terms=28):
    """Accelerated value of sum_{k>=0} (-1)^k term(k), one value per entry
    of term's leading axes; ``term`` maps the integer array k = 0..n-1,
    n = n_terms, to an array whose last axis is k.

    Chebyshev-polynomial acceleration (Cohen, Rodriguez Villegas & Zagier
    2000, algorithm 1); for totally monotone term sequences the error
    decays like (3 + sqrt(8))^(-n), so the default 28 terms reach full
    double precision.  The weights are c_k / d with b_0 = -1,
    b_k = b_(k-1) (k-1+n)(k-1-n) / ((k-1/2) k) and c_k = b_k - c_(k-1) from
    c_(-1) = -d, i.e. (-1)^k c_k = d + sum_(j<=k) (-1)^j b_j.
    """
    n = n_terms
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -running_product(
        lambda k: (k - 1.0 + n) * (k - 1.0 - n) / ((k - 0.5) * k), n)
    sign = (-1.0) ** np.arange(n)
    weights = sign * (d + np.cumsum(sign * b)) / d
    return ordered_sum(term(np.arange(n)) * weights)


def ordered_sum(terms):
    """Sum over the last axis in index order (a running sum), so each
    row's bits do not depend on the other rows or on the array's shape."""
    return np.add.accumulate(terms, axis=-1)[..., -1]


def running_product(ratio, n):
    """a_k for k < n with a_0 = 1 and a_k = a_(k-1) ratio(k): ``ratio`` on
    the float array k = 1..n-1, multiplied up in place."""
    out = np.arange(float(n))
    out[1:] = ratio(out[1:])
    out[0] = 1.0
    return np.multiply.accumulate(out, out=out)


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


# offsets of the 4-point central stencil of step 1/8 around a midpoint a
_STEP = 0.125
MIDPOINT_STENCIL = _STEP * np.array([-2.0, -1.0, 1.0, 2.0])


def midpoint_tail(g, start, brute, integral=None):
    """sum_{m >= start} g(m) for g smooth and integrable in a real m.

    The first ``brute`` terms are summed directly; the rest is completed by
    the midpoint Euler-Maclaurin rule

        int_a^inf g + g'(a)/24 - 7 g'''(a)/5760,   a = start + brute - 1/2,

    with g' and g''' from central differences on a + MIDPOINT_STENCIL.
    ``integral`` is int_a^inf g in closed form, or else it is taken by
    ``_quadrature.exp_sinh_to_inf``, which raises ConvergenceError rather
    than return a non-finite or unconverged value.  ``g`` maps an ndarray
    of m to values along the last axis; leading axes make one sum per row.
    """
    a = start + brute - 0.5
    head = g(np.arange(start, start + brute, dtype=float)).sum(axis=-1)
    if integral is None:
        integral = exp_sinh_to_inf(g, a)
    h = _STEP
    gm2, gm1, gp1, gp2 = np.moveaxis(g(a + MIDPOINT_STENCIL), -1, 0)
    d1 = (gm2 - 8.0 * gm1 + 8.0 * gp1 - gp2) / (12.0 * h)
    d3 = (gp2 - 2.0 * gp1 + 2.0 * gm1 - gm2) / (2.0 * h ** 3)
    return head + integral + (d1 / 24.0 - 7.0 * d3 / 5760.0)
