"""Representing measures of generalized Stieltjes functions.

A measure mu is stored as atoms + a piecewise-polynomial density on
bounded cells + an optional analytic tail model that holds all mass beyond
them, together with the order lam of the transform
f(x) = int dmu(t)/(x+t)^lam + c.  Interval integrals use closed forms; the
infinite catalog measures (alternating gaps, eventually periodic or constant
densities, cell or atom coefficients given by a smooth callable) are
truncated at a cap and completed with midpoint Euler-Maclaurin corrections
so the truncation error stays far below the contract tolerances.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._quadrature import EXP_SINH_LEVELS, _nested_levels, vectorized
from ._series import (MIDPOINT_STENCIL, iterate_sums, midpoint_tail,
                      running_product)
from .errors import CapTooSmallError, ConvergenceError, DomainError
from .specfun import _LGAMMA_C, _even_series, _like, _positive

_MAX_DEGREE = 8
_CLASS_BLOCK = 256  # residue classes per block of a _LatticeSum


def _pow_diff(a, h, p):
    """(a + h)^p - a^p without cancellation, for a > 0, h >= 0."""
    a = np.asarray(a, dtype=float)
    return a ** p * np.expm1(p * np.log1p(h / a))


def _exp_neg_product(a, t):
    """e^(-a t) for a, t >= 0 with the rounding of a t avoided.

    A rounded product of size P is off by up to P * 1.1e-16, which e^(-P)
    turns into a relative error of the same size (1.5e-14 at P = 138).
    Veltkamp splitting leaves 26-bit halves whose product a_hi t_hi is
    exact; the cross terms are ~1e-8 P, so their rounding is harmless.
    ``a`` and ``t`` broadcast to an array, which is built in place: no
    more than two arrays of its size are alive at once."""
    def split(v):
        v = np.asarray(v, dtype=float)
        c = 134217729.0 * v  # 2^27 + 1
        hi = c - (c - v)
        return hi, v - hi

    a_hi, a_lo = split(a)
    t_hi, t_lo = split(t)
    cross = a_hi * t_lo
    cross += a_lo * t
    np.negative(cross, out=cross)
    # the cap binds only where a t > 1e10 and the first factor is 0
    np.minimum(cross, 700.0, out=cross)
    head = a_hi * t_hi
    np.negative(head, out=head)
    np.exp(head, out=head)
    head *= np.exp(cross, out=cross)
    return head


def _exp_moments(t, length, max_j):
    """m_j(t) = int_0^L e^(-t s) s^j ds for j = 0..max_j and t > 0; ``t``
    and ``length`` broadcast (rows of lengths against a vector of t) to an
    array."""
    t = np.asarray(t, dtype=float)
    length = np.asarray(length, dtype=float)
    neg_tl = -t * length
    first = np.expm1(neg_tl)
    first /= -t
    out = [first]
    if max_j == 0:
        return out
    decay = np.exp(neg_tl)
    # below t L ~ 1e-150 this overflows; the series below replaces it there
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, max_j + 1):
            out.append((j * out[j - 1] - length ** j * decay) / t)
    # the upward recurrence cancels for t L below about j, losing a factor
    # ~ j / (t L) a step (1e-8 at j = 8, t L = 1/2).  For t L < max_j + 1,
    # m_j = L^(j+1) e^(-tL) S_j(tL) instead, with S_J = sum_k x^k /
    # ((J+1)...(J+1+k)) for the top degree J and S_(j-1) = (x S_j + 1) / j
    # downward: all terms are positive, so nothing cancels.
    small = neg_tl > -(max_j + 1.0)
    if not np.any(small):
        return out
    x = -neg_tl[small]
    scale = np.broadcast_to(length, neg_tl.shape)[small]
    weight = decay[small] * scale
    # term k over term 0 is prod_i x / (J + 1 + i) <= 1e-17 once the ratio
    # is below 1/2, and term 0 = 1 / (J + 1) <= S_J bounds the tail
    x_max = float(np.max(x))
    n_terms, ratio = 0, 1.0
    while ratio > 1e-17 or 2.0 * x_max >= max_j + 2 + n_terms:
        n_terms += 1
        ratio *= x_max / (max_j + 1 + n_terms)
    term = np.full_like(x, 1.0 / (max_j + 1))
    ser = term.copy()
    for k in range(max_j + 2, max_j + 2 + n_terms):
        term *= x / k
        ser += term
    for j in range(max_j, 0, -1):
        out[j][small] = weight * scale ** j * ser
        ser = (x * ser + 1.0) / j
    return out


@dataclass(frozen=True, eq=False)
class _LatticeSum:
    """sum_i e^(-a_i t) sum_j c_ij m_j(t; L_i) over cells [a_i, a_i + L_i),
    with m_j the moments of ``_exp_moments``, or sum_i c_i e^(-a_i t) over
    atoms at a_i (``lengths`` None), factored on a lattice.

    Each a_i is A_k + r, with A_k one of the ascending ``anchors`` and the
    residue r exact.  The cells are grouped in classes of equal (r, L):
    ``residues`` and ``lengths`` hold one class each, in ascending r, and
    ``coeffs[k, c, j]`` the coefficient c_ij of the cell of class c on
    anchor k (0 where there is none).  So the sum is
    sum_k e^(-A_k t) sum_(c, j) coeffs[k, c, j] e^(-r_c t) m_j(t; L_c),
    one exp row per anchor and one row per class and degree, where summing
    cell by cell takes one exp and one moment row per cell.
    """

    anchors: np.ndarray
    residues: np.ndarray
    lengths: np.ndarray
    coeffs: np.ndarray

    def __call__(self, t):
        """The sum at an array of t > 0, in its shape.  The classes enter
        _CLASS_BLOCK at a time, and a block only at the t with
        t (A_0 + min r) <= 746: beyond that e^(-a t) underflows to exactly
        0 for all its cells.  The t are taken in ascending order, so those
        are a leading slice."""
        order = np.argsort(t, axis=None)
        ts = t.ravel()[order]
        acc = np.zeros((len(self.anchors), len(ts)))
        for lo in range(0, len(self.residues), _CLASS_BLOCK):
            n_t = np.count_nonzero(
                ts * (self.anchors[0] + self.residues[lo]) <= 746.0)
            if not n_t:
                break  # later blocks start further right
            acc[:, :n_t] += self._block(slice(lo, lo + _CLASS_BLOCK),
                                        ts[:n_t])
        out = np.empty_like(ts)
        out[order] = np.sum(_exp_neg_product(self.anchors[:, None], ts) * acc,
                            axis=0)
        return out.reshape(t.shape)

    def _block(self, block, t):
        """sum_(c, j) coeffs[:, c, j] e^(-r_c t) m_j(t; L_c) over the
        classes c of ``block``: one row per anchor.  The moments are taken
        before the exp rows, so the temporaries of the two helpers are
        never alive together."""
        if self.lengths is None:
            return self.coeffs[:, block, 0] @ _exp_neg_product(
                self.residues[block, None], t)
        rows = _exp_moments(t, self.lengths[block, None],
                            self.coeffs.shape[2] - 1)
        decay = _exp_neg_product(self.residues[block, None], t)
        return sum(self.coeffs[:, block, j] @ np.multiply(row, decay, out=row)
                   for j, row in enumerate(rows))


def _lattice_sum(lefts, lengths, coeffs):
    """The ``_LatticeSum`` of cells with strictly ascending left ends
    ``lefts`` >= 0, ``lengths`` and coefficient rows ``coeffs``, or of
    atoms at ``lefts`` with masses coeffs[:, 0] (``lengths`` None).

    The lattice is read off the cells.  A grid of power-of-two spacing P
    puts a cell in [k P, (k + 1) P), and [0, P) is also cut at the powers
    of two; the first left end of each part is its anchor.  An anchor and
    the cells it holds then share a binade, so r = a - A is exact
    (Sterbenz), and on a lattice of left ends the same r recur from part
    to part.  The estimated cost per t is one exp row per anchor, about
    two per class and degree, and the matrix product.  On a lattice with
    one left end per period it is least near P = span / sqrt(2 J n) for n
    cells of J coefficients, and P is the power of two nearest that.  The
    grid is taken if it costs less than one anchor at 0 with one class
    per cell (r = a: the cell-by-cell sum, for layouts on no lattice).
    """
    n, n_cols = coeffs.shape
    width = np.zeros(n) if lengths is None else lengths

    def cost(n_anchors, n_classes):
        return n_anchors + n_classes * n_cols * (2.0 + n_anchors / 256.0)

    anchors, group, inverse = np.zeros(1), np.zeros(n, dtype=int), np.arange(n)
    residues, class_width = lefts, width
    span = lefts[-1] - lefts[0] if n else 0.0
    if span > 0.0:
        spacing = 2.0 ** round(math.log2(span / math.sqrt(2.0 * n_cols * n)))
        first = np.concatenate([[True], (np.diff(np.floor(
            lefts / spacing)) != 0) | (np.diff(np.frexp(lefts)[1]) != 0)])
        part = np.cumsum(first) - 1
        r = lefts - lefts[first][part]
        order = np.lexsort((width, r))
        r, w = r[order], width[order]
        new = np.concatenate([[True], (np.diff(r) != 0) | (np.diff(w) != 0)])
        if cost(part[-1] + 1, np.count_nonzero(new)) < cost(1, n):
            anchors, group = lefts[first], part
            inverse[order] = np.cumsum(new) - 1
            residues, class_width = r[new], w[new]
    table = np.zeros((len(anchors), len(residues), n_cols))
    table[group, inverse] = coeffs
    return _LatticeSum(anchors, residues,
                       None if lengths is None else class_width, table)


@dataclass(frozen=True, eq=False)
class PiecewisePolynomial:
    """Breakpoints with per-interval coefficient rows in local coordinates.

    Row i holds the polynomial on [breakpoints[i], breakpoints[i+1]) in the
    variable s = t - breakpoints[i]; the polynomial is zero outside
    [breakpoints[0], breakpoints[-1]).  Evaluation is right-continuous.
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        co = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", co)
        if bp.ndim != 1 or len(bp) < 2:
            raise DomainError("need at least two breakpoints")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(co))):
            raise DomainError("breakpoints and coefficients must be finite")
        if np.any(np.diff(bp) <= 0):
            raise DomainError("breakpoints must be strictly increasing")
        if bp[0] < 0:
            raise DomainError("breakpoints must be nonnegative")
        if co.shape[0] != len(bp) - 1:
            raise DomainError(
                f"expected {len(bp) - 1} coefficient rows, got {co.shape[0]}")
        if co.shape[1] > _MAX_DEGREE + 1:
            raise DomainError("polynomial degree too high")

    @property
    def degree(self):
        return self.coeffs.shape[1] - 1

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        n_cells = len(self.breakpoints) - 1
        row = np.clip(idx, 0, n_cells - 1)
        s = t - self.breakpoints[row]
        rows = self.coeffs[row]
        acc = np.zeros_like(t, dtype=float)
        for j in range(self.coeffs.shape[1] - 1, -1, -1):
            acc = acc * s + rows[..., j]
        val = np.where((idx >= 0) & (idx < n_cells), acc, 0.0)
        return val if val.ndim else float(val)

    def integrate_power(self, x, lam):
        """int p(t) (x + t)^(-lam) dt over the support, closed form;
        broadcasts over an array of x."""
        x = np.asarray(x, dtype=float)
        X = x[..., None] + self.breakpoints[:-1]
        L = np.diff(self.breakpoints)
        n_cols = self.coeffs.shape[1]
        basics = []
        for i in range(n_cols):
            p = i - lam + 1.0
            if abs(p) < 1e-12:
                basics.append(np.log1p(L / X))
            else:
                basics.append(_pow_diff(X, L, p) / p)
        total = np.zeros_like(x)
        for j in range(n_cols):
            cj = self.coeffs[:, j]
            if not np.any(cj):
                continue
            acc = np.zeros_like(X)
            for i in range(j + 1):
                acc += math.comb(j, i) * (-X) ** (j - i) * basics[i]
            total += np.sum(cj * acc, axis=-1)
        return total if total.ndim else float(total)

    @cached_property
    def _cell_sum(self):
        """The ``_LatticeSum`` of the nonzero cells (an all-zero cell
        contributes nothing)."""
        live = np.any(self.coeffs != 0.0, axis=1)
        return _lattice_sum(self.breakpoints[:-1][live],
                            np.diff(self.breakpoints)[live], self.coeffs[live])

    def laplace(self, t):
        """int e^(-t s) p(s) ds over the support, vectorized in t > 0."""
        return self._cell_sum(np.atleast_1d(np.asarray(t, dtype=float)))

    def mass(self):
        """int p over the support: sum_j c_j L^(j+1) / (j+1) per cell."""
        lengths = np.diff(self.breakpoints)[:, None]
        powers = np.arange(1.0, self.coeffs.shape[1] + 1.0)
        return float(np.sum(self.coeffs * lengths ** powers / powers))


def _check_nonneg(pp, name):
    """Raise DomainError where the piecewise polynomial ``pp`` is negative.

    Checks the values at both ends of every cell and, for degree 2, at the
    vertex s* = -c1 / (2 c2) of each cell with c2 > 0, clipped to the
    cell: a polynomial of degree <= 2 has its minimum on a cell at one of
    these, so the check is exact there.  Degrees >= 3 add 1,000 samples."""
    bp, co = pp.breakpoints, pp.coeffs
    lengths = np.diff(bp)
    polyval = np.polynomial.polynomial.polyval
    ts = [bp[:-1], bp[1:]]
    vals = [co[:, 0], polyval(lengths, co.T, tensor=False)]
    if pp.degree == 2:
        up = co[:, 2] > 0.0
        vertex = np.clip(-co[up, 1] / (2.0 * co[up, 2]), 0.0, lengths[up])
        ts.append(bp[:-1][up] + vertex)
        vals.append(polyval(vertex, co[up].T, tensor=False))
    elif pp.degree >= 3:
        sample = np.linspace(bp[0], bp[-1], 1000)
        ts.append(sample)
        vals.append(pp(sample))
    ts, vals = np.concatenate(ts), np.concatenate(vals)
    floor = -1e-9 * (1.0 + np.max(np.abs(vals)))
    if not np.min(vals) >= floor:  # a NaN fails, and argmin finds it first
        bad = int(np.argmin(vals))
        raise DomainError(
            f"{name} is negative at t={ts[bad]:.6g}: {vals[bad]:.3e}")


def _pochhammer_coef(k, s):
    """(1-s)_k / k! = Gamma(k+1-s) / (Gamma(1-s) Gamma(k+1)), smooth in a
    real k."""
    return _gamma_ratio_shift(np.asarray(k, dtype=float) + 1.0, s) / \
        math.gamma(1.0 - s)


def _gamma_ratio_shift(z, s):
    """Gamma(z - s) / Gamma(z) for 0 < s < 1 and z >= 50, smooth in z.

    Two log-gammas of about 1e4 differ by a few units, so the exp of their
    difference jitters by ~1e-12 between neighbouring z, and adaptive
    quadratures of the coefficient never converge.  The difference of the
    Stirling series is taken term by term instead (four terms, truncation
    below 1e-19 for z >= 50), with the power (z - s)^(-s) kept apart.  The
    caller's tail starts at _CELL_CAP = 2048 and the midpoint stencil
    reaches start - 0.75, so z >= 2048.25.
    """
    def series(y):
        """sum_n B_2n / (2n (2n - 1)) y^(1 - 2n), n = 1..4."""
        return _even_series(_LGAMMA_C[:4], 1.0 / (y * y)) * y

    z = np.asarray(z, dtype=float)
    w = z - s
    expo = (z - 0.5) * np.log1p(-s / z) + s + series(w) - series(z)
    return w ** -s * np.exp(expo)


@dataclass(frozen=True, eq=False)
class GapTail:
    """Density ``weight`` on the gaps (a_{2n}, a_{2n+1}), a_k = offset + step*k,
    for n >= start; the analytic tail of an alternating-gap measure
    with affine locations."""

    offset: float
    step: float
    weight: float
    start: int
    brute = 512  # gaps summed directly before the midpoint completion

    @property
    def mean(self):
        return 0.5 * self.weight

    def stieltjes(self, x, order):
        h, w = self.step, self.weight
        A = x + self.offset + 2.0 * h * (self.start + self.brute - 0.5)
        if abs(order - 2.0) < 1e-12:
            integral = (w / (2.0 * h)) * np.log1p(h / A)
        else:
            integral = (w / (order - 1.0)) * \
                _pow_diff(A, h, 2.0 - order) / (2.0 * h * (2.0 - order))
        x_row = np.asarray(x)[..., None] + self.offset
        return midpoint_tail(lambda n: -(w / (order - 1.0)) * _pow_diff(
            x_row + 2.0 * h * n, h, 1.0 - order), self.start, self.brute,
            integral)

    def laplace(self, t):
        h = self.step
        a0 = self.offset + 2.0 * h * self.start
        # expm1(-h t) / expm1(-2 h t) = 1 / (1 + e^(-h t)), finite as t -> 0
        return self.weight * np.exp(-t * a0) / (t * (1.0 + np.exp(-h * t)))


@dataclass(frozen=True, eq=False)
class PeriodicTail:
    """Density equal to ``profile`` (defined on [0, period]) repeated with
    period ``period`` on [start, inf); a constant density on [start, inf)
    is the period-1 case with a constant profile."""

    start: float
    period: float
    profile: PiecewisePolynomial
    brute = 64  # periods summed directly before the midpoint completion

    def __post_init__(self):
        if abs(self.profile.breakpoints[-1] - self.period) > 1e-12:
            raise DomainError("profile must span exactly one period")
        _check_nonneg(self.profile, "periodic profile")
        co = self.profile.coeffs.copy()
        co[:, 0] -= self.mean  # the residual has mass 0 per period
        object.__setattr__(self, "_residual", PiecewisePolynomial(
            self.profile.breakpoints, co))

    @cached_property
    def mean(self):
        return self.profile.mass() / self.period

    def stieltjes(self, x, order):
        X0 = x + self.start
        Xr = np.asarray(X0)[..., None]  # X0 against the m axis
        p, resid = self.period, self._residual
        Xa = X0 + p * (self.brute - 0.5)
        integral = resid.integrate_power(Xa, order - 1.0) / (p * (order - 1.0))
        return self.mean * X0 ** (1.0 - order) / (order - 1.0) + midpoint_tail(
            lambda m: resid.integrate_power(Xr + p * m, order), 0, self.brute,
            integral)

    def laplace(self, t):
        cell = self.profile.laplace(t)
        return -cell * _exp_neg_product(self.start, t) / \
            np.expm1(-self.period * t)


def _constant_tail(start, value):
    """Density ``value`` on [start, inf), as a period-1 tail."""
    return PeriodicTail(start=float(start), period=1.0,
                        profile=PiecewisePolynomial(np.array([0.0, 1.0]),
                                                    np.array([[value]])))


_M_FAR = 2.0 ** 500  # largest m handed to a coefficient by _CoefTail.laplace


@dataclass(frozen=True, eq=False)
class _CoefTail:
    """Mass coef(m) on a unit at each integer m >= start, with ``coef`` a
    smooth function mapping an ndarray of real m to an ndarray; subclasses
    fix the unit.  The sign check is sampled: coef on the points the sums
    read (brute range, midpoint stencils, _M_FAR/2 and _M_FAR) must be
    finite and >= 0, else DomainError."""

    start: int
    coef: Callable
    brute = 512  # units summed directly before the midpoint completion

    def __post_init__(self):
        a, b = self.start - 0.5, self.start + self.brute - 0.5
        v = self.coef(np.concatenate([np.arange(self.start, b), [
            0.5 * _M_FAR, _M_FAR], a + MIDPOINT_STENCIL, b + MIDPOINT_STENCIL]))
        if not np.all((0.0 <= v) & (v < math.inf)):
            raise DomainError("tail coefficients must be finite and >= 0")

    def _sum(self, x, unit):
        """sum_{m >= start} coef(m) unit(x + m), one sum per entry of x."""
        x_row = np.asarray(x)[..., None]
        return midpoint_tail(lambda m: self.coef(m) * unit(x_row + m),
                             self.start, self.brute)

    def laplace(self, t):
        """sum_{m >= start} coef(m) e^(-m t) times the unit's transform, for
        a vector of t > 0.

        The midpoint completion with no direct terms: with a = start - 1/2
        and m = a + w/t, int_a^inf coef(m) e^(-m t) dm is
        e^(-a t)/t int_0^inf coef(a + w/t) e^(-w) dw, taken by
        ``_w_integral``.  The t where e^(-(start - 3/4) t), the smallest
        stencil point's factor, is 0 read 0, as all their terms do; a sum
        beyond the float range reads inf.
        """
        out = np.zeros_like(t)
        rows = np.exp(-t * (self.start - 0.75)) > 0.0
        t = t[rows]
        integral = self._w_integral(t)
        with np.errstate(over="ignore"):
            integral *= np.exp(-(self.start - 0.5) * t) / t
        sums = midpoint_tail(lambda m: self.coef(m) * np.exp(-t[:, None] * m),
                             self.start, 0, integral)
        out[rows] = sums * self._unit_laplace(t)
        return out

    def _w_integral(self, t):
        """int_0^inf coef(a + w/t) e^(-w) dw, a = start - 1/2, per t, by
        ``_nested_levels`` on EXP_SINH_LEVELS.

        coef(a + w/t) turns from coef(a) to its decay at w = a t, so a
        row's knee is |log(a t)| (gamma-reciprocal s = 0.9 at t = 1e-100
        closed 5e-11 off at step 1/32 without it).  Rows that no level
        closes raise ConvergenceError, except those whose knee needs a step
        finer than 1/256 (a t < e^-256): they keep the step-1/512 value.
        Beyond m = _M_FAR, which only t < 2e-149 reach and where w/t would
        overflow for the smallest t, coef is continued as the power of m
        that it has between _M_FAR/2 and _M_FAR (the catalog's constant,
        affine and m^(-s)-like coefficients follow it to 1e-140).
        """
        a = self.start - 0.5
        ends = self.coef(np.array([0.5 * _M_FAR, _M_FAR]))
        power = np.log2(ends[1] / ends[0])
        knee = np.abs(np.log(a * t))

        def level_sum(level, w, h, rows):
            tc = t[rows, None]
            near = np.minimum(w, tc * _M_FAR)
            return self.coef(a + near / tc) * (w / near) ** power @ h
        with np.errstate(over="ignore", invalid="ignore"):
            total, closed = _nested_levels(
                EXP_SINH_LEVELS, level_sum, knee,
                what=f"coefficient tail from {self.start}")
        open_rows = (closed == 0) & (knee <= 256.0)
        if open_rows.any():
            raise ConvergenceError(
                f"coefficient tail from {self.start} did not converge at "
                f"t = {t[open_rows][0]:.3e}: steps 1/256 and 1/512 differ")
        return total


@dataclass(frozen=True, eq=False)
class SmoothCoefTail(_CoefTail):
    """Degree-0 density coef(m) on the unit cell (m, m+1) for integer
    m >= start, with coef a smooth function of a real argument."""

    def stieltjes(self, x, order):
        return self._sum(
            x, lambda xm: -_pow_diff(xm, 1.0, 1.0 - order) / (order - 1.0))

    @staticmethod
    def _unit_laplace(t):
        return -np.expm1(-t) / t


@dataclass(frozen=True, eq=False)
class AtomTail(_CoefTail):
    """Unit-spaced atoms at integers n >= start with mass coef(n)."""

    def stieltjes(self, x, order):
        return self._sum(x, lambda xm: xm ** (-order))

    @staticmethod
    def _unit_laplace(t):
        return 1.0


@dataclass(frozen=True, eq=False)
class RepresentingMeasure:
    """mu in f(x) = int dmu(t) / (x+t)^order + constant; ``atoms`` is a
    sequence of (t, mass) pairs, kept as a read-only (n, 2) float array.
    A tail holds infinite mass, so it needs order > 1 (DomainError)."""

    order: float
    atoms: np.ndarray = ()
    density: PiecewisePolynomial = None
    constant: float = 0.0
    tail: object = None

    def __post_init__(self):
        if not self.order > 0:
            raise DomainError("order must be positive")
        if self.tail is not None and not self.order > 1:
            raise DomainError("a measure with a tail needs order > 1")
        if not 0 <= self.constant < math.inf:
            raise DomainError("constant must be finite and nonnegative")
        atoms = np.array(self.atoms, dtype=float).reshape(-1, 2)
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        locs, masses = atoms.T
        if not np.all(np.isfinite(atoms)):
            raise DomainError("atoms must be finite")
        if np.any(locs < 0) or np.any(np.diff(locs) <= 0):
            raise DomainError("atom locations must be >= 0, strictly increasing")
        if np.any(masses <= 0):
            raise DomainError("atom masses must be positive")
        if self.density is not None:
            _check_nonneg(self.density, "density")

    def __call__(self, x):
        return stieltjes_eval(self, x)

    @cached_property
    def _atom_sum(self):
        """The ``_LatticeSum`` of the atoms."""
        locs, masses = self.atoms.T
        return _lattice_sum(locs, None, masses[:, None])


def stieltjes_eval(m, x):
    """f(x) = int dmu(t)/(x+t)^order + c for a RepresentingMeasure: a float
    for a positive scalar x, an array of x's shape for an array, in one
    pass whose every part broadcasts over x."""
    xs = _positive(x)
    x = xs if xs.ndim else float(xs)
    total = m.constant + 0.0 * x  # a float, or an array of x's shape
    if len(m.atoms):
        locs, masses = m.atoms.T
        total += (masses * (xs[..., None] + locs) ** (-m.order)).sum(axis=-1)
    if m.density is not None:
        total += m.density.integrate_power(x, m.order)
    if m.tail is not None:
        total += m.tail.stieltjes(x, m.order)
    return _like(xs, total)


@dataclass(frozen=True, eq=False)
class CmKernel:
    """kappa(t) = int e^(-ts) dmu(s), the completely monotonic kernel of mu."""

    measure: RepresentingMeasure

    def __call__(self, t):
        ts = _positive(t)
        t = np.atleast_1d(ts)
        m = self.measure
        total = np.zeros_like(t)
        if len(m.atoms):
            total += m._atom_sum(t)
        if m.density is not None:
            total += m.density.laplace(t)
        if m.tail is not None:
            total += m.tail.laplace(t)
        return _like(ts, total.reshape(ts.shape))


def stieltjes_via_kernel(m, x):
    """f(x) = c + (1/Gamma(order)) int e^(-xt) t^(order-1) kappa(t) dt at
    one x, by ``_nested_levels`` on EXP_SINH_LEVELS in w = x t.

    The far field C/t of kappa (C = lim t kappa(t), the tail's mean density)
    is taken out as C e^(-t)/t, which leaves nothing at large t to cancel,
    and added back as C Gamma(order-1) (1+x)^(1-order).  Each level calls
    kappa once, on its new t only.  Level 0 marks the span of w where its
    terms exceed 1e-18 of f(x); later levels skip the nodes beyond it.
    Nodes with t < 1e-150 contribute 0.  What kappa does around t = 1
    sits at w = x, so the knee is 2 |log x| (with none, the sqrt locations
    closed 2e-12 off at x = 1e-8).  The sum has the far field taken out
    and can cancel, so its offset makes the levels agree relative to f(x).
    Raises ConvergenceError when f(x) is not finite or no level closes
    (always for x below 1e-111 or above 1e111).
    """
    xs = _positive(x)
    if xs.ndim:
        raise DomainError("stieltjes_via_kernel takes one x")
    x = float(xs)
    order = m.order
    far = getattr(m.tail, "mean", 0.0)  # coefficient tails take none out
    kappa = CmKernel(m)
    head = m.constant
    if far:
        head += far * (1.0 + x) ** (1.0 - order) / (order - 1.0)
    unit = 1.0 / (x * math.gamma(order))  # f(x) = head + unit * integral
    lo, hi = 0.0, math.inf

    def level_sum(level, w, h, rows):
        nonlocal lo, hi
        keep = (w / x >= 1e-150) & (lo <= w) & (w <= hi)
        t = w[keep] / x
        terms = h[keep] * t ** (order - 1.0) * (
            kappa(t) - far * np.exp(-t) / t)
        part = np.sum(terms)
        if level == 0:
            step = EXP_SINH_LEVELS[0][0]
            value = head + unit * (step * part)
            big = np.flatnonzero(
                step * unit * np.abs(terms) > 1e-18 * abs(value))
            if big.size:
                w0 = w[keep]
                lo = w0[big[0] - 1] if big[0] else lo
                hi = w0[big[-1] + 1] if big[-1] + 1 < w0.size else hi
        return part
    with np.errstate(over="ignore", invalid="ignore"):
        total, closed = _nested_levels(
            EXP_SINH_LEVELS, level_sum, 2.0 * abs(math.log(x)), head / unit,
            what=f"kernel route at x={x}")
    value = head + unit * float(total[0])
    if not (math.isfinite(value) and closed[0]):
        raise ConvergenceError(f"kernel route did not converge at x={x}: "
                               f"no level up to step 1/512 resolves w = x "
                               f"and agrees with the one before")
    return value


# ---------------------------------------------------------------------------
# constructors for the catalog measures
# ---------------------------------------------------------------------------

_GAP_CAP = 2048      # gaps of an alternating measure before its tail
_ATOM_CAP = 512      # atoms before the atom tail
_CELL_CAP = 2048     # cells of the gamma-reciprocal density before its tail
_CESARO_CAP = 4096   # Cesaro sums s^(k) before the tail rule


def measure_alternating(a, lam):
    """Representing measure of sum (-1)^n (x + a_n)^(-lam): weight lam on
    the gaps (a_2n, a_2n+1).

    ``a`` is a finite nondecreasing sequence (even length: plain gaps; odd
    length: a trailing interval [a_last, inf)) or a callable n -> a_n for the
    infinite case; the callable gets the float array n = 0..4097 once, or
    one n at a time if it only takes scalars.  Its locations must be affine
    there: the first 2048 gaps are cells and the rest an exact analytic
    tail.  Any other callable raises CapTooSmallError, so the measure is
    never truncated.  The measure has order lam + 1.
    """
    if not 0 < lam <= 1:
        raise DomainError("lam must be in (0, 1]")
    n_pts = 2 * _GAP_CAP
    pts = np.asarray(vectorized(a)(np.arange(n_pts + 2.0)) if callable(a)
                     else a, dtype=float)
    if not (np.all(np.isfinite(pts)) and np.all(np.diff(pts) >= 0)):
        raise DomainError("location sequence must be finite, nondecreasing")
    tail = None
    if callable(a):
        if not (np.max(np.abs(np.diff(pts, 2)))
                < 1e-12 * (1 + np.max(np.abs(pts)))):
            raise CapTooSmallError(
                f"locations not affine by n={n_pts + 1}: no exact gap tail")
        tail = GapTail(offset=float(pts[0]), step=float(pts[1] - pts[0]),
                       weight=lam, start=_GAP_CAP)
        pts = pts[:n_pts]
    # collapse zero-length gaps (pts[i], pts[i+1]), i = len(pts) % 2 + 2j
    first = len(pts) % 2
    empty = first + 2 * np.flatnonzero(np.diff(pts)[first::2] == 0.0)
    pts = np.delete(pts, np.concatenate([empty, empty + 1]))
    if len(pts) % 2 == 1:
        tail = _constant_tail(pts[-1], lam)
    density = None
    if len(pts) >= 2:
        # weight lam and 0 in turn between consecutive points, 0 below them
        levels = lam * (1.0 - np.arange(len(pts) - 1) % 2)
        if pts[0] > 0:
            pts, levels = np.append(0.0, pts), np.append(0.0, levels)
        density = PiecewisePolynomial(pts, levels[:, None])
    return RepresentingMeasure(order=lam + 1.0, density=density, tail=tail)


def measure_integer_atoms(mass=1.0):
    """mu = sum_n mass * eps_n; with kappa(t) = mass/(1 - e^(-t))."""
    atoms = np.stack([np.arange(_ATOM_CAP), np.full(_ATOM_CAP, mass)], axis=1)
    return RepresentingMeasure(
        order=2.0, atoms=atoms,
        tail=AtomTail(start=_ATOM_CAP, coef=lambda k: np.full_like(
            np.asarray(k, dtype=float), mass)))


def convolve_box(a, b):
    """The trapezoid chi_(0,a) * chi_(0,b) as a piecewise polynomial."""
    if a < 0 or b < 0:
        raise DomainError("box widths must be nonnegative")
    if a == 0.0 or b == 0.0:
        return PiecewisePolynomial(np.array([0.0, 1.0]), np.array([[0.0]]))
    lo, hi = min(a, b), max(a, b)
    bps = np.array([0.0, lo, hi, lo + hi])
    rows = np.array([[0.0, 1.0], [lo, 0.0], [lo, -1.0]])
    # equal widths, or one below half an ulp of the other, leave empty cells
    keep = np.diff(bps) > 0
    return PiecewisePolynomial(np.append(bps[:-1][keep], bps[-1]), rows[keep])


def _trapezoid_train(shifts, a, b, lo, hi):
    """sum_z trap(t - z) on [lo, hi) with exact linear rows, trap =
    convolve_box(a, b); the cells are cut at every knot of a shifted box.

    Each box's row is the one live at the midpoint of a cell: knots such as
    k + 1.3 and (k + 1) + 0.3 can round an ulp apart, and at the left end
    of the sliver between them the wrong row would be picked."""
    box = convolve_box(a, b)
    shifts = np.asarray(shifts, dtype=float)
    knots = (shifts[:, None] + box.breakpoints).ravel()
    bps = np.unique(np.concatenate(
        [[lo, hi], knots[(knots > lo) & (knots < hi)]]))
    left = bps[:-1]
    mid = 0.5 * (left + bps[1:])
    rows = np.zeros((len(left), 2))
    for z in shifts:
        idx = np.searchsorted(box.breakpoints, mid - z, side="right") - 1
        live = (idx >= 0) & (idx < len(box.coeffs))
        c0, c1 = box.coeffs[idx[live]].T
        rows[live, 0] += c0 + c1 * (left[live] - z - box.breakpoints[idx[live]])
        rows[live, 1] += c1
    return PiecewisePolynomial(bps, rows)


def measure_gamma_ratio(a, b):
    """Order-2 measure with density g(t) = sum_k trap_{a,b}(t - k) for the
    log Gamma-ratio of two shifts.  The density is tabulated on [0, N),
    N = ceil(a + b); from N on every shift k with trap(t - k) != 0 has
    k >= 0, so g is exactly 1-periodic there and the tail holds it."""
    if a < 0 or b < 0:
        raise DomainError("a and b must be nonnegative")
    if a == 0.0 or b == 0.0:
        return RepresentingMeasure(order=2.0, density=convolve_box(a, b))
    N = math.ceil(a + b)
    density = _trapezoid_train(np.arange(N), a, b, 0.0, float(N))
    # the profile on a period: rho(s) = sum_i trap(s + i)
    profile = _trapezoid_train(-np.arange(N + 1), a, b, 0.0, 1.0)
    return RepresentingMeasure(order=2.0, density=density,
                               tail=PeriodicTail(start=float(N), period=1.0,
                                                 profile=profile))


def measure_genus1_log_ratio(zeros, a, b):
    """Order-2 measure with density sum_n trap_{a,b}(t - z_n) for a finite
    genus-1 zero set; represents log[f(x+a)f(x+b) / (f(x)f(x+a+b))]."""
    zeros = sorted(float(z) for z in zeros)
    if any(z <= 0 for z in zeros):
        raise DomainError("zeros must be strictly positive")
    if a < 0 or b < 0:
        raise DomainError("a and b must be nonnegative")
    if a == 0.0 or b == 0.0 or not zeros:  # the zero density
        return RepresentingMeasure(order=2.0, density=convolve_box(0.0, 0.0))
    return RepresentingMeasure(order=2.0, density=_trapezoid_train(
        zeros, a, b, 0.0, zeros[-1] + (a + b)))


def measure_gamma_reciprocal_ratio(s):
    """Order-2 measure with density (1-s)_k / k! on (k, k+1); times
    1/Gamma(s+1) it represents Gamma(x)/Gamma(x+s+1)."""
    if not 0 < s < 1:
        raise DomainError("s must be in (0, 1)")
    coefs = running_product(lambda k: (k - s) / k, _CELL_CAP)
    bps = np.arange(0.0, _CELL_CAP + 1.0)
    density = PiecewisePolynomial(bps, coefs[:, None])
    return RepresentingMeasure(
        order=2.0, density=density,
        tail=SmoothCoefTail(start=_CELL_CAP,
                            coef=lambda k: _pochhammer_coef(k, s)))


def _spline_rows(s, k):
    """Rows on the unit cells of sum_m s_m k! N_k(t - m), N_k the cardinal
    B-spline of degree k on the knots 0..k+1 and s_m = 0 for m < 0: cell m
    holds sum_(i<=k) s_(m-i) k! N_k(i + u), 0 <= u < 1, whose power-basis
    coefficients are sum_(l<=i) (-1)^l C(k+1, l) C(k, p) (i - l)^(k-p)."""
    table = np.array([[math.comb(k, p) * sum(
        (-1) ** l * math.comb(k + 1, l) * (i - l) ** (k - p)
        for l in range(i + 1)) for p in range(k + 1)] for i in range(k + 1)],
        dtype=float)
    rows = s[:, None] * table[0]
    for i in range(1, k + 1):
        rows[i:] += s[:-i, None] * table[i]
    return rows


def measure_cesaro(a, k, lam):
    """Order lam+k+1 measure of sum a_n/(x+n)^lam under the iterated-sum
    hypotheses (which the caller is responsible for checking).

    Its density ((lam)_(k+1)/k!) sum_j a_j (t-j)_+^k is (lam)_(k+1) sum_m
    s^(k)_m N_k(t-m), N_k the cardinal B-spline of degree k, so it is >= 0
    exactly when s^(k) is.  ``a`` is a callable n -> a_n or a finite array,
    the whole sequence (zero past its end).  The cells end at n + k,
    n = max(4096, len(a)).  If the 64 sums s^(k)_n.. are flat to 1e-12
    (1 + max |s|) after 8 pairwise averagings, the tail takes s^(k) as
    2-periodic from n on (mean the averaged value, alternation half of
    s_n - s_(n+1)).  Else a k = 0 density affine there gets a
    ``SmoothCoefTail``; anything else raises CapTooSmallError, so the
    measure is never truncated.
    """
    if not 0 <= k <= _MAX_DEGREE or int(k) != k:
        raise DomainError(f"k must be an integer in [0, {_MAX_DEGREE}], "
                          f"got {k}")
    if not lam > 0:
        raise DomainError("lam must be positive")
    k, window = int(k), 64
    n = _CESARO_CAP if callable(a) else max(_CESARO_CAP, len(a))
    vals = np.asarray(a(np.arange(n + window)) if callable(a) else
                      np.concatenate([a, np.zeros(n + window - len(a))]),
                      dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("Cesaro coefficients must be finite")
    s = iterate_sums(vals, k)[k]
    scale = math.gamma(lam + k + 1.0) / math.gamma(lam) / math.gamma(k + 1.0)
    r = s_win = s[n:]
    for _ in range(8):
        r = 0.5 * (r[1:] + r[:-1])
    size = 1.0 + np.max(np.abs(s_win))
    if np.ptp(r) <= 1e-12 * size:
        half = 0.5 * (s_win[0] - s_win[1])
        rows = _spline_rows(r[0] + half * (-1.0) ** np.arange(k + 2), k)
        tail = PeriodicTail(start=float(n + k), period=2.0, profile=(
            PiecewisePolynomial(np.array([0.0, 1.0, 2.0]), scale * rows[k:])))
    elif k == 0 and np.max(np.abs(np.diff(s_win, 2))) < 1e-11 * size:
        w = scale * s_win
        slope = float(np.mean(np.diff(w)))
        a0 = float(w[-1] - slope * (n + window - 1))
        tail = SmoothCoefTail(n, lambda m: a0 + slope * np.asarray(m, float))
    else:
        raise CapTooSmallError(f"s^({k}) has no exact tail by n={n + window}")
    density = PiecewisePolynomial(np.arange(n + k + 1.0),
                                  scale * _spline_rows(s[:n + k], k))
    return RepresentingMeasure(order=lam + k + 1.0, density=density, tail=tail)
