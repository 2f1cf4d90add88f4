"""Representing measures of generalized Stieltjes functions.

A measure mu is stored as atoms + a piecewise-polynomial density + an
optional analytic tail model, together with the order lam of the transform
f(x) = int dmu(t)/(x+t)^lam + c.  Interval integrals use closed forms; the
infinite catalog measures (alternating gaps, eventually periodic densities,
smoothly decaying cell coefficients, integer atoms) are truncated at a cap
and completed with midpoint Euler-Maclaurin corrections so the truncation
error stays far below the contract tolerances.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._quadrature import quad
from ._series import midpoint_tail
from .errors import CapTooSmallError, ConvergenceError, DomainError
from .specfun import _LGAMMA_C, _even_series, log_gamma

_MAX_DEGREE = 8


def _pow_diff(a, h, p):
    """(a + h)^p - a^p without cancellation, for a > 0, h >= 0."""
    a = np.asarray(a, dtype=float)
    return a ** p * np.expm1(p * np.log1p(h / a))


def _exp_neg_product(a, t):
    """e^(-a t) for a, t >= 0 with the rounding of a t avoided.

    A rounded product of size P is off by up to P * 1.1e-16, which e^(-P)
    turns into a relative error of the same size (1.5e-14 at P = 138).
    Veltkamp splitting leaves 26-bit halves whose product a_hi t_hi is
    exact; the cross terms are ~1e-8 P, so their rounding is harmless."""
    def split(v):
        v = np.asarray(v, dtype=float)
        c = 134217729.0 * v  # 2^27 + 1
        hi = c - (c - v)
        return hi, v - hi

    a_hi, a_lo = split(a)
    t_hi, t_lo = split(t)
    return np.exp(-(a_hi * t_hi)) * np.exp(-(a_hi * t_lo + a_lo * t))


def _exp_moments(t, length, max_j):
    """m_j(t) = int_0^L e^(-t s) s^j ds for j = 0..max_j and t > 0; ``t``
    and ``length`` broadcast (rows of lengths against a vector of t)."""
    t = np.asarray(t, dtype=float)
    length = np.asarray(length, dtype=float)
    tl = t * length
    out = [-np.expm1(-tl) / t]
    if max_j == 0:
        return out
    decay = np.exp(-tl)
    for j in range(1, max_j + 1):
        out.append((j * out[j - 1] - length ** j * decay) / t)
    # the upward recurrence cancels for t L below about j, losing a factor
    # ~ j / (t L) a step (1e-8 at j = 8, t L = 1/2).  For t L < max_j + 1,
    # m_j = L^(j+1) e^(-tL) S_j(tL) instead, with S_J = sum_k x^k /
    # ((J+1)...(J+1+k)) for the top degree J and S_(j-1) = (x S_j + 1) / j
    # downward: all terms are positive, so nothing cancels.
    small = tl < max_j + 1.0
    if not np.any(small):
        return out
    x = tl[small]
    scale = np.broadcast_to(length, tl.shape)[small]
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
class PiecewisePolynomial:
    """Breakpoints with per-interval coefficient rows in local coordinates.

    Row i holds the polynomial on [breakpoints[i], breakpoints[i+1]) in the
    variable s = t - breakpoints[i].  With ``unbounded`` set, one extra row
    applies on [breakpoints[-1], inf).  Evaluation is right-continuous.
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray
    unbounded: bool = False

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        co = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coeffs", co)
        if bp.ndim != 1 or len(bp) < 2:
            raise DomainError("need at least two breakpoints")
        if np.any(np.diff(bp) <= 0):
            raise DomainError("breakpoints must be strictly increasing")
        if bp[0] < 0:
            raise DomainError("breakpoints must be nonnegative")
        expected = len(bp) - 1 + (1 if self.unbounded else 0)
        if co.shape[0] != expected:
            raise DomainError(
                f"expected {expected} coefficient rows, got {co.shape[0]}")
        if co.shape[1] > _MAX_DEGREE + 1:
            raise DomainError("polynomial degree too high")

    @property
    def degree(self):
        return self.coeffs.shape[1] - 1

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        n_bounded = len(self.breakpoints) - 1
        inside = (idx >= 0) & (idx < n_bounded)
        beyond = idx >= n_bounded
        idx_c = np.clip(idx, 0, self.coeffs.shape[0] - 1)
        s = t - self.breakpoints[np.clip(idx, 0, n_bounded)]
        if self.unbounded:
            use = inside | beyond
            row = np.where(beyond, n_bounded, idx_c)
            s = np.where(beyond, t - self.breakpoints[-1], s)
        else:
            use = inside
            row = idx_c
        rows = self.coeffs[row]
        acc = np.zeros_like(t, dtype=float)
        for j in range(self.coeffs.shape[1] - 1, -1, -1):
            acc = acc * s + rows[..., j]
        val = np.where(use, acc, 0.0)
        return val if val.ndim else float(val)

    def integrate_power(self, x, lam):
        """int p(t) (x + t)^(-lam) dt over the support, closed form;
        broadcasts over an array of x."""
        x = np.asarray(x, dtype=float)
        X = x[..., None] + self.breakpoints[:-1]
        L = np.diff(self.breakpoints)
        n_cols = self.coeffs.shape[1]
        co = self.coeffs[:L.size]
        basics = []
        for i in range(n_cols):
            p = i - lam + 1.0
            if abs(p) < 1e-12:
                basics.append(np.log1p(L / X))
            else:
                basics.append(_pow_diff(X, L, p) / p)
        total = np.zeros_like(x)
        for j in range(n_cols):
            cj = co[:, j]
            if not np.any(cj):
                continue
            acc = np.zeros_like(X)
            for i in range(j + 1):
                acc += math.comb(j, i) * (-X) ** (j - i) * basics[i]
            total += np.sum(cj * acc, axis=-1)
        if self.unbounded:
            total += self._tail_power(x, lam)
        return total if total.ndim else float(total)

    def _tail_power(self, x, lam):
        row = self.coeffs[-1]
        X = x + self.breakpoints[-1]
        total = 0.0
        for j, cj in enumerate(row):
            if cj == 0.0:
                continue
            if lam <= j + 1:
                raise ConvergenceError(
                    f"unbounded tail of degree {j} diverges for order {lam}")
            total += cj * X ** (j + 1 - lam) * \
                math.exp(math.lgamma(j + 1) + math.lgamma(lam - j - 1)
                         - math.lgamma(lam))
        return total

    def laplace(self, t):
        """int e^(-t s) p(s) ds over the support, vectorized in t > 0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n_b = len(self.breakpoints) - 1
        # cells whose polynomial is zero contribute nothing
        live = np.any(self.coeffs[:n_b] != 0.0, axis=1)
        co = self.coeffs[:n_b][live]
        lefts = self.breakpoints[:-1][live, None]
        lengths = np.diff(self.breakpoints)[live, None]
        max_j = self.coeffs.shape[1] - 1
        moments = _exp_moments(t[None, :], lengths, max_j)
        inner = np.zeros((len(co), len(t)))
        for j in range(max_j + 1):
            cj = co[:, j:j + 1]
            if np.any(cj):
                inner += cj * moments[j]
        total = np.sum(_exp_neg_product(lefts, t[None, :]) * inner, axis=0)
        if self.unbounded:
            row = self.coeffs[-1]
            T = self.breakpoints[-1]
            tail = sum(row[j] * math.factorial(j) / t ** (j + 1)
                       for j in range(len(row)) if row[j] != 0.0)
            total += _exp_neg_product(T, t) * tail
        return total

    def cumulative(self, t):
        """int_0^t p(s) ds, vectorized."""
        t = np.asarray(t, dtype=float)
        bp = self.breakpoints
        n_b = len(bp) - 1
        lengths = np.diff(bp)
        cell_mass = self._antideriv_rows(np.arange(n_b), lengths)
        prefix = np.concatenate([[0.0], np.cumsum(cell_mass)])
        idx = np.searchsorted(bp, t, side="right") - 1
        idx_c = np.clip(idx, 0, n_b - 1)
        s = np.clip(t - bp[idx_c], 0.0, lengths[idx_c])
        out = prefix[np.clip(idx, 0, n_b)] + \
            np.where(idx >= 0, self._antideriv_rows(idx_c, s), 0.0)
        out = np.where(idx >= n_b, prefix[n_b], out)
        if self.unbounded:
            s_tail = np.maximum(t - bp[-1], 0.0)
            rows = np.full(np.shape(s_tail), n_b)
            out = out + np.where(t > bp[-1],
                                 self._antideriv_rows(rows, s_tail), 0.0)
        return out if out.ndim else float(out)

    def _antideriv_rows(self, rows, s):
        acc = np.zeros_like(s, dtype=float)
        co = self.coeffs[rows]
        for j in range(self.coeffs.shape[1] - 1, -1, -1):
            acc = acc * s + co[..., j] / (j + 1.0)
        return acc * s

    def mass(self):
        if self.unbounded and np.any(self.coeffs[-1]):
            return math.inf
        return float(self.cumulative(self.breakpoints[-1]))

    def shifted_mean_removed(self, mean):
        co = self.coeffs.copy()
        co[:, 0] -= mean
        if self.unbounded:
            raise DomainError("cannot mean-correct an unbounded polynomial")
        return PiecewisePolynomial(self.breakpoints, co)

    def to_dict(self):
        return {"breakpoints": self.breakpoints.tolist(),
                "coeffs": self.coeffs.tolist(),
                "unbounded": self.unbounded}

    @staticmethod
    def from_dict(d):
        return PiecewisePolynomial(np.asarray(d["breakpoints"]),
                                   np.asarray(d["coeffs"]),
                                   bool(d.get("unbounded", False)))


def _coef_registry(name, params):
    if name == "const":
        v = params["value"]
        return lambda k: np.full_like(np.asarray(k, dtype=float), v)
    if name == "affine":
        a0, a1 = params["a0"], params["a1"]
        return lambda k: a0 + a1 * np.asarray(k, dtype=float)
    if name == "pochhammer":
        s = params["s"]
        norm = math.gamma(1.0 - s)
        return lambda k: _gamma_ratio_shift(
            np.asarray(k, dtype=float) + 1.0, s) / norm
    raise DomainError(f"unknown coefficient family {name!r}")


def _gamma_ratio_shift(z, s):
    """Gamma(z - s) / Gamma(z) for 0 < s < 1, smooth in z.

    Two log-gammas of about 1e4 differ by a few units, so the exp of their
    difference jitters by ~1e-12 between neighbouring z, and adaptive
    quadratures of the coefficient never converge.  For z >= 50 the
    difference of the Stirling series is taken term by term instead (four
    terms, truncation below 1e-19), with the power (z - s)^(-s) kept apart.
    """
    def series(y):
        """sum_n B_2n / (2n (2n - 1)) y^(1 - 2n), n = 1..4."""
        return _even_series(_LGAMMA_C[:4], 1.0 / (y * y)) * y

    z = np.asarray(z, dtype=float)
    zb = np.maximum(z, 50.0)
    w = zb - s
    expo = (zb - 0.5) * np.log1p(-s / zb) + s + series(w) - series(zb)
    out = np.array(w ** -s * np.exp(expo))
    small = z < 50.0
    if np.any(small):
        zs = z[small]
        out[small] = np.exp(log_gamma(zs - s) - log_gamma(zs))
    return out


@dataclass(frozen=True, eq=False)
class GapTail:
    """Density ``weight`` on the gaps (a_{2n}, a_{2n+1}), a_k = offset + step*k,
    for n >= start; the analytic tail of an alternating-gap measure
    with affine locations."""

    offset: float
    step: float
    weight: float
    start: int
    brute: int = 512

    def _interval_sum(self, x, order, n):
        a_left = self.offset + 2.0 * self.step * n
        return -(self.weight / (order - 1.0)) * \
            _pow_diff(x + a_left, self.step, 1.0 - order)

    def stieltjes(self, x, order):
        if order <= 1.0:
            raise ConvergenceError("gap tail needs order > 1")
        h, w = self.step, self.weight
        A = x + self.offset + 2.0 * h * (self.start + self.brute - 0.5)
        if abs(order - 2.0) < 1e-12:
            integral = (w / (2.0 * h)) * math.log1p(h / A)
        else:
            integral = (w / (order - 1.0)) * \
                float(_pow_diff(A, h, 2.0 - order)) / (2.0 * h * (2.0 - order))
        return midpoint_tail(lambda n: self._interval_sum(x, order, n),
                             self.start, self.brute, integral)

    def laplace(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        h = self.step
        a0 = self.offset + 2.0 * h * self.start
        # expm1(-h t) / expm1(-2 h t) = 1 / (1 + e^(-h t)), finite as t -> 0
        return self.weight * np.exp(-t * a0) / (t * (1.0 + np.exp(-h * t)))

    def cumulative(self, t):
        t = np.asarray(t, dtype=float)
        h = self.step
        rel = (t - self.offset) / (2.0 * h) - self.start
        n_full = np.floor(rel)
        frac = np.clip((rel - n_full) * 2.0 * h, 0.0, h)
        out = self.weight * np.where(rel > 0, np.maximum(n_full, 0) * h +
                                     np.where(n_full >= 0, frac, 0.0), 0.0)
        return out if out.ndim else float(out)

    def to_dict(self):
        return {"kind": "gaps", "offset": self.offset, "step": self.step,
                "weight": self.weight, "start": self.start}


@dataclass(frozen=True, eq=False)
class PeriodicTail:
    """Density equal to ``profile`` (defined on [0, period]) repeated with
    period ``period`` on [start, inf)."""

    start: float
    period: float
    profile: PiecewisePolynomial
    brute: int = 64

    def __post_init__(self):
        if abs(self.profile.breakpoints[-1] - self.period) > 1e-12:
            raise DomainError("profile must span exactly one period")
        if self.profile.unbounded:
            raise DomainError("profile must be bounded")

    @property
    def mean(self):
        return self.profile.cumulative(self.period) / self.period

    def stieltjes(self, x, order):
        if order <= 1.0:
            raise ConvergenceError("periodic tail needs order > 1")
        X0 = x + self.start
        p = self.period
        resid = self.profile.shifted_mean_removed(self.mean)
        Xa = X0 + p * (self.brute - 0.5)
        integral = resid.integrate_power(Xa, order - 1.0) / (p * (order - 1.0))
        return self.mean * X0 ** (1.0 - order) / (order - 1.0) + midpoint_tail(
            lambda m: resid.integrate_power(X0 + p * m, order), 0, self.brute,
            integral)

    def laplace(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        cell = self.profile.laplace(t)
        return -cell * np.exp(-t * self.start) / np.expm1(-self.period * t)

    def cumulative(self, t):
        t = np.asarray(t, dtype=float)
        rel = np.maximum(t - self.start, 0.0)
        n_full = np.floor(rel / self.period)
        frac = rel - n_full * self.period
        cell_mass = self.profile.cumulative(self.period)
        out = n_full * cell_mass + self.profile.cumulative(frac)
        return out if out.ndim else float(out)

    def to_dict(self):
        return {"kind": "periodic", "start": self.start,
                "period": self.period, "profile": self.profile.to_dict()}


@dataclass(frozen=True, eq=False)
class _CoefTail:
    """Mass coef(m) on a unit at each integer m >= start, with coef a smooth
    function of a real argument; subclasses fix the unit and its ``kind``."""

    start: int
    coef_name: str
    coef_params: dict = field(default_factory=dict)
    brute: int = 512

    def _coef(self, k):
        return _coef_registry(self.coef_name, self.coef_params)(k)

    def _sum(self, unit):
        """sum_{m >= start} coef(m) unit(m)."""
        return midpoint_tail(lambda m: self._coef(m) * unit(m), self.start,
                             self.brute)

    def laplace(self, t):
        """sum_m coef(m) e^(-m t) times the unit's transform.  For t >= 1e-3
        the sum is direct, to m = start + 45/t, over one table of coef;
        smaller t integrate in u = m t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        direct = t >= 1e-3
        n_terms = np.zeros(len(t), dtype=int)
        n_terms[direct] = np.ceil(45.0 / t[direct]).astype(int) + 1
        m = np.arange(self.start, self.start + n_terms.max(initial=0),
                      dtype=float)
        coef = self._coef(m)
        sums = np.array([
            float(np.sum(coef[:n] * np.exp(-m[:n] * ti))) if n
            else _smooth_exp_sum(self._coef, self.start, ti)
            for ti, n in zip(t, n_terms)])
        return sums * self._unit_laplace(t)

    def cumulative(self, t):
        t = np.asarray(t, dtype=float)
        hi = int(np.max(np.atleast_1d(t)))
        m = np.arange(self.start, max(self.start, hi) + 1, dtype=float)
        out = np.zeros_like(t, dtype=float)
        for mi, ci in zip(m, self._coef(m) if len(m) else []):
            out += ci * self._unit_cumulative(t - mi)
        return out if out.ndim else float(out)

    def to_dict(self):
        return {"kind": self.kind, "start": self.start,
                "coef_name": self.coef_name, "coef_params": dict(self.coef_params)}


@dataclass(frozen=True, eq=False)
class SmoothCoefTail(_CoefTail):
    """Degree-0 density coef(m) on the unit cell (m, m+1) for integer
    m >= start, with coef a smooth function of a real argument."""

    kind = "cells"

    def stieltjes(self, x, order):
        if order <= 1.0:
            raise ConvergenceError("cell tail needs order > 1")
        return self._sum(
            lambda m: -_pow_diff(x + m, 1.0, 1.0 - order) / (order - 1.0))

    @staticmethod
    def _unit_laplace(t):
        return -np.expm1(-t) / t

    @staticmethod
    def _unit_cumulative(s):
        return np.clip(s, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class AtomTail(_CoefTail):
    """Unit-spaced atoms at integers n >= start with mass coef(n)."""

    kind = "atoms"
    coef_name: str = "const"
    coef_params: dict = field(default_factory=lambda: {"value": 1.0})

    def stieltjes(self, x, order):
        if order <= 1.0:
            raise ConvergenceError("atom tail needs order > 1")
        return self._sum(lambda m: (x + m) ** (-order))

    @staticmethod
    def _unit_laplace(t):
        return 1.0

    @staticmethod
    def _unit_cumulative(s):
        return s >= 0.0


def _smooth_exp_sum(coef, start, t):
    """sum_{m >= start} coef(m) e^(-m t) for smooth positive coef and small
    t > 0, as the integral in u = m t (which keeps the range O(1)) plus the
    midpoint completion."""
    lo = (start - 0.5) * t
    integral = quad(lambda u: coef(u / t) * np.exp(-u), lo, lo + 45.0,
                    abs_tol=3e-12, rel_tol=1e-9,
                    points=[lo + 1.0, lo + 5.0]) / t
    return midpoint_tail(lambda m: coef(m) * np.exp(-m * t), start, 0,
                         integral)


_TAIL_KINDS = {"gaps": GapTail, "periodic": PeriodicTail,
               "cells": SmoothCoefTail, "atoms": AtomTail}


def _tail_from_dict(d):
    if d is None:
        return None
    kind = d["kind"]
    d = {k: v for k, v in d.items() if k != "kind"}
    if kind == "periodic":
        d["profile"] = PiecewisePolynomial.from_dict(d["profile"])
    if kind == "gaps":
        d["start"] = int(d["start"])
    return _TAIL_KINDS[kind](**d)


@dataclass(frozen=True, eq=False)
class RepresentingMeasure:
    """mu in f(x) = int dmu(t) / (x+t)^order + constant."""

    order: float
    atoms: tuple = ()
    density: PiecewisePolynomial = None
    constant: float = 0.0
    tail: object = None

    def __post_init__(self):
        if not self.order > 0:
            raise DomainError("order must be positive")
        if self.constant < 0:
            raise DomainError("constant must be nonnegative")
        atoms = tuple((float(t), float(m)) for t, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        locs = [t for t, _ in atoms]
        if any(t < 0 for t in locs) or any(
                b <= a for a, b in zip(locs, locs[1:])):
            raise DomainError("atom locations must be >= 0, strictly increasing")
        if any(m <= 0 for _, m in atoms):
            raise DomainError("atom masses must be positive")
        self._check_density_nonneg()

    def _check_density_nonneg(self):
        """Checks the values at both ends of every cell, which is exact for
        degree <= 1; higher degrees add 1,000 samples.  At the far end of an
        unbounded row the top coefficient stands in for the value."""
        if self.density is None:
            return
        d = self.density
        bp, co = d.breakpoints, d.coeffs[:len(d.breakpoints) - 1]
        ts = np.concatenate([bp[:-1], bp[1:]])
        vals = np.concatenate([co[:, 0], np.polynomial.polynomial.polyval(
            np.diff(bp), co.T, tensor=False)])
        if d.unbounded:
            ts = np.append(ts, [bp[-1], math.inf])
            vals = np.append(vals, d.coeffs[-1, [0, -1]])
        if d.degree >= 2:
            sample = np.linspace(bp[0], bp[-1] + 2.0 * d.unbounded, 1000)
            ts = np.concatenate([ts, sample])
            vals = np.concatenate([vals, d(sample)])
        floor = -1e-9 * (1.0 + np.max(np.abs(vals)))
        if np.min(vals) < floor:
            t_bad = ts[int(np.argmin(vals))]
            raise DomainError(
                f"density is negative at t={t_bad:.6g}: {np.min(vals):.3e}")

    def __call__(self, x):
        return stieltjes_eval(self, x)

    def to_dict(self):
        return {
            "breakpoints": [] if self.density is None
            else self.density.breakpoints.tolist(),
            "coeffs": [] if self.density is None
            else self.density.coeffs.tolist(),
            "unbounded": bool(self.density.unbounded) if self.density else False,
            "atoms": [[t, m] for t, m in self.atoms],
            "order": self.order,
            "constant": self.constant,
            "tail": None if self.tail is None else self.tail.to_dict(),
        }

    @staticmethod
    def from_dict(d):
        density = None
        if d.get("breakpoints"):
            density = PiecewisePolynomial(
                np.asarray(d["breakpoints"]), np.asarray(d["coeffs"]),
                bool(d.get("unbounded", False)))
        return RepresentingMeasure(
            order=float(d["order"]),
            atoms=tuple((t, m) for t, m in d.get("atoms", [])),
            density=density,
            constant=float(d.get("constant", 0.0)),
            tail=_tail_from_dict(d.get("tail")))


def stieltjes_eval(m, x):
    """f(x) = int dmu(t)/(x+t)^order + c for a RepresentingMeasure."""
    if not np.isscalar(x) and np.ndim(x) > 0:
        return np.array([stieltjes_eval(m, v) for v in x])
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    total = m.constant
    if m.atoms:
        locs = np.array([t for t, _ in m.atoms])
        masses = np.array([w for _, w in m.atoms])
        total += float(np.sum(masses * (x + locs) ** (-m.order)))
    if m.density is not None:
        total += m.density.integrate_power(x, m.order)
    if m.tail is not None:
        total += m.tail.stieltjes(x, m.order)
    return total


def measure_cumulative(m, t):
    """mu([0, t]) for measures whose parts support cumulatives."""
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr, dtype=float)
    for loc, mass in m.atoms:
        out += mass * (t_arr >= loc)
    if m.density is not None:
        out += m.density.cumulative(t_arr)
    if m.tail is not None:
        out += m.tail.cumulative(t_arr)
    return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class CmKernel:
    """kappa(t) = int e^(-ts) dmu(s), the completely monotonic kernel of mu."""

    measure: RepresentingMeasure

    def __call__(self, t):
        scalar = np.isscalar(t) or np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t <= 0):
            raise DomainError("kappa is evaluated for t > 0")
        m = self.measure
        total = np.zeros_like(t)
        for loc, mass in m.atoms:
            total += mass * np.exp(-loc * t)
        if m.density is not None:
            total += m.density.laplace(t)
        if m.tail is not None:
            total += m.tail.laplace(t)
        return float(total[0]) if scalar else total


def kernel_kappa(m):
    """The CM kernel of a measure; closed interval Laplace transforms plus
    the analytic tail transforms."""
    return CmKernel(m)


def stieltjes_via_kernel(m, x, rel_tol=1e-11):
    """Recompute f(x) through (1/Gamma(order)) int e^(-xt) t^(order-1) kappa.

    The head [0, t0] is integrated in v = sqrt(t), which flattens the
    t^(order-1) kappa ~ t^gamma endpoint behavior of the catalog kernels.
    """
    kappa = kernel_kappa(m)
    order = m.order
    t_max = (40.0 + math.log1p(1.0 / x)) / x
    t0 = min(1.0, 0.5 * t_max)

    def integrand(t):
        return np.exp(-x * t) * t ** (order - 1.0) * kappa(t)

    head = quad(lambda v: integrand(v * v) * 2.0 * v, 0.0, math.sqrt(t0),
                abs_tol=1e-14, rel_tol=rel_tol)
    tail = quad(integrand, t0, t_max, abs_tol=1e-14, rel_tol=rel_tol,
                points=[min(4.0, 0.5 * (t0 + t_max))])
    return m.constant + (head + tail) / math.gamma(order)


# ---------------------------------------------------------------------------
# constructors for the catalog measures
# ---------------------------------------------------------------------------

def _gap_rows(points):
    """Alternate weight-1/0 rows over consecutive points, starting at 0."""
    points = list(points)
    rows = []
    bps = []
    if points[0] > 0:
        bps.append(0.0)
        rows.append([0.0])
    level = 1.0
    for p in points:
        bps.append(float(p))
        rows.append([level])
        level = 1.0 - level
    rows.pop()
    return np.array(bps), np.array(rows)


def measure_alternating(a, lam, cap=2048):
    """Representing measure of sum (-1)^n (x + a_n)^(-lam): weight lam on
    the gaps (a_2n, a_2n+1).

    ``a`` is a finite nondecreasing sequence (even length: plain gaps; odd
    length: a trailing unbounded interval) or a callable n -> a_n for the
    infinite case, truncated at ``cap`` gaps.  Affine location sequences get
    an exact analytic tail; the measure has order lam + 1.
    """
    if not 0 < lam <= 1:
        raise DomainError("lam must be in (0, 1]")
    tail = None
    if callable(a):
        n_pts = 2 * cap
        pts = np.array([float(a(n)) for n in range(n_pts + 2)])
        if np.any(np.diff(pts) < 0):
            raise DomainError("location sequence must be nondecreasing")
        d2 = np.diff(pts, 2)
        if np.max(np.abs(d2)) < 1e-12 * (1 + np.max(np.abs(pts))):
            tail = GapTail(offset=float(pts[0]),
                           step=float(pts[1] - pts[0]),
                           weight=lam, start=cap)
        pts = pts[:n_pts]
        unbounded = False
    else:
        pts = np.asarray(a, dtype=float)
        if np.any(np.diff(pts) < 0):
            raise DomainError("location sequence must be nondecreasing")
        unbounded = len(pts) % 2 == 1
    # collapse zero-length gaps
    keep = np.ones(len(pts), dtype=bool)
    i = 0 if len(pts) % 2 == 0 else 1
    while i + 1 < len(pts):
        if pts[i + 1] - pts[i] == 0.0:
            keep[i] = keep[i + 1] = False
        i += 2
    pts = pts[keep]
    density = None
    if len(pts) >= 2 or (len(pts) >= 1 and unbounded):
        bps, rows = _gap_rows(pts)
        rows = rows * lam
        if unbounded:
            density = PiecewisePolynomial(bps, np.vstack([rows, [[lam]]]),
                                          unbounded=True)
        else:
            density = PiecewisePolynomial(bps, rows)
    return RepresentingMeasure(order=lam + 1.0, density=density, tail=tail)


def measure_integer_atoms(cap=512, mass=1.0):
    """mu = sum_n mass * eps_n; with kappa(t) = mass/(1 - e^(-t))."""
    atoms = tuple((float(n), mass) for n in range(cap))
    return RepresentingMeasure(
        order=2.0, atoms=atoms,
        tail=AtomTail(start=cap, coef_name="const",
                      coef_params={"value": mass}))


def _trap_eval(u, a, b):
    """chi_(0,a) * chi_(0,b) at u, for a <= b."""
    u = np.asarray(u, dtype=float)
    out = np.minimum(np.minimum(u, a), a + b - u)
    return np.clip(out, 0.0, None)


def convolve_box(a, b):
    """The trapezoid chi_(0,a) * chi_(0,b) as a piecewise polynomial."""
    if a < 0 or b < 0:
        raise DomainError("box widths must be nonnegative")
    if a == 0.0 or b == 0.0:
        return PiecewisePolynomial(np.array([0.0, 1.0]), np.array([[0.0]]))
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        bps = np.array([0.0, lo, 2.0 * lo])
        rows = np.array([[0.0, 1.0], [lo, -1.0]])
    else:
        bps = np.array([0.0, lo, hi, lo + hi])
        rows = np.array([[0.0, 1.0], [lo, 0.0], [lo, -1.0]])
    return PiecewisePolynomial(bps, rows)


def _linear_rows_from_samples(fn, bps):
    """Per-interval linear rows recovered from two interior samples."""
    bps = np.asarray(bps, dtype=float)
    lo = bps[:-1]
    ln = np.diff(bps)
    f1 = fn(lo + ln / 3.0)
    f2 = fn(lo + 2.0 * ln / 3.0)
    slope = (f2 - f1) * 3.0 / ln
    c0 = f1 - slope * ln / 3.0
    return np.column_stack([c0, slope])


def _merge_breaks(cands, lo, hi, tol=1e-9):
    pts = sorted(set([lo, hi] + [float(c) for c in cands if lo < c < hi]))
    out = [pts[0]]
    for p in pts[1:]:
        if p - out[-1] > tol:
            out.append(p)
    out[-1] = hi
    return np.array(out)


def measure_gamma_ratio(a, b, cap=60):
    """Order-2 measure with density g(t) = sum_k trap_{a,b}(t - k) for the
    log Gamma-ratio of two shifts; eventually 1-periodic, handled exactly."""
    if a < 0 or b < 0:
        raise DomainError("a and b must be nonnegative")
    if a == 0.0 or b == 0.0:
        return RepresentingMeasure(order=2.0, density=PiecewisePolynomial(
            np.array([0.0, 1.0]), np.array([[0.0]])))
    width = a + b
    min_cap = int(math.ceil(width)) + 20
    if cap < min_cap:
        raise CapTooSmallError(f"cap must be at least {min_cap}")
    T = int(cap)
    lo, hi = min(a, b), max(a, b)

    def g(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for k in range(0, int(math.floor(np.max(t))) + 1):
            out += np.where(t >= k, _trap_eval(t - k, lo, hi), 0.0)
        return out

    cands = [k + off for k in range(T + 1) for off in (0.0, lo, hi, width)]
    bps = _merge_breaks(cands, 0.0, float(T))
    density = PiecewisePolynomial(bps, _linear_rows_from_samples(g, bps))

    def rho(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for i in range(0, int(math.ceil(width)) + 1):
            out += _trap_eval(s + i, lo, hi)
        return out

    p_cands = sorted({v % 1.0 for v in (lo, hi, width)} | {0.0, 1.0})
    p_bps = _merge_breaks(p_cands, 0.0, 1.0)
    profile = PiecewisePolynomial(p_bps, _linear_rows_from_samples(rho, p_bps))
    return RepresentingMeasure(order=2.0, density=density,
                               tail=PeriodicTail(start=float(T), period=1.0,
                                                 profile=profile))


def measure_genus1_log_ratio(zeros, a, b):
    """Order-2 measure with density sum_n trap_{a,b}(t - z_n) for a finite
    genus-1 zero set; represents log[f(x+a)f(x+b) / (f(x)f(x+a+b))]."""
    zeros = sorted(float(z) for z in zeros)
    if any(z <= 0 for z in zeros):
        raise DomainError("zeros must be strictly positive")
    if a < 0 or b < 0:
        raise DomainError("a and b must be nonnegative")
    if a == 0.0 or b == 0.0 or not zeros:
        return RepresentingMeasure(order=2.0, density=PiecewisePolynomial(
            np.array([0.0, 1.0]), np.array([[0.0]])))
    lo, hi = min(a, b), max(a, b)

    def g(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for z in zeros:
            out += _trap_eval(t - z, lo, hi)
        return out

    cands = [z + off for z in zeros for off in (0.0, lo, hi, lo + hi)]
    bps = _merge_breaks(cands, 0.0, max(cands))
    return RepresentingMeasure(
        order=2.0,
        density=PiecewisePolynomial(bps, _linear_rows_from_samples(g, bps)))


def measure_gamma_reciprocal_ratio(s, cap=2048):
    """Order-2 measure with density (1-s)_k / k! on (k, k+1); times
    1/Gamma(s+1) it represents Gamma(x)/Gamma(x+s+1)."""
    if not 0 < s < 1:
        raise DomainError("s must be in (0, 1)")
    if cap < 100:
        raise CapTooSmallError("cap must be at least 100")
    coefs = np.empty(cap)
    coefs[0] = 1.0
    for k in range(1, cap):
        coefs[k] = coefs[k - 1] * (k - s) / k
    bps = np.arange(0.0, cap + 1.0)
    density = PiecewisePolynomial(bps, coefs[:, None])
    return RepresentingMeasure(
        order=2.0, density=density,
        tail=SmoothCoefTail(start=cap, coef_name="pochhammer",
                            coef_params={"s": s}))


def _cesaro_rows(a_vals, k, lam):
    """Coefficient rows of ((lam)_{k+1}/k!) sum_j a_j (t-j)^k on (m, m+1)."""
    n = len(a_vals)
    scale = math.gamma(lam + k + 1.0) / math.gamma(lam) / math.gamma(k + 1.0)
    if k == 0:
        return scale * np.cumsum(a_vals)[:, None]
    # moments M_p[m] = sum_{j<=m} a_j (m-j)^p, updated by binomial shifts
    rows = np.zeros((n, k + 1))
    mom = np.zeros(k + 1)
    for m in range(n):
        if m > 0:
            new = np.zeros(k + 1)
            for p in range(k + 1):
                new[p] = sum(math.comb(p, q) * mom[q] for q in range(p + 1))
            mom = new
        mom[0] += a_vals[m]
        for i in range(k + 1):
            rows[m, i] = math.comb(k, i) * mom[k - i]
    return scale * rows


def measure_cesaro(a, k, lam, cap=4096):
    """Order lam+k+1 measure of sum a_n/(x+n)^lam under the iterated-sum
    hypotheses (which the caller is responsible for checking).

    For k = 0 the cell coefficients beyond the cap are completed by an exact
    tail when they are eventually constant, 2-periodic, or affine; otherwise
    the measure is truncated at the cap.
    """
    if k < 0 or int(k) != k:
        raise DomainError("k must be a nonnegative integer")
    if not lam > 0:
        raise DomainError("lam must be positive")
    window = 64
    if callable(a):
        vals = np.asarray(a(np.arange(cap + window)), dtype=float)
    else:
        vals = np.asarray(a, dtype=float)[:cap + window]
    rows = _cesaro_rows(vals, int(k), lam)
    order = lam + k + 1.0
    if k == 0:
        s_all = rows[:, 0]
        s_win = s_all[cap:cap + window] if len(s_all) > cap else s_all[-window:]
        n_fin = min(cap, len(s_all) - (window if len(s_all) > cap else 0))
        n_fin = max(n_fin, 1)
        scale = 1.0 + np.max(np.abs(s_win))
        tail = None
        extra_rows = None
        if np.max(np.abs(np.diff(s_win))) < 1e-13 * scale:
            extra_rows = [[float(s_win[-1])]]
        elif np.max(np.abs(s_win[2:] - s_win[:-2])) < 1e-13 * scale:
            even, odd = float(s_win[-2]), float(s_win[-1])
            if (n_fin + window) % 2 == 1:
                even, odd = odd, even
            profile = PiecewisePolynomial(np.array([0.0, 1.0, 2.0]),
                                          np.array([[even], [odd]]))
            tail = PeriodicTail(start=float(n_fin), period=2.0, profile=profile)
        elif np.max(np.abs(np.diff(s_win, 2))) < 1e-11 * scale:
            slope = float(np.mean(np.diff(s_win)))
            a0 = float(s_win[-1] - slope * (n_fin + window - 1))
            tail = SmoothCoefTail(start=n_fin, coef_name="affine",
                                  coef_params={"a0": a0, "a1": slope})
        else:
            # averaged limit; residual alternates and decays for the catalog
            r = s_win.copy()
            for _ in range(8):
                r = 0.5 * (r[1:] + r[:-1])
            extra_rows = [[float(r[-1])]]
        bps = np.arange(0.0, n_fin + 1.0)
        if extra_rows is not None:
            density = PiecewisePolynomial(
                bps, np.vstack([rows[:n_fin], extra_rows]), unbounded=True)
        else:
            density = PiecewisePolynomial(bps, rows[:n_fin])
        return RepresentingMeasure(order=order, density=density, tail=tail)
    n_fin = len(rows)
    bps = np.arange(0.0, n_fin + 1.0)
    return RepresentingMeasure(order=order,
                               density=PiecewisePolynomial(bps, rows))
