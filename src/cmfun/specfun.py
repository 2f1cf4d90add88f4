"""Scalar special functions: Nielsen beta, polygammas, log-gamma, si/ci,
Prym's function, the binomial-weighted beta family and log-gamma ratios.

Everything is plain float64.  Real arguments must be positive and finite.
Nielsen beta and the polygammas also take complex arguments with Re z > 0,
and log-gamma and digamma take them on the whole cut plane, which the
Pick-function checks need; the ``*_complex`` names coerce to complex.  All
functions accept scalars or ndarrays and are pure.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import quad
from ._series import (alternating_sum, alternating_sum_direct,
                      pochhammer_ratio_terms)
from .errors import ConvergenceError, DomainError

EULER_GAMMA = 0.5772156649015328606065

_SHIFT = 12.0

# B_{2k}/(2k), B_{2k}, (2k+1) B_{2k}, B_{2k}/((2k)(2k-1)) for k = 1..8
_PSI_C = np.array([1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                   -691 / 32760, 1 / 12, -3617 / 8160])
_PSI1_C = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                    -691 / 2730, 7 / 6, -3617 / 510])
_PSI2_C = np.array([3 / 6, -5 / 30, 7 / 42, -9 / 30, 55 / 66,
                    -13 * 691 / 2730, 15 * 7 / 6, -17 * 3617 / 510])
_LGAMMA_C = np.array([1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
                      -691 / 360360, 1 / 156, -3617 / 122400])


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy for alternating series evaluation."""

    max_terms: int = 1_000_000
    abs_tol: float = 1e-12
    acceleration: str = "alternating-acceleration"

    def __post_init__(self):
        if self.max_terms < 8:
            raise DomainError("max_terms must be >= 8")
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")
        if self.acceleration not in ("alternating-acceleration",
                                     "direct-with-tail-bound"):
            raise DomainError(f"unknown acceleration {self.acceleration!r}")


def _prepare(z, cut_plane=False):
    """ndarray view of ``z`` and whether it was a scalar.  Real input must be
    positive and finite; complex input must satisfy Re z > 0, or with
    ``cut_plane`` only avoid the cut (-inf, 0]."""
    arr = np.atleast_1d(np.asarray(z))
    if np.iscomplexobj(arr):
        arr = arr.astype(complex)
        if cut_plane:
            if np.any((arr.imag == 0) & (arr.real <= 0)):
                raise DomainError("argument must avoid the cut (-inf, 0]")
        elif np.any(arr.real <= 0):
            raise DomainError("argument must satisfy Re z > 0")
    else:
        arr = arr.astype(float)
        if np.any(arr <= 0) or np.any(~np.isfinite(arr)):
            raise DomainError("argument must be a positive real")
    return arr, np.isscalar(z) or np.ndim(z) == 0


def _positive(x):
    """``x`` as a float ndarray, after checking that every entry is
    positive and finite."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0) & np.isfinite(arr)):
        raise DomainError(f"x must be positive and finite, got {x}")
    return arr


def _shift_then(arr, recurrence_term, asymptotic):
    """Apply f(z) = f(z+1) + g(z) until Re >= _SHIFT, then the expansion."""
    w = arr.copy()
    acc = np.zeros_like(arr)
    for _ in range(10_000):
        mask = w.real < _SHIFT
        if not mask.any():
            break
        acc[mask] += recurrence_term(w[mask])
        w[mask] += 1.0
    else:
        raise ConvergenceError("recurrence shift did not terminate")
    return acc + asymptotic(w)


def _psi_asym(w):
    u2 = 1.0 / (w * w)
    s = np.zeros_like(w)
    for c in _PSI_C[::-1]:
        s = (s + c) * u2
    return np.log(w) - 0.5 / w - s


def _psi1_asym(w):
    u = 1.0 / w
    u2 = u * u
    s = np.zeros_like(w)
    for c in _PSI1_C[::-1]:
        s = (s + c) * u2
    return u + 0.5 * u2 + s * u


def _psi2_asym(w):
    u = 1.0 / w
    u2 = u * u
    s = np.zeros_like(w)
    for c in _PSI2_C[::-1]:
        s = (s + c) * u2
    return -u2 - u * u2 - s * u2


def _lgamma_asym(w):
    u = 1.0 / w
    u2 = u * u
    s = np.zeros_like(w)
    for c in _LGAMMA_C[::-1]:
        s = s * u2 + c
    return (w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi) + s * u


def _restore(out, scalar):
    if not scalar:
        return out
    val = out[()] if out.ndim == 0 else out[0]
    return complex(val) if np.iscomplexobj(out) else float(val)


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0, abs error below 1e-13; for
    complex input the analytic psi on the plane cut along (-inf, 0]."""
    arr, scalar = _prepare(x, cut_plane=True)
    out = _shift_then(arr, lambda w: -1.0 / w, _psi_asym)
    return _restore(out, scalar)


def trigamma(x):
    """psi'(x) = sum 1/(x+n)^2 for x > 0."""
    arr, scalar = _prepare(x)
    out = _shift_then(arr, lambda w: 1.0 / (w * w), _psi1_asym)
    return _restore(out, scalar)


def tetragamma(x):
    """psi''(x); analytic derivative feed for the log-CM checks."""
    arr, scalar = _prepare(x)
    out = _shift_then(arr, lambda w: -2.0 / (w * w * w), _psi2_asym)
    return _restore(out, scalar)


def log_gamma(x):
    """log Gamma(x) for x > 0; for complex input the analytic log-gamma
    branch on the cut plane (not the log of Gamma)."""
    arr, scalar = _prepare(x, cut_plane=True)
    out = _shift_then(arr, lambda w: -np.log(w), _lgamma_asym)
    return _restore(out, scalar)


def digamma_complex(z):
    """digamma of ``z`` coerced to complex."""
    return digamma(np.asarray(z, dtype=complex))


def log_gamma_complex(z):
    """log_gamma of ``z`` coerced to complex."""
    return log_gamma(np.asarray(z, dtype=complex))


# beta(z) ~ 1/(2z) + sum_k b_k z^(-2k), from the Laplace-Watson expansion of
# 1/(1+e^(-t)) = 1/2 + tanh(t/2)/2; avoids the psi-difference cancellation
# at large arguments.
_BETA_ASYM = np.array([1 / 4, -1 / 8, 1 / 4, -17 / 16, 31 / 4, -691 / 8,
                       5461 / 4])


def _beta_asym(z):
    u2 = 1.0 / (z * z)
    s = np.zeros_like(z)
    for c in _BETA_ASYM[::-1]:
        s = (s + c) * u2
    return 0.5 / z + s


def _beta_core(arr):
    out = np.empty_like(arr)
    big = arr.real >= 40.0
    if big.any():
        out[big] = _beta_asym(arr[big])
    rest = ~big
    if rest.any():
        w = arr[rest]
        out[rest] = 0.5 * (
            _shift_then((w + 1) / 2, lambda v: -1.0 / v, _psi_asym)
            - _shift_then(w / 2, lambda v: -1.0 / v, _psi_asym))
    return out


def nielsen_beta(x):
    """beta(x) = sum (-1)^n / (x+n), evaluated as the digamma difference
    beta(x) = (psi((x+1)/2) - psi(x/2)) / 2 (asymptotic series for large x).
    Complex input needs Re z > 0; there beta(conj z) = conj beta(z)."""
    arr, scalar = _prepare(x)
    return _restore(_beta_core(arr), scalar)


def nielsen_beta_complex(z):
    """nielsen_beta of ``z`` coerced to complex."""
    return nielsen_beta(np.asarray(z, dtype=complex))


def nielsen_beta_deriv(x):
    """beta'(x) = -sum (-1)^n / (x+n)^2, via the trigamma difference."""
    arr, scalar = _prepare(x)
    out = 0.25 * (_shift_then((arr + 1) / 2, lambda w: 1.0 / (w * w), _psi1_asym)
                  - _shift_then(arr / 2, lambda w: 1.0 / (w * w), _psi1_asym))
    return _restore(out, scalar)


def nielsen_beta_series(x, policy=None):
    """Independent series route for beta(x), per the truncation policy."""
    arr = _positive(x)
    policy = policy or SeriesPolicy()
    if policy.acceleration == "alternating-acceleration":
        n = max(8, int(math.log(4.0 / policy.abs_tol) / 1.7627) + 4)
        value = alternating_sum(lambda k: 1.0 / (arr + k), n_terms=n)
    else:
        value, bound = alternating_sum_direct(
            lambda k: 1.0 / (arr + k), policy.abs_tol, policy.max_terms)
        if np.max(bound) > policy.abs_tol:
            raise ConvergenceError(
                f"direct beta series: tail bound {np.max(bound):.2e} > "
                f"{policy.abs_tol:.2e}")
    return float(value) if np.ndim(x) == 0 else value


def sin_cos_integrals(x):
    """(si(x), ci(x)) with si(x) = Si(x) - pi/2 and ci the cosine integral.

    Power series up to x = 4; beyond that the auxiliary functions
    f = L[1/(1+u^2)](x) and g = L[u/(1+u^2)](x) are integrated directly,
    giving si = -f cos - g sin and ci = f sin - g cos.
    """
    if not np.isscalar(x) and np.ndim(x) > 0:
        pairs = [sin_cos_integrals(v) for v in x]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    if x <= 4.0:
        x2 = x * x
        b = x          # x^(2k+1) / (2k+1)!
        si_sum = x
        k = 1
        while True:
            b *= x2 / ((2 * k) * (2 * k + 1))
            term = b / (2 * k + 1)
            si_sum += -term if k % 2 else term
            if term < 1e-18:
                break
            k += 1
        c = 1.0        # x^(2k) / (2k)!
        cin = 0.0
        k = 1
        while True:
            c *= x2 / ((2 * k - 1) * (2 * k))
            term = c / (2 * k)
            cin += term if k % 2 else -term
            if term < 1e-18:
                break
            k += 1
        return si_sum - math.pi / 2, EULER_GAMMA + math.log(x) - cin
    t_hi = 45.0 / x
    fa = quad(lambda u: np.exp(-x * u) / (1 + u * u), 0.0, t_hi,
              abs_tol=1e-15, rel_tol=1e-14)
    ga = quad(lambda u: u * np.exp(-x * u) / (1 + u * u), 0.0, t_hi,
              abs_tol=1e-15, rel_tol=1e-14)
    return (-fa * math.cos(x) - ga * math.sin(x),
            fa * math.sin(x) - ga * math.cos(x))


def prym_P(x):
    """Prym's function P(x) = sum (-1)^n / (n!(x+n)), factorial truncation."""
    arr = _positive(x)
    total = np.zeros_like(arr)
    active = np.ones(arr.shape, dtype=bool)
    inv_fact = 1.0
    for n in range(0, 400):
        if n:
            inv_fact /= n
        term = inv_fact / (arr + n)
        total = np.where(active, total - term if n % 2 else total + term,
                         total)
        active &= ~(term < 1e-18 * np.abs(total))
        if not active.any():
            break
    return float(total) if np.ndim(x) == 0 else total


def prym_P_integral(x):
    """P(x) = int_0^1 t^(x-1) e^(-t) dt, via t = v^(1/x) (smooth integrand)."""
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    return quad(lambda v: np.exp(-v ** (1.0 / x)) / x, 0.0, 1.0,
                abs_tol=1e-14, rel_tol=1e-13)


def prym_Q(x):
    """Q(x) = int_1^inf t^(x-1) e^(-t) dt, the tail partner of P."""
    if not x > 0:
        raise DomainError(f"x must be positive, got {x}")
    t_hi = 60.0 + 5.0 * x
    return quad(lambda t: t ** (x - 1.0) * np.exp(-t), 1.0, t_hi,
                abs_tol=1e-14, rel_tol=1e-13)


def beta_a_lambda(x, a, lam):
    """sum (-1)^n (a)_n/n! (x+n)^(-lam) for x > 0, 0 < a <= 1, lam > 0."""
    arr = _positive(x)
    if not 0 < a <= 1:
        raise DomainError(f"a must be in (0, 1], got {a}")
    if not lam > 0:
        raise DomainError(f"lam must be positive, got {lam}")
    poch = pochhammer_ratio_terms(a, 30)
    value = alternating_sum(lambda k: poch[k] * (arr + k) ** (-lam),
                            n_terms=30)
    return float(value) if np.ndim(x) == 0 else value


def beta_a_lambda_integral(x, a, lam):
    """Quadrature of (1/Gamma(lam)) int e^(-xt) (1+e^(-t))^(-a) t^(lam-1) dt."""
    if not (x > 0 and 0 < a <= 1 and lam > 0):
        raise DomainError("need x > 0, 0 < a <= 1, lam > 0")

    # t = v^(1/lam) on [0,1] removes the endpoint singularity for lam < 1
    def head(v):
        t = v ** (1.0 / lam)
        return np.exp(-x * t) * (1 + np.exp(-t)) ** (-a) / lam

    def tail(t):
        return np.exp(-x * t) * (1 + np.exp(-t)) ** (-a) * t ** (lam - 1.0)

    t_hi = (40.0 + 8.0 * lam) / min(x, 1.0) if x < 1 else 40.0 + 8.0 * lam / x + 40.0 / x
    total = quad(head, 0.0, 1.0, abs_tol=1e-14, rel_tol=1e-13) + \
        quad(tail, 1.0, max(2.0, t_hi), abs_tol=1e-14, rel_tol=1e-13)
    return total / math.gamma(lam)


def gamma_ratio_log(x, a, b):
    """log[ Gamma(x) Gamma(x+a+b) / (Gamma(x+a) Gamma(x+b)) ], nonnegative."""
    x = _positive(x)
    if a < 0 or b < 0:
        raise DomainError("a and b must be nonnegative")
    return (log_gamma(x) + log_gamma(x + a + b)
            - log_gamma(x + a) - log_gamma(x + b))
