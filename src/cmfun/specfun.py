"""Special functions: Nielsen beta, polygammas, log-gamma, si/ci, Prym's
function, the binomial-weighted beta family and log-gamma ratios.

Everything is plain float64.  Real arguments must be positive and finite.
Nielsen beta and the polygammas also take complex arguments with Re z > 0,
and log-gamma and digamma take them on the whole cut plane, which the
Pick-function checks need; the ``*_complex`` names coerce to complex.  All
functions accept scalars or ndarrays and are pure.  Nielsen beta, beta' and
the polygammas and log-gamma are one loop-free recurrence shift, ``_shift``.
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
_BETA_FAR = 40.0
# a shift block holds at most _BLOCK (point, step) terms, about 2^12 points
# at the 12 to 20 steps the functions below take
_BLOCK = 2 ** 16
_MAX_STEPS = 10_000

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


def _shift(x, term, asym, step=1.0, until=_SHIFT, far=math.inf,
           cut_plane=False):
    """f(x) = sum_{k<n} term(x + step k) + asym(x + step n), with n the
    fewest steps that reach Re >= until, and n = 0 where |x| >= far; ``x``
    is checked by ``_prepare`` and a scalar gives a Python scalar.

    The steps of a block of points are one (points x n_max) broadcast,
    summed in order by ``cumsum``, so a point's sum does not depend on the
    block it lands in.  numpy's product of two different complex arrays can
    round by position in the array, so the beta terms are 1/(w*w + w), not
    1/(w*(w+1)): each point then has the same bits alone or in any batch.
    """
    z, scalar = _prepare(x, cut_plane)
    shape, z = z.shape, z.ravel()
    n = np.where(np.abs(z) >= far, 0.0,
                 np.maximum(np.ceil((until - z.real) / step), 0.0))
    n_max = int(n.max(initial=0.0))
    if n_max > _MAX_STEPS:
        raise ConvergenceError(f"recurrence shift needs {n_max} steps")
    out = asym(z + step * n)
    k = step * np.arange(n_max)
    idx = np.flatnonzero(n)
    rows = _BLOCK // max(n_max, 1)
    for lo in range(0, idx.size, rows):
        i = idx[lo:lo + rows]
        terms = np.where(k < step * n[i, None], term(z[i, None] + k), 0.0)
        out[i] += np.cumsum(terms, axis=1)[:, -1]
    return out.item() if scalar else out.reshape(shape)


def _even_series(coeffs, u2):
    """sum_k coeffs[k-1] u2^k for k = 1..len(coeffs), by Horner."""
    s = np.zeros_like(u2)
    for c in coeffs[::-1]:
        s = (s + c) * u2
    return s


def _psi_asym(w):
    return np.log(w) - 0.5 / w - _even_series(_PSI_C, 1.0 / (w * w))


def _psi1_asym(w):
    u = 1.0 / w
    u2 = u * u
    return u + 0.5 * u2 + _even_series(_PSI1_C, u2) * u


def _psi2_asym(w):
    u = 1.0 / w
    u2 = u * u
    return -u2 - u * u2 - _even_series(_PSI2_C, u2) * u2


def _lgamma_asym(w):
    return ((w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi)
            + _even_series(_LGAMMA_C, 1.0 / (w * w)) * w)


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0, abs error below 1e-13; for
    complex input the analytic psi on the plane cut along (-inf, 0]."""
    return _shift(x, lambda w: -1.0 / w, _psi_asym, cut_plane=True)


def trigamma(x):
    """psi'(x) = sum 1/(x+n)^2 for x > 0."""
    return _shift(x, lambda w: 1.0 / (w * w), _psi1_asym)


def tetragamma(x):
    """psi''(x); analytic derivative feed for the log-CM checks."""
    return _shift(x, lambda w: -2.0 / (w * w * w), _psi2_asym)


def log_gamma(x):
    """log Gamma(x) for x > 0; for complex input the analytic log-gamma
    branch on the cut plane (not the log of Gamma)."""
    return _shift(x, lambda w: -np.log(w), _lgamma_asym, cut_plane=True)


def digamma_complex(z):
    """digamma of ``z`` coerced to complex."""
    return digamma(np.asarray(z, dtype=complex))


def log_gamma_complex(z):
    """log_gamma of ``z`` coerced to complex."""
    return log_gamma(np.asarray(z, dtype=complex))


# beta(z) ~ 1/(2z) + sum_k b_k z^(-2k), from the Laplace-Watson expansion of
# 1/(1+e^(-t)) = 1/2 + tanh(t/2)/2; _BETA_DERIV holds -2k b_k for beta'.
_BETA_ASYM = np.array([1 / 4, -1 / 8, 1 / 4, -17 / 16, 31 / 4, -691 / 8,
                       5461 / 4])
_BETA_DERIV = -2.0 * np.arange(1, 8) * _BETA_ASYM


def _beta_asym(z):
    return 0.5 / z + _even_series(_BETA_ASYM, 1.0 / (z * z))


def _beta_deriv_asym(z):
    u = 1.0 / z
    u2 = u * u
    return -0.5 * u2 + _even_series(_BETA_DERIV, u2) * u


def nielsen_beta(x):
    """beta(x) = sum (-1)^n / (x+n), by the pair recurrence
    beta(x) = 1/(x^2 + x) + beta(x+2) up to Re >= 40, then the asymptotic
    series (directly where |x| >= 40); every term is positive for real x.
    Complex input needs Re z > 0; there beta(conj z) = conj beta(z)."""
    return _shift(x, lambda w: 1.0 / (w * w + w), _beta_asym, 2.0,
                  _BETA_FAR, _BETA_FAR)


def nielsen_beta_complex(z):
    """nielsen_beta of ``z`` coerced to complex."""
    return nielsen_beta(np.asarray(z, dtype=complex))


def nielsen_beta_deriv(x):
    """beta'(x) = -sum (-1)^n / (x+n)^2, by the derivative of the pair
    recurrence, -(2x+1)/(x^2 + x)^2 + beta'(x+2), and of the series."""
    return _shift(x, lambda w: -(2.0 * w + 1.0) / (w * w + w) ** 2,
                  _beta_deriv_asym, 2.0, _BETA_FAR, _BETA_FAR)


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
