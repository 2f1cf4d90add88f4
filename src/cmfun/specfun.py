"""Special functions: Nielsen beta, polygammas, log-gamma, si/ci, Prym's
function, the binomial-weighted beta family and log-gamma ratios.

Everything is plain float64.  Real arguments must be positive and finite.
Nielsen beta and the polygammas also take complex arguments with Re z > 0,
and log-gamma and digamma take them on the whole cut plane, which the
Pick-function checks need; the dtype of the argument picks the branch.  All
functions accept scalars or ndarrays, are pure and run one numpy pass with
no Python loop over points or series terms.  Nielsen beta, beta', the
polygammas and log-gamma are one recurrence shift, ``_shift``; si/ci is a
fixed 18-term series up to x = 4 and the fixed exp-sinh rule beyond, Prym's
P a fixed 20-term sum and beta_(a,lambda) one Chebyshev-accelerated sum.
Each sum runs in index order, so an array entry equals the scalar call.
"""

import math
from functools import lru_cache

import numpy as np

from ._quadrature import exp_sinh_rule
from ._series import alternating_sum, ordered_sum, running_product
from .errors import ConvergenceError, DomainError

EULER_GAMMA = 0.5772156649015328606065

_SHIFT = 12.0
_BETA_FAR = 40.0
# a shift or si/ci block holds at most _BLOCK (point, step) terms, about
# 2^9 points at the 12 to 20 steps the shift takes: a block's complex
# temporaries (128 kB each) then stay in cache, where 2^16 terms did not
_BLOCK = 2 ** 13
_MAX_STEPS = 10_000
_EPS = float(np.finfo(float).eps)
_CANCEL_TOL = 1e-8  # the most of a value its cancelling parts' error may be
# si/ci's fixed exp-sinh rule: step 1/64, 544 nodes w from 5e-306 to 60
_SI_CI_NODES, _SI_CI_WEIGHTS = exp_sinh_rule(4)

# B_{2k}/(2k), B_{2k}, (2k+1) B_{2k}, B_{2k}/((2k)(2k-1)) for k = 1..8
_PSI_C = np.array([1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                   -691 / 32760, 1 / 12, -3617 / 8160])
_PSI1_C = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                    -691 / 2730, 7 / 6, -3617 / 510])
_PSI2_C = np.array([3 / 6, -5 / 30, 7 / 42, -9 / 30, 55 / 66,
                    -13 * 691 / 2730, 15 * 7 / 6, -17 * 3617 / 510])
_LGAMMA_C = np.array([1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
                      -691 / 360360, 1 / 156, -3617 / 122400])


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
        arr = np.atleast_1d(_positive(z))
    return arr, np.ndim(z) == 0


def _positive(x):
    """``x`` as a float ndarray, after checking that it is real, holds at
    least one entry and that every entry is a point: a finite float > 0
    (DomainError otherwise)."""
    arr = np.asarray(x)
    if arr.size and not np.iscomplexobj(arr):
        arr = arr.astype(float, copy=False)
        if ((arr > 0) & np.isfinite(arr)).all():
            return arr
    raise DomainError(f"a point must be finite and positive, got {x}")


def _like(x, value):
    """``value``, an array of the shape of the checked points ``x``, as the
    contract returns it: a Python float for a 0-d x."""
    return value if x.ndim else float(value)


def _shift(x, term, asym, step=1.0, until=_SHIFT, far=math.inf,
           cut_plane=False):
    """f(x) = sum_{k<n} term(x + step k) + asym(x + step n), with n the
    fewest steps that reach Re >= until, and n = 0 where |x| >= far; ``x``
    is checked by ``_prepare`` and a scalar gives a Python scalar.

    The steps of a block of points are one (points x n_max) broadcast,
    summed in order by ``ordered_sum``, so a point's sum does not depend on
    the block it lands in.  numpy's product of two different complex arrays can
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
    rows = max(_BLOCK // max(n_max, 1), 1)
    for lo in range(0, idx.size, rows):
        i = idx[lo:lo + rows]
        terms = np.where(k < step * n[i, None], term(z[i, None] + k), 0.0)
        out[i] += ordered_sum(terms)
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


@lru_cache(maxsize=256)
def _zeta(s):
    """Riemann zeta at a float s != 1: Euler-Maclaurin from N = 10 with the
    eight Bernoulli terms of _PSI1_C, after the functional equation
    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s) for s < -1.
    Cached: the Barnes kernel asks for the same zeta(2m) on every panel."""
    if s < -1.0:
        return (2.0 ** s * math.pi ** (s - 1.0) * math.sin(0.5 * math.pi * s)
                * math.gamma(1.0 - s) * _zeta(1.0 - s))
    N = 10.0
    total = (float(np.sum(np.arange(1.0, N) ** -s))
             + N ** (1.0 - s) / (s - 1.0) + 0.5 * N ** -s)
    rising = s                      # s (s+1) ... (s+2k-2)
    for k, b in enumerate(_PSI1_C, start=1):
        total += b / math.factorial(2 * k) * rising * N ** (1.0 - s - 2 * k)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return float(total)


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


def nielsen_beta_deriv(x):
    """beta'(x) = -sum (-1)^n / (x+n)^2, by the derivative of the pair
    recurrence, -(2x+1)/(x^2 + x)^2 + beta'(x+2), and of the series."""
    return _shift(x, lambda w: -(2.0 * w + 1.0) / (w * w + w) ** 2,
                  _beta_deriv_asym, 2.0, _BETA_FAR, _BETA_FAR)


# Power series of Si and Cin up to x = 4, k = 1..18: row 0 of the running
# product of x^2 _SI_CIN_STEP is (-1)^k x^(2k) / (2k+1)!, and
# Si(x) = x (1 + sum of it over 2k+1); row 1 is (-1)^k x^(2k) / (2k)!, and
# -Cin(x) = sum of it over 2k.  The first terms left out are below 4e-21.
_K = np.arange(1.0, 19.0)
_SI_CIN_STEP = -1.0 / np.array([2.0 * _K * (2.0 * _K + 1.0),
                                (2.0 * _K - 1.0) * 2.0 * _K])
_SI_CIN_DIV = np.array([2.0 * _K + 1.0, 2.0 * _K])
# ln 2 = _LN2_HI + _LN2_LO; e _LN2_HI is exact for every float exponent e
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# (-1)^n / n!, n < 20: Prym's series past n = 19 is below 1.1e-18 of P(x)
_PRYM_C = running_product(lambda n: -1.0 / n, 20)


def _si_ci_series(x):
    """(si(x), ci(x)) for a 1-D array of x <= 4 by the fixed power series
    of Si and Cin(x) = int_0^x (1 - cos t)/t dt, with ci = gamma + log x -
    Cin.  gamma + log x would round twice, up to 3.5e-15 off near x = 1e-8;
    with log x = e ln 2 + log m, m in [1/2, 1), and e _LN2_HI exact, only
    the last sum rounds at the size of ci."""
    x2 = (x * x)[:, None, None]
    sums = ordered_sum(np.multiply.accumulate(x2 * _SI_CIN_STEP, axis=2)
                       / _SI_CIN_DIV)
    m, e = np.frexp(x)
    return (x * (1.0 + sums[:, 0]) - 0.5 * math.pi,
            e * _LN2_HI + ((EULER_GAMMA + sums[:, 1])
                           + (np.log(m) + e * _LN2_LO)))


def _si_ci_aux(x):
    """(si(x), ci(x)) for a 1-D array of x from the auxiliary integrals
    (f, g) = int_0^inf e^(-xu) (1, u)/(1 + u^2) du: the exp-sinh rule in
    w = x u, in blocks of at most _BLOCK (point, node) terms."""
    f, g = np.empty_like(x), np.empty_like(x)
    rows = _BLOCK // len(_SI_CI_NODES)
    for lo in range(0, x.size, rows):
        xb = x[lo:lo + rows]
        u = _SI_CI_NODES / xb[:, None]
        h = _SI_CI_WEIGHTS / (1.0 + u * u)
        f[lo:lo + rows] = ordered_sum(h) / xb
        g[lo:lo + rows] = ordered_sum(h * u) / xb
    cos, sin = np.cos(x), np.sin(x)
    return -f * cos - g * sin, f * sin - g * cos


def sin_cos_integrals(x):
    """(si(x), ci(x)) with si(x) = Si(x) - pi/2 and ci the cosine integral.

    The fixed 18-term power series up to x = 4; beyond, the auxiliary
    functions f = L[1/(1+u^2)](x) and g = L[u/(1+u^2)](x) by the fixed
    step-1/64 exp-sinh rule, giving si = -f cos - g sin and ci = f sin - g cos.
    Scalars give floats; each array entry equals the scalar call.
    """
    arr = _positive(x)
    z = arr.ravel()
    si, ci = np.empty_like(z), np.empty_like(z)
    for part, rule in ((z <= 4.0, _si_ci_series), (z > 4.0, _si_ci_aux)):
        if part.any():
            si[part], ci[part] = rule(z[part])
    return _like(arr, si.reshape(arr.shape)), _like(arr, ci.reshape(arr.shape))


def prym_P(x):
    """Prym's function P(x) = sum (-1)^n / (n!(x+n)), the fixed 20 terms."""
    arr = _positive(x)
    return _like(arr, ordered_sum(_PRYM_C / (arr[..., None] + np.arange(20.0))))


def beta_a_lambda(x, a, lam):
    """sum (-1)^n (a)_n/n! (x+n)^(-lam) for x > 0, 0 < a <= 1, lam > 0."""
    arr = _positive(x)
    if not 0 < a <= 1:
        raise DomainError(f"a must be in (0, 1], got {a}")
    if not lam > 0:
        raise DomainError(f"lam must be positive, got {lam}")
    poch = running_product(lambda k: (a + k - 1.0) / k, 30)
    return _like(arr, alternating_sum(
        lambda k: poch[k] * (arr[..., None] + k) ** (-lam), n_terms=30))


def gamma_ratio_log(x, a, b):
    """log[ Gamma(x) Gamma(x+a+b) / (Gamma(x+a) Gamma(x+b)) ], nonnegative;
    exactly 0 when a or b is 0.  The four log-gammas cancel, so an x where
    eps times the sum of their moduli exceeds 1e-8 of the value is a
    ConvergenceError (it is 1.2e-10 of it at x = 150, a = 0.5, b = 1.3)."""
    x = _positive(x)
    if a < 0 or b < 0:
        raise DomainError("a and b must be nonnegative")
    if a == 0 or b == 0:
        return _like(x, np.zeros(x.shape))
    parts = [log_gamma(x), log_gamma(x + a + b), log_gamma(x + a),
             log_gamma(x + b)]
    return _uncancelled("gamma_ratio_log", x,
                        parts[0] + parts[1] - parts[2] - parts[3],
                        _EPS * sum(abs(p) for p in parts))


def _uncancelled(name, x, value, error):
    """``value`` at the checked points ``x``, once ``error``, a bound on the
    rounding or quadrature error of the parts that cancel in it, is at most
    _CANCEL_TOL of it (ConvergenceError otherwise)."""
    bad = ~(error <= _CANCEL_TOL * np.abs(value))
    if bad.any():
        raise ConvergenceError(f"{name} at x = {x[bad][0]:g} cancels: its "
                               f"parts' error exceeds {_CANCEL_TOL:g} of it")
    return value
