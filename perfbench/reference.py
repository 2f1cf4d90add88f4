"""Reference values from scipy, mpmath and closed forms.

Nothing here calls cmfun, so the references are independent of the code
under test.  They are computed before timing starts.
"""

import math

import mpmath as mp
import numpy as np
from scipy import special

mp.mp.dps = 30


def mp_beta(z):
    """Nielsen's beta (psi((z+1)/2) - psi(z/2))/2 in mpmath."""
    return (mp.digamma((z + 1) / 2) - mp.digamma(z / 2)) / 2


# -- eval keys (CLI defaults: a = 0.5, b = 1.0, lam = 1.0, n = 1) ------------

def eval_beta(x):
    return float(mp_beta(mp.mpf(x)))


def eval_prym(x):
    """P(x) = int_0^1 t^(x-1) e^(-t) dt, the lower incomplete gamma."""
    return float(mp.gammainc(x, 0, 1))


def eval_beta_a_lambda(x, a=0.5, lam=1.0):
    """sum (-1)^n (a)_n/n! (x+n)^(-lam) through its Laplace integral
    (1/Gamma(lam)) int e^(-xt) (1+e^(-t))^(-a) t^(lam-1) dt."""
    f = lambda t: mp.exp(-x * t) * (1 + mp.exp(-t)) ** (-a) * t ** (lam - 1)
    return float(mp.quad(f, [0, 1, 10, mp.inf]) / mp.gamma(lam))


def eval_gamma_ratio_log(x, a=0.5, b=1.0):
    """(value, scale): the scipy gammaln combination, and the size of the
    terms that cancel in it (the error of either side scales with it)."""
    terms = special.gammaln([x, x + a + b, x + a, x + b])
    value = terms[0] + terms[1] - terms[2] - terms[3]
    return float(value), float(np.sum(np.abs(terms)))


def eval_p_kernel(t):
    """p_1(t) from its defining k-series, summed by mpmath."""
    t = mp.mpf(t)

    def term(k):
        w = 2 * mp.pi * k
        den = t * t + w * w
        return (4 * mp.pi * k / den + 8 * mp.pi * k * t / den ** 2
                + 2 * t / (w * den)) / w

    return float(mp.nsum(term, [1, mp.inf]) / (t * t))


def eval_r22(w):
    """R_{2,2}(w) = int e^(-wt) t^2 p_1(t) dt, term by term: with
    om = 2 pi k, z = w om and the auxiliary functions
    f(z) = Ci(z) sin z - si(z) cos z, g(z) = -Ci(z) cos z - si(z) sin z,
    each k contributes (2 - 2w) f(z)/om + (2 + 2 g(z))/om^2."""
    w = mp.mpf(w)

    def term(k):
        om = 2 * mp.pi * k
        z = w * om
        si = mp.si(z) - mp.pi / 2
        ci = mp.ci(z)
        f = ci * mp.sin(z) - si * mp.cos(z)
        g = -ci * mp.cos(z) - si * mp.sin(z)
        return (2 - 2 * w) * f / om + (2 + 2 * g) / om ** 2

    return float(mp.nsum(term, [1, mp.inf]))


def eval_reference(key, x):
    """(value, rtol, atol) for one ``cmfun eval`` row."""
    if key == "beta":
        return eval_beta(x), 1e-12, 1e-15
    if key == "digamma":
        return float(special.digamma(x)), 1e-12, 1e-14
    if key == "trigamma":
        return float(special.polygamma(1, x)), 1e-12, 1e-15
    if key == "prym":
        return eval_prym(x), 1e-12, 1e-15
    if key == "beta-a-lambda":
        return eval_beta_a_lambda(x), 1e-10, 1e-14
    if key == "gamma-ratio-log":
        value, scale = eval_gamma_ratio_log(x)
        return value, 1e-12, 1e-14 * scale
    if key in ("si", "ci"):
        # cmfun's si is the shifted si(x) = Si(x) - pi/2
        big_si, ci = special.sici(x)
        return float(big_si - math.pi / 2 if key == "si" else ci), 1e-12, 1e-14
    if key == "p-kernel":
        return eval_p_kernel(x), 1e-11, 1e-15
    if key == "r22":
        return eval_r22(x), 1e-10, 1e-15
    raise KeyError(key)


# -- densities ----------------------------------------------------------------

def nu_moments(a):
    """Mean and variance of nu_a, whose Laplace transform is
    beta(x + a)/beta(a): mean = -beta'(a)/beta(a), E T^2 = beta''(a)/beta(a)."""
    a = mp.mpf(a)
    b0 = mp_beta(a)
    mean = -mp.diff(mp_beta, a, 1) / b0
    second = mp.diff(mp_beta, a, 2) / b0
    return float(mean), float(second - mean * mean)


# -- measures -----------------------------------------------------------------

def gamma_ratio_measure(x, a, b):
    """log[Gamma(x) Gamma(x+a+b) / (Gamma(x+a) Gamma(x+b))] in mpmath."""
    lg = mp.loggamma
    return float(lg(x) + lg(x + a + b) - lg(x + a) - lg(x + b))


def gamma_reciprocal_measure(x, s):
    """Gamma(s+1) Gamma(x)/Gamma(x+s+1) by lgamma differences."""
    return math.exp(math.lgamma(x) - math.lgamma(x + s + 1.0)
                    + math.lgamma(s + 1.0))


def alternating_measure(x, lam, off):
    """sum (-1)^n (x + off + n)^(-lam), Lerch's transcendent at z = -1."""
    # mpmath may return an mpc with a zero imaginary part here
    return float(mp.re(mp.lerchphi(-1, lam, x + off)))


def genus1_measure(x, zeros, a, b):
    """sum over zeros z of log[(1+(x+a)/z)(1+(x+b)/z) / ((1+x/z)(1+(x+a+b)/z))]."""
    total = mp.mpf(0)
    for z in zeros:
        total += (mp.log1p((x + a) / z) + mp.log1p((x + b) / z)
                  - mp.log1p(x / z) - mp.log1p((x + a + b) / z))
    return float(total)


def series_reference(preset, x):
    """sum a_n/(x+n)^lam for the three-way presets at their default lam."""
    if preset == "prym":
        return eval_prym(x)
    if preset == "alternating":
        return eval_beta(x)
    if preset == "ones":
        return float(mp.psi(1, x))
    raise KeyError(preset)


# -- inversion ----------------------------------------------------------------

def beta_power_inverse(c, t):
    """m_c(t), the inverse Laplace transform of beta^c, by mpmath's Talbot
    contour at 30 digits."""
    return float(mp.invertlaplace(lambda p: mp_beta(p) ** c, t,
                                  method="talbot"))
