"""The explicit infinitely divisible probability densities on (0, inf):

    nu_a(t)  = e^(-at) / (beta(a) (1 + e^(-t)))
    tau_a(t) = t e^(-at) / (psi'(a) (1 - e^(-t)))
    d_a(t)   = e^(-at - e^(-t)) / P(a)          (half-Gumbel for a = 1)

with normalization, CDF/quantile machinery and seeded inverse-CDF sampling.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._quadrature import _NODES, _WEIGHTS_K, quad
from .errors import DomainError
from .specfun import nielsen_beta, prym_P, trigamma

FAMILIES = ("nu", "tau", "half-gumbel")


@dataclass(frozen=True)
class DensitySpec:
    """One of the density families with its positive parameter a."""

    family: str
    a: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"family must be one of {FAMILIES}")
        if not self.a > 0:
            raise DomainError("a must be positive")


def normalization(spec):
    """The normalizing constant: beta(a), psi'(a) or P(a)."""
    if spec.family == "nu":
        return nielsen_beta(spec.a)
    if spec.family == "tau":
        return trigamma(spec.a)
    return prym_P(spec.a)


def density_eval(spec, t):
    """Pointwise density value(s) for finite t > 0."""
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((t > 0) & np.isfinite(t)):
        raise DomainError("densities live on finite t > 0")
    a = spec.a
    norm = normalization(spec)
    if spec.family == "nu":
        out = np.exp(-a * t) / (norm * (1.0 + np.exp(-t)))
    elif spec.family == "tau":
        out = t * np.exp(-a * t) / (norm * -np.expm1(-t))
    else:
        out = np.exp(-a * t - np.exp(-t)) / norm
    return float(out[0]) if scalar else out


def support_cutoff(spec):
    """t beyond which the upper tail is below 1e-16 of the mass."""
    return (40.0 + math.log1p(1.0 / spec.a)) / spec.a


@lru_cache(maxsize=32)
def _cdf_table(spec):
    """Checkpointed CDF on a uniform grid (4096 cells, one 15-point panel
    each, so the cumulative is machine accurate)."""
    t_hi = support_cutoff(spec)
    edges = np.linspace(0.0, t_hi, 4097)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (mid[:, None] + half * _NODES[None, :]).ravel()
    vals = density_eval(spec, pts).reshape(len(mid), -1)
    cells = half * vals @ _WEIGHTS_K
    cdf = np.concatenate([[0.0], np.cumsum(cells)])
    return edges, cdf


def density_cdf(spec, t):
    """CDF(t) = int_0^t density; checkpoint plus one short exact panel.

    The panel never exceeds one table cell, so a single 15-point rule is
    already machine accurate; fully vectorized.
    """
    scalar = np.isscalar(t) or np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(t >= 0):
        raise DomainError("need t >= 0")
    edges, cdf = _cdf_table(spec)
    t_cl = np.minimum(t, edges[-1])
    j = np.clip(np.searchsorted(edges, t_cl, side="right") - 1,
                0, len(edges) - 2)
    half = 0.5 * (t_cl - edges[j])
    mid = edges[j] + half
    pts = np.maximum(mid[:, None] + half[:, None] * _NODES[None, :], 1e-300)
    vals = density_eval(spec, pts.ravel()).reshape(pts.shape)
    out = cdf[j] + half * (vals @ _WEIGHTS_K)
    out[t >= edges[-1]] = cdf[-1]
    return float(out[0]) if scalar else out


def density_quantile(spec, u):
    """Inverse CDF: Newton on the exact CDF from the table interpolant;
    raises DomainError unless |CDF(quantile(u)) - u| <= 1e-10."""
    scalar = np.isscalar(u) or np.ndim(u) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise DomainError("u must lie in (0, 1)")
    edges, cdf = _cdf_table(spec)
    t = np.interp(u, cdf, edges)
    for _ in range(60):
        f = density_cdf(spec, t) - u
        df = density_eval(spec, np.maximum(t, 1e-300))
        step = f / np.maximum(df, 1e-300)
        t = np.clip(t - step, edges[0], edges[-1])
        if np.max(np.abs(f)) < 1e-12:
            break
    residual = np.max(np.abs(density_cdf(spec, t) - u))
    if residual > 1e-10:
        raise DomainError(f"quantile Newton failed: residual {residual:.2e}")
    return float(t[0]) if scalar else t


def density_sample(spec, count, seed):
    """Inverse-CDF samples from a seeded deterministic generator."""
    if count < 1:
        raise DomainError("count must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    return density_quantile(spec, np.clip(u, 1e-15, 1.0 - 1e-15))


def normalization_residual(spec):
    """int_0^inf density - 1 (should vanish to ~1e-12)."""
    t_hi = support_cutoff(spec)
    total = quad(lambda t: density_eval(spec, t), 0.0, t_hi,
                 abs_tol=1e-14, rel_tol=1e-12)
    return total - 1.0


def ks_statistic(samples, spec):
    """Two-sided Kolmogorov-Smirnov statistic of samples against the CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = len(s)
    c = density_cdf(spec, s)
    upper = np.max(np.arange(1, n + 1) / n - c)
    lower = np.max(c - np.arange(0, n) / n)
    return max(upper, lower)


def ks_critical(n, alpha=0.01):
    """Asymptotic critical value of the KS statistic."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def samples_to_csv(samples):
    lines = ["t"]
    lines += [f"{v:.15g}" for v in np.asarray(samples, dtype=float).tolist()]
    return "\n".join(lines) + "\n"
