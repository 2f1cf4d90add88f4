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
from .specfun import _like, _positive, nielsen_beta, prym_P, trigamma

FAMILIES = ("nu", "tau", "half-gumbel")
_MAX_SAMPLES = 2 ** 20  # a sample costs about 0.55 kB of peak memory


@dataclass(frozen=True)
class DensitySpec:
    """One of the density families with its positive parameter a."""

    family: str
    a: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"family must be one of {FAMILIES}")
        if not 0 < self.a < math.inf:
            raise DomainError(f"a must be finite and positive, got {self.a}")


def normalization(spec):
    """The normalizing constant: beta(a), psi'(a) or P(a)."""
    if spec.family == "nu":
        return nielsen_beta(spec.a)
    if spec.family == "tau":
        return trigamma(spec.a)
    return prym_P(spec.a)


def density_eval(spec, t):
    """Pointwise density value(s) for finite t > 0."""
    t = _positive(t)
    a = spec.a
    norm = normalization(spec)
    if spec.family == "nu":
        out = np.exp(-a * t) / (norm * (1.0 + np.exp(-t)))
    elif spec.family == "tau":
        out = t * np.exp(-a * t) / (norm * -np.expm1(-t))
    else:
        out = np.exp(-a * t - np.exp(-t)) / norm
    return _like(t, out)


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
    t = np.asarray(t)
    if np.iscomplexobj(t) or not (t.size and np.all(t >= 0)):
        raise DomainError("need t >= 0")
    t = t.astype(float)
    edges, cdf = _cdf_table(spec)
    t_cl = np.minimum(t, edges[-1])
    j = np.clip(np.searchsorted(edges, t_cl, side="right") - 1,
                0, len(edges) - 2)
    half = 0.5 * (t_cl - edges[j])
    mid = edges[j] + half
    pts = np.maximum(mid[..., None] + half[..., None] * _NODES, 1e-300)
    return _like(t, np.where(t >= edges[-1], cdf[-1], cdf[j] + half * (
        density_eval(spec, pts) @ _WEIGHTS_K)))


def density_quantile(spec, u):
    """Inverse CDF: Newton on the exact CDF from the table interpolant.
    It returns the first iterate whose residual |CDF(t) - u| is at rounding
    level (2^-52), or the one a step past a residual below 1e-12, and
    raises DomainError unless that residual is at most 1e-10."""
    u = np.asarray(u)
    if np.iscomplexobj(u) or not (u.size and np.all((u > 0.0) & (u < 1.0))):
        raise DomainError("u must lie in (0, 1)")
    u = u.astype(float)
    edges, cdf = _cdf_table(spec)
    t = np.interp(u, cdf, edges)
    f = density_cdf(spec, t) - u
    for _ in range(60):
        residual = np.max(np.abs(f))
        if residual <= 2.0 ** -52:
            break
        df = density_eval(spec, np.maximum(t, 1e-300))
        t = np.clip(t - f / np.maximum(df, 1e-300), edges[0], edges[-1])
        f = density_cdf(spec, t) - u
        if residual < 1e-12:    # Newton's next step gains nothing more
            break
    residual = np.max(np.abs(f))
    if residual > 1e-10:
        raise DomainError(f"quantile Newton failed: residual {residual:.2e}")
    return _like(u, t)


def density_sample(spec, count, seed):
    """Inverse-CDF samples from a seeded deterministic generator."""
    if not 1 <= count <= _MAX_SAMPLES:
        raise DomainError(
            f"count must be in [1, {_MAX_SAMPLES}], got {count}")
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
    values = np.asarray(samples, dtype=float).tolist()
    return "t\n" + ("%.15g\n" * len(values)) % tuple(values)
