"""Grid-based property checkers: complete monotonicity via higher-order
finite differences, logarithmic complete monotonicity, Pick functions on
the upper half plane, and the explicit counterexample construction for
generalized Stieltjes orders above 2.

A checker can refute a property (witnesses are genuine sign violations well
beyond the rounding slack) or corroborate it on the grid; it never proves it.

Checkers are batch-first: each calls ``f`` once on the whole grid (an
ndarray of points x + j h, or the complex Pick region) and then works on
the values.  A scalar-only callable (``math.exp``, a constant,
``cmath.exp``) is adapted by ``_quadrature.vectorized``, which then calls
it once per point.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import vectorized
from .errors import DomainError

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CheckGrid:
    """Evaluation grid: log-spaced points, step h = x / 16, difference
    orders up to n_max."""

    x_points: np.ndarray
    n_max: int = 8

    def __post_init__(self):
        pts = np.asarray(self.x_points, dtype=float)
        object.__setattr__(self, "x_points", pts)
        if not (np.all((pts > 0) & (pts < math.inf))
                and np.all(np.diff(pts) > 0)):
            raise DomainError("x_points must be finite, positive, increasing")
        if not float(self.n_max).is_integer() or self.n_max < 1:
            raise DomainError(
                f"n_max must be an integer >= 1, got {self.n_max}")
        object.__setattr__(self, "n_max", int(self.n_max))

    @staticmethod
    def default(n_points=32, lo=0.05, hi=100.0, n_max=8):
        return CheckGrid(np.geomspace(lo, hi, n_points), n_max=n_max)


@dataclass(frozen=True)
class Witness:
    x: float
    n: int
    value: float
    slack: float


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a grid check; fails iff some witness value < -slack."""

    passed: bool
    worst_margin: float
    witnesses: tuple = ()
    sup_im: float = None
    inf_im: float = None
    error: str = None


def _grid_points(grid):
    """The (len(x_points), n_max + 1) array of points x + j h, h = x / 16."""
    x = grid.x_points[:, None]
    return x + np.arange(grid.n_max + 1) * (x / 16.0)


def _cm_report(vals, grid, eps):
    """The cm_check verdict for f's values on ``_grid_points(grid)``; a NaN
    difference is a witness."""
    witnesses = []
    worst = math.inf
    for x, row in zip(grid.x_points, vals.tolist()):
        scale = max(abs(v) for v in row)
        for n in range(grid.n_max + 1):
            diff = math.fsum((-1) ** j * math.comb(n, j) * row[j]
                             for j in range(n + 1))
            slack = 16.0 * 2 ** n * eps * scale
            worst = min(worst, diff + slack)
            if not diff >= -slack:
                witnesses.append(Witness(float(x), n, diff, slack))
    return CheckReport(passed=not witnesses, worst_margin=worst,
                       witnesses=tuple(witnesses))


def _values(f, pts):
    """f on the ndarray ``pts`` as floats; one call when f takes arrays."""
    return np.asarray(vectorized(f)(pts), dtype=float)


def cm_check(f, grid=None):
    """Check (-1)^n-alternating finite differences of f for nonnegativity.

    For each grid point x and n <= n_max the quantity
        sum_j (-1)^j C(n, j) f(x + j h)
    is nonnegative when f is completely monotonic; it must stay above
    -slack with slack = 16 * 2^n * eps * max_j |f(x + j h)|, eps the
    float64 machine epsilon.
    """
    grid = grid or CheckGrid.default()
    return _cm_report(_values(f, _grid_points(grid)), grid, _EPS)


def lcm_check(f, grid=None, df=None):
    """Logarithmic complete monotonicity: f > 0 and -f'/f completely
    monotonic.  With no analytic derivative, a central difference with step
    x * 1e-6 is used and the rounding slack widened accordingly."""
    grid = grid or CheckGrid.default()
    pts = _grid_points(grid)
    if df is None:
        d = pts * 1e-6
        fx, fp, fm = _values(f, np.stack([pts, pts + d, pts - d]))
    else:
        fx = _values(f, pts)
    bad = ~(fx > 0)
    if bad.any():
        witnesses = tuple(Witness(float(x), 0, float(v), 0.0)
                          for x, v in zip(pts[bad], fx[bad]))
        return CheckReport(passed=False,
                           worst_margin=min(w.value for w in witnesses),
                           witnesses=witnesses)
    if df is not None:
        g = -_values(df, pts) / fx
        noise = _EPS
    else:
        g = -(fp - fm) / (2.0 * d) / fx
        noise = 1e-9
    return _cm_report(g, grid, noise)


def pick_region():
    """Complex ndarray grid of 40 x 40 points on [-20, 20] x [0.5, 20] less
    those within 0.1 of the cut (-inf, 0]."""
    re, im = np.meshgrid(np.linspace(-20.0, 20.0, 40),
                         np.linspace(0.5, 20.0, 40), indexing="ij")
    dist = np.where(re <= 0, np.abs(im), np.hypot(re, im))
    return (re + 1j * im)[dist >= 0.1]


def pick_check(h, floor=-1e-10):
    """Im h >= floor on ``pick_region()``; reports the Im range.

    A point where h raises, or returns NaN, is a witness with value NaN;
    the report's ``error`` is the first exception raised at a point, as
    "<Type>: <message>".
    """
    pts = pick_region()
    errors = []

    def guarded(z):
        try:
            return np.asarray(h(z), dtype=complex)
        except Exception as exc:  # evaluation failures reported per point
            if np.ndim(z) == 0:  # not the whole-region call of vectorized
                errors.append(f"{type(exc).__name__}: {exc}")
            return complex(math.nan, math.nan)

    im = np.imag(vectorized(guarded)(pts))
    bad = np.isnan(im) | (im < floor)
    witnesses = tuple(Witness(float(z.real), 0, float(v), float(z.imag))
                      for z, v in zip(pts[bad], im[bad]))
    return CheckReport(passed=not witnesses,
                       worst_margin=float(np.fmin.reduce(im - floor,
                                                         initial=math.inf)),
                       witnesses=witnesses,
                       sup_im=float(np.fmax.reduce(im, initial=-math.inf)),
                       inf_im=float(np.fmin.reduce(im, initial=math.inf)),
                       error=errors[0] if errors else None)


@dataclass(frozen=True)
class Counterexample:
    c: float
    z_c: complex
    residual: float


def find_lcm_counterexample(r):
    """A zero of g_c(z) = (c/(1+c)) z^(-r) + (1/(1+c)) (z+1)^(-r) in the
    right half plane, for r > 2.

    The map z/(z+1) sends the right half plane onto the disk |w - 1/2| < 1/2;
    w = rho e^(i pi / r) with rho = 0.8 cos(pi/r) lies inside, so w^r = -c
    with c = rho^r and z_c = w/(1-w) gives g_c(z_c) = 0.  A function with a
    right-half-plane zero cannot be logarithmically completely monotonic.

    The residual is |g_c(z_c)| relative to the sum of the two terms'
    moduli, taken from their logarithms so that it stays meaningful where
    the terms underflow.  r must be finite and leave c a positive normal
    float (r below about 3170).
    """
    if not 2 < r < math.inf:
        raise DomainError(f"r must be finite and exceed 2, got {r}")
    rho = 0.8 * math.cos(math.pi / r)
    c = rho ** r
    if c < np.finfo(float).tiny:
        raise DomainError(f"c = rho^r = {c:.3g} underflows at r = {r}")
    w = rho * cmath.exp(1j * math.pi / r)
    z_c = w / (1.0 - w)
    logs = (math.log(c / (1.0 + c)) - r * cmath.log(z_c),
            -math.log1p(c) - r * cmath.log(z_c + 1.0))
    top = max(v.real for v in logs)
    terms = [cmath.exp(v - top) for v in logs]
    return Counterexample(c=c, z_c=z_c,
                          residual=abs(sum(terms)) / sum(map(abs, terms)))


def lemma_pos_check(c):
    """h(t) = t - sin t + c (1 - cos t - t sin(t)/2) >= -1e-12 at 2,000
    even points of (0, 50]."""
    if not 0 <= c <= 1:
        raise DomainError("c must lie in [0, 1]")
    floor = -1e-12
    ts = np.linspace(0.025, 50.0, 2000)
    vals = ts - np.sin(ts) + c * (1.0 - np.cos(ts) - 0.5 * ts * np.sin(ts))
    worst = float(np.min(vals))
    witnesses = tuple(Witness(float(t), 0, float(v), -floor)
                      for t, v in zip(ts, vals) if v < floor)
    return CheckReport(passed=not witnesses, worst_margin=worst - floor,
                       witnesses=witnesses)


def conjugate_symmetry_spread(h, zs):
    """max |h(conj z) - conj h(z)| over the sample points, from one call of
    h on all of them per side."""
    zs = np.asarray(zs, dtype=complex)
    hv = vectorized(h)
    return float(np.max(np.abs(hv(zs.conj()) - np.conj(hv(zs)))))
