"""Forward Laplace transforms, periodic closed forms, the sigma/tau
constructions for dilated and translated periodic functions, numerical
inversion, and the convolution semigroup with L(m_c) = beta^c.

Inversion evaluates F only on Re z > 0, which is all the catalog transforms
(beta^c in particular) are defined on.  A single t is inverted by Euler
summation of the Bromwich integral and accepted when Euler summation on a
second line agrees to a relative tolerance.  The semigroup grid m_c(j dt)
comes from one real inverse FFT of beta^c on a vertical line, after
subtracting the singular head of beta^c at infinity.  beta^c is evaluated
only on the band of low frequencies past which the series, bounded by its
first omitted term, stays below 1e-16 absolute (a quarter of the FFT or
less on the default grid; about 5 ms a density).  The grid is accepted
when Euler at up to 128 grid points agrees to a tolerance relative to
max |m_c|.  The check m_c * m_d = m_(c+d) takes the trapezoid on the grid
by one real FFT, less Navot's generalized Euler-Maclaurin terms for the
two singular ends; below t = 132 dt, fixed Gauss rules on cubic
interpolants, also summed by FFT.  Nothing in it is adaptive or O(n^2).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import quad, vectorized
from .errors import DomainError, InversionDisagreementError
from .specfun import (_BETA_ASYM, _like, _positive, _uncancelled, _zeta,
                      nielsen_beta)

# ---------------------------------------------------------------------------
# periodic step functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PeriodicStep:
    """Piecewise-constant T-periodic function: level ``levels[k]`` on
    [breakpoints[k-1], breakpoints[k]) with breakpoints[-1] = T."""

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        lv = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)
        if len(bp) != len(lv):
            raise DomainError("need one level per breakpoint")
        if bp[0] <= 0 or np.any(np.diff(bp) <= 0):
            raise DomainError("breakpoints must satisfy 0 < l_1 < ... < l_n")
        if np.any(lv < 0):
            raise DomainError("levels must be nonnegative")

    @property
    def period(self):
        return float(self.breakpoints[-1])

    def __call__(self, t):
        """Even periodic extension evaluated at any real t."""
        u = np.abs(np.asarray(t, dtype=float)) % self.period
        idx = np.searchsorted(self.breakpoints, u, side="right")
        out = self.levels[np.clip(idx, 0, len(self.levels) - 1)]
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# forward transforms
# ---------------------------------------------------------------------------

def transform_cutoff(x):
    """Upper limit t_max(x) with e^(-x t_max) below roundoff."""
    return (36.0 + math.log1p(1.0 / x)) / x


def _transform_quad(integrand, x, abs_tol, rel_tol):
    """``quad`` of ``integrand`` over [0, t_max(min x)] for checked points
    ``x``, ``integrand(t)`` having one row per x.  The first generation's
    panel boundaries are 1/max x times the powers of 2 up to 12/min x."""
    x_min, x_max = float(np.min(x)), float(np.max(x))
    seeds = 2.0 ** np.arange(int(math.log2(12.0 * x_max / x_min)) + 1) / x_max
    return _like(x, quad(integrand, 0.0, transform_cutoff(x_min),
                         abs_tol=abs_tol, rel_tol=rel_tol, points=seeds))


def laplace_quad(f, x, abs_tol=1e-13, rel_tol=1e-12):
    """int_0^inf e^(-xt) f(t) dt by adaptive quadrature on [0, t_max], for
    points ``x`` (``specfun._positive``).  An array's entries share one
    panel set (``_transform_quad``): each generation of ``quad`` calls
    ``f`` once on its nodes, and e^(-x t) f(t) has one row per x.  Each
    entry meets max(abs_tol, rel_tol |I|), so it agrees with a scalar call
    to that tolerance, not bit for bit.  ``f`` is assumed locally
    integrable with at most polynomial growth."""
    x = _positive(x)
    fv = vectorized(f)
    xs = x[..., None]
    return _transform_quad(lambda t: np.exp(-xs * t) * fv(t), x, abs_tol,
                           rel_tol)


def _step_sum(phi, alpha, beta, x):
    """e^(beta y) sum_k (a_k - a_{k+1}) (1 - e^(-l_k y)) / (1 - e^(-l_n y)),
    y = x / alpha, for a_1 = a_n.  The jumps then sum to 0, so the O(1)
    terms are dropped exactly: the value is e^((beta - l_1) y) S(y), with
    S(y) = sum_(k>=2) (a_(k+1) - a_k) expm1(-(l_k - l_1) y) / -expm1(-l_n y).
    No exponent is positive for beta <= l_1, and nothing cancels."""
    a, bp = phi.levels, phi.breakpoints
    y = x / alpha
    jumps = np.sum((a[2:] - a[1:-1])
                   * np.expm1(-(bp[1:-1] - bp[0]) * y[..., None]), axis=-1)
    return np.exp((beta - bp[0]) * y) * jumps / -np.expm1(-bp[-1] * y)


def sigma_discrete(phi, alpha, beta, x):
    """sigma(x) = a_1 + cosh(beta x / alpha) * sum_k (a_k - a_{k+1}) ...;
    satisfies sigma(x)/x = (1/2) L[phi(alpha t + beta) + phi(alpha t - beta)]."""
    x = _check_shift(phi, alpha, beta, x)
    even = 0.5 * (1.0 + np.exp(-2.0 * beta * x / alpha))
    return _like(x, phi.levels[0] + even * _step_sum(phi, alpha, beta, x))


def tau_discrete(phi, alpha, beta, x, sign=1):
    """tau(x) = max_j a_j +/- 2 sinh(beta x / alpha) * sum_k ...;
    satisfies tau(x)/x = L[A +/- (phi(alpha t + beta) - phi(alpha t - beta))]."""
    x = _check_shift(phi, alpha, beta, x)
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    odd = -np.expm1(-2.0 * beta * x / alpha)
    return _like(x, np.max(phi.levels)
                 + sign * odd * _step_sum(phi, alpha, beta, x))


def _check_shift(phi, alpha, beta, x):
    if phi.levels[0] != phi.levels[-1]:
        raise DomainError("the shifted constructions require a_n = a_1")
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if not 0 <= beta <= phi.breakpoints[0]:
        raise DomainError("beta must lie in [0, l_1]")
    return _positive(x)


_CONT_REL_TOL = 1e-12  # quad's rel_tol on the parts of sigma and tau


def _continuous_parts(dphi, T, alpha, beta, x, breaks, kernel):
    """(x, head, big) for the checked x: head = int_0^beta phi'(t)
    kernel((x/alpha)(t - beta)) dt and big = kernel(beta x/alpha)
    int_0^T phi'(t) e^(-xt/alpha) dt / (1 - e^(-Tx/alpha)).  Where kernel
    overflows, the quadrature raises ConvergenceError."""
    if alpha <= 0 or T <= 0:
        raise DomainError("alpha and T must be positive")
    if not 0 <= beta <= T:
        raise DomainError("beta must lie in [0, T]")
    x = _positive(x)
    xr = x[..., None]  # x against the quadrature nodes
    dv = vectorized(dphi)
    pts = [b for b in (breaks or []) if 0 < b < T]
    head = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if beta > 0:
            head = quad(lambda t: dv(t) * kernel((xr / alpha) * (t - beta)),
                        0.0, beta, abs_tol=1e-14, rel_tol=_CONT_REL_TOL,
                        points=[b for b in pts if b < beta])
        per = quad(lambda t: dv(t) * np.exp(-xr * t / alpha), 0.0, T,
                   abs_tol=1e-14, rel_tol=_CONT_REL_TOL, points=pts)
        big = kernel(beta * x / alpha) * per / -np.expm1(-T * x / alpha)
    return x, head, big


def sigma_continuous(dphi, T, alpha, beta, x, phi_at_beta, breaks=None):
    """The continuous analogue of sigma for an even T-periodic phi that is
    continuous and piecewise smooth, given its derivative on [0, T):

        phi(beta) - int_0^beta phi'(t) cosh((x/alpha)(t - beta)) dt
        + cosh(beta x/alpha)/(1 - e^(-Tx/alpha)) int_0^T phi'(t) e^(-xt/alpha) dt

    Satisfies sigma(x)/x = (1/2) L[phi(alpha t + beta) + phi(alpha t - beta)].
    The two integral terms grow like e^(beta x/alpha) and cancel, so an x
    where quad's tolerance on them would exceed 1e-8 of sigma is a
    ConvergenceError: on the |t| sawtooth with alpha = beta = pi/2 it is
    3.7e-10 of sigma at x = 8 and 1.4e-8 at x = 12.
    """
    x, head, big = _continuous_parts(dphi, T, alpha, beta, x, breaks, np.cosh)
    return _like(x, _uncancelled("sigma", x, phi_at_beta - head + big,
                                 _CONT_REL_TOL * (abs(head) + abs(big))))


def tau_continuous(dphi, T, alpha, beta, x, phi_max, sign=1, breaks=None):
    """The continuous analogue of tau:

        A +/- 2 [ int_0^beta phi'(t) sinh((x/alpha)(t - beta)) dt
                  + sinh(beta x/alpha)/(1 - e^(-Tx/alpha))
                    int_0^T phi'(t) e^(-xt/alpha) dt ]

    with the same ConvergenceError as ``sigma_continuous`` where the two
    terms cancel beyond quad's tolerance.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    x, head, big = _continuous_parts(dphi, T, alpha, beta, x, breaks, np.sinh)
    return _like(x, _uncancelled("tau", x, phi_max + sign * 2.0 * (head + big),
                                 2.0 * _CONT_REL_TOL * (abs(head) + abs(big))))


# ---------------------------------------------------------------------------
# numerical inversion
# ---------------------------------------------------------------------------

def _euler_rule(A, N, M):
    binom = np.array([math.comb(M, j) for j in range(M + 1)], dtype=float)
    return A, N, binom / 2.0 ** M


_EULER = _euler_rule(23.0, 32, 18)        # the value
_EULER_CHECK = _euler_rule(18.4, 40, 20)  # the cross-check, on another line
_INVERT_TOL = 1e-6  # laplace_invert's gate on the spread of the two lines


def euler_inversion_grid(F, ts, rule=_EULER):
    """Bromwich inversion with Euler summation at every t in ``ts``, of any
    shape; nodes (A + 2 pi i k)/(2t), k = 0..N+M.  F must map a complex
    ndarray to one."""
    ts = np.asarray(ts, dtype=float)
    A, N, binom = rule
    k = np.arange(0, N + len(binom))
    s = (A + 2j * math.pi * k) / (2.0 * ts[..., None])
    vals = np.real(F(s.ravel()).reshape(s.shape))
    terms = vals * (-1.0) ** k
    terms[..., 0] *= 0.5
    sums = np.cumsum(terms, axis=-1)
    avg = sums[..., N:] @ binom
    return np.exp(A / 2.0) / ts * avg


def laplace_invert(F, t):
    """Invert F at each t > 0: the Euler value, once Euler summation on a
    second Bromwich line agrees with it to 1e-6 relative (20 times
    the worst spread measured for beta^c, c in [0.2, 2], t in [1e-3, 12])."""
    value, spread = laplace_invert_diag(F, t)
    if not np.all(spread <= _INVERT_TOL):
        raise InversionDisagreementError(
            f"inversion methods disagree at t={t}: spread {np.max(spread):.3e}")
    return value


def laplace_invert_diag(F, t):
    """(value, relative spread of the two Euler lines) without the gate.
    F is called once per line on all nodes, or per node if scalar-only."""
    t = _positive(t)
    Fv = vectorized(F)
    value = euler_inversion_grid(Fv, t)
    check = euler_inversion_grid(Fv, t, _EULER_CHECK)
    scale = np.maximum(np.maximum(abs(value), abs(check)), 1e-300)
    return _like(t, value), _like(t, abs(value - check) / scale)


# ---------------------------------------------------------------------------
# the semigroup m_c with L(m_c) = beta^c
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampledDensity:
    """The density m_c tabulated on the uniform grid t_j = j dt, j = 1..n.

    ``method_spread`` is max |Euler - FFT| / max |Euler| over the sparse
    Euler points, ``spread_t`` the t where |Euler - FFT| peaks,
    ``fft_points`` the length M of the inverse FFT and ``fft_band`` the
    number K of its frequencies at which beta^c was evaluated."""

    c: float
    t: np.ndarray
    values: np.ndarray
    raw_min: float
    method_spread: float
    spread_t: float
    fft_points: int
    fft_band: int

    @property
    def dt(self):
        return float(self.t[1] - self.t[0])

    def to_csv(self):
        rows = np.column_stack([self.t, self.values]).ravel().tolist()
        return "t,value\n" + ("%.12g,%.15g\n" * len(self.t)) % tuple(rows)


def beta_power(c):
    """z -> beta(z)^c via the principal logarithm (beta is zero-free on
    Re z > 0, so the power is single valued there), for c in (0, C_MAX]:
    beyond C_MAX the head inverses of ``_fft_inversion_grid`` divide by
    Gamma(c + 5), which overflows.  Anything else raises DomainError."""
    if not 0 < c <= C_MAX:
        raise DomainError(f"c must be in (0, {C_MAX:g}], got {c}")

    def F(z):
        return np.exp(c * np.log(nielsen_beta(z)))

    return F


_HEAD_TERMS = 6     # J, the singular terms subtracted before the FFT
C_MAX = 166.0       # the largest c with Gamma(c + J - 1) finite
_HEAD_SHIFT = 1.0   # sigma in w = 1/(z + sigma)
_FFT_STEP = 1e-2    # the FFT samples t every dt / L <= _FFT_STEP
_FFT_MAX = 2 ** 22  # the longest FFT a grid may take (64 MB of complex)
_BAND_TOL = 1e-16   # the bound on the band's truncation error, absolute
_EULER_POINTS = 128
_GRID_SPREAD_TOL = 1e-7


def _beta_power_head(c):
    """b_j, j <= J, with beta(z)^c = sum_(j<=J) b_j w^(c+j) + O(z^(-c-J-1))
    and w = 1/(z + sigma): the J subtracted terms and the first omitted one.

    2 z beta(z) = P(1/z) = 1 + sum_k 2 _BETA_ASYM[k-1] z^(1-2k); Miller's
    recurrence gives the series q of P^c, and z^(-c-n) = w^(c+n)
    (1 - sigma w)^(-c-n) re-expands each term by the binomial series."""
    J = _HEAD_TERMS + 1
    p = np.zeros(J)
    p[1::2] = 2.0 * _BETA_ASYM[:J // 2]
    q = [1.0]
    for n in range(1, J):
        q.append(sum((k * (c + 1.0) - n) * p[k] * q[n - k]
                     for k in range(1, n + 1)) / n)
    b = np.zeros(J)
    for n in range(J):
        binom = 1.0                 # (c+n)_m sigma^m / m!
        for m in range(J - n):
            b[n + m] += q[n] * binom
            binom *= (c + n + m) * _HEAD_SHIFT / (m + 1.0)
    return 2.0 ** -c * b


def _fft_inversion_grid(c, dt, t):
    """(m_c on the grid t = dt, 2 dt, ..., (M, K)): the Fourier series of
    period 2T = M h, h = dt / L, of beta^c on the line Re z = a, summed by
    one real inverse FFT of length M, after subtracting the head
    sum_(j<J) b_j (z + sigma)^(-c-j), whose inverses
    t^(c-1) e^(-sigma t) sum_j b_j t^j / Gamma(c+j) are added back.

    The series is cut at frequency 2 pi / h, so a coarse dt is sampled L
    times finer.  e^(-2Ta) m_c(t + 2T) is the aliasing error, and m_c grows
    like t^(c-1), so a carries (c - 1) log(1 + 2T/t_max) on top of the 25
    that bound it for c <= 1; the shift sigma keeps the head's inverses
    from aliasing.

    The residual is formed only on the band k < K.  Past it the series is
    bounded by its first omitted term, |b_J| omega^(-c-J), omega = 2 pi k /
    2T, summed over k >= K and amplified by e^(a t): at most
    e^(a t_max) |b_J| omega_(K-1)^(1-c-J) / (pi (c+J-1)).  K is the least
    power of two, at most M, that holds this to _BAND_TOL: 16,384 for
    c <= 0.5 and 2,048 at c = 4 on the default grid, M on coarse ones."""
    n = len(t)
    L = math.ceil(dt / _FFT_STEP)
    M = max(2 ** 15, 1 << (4 * n * L - 1).bit_length())
    period = M * dt / L
    t_max = n * dt
    a = (25.0 + max(c - 1.0, 0.0) * math.log1p(period / t_max)) \
        / (period - t_max)
    b = _beta_power_head(c)
    J = _HEAD_TERMS
    s = c + J - 1.0
    omega = (math.exp(a * t_max) * abs(b[J]) / (math.pi * s * _BAND_TOL)) \
        ** (1.0 / s)
    K = min(M, 1 << math.ceil(omega * period / (2.0 * math.pi)).bit_length())
    z = a + 2j * math.pi * np.arange(K) / period
    w = 1.0 / (z + _HEAD_SHIFT)
    residual = beta_power(c)(z)
    wk = w ** c
    for bj in b[:J]:
        residual -= bj * wk
        wk *= w
    # the series, r_0 halved, is Re ifft(r, M) = irfft(X, M)/2 with the
    # Hermitian fold X_0 = r_0 (twice the halved term), X_k = r_k +
    # conj r_(M-k), X_(M/2) = 2 r_(M/2); only a band K > M/2 + 1 reaches
    # the conjugate terms
    h = M // 2
    fold = np.zeros(h + 1, complex)
    fold[:min(K, h + 1)] = residual[:h + 1]
    fold[M - K + 1:h] += residual[h + 1:K][::-1].conj()
    fold[h] *= 2.0
    series = np.fft.irfft(fold, M)[L:n * L + 1:L] * (M / period)
    poly = (b[:J] / [math.gamma(c + j) for j in range(J)])[::-1]
    added = t ** (c - 1.0) * np.exp(-_HEAD_SHIFT * t) * np.polyval(poly, t)
    return series * np.exp(a * t) + added, (M, K)


def _grid_size(dt, t_max):
    """n = round(t_max / dt) >= 2 points j dt, j = 1..n, or DomainError."""
    if not (dt > 0 and math.isfinite(t_max / dt)) or round(t_max / dt) < 2:
        raise DomainError(f"grid dt={dt}, t_max={t_max} needs dt > 0, a finite "
                          "t_max / dt and at least 2 points")
    return int(round(t_max / dt))


def semigroup_density(c, dt=1e-3, t_max=12.0):
    """Tabulate m_c on [dt, t_max] by one FFT inversion of beta^c, checked
    against Euler inversion at up to 128 evenly spaced grid points, for c
    in (0, C_MAX] (DomainError beyond).  On the default grid the check
    passes at c = 43.5 (spread 9.76e-8) and refuses the grid from c = 44
    on (1.015e-7).  A grid whose FFT would exceed 2^22 points (dt = 1e-5
    at t_max = 12 would take 2^23) is a DomainError before anything is
    allocated.

    The Euler line moves right by (c - 1) log 3 for c > 1, which keeps its
    aliasing error, about e^(-A) m_c(3t) / m_c(t), at e^(-23) as m_c grows.
    The gate of 1e-7 on the spread is 20 times the worst measured for
    c in [0.01, 4] on grids with dt from 1e-4 to 2."""
    F = beta_power(c)
    n = _grid_size(dt, t_max)
    # M > 2^22 exactly when 4 n L does, L as in _fft_inversion_grid
    if 4 * n * math.ceil(min(dt / _FFT_STEP, _FFT_MAX)) > _FFT_MAX:
        raise DomainError(f"grid dt={dt}, t_max={t_max} needs an FFT of "
                          "more than 2^22 points")
    ts = dt * np.arange(1, n + 1)
    values, (M, K) = _fft_inversion_grid(c, dt, ts)
    idx = np.linspace(0, n - 1, min(n, _EULER_POINTS)).round().astype(int)
    A, N, binom = _EULER
    euler = euler_inversion_grid(
        F, ts[idx], (A + max(c - 1.0, 0.0) * math.log(3.0), N, binom))
    err = np.abs(euler - values[idx])
    peak = float(np.max(np.abs(euler)))
    if peak == 0.0:
        raise InversionDisagreementError(
            f"every Euler value of m_{c:g} underflows to 0 on the grid, "
            "so FFT and Euler inversions cannot be compared")
    spread = float(np.max(err)) / peak
    if not spread <= _GRID_SPREAD_TOL:
        raise InversionDisagreementError(
            f"FFT and Euler inversions disagree: spread {spread:.3e}")
    raw_min = float(np.min(values))
    if raw_min < -1e-8:
        raise InversionDisagreementError(
            f"inverted density significantly negative: {raw_min:.3e}")
    return SampledDensity(c=c, t=ts, values=np.maximum(values, 0.0),
                          raw_min=raw_min, method_spread=spread,
                          spread_t=float(ts[idx][np.argmax(err)]),
                          fft_points=M, fft_band=K)


_J_DIRECT = 132     # Navot's error falls like j^-4: 6e-13 relative at j = 133
# 10 times the worst sup |m_c * m_d - m_(c+d)| on the default grid over
# c, d in {0.1, 0.2, 0.5, 1, 2} (3.7e-11, at c = d = 2)
SEMIGROUP_TOL = 4e-10


def _phi_taylor(c):
    """a_k, k <= 3, with phi_c(s) = s^(1-c) m_c(s) = sum_k a_k s^k + O(s^4):
    the head of ``_fft_inversion_grid``, e^(-sigma s) sum_j b_j s^j /
    Gamma(c+j), is exact to that order; a_0 = 2^(-c)/Gamma(c)."""
    b = _beta_power_head(c)[:4] / [math.gamma(c + j) for j in range(4)]
    e = [(-_HEAD_SHIFT) ** m / math.factorial(m) for m in range(4)]
    return np.array([sum(b[j] * e[k - j] for j in range(k + 1))
                     for k in range(4)])


def _gauss_jacobi(b):
    """Nodes and weights of the 12-point Gauss rule for int_0^1 y^b g(y) dy,
    b > -1: the eigenvalues of the Jacobi matrix (Golub-Welsch)."""
    k = np.arange(1.0, 12.0)
    diag = b * b / ((2 * k + b) * (2 * k + b + 2.0))
    off = 2.0 * k * (k + b) / (2 * k + b) / np.sqrt((2 * k + b) ** 2 - 1.0)
    x, vec = np.linalg.eigh(np.diag(np.concatenate([[b / (b + 2.0)], diag]))
                            + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (x + 1.0), vec[0] ** 2 / (b + 1.0)


def _cubic(f, x):
    """The cubic through f[k..k+3] at x, k = floor(x) - 1 kept inside f."""
    k = np.clip(np.floor(x).astype(int) - 1, 0, len(f) - 4)
    x = x - k
    return (-(x - 1.0) * (x - 2.0) * (x - 3.0) * f[k] / 6.0
            + x * (x - 2.0) * (x - 3.0) * f[k + 1] / 2.0
            - x * (x - 1.0) * (x - 3.0) * f[k + 2] / 2.0
            + x * (x - 1.0) * (x - 2.0) * f[k + 3] / 6.0)


def _causal_conv(a, b, n):
    """The first n terms of the linear convolution of a and b along axis 0,
    by one real FFT pair."""
    return np.fft.irfft(np.fft.rfft(a, 2 * n, axis=0)
                        * np.fft.rfft(b, 2 * n, axis=0), 2 * n, axis=0)[:n]


def _conv_head(tc, td, c, d, dt, J):
    """(m_c * m_d)(t_j), j <= J, with m_c(s) = s^(c-1) phi_c(s) and phi_c
    cubic through ``tc``, its values at 0, dt, 2 dt, ...  Gauss-Jacobi rules
    for s^(c-1) on [0, a] and (t-s)^(d-1) on [t - a, t], a = dt (dt/2 at
    j = 1); on interior cell i, Gauss-Legendre node g meets node g mirrored
    in cell j - 1 - i, one convolution over cells per node."""
    def m(tab, e, s):
        return s ** (e - 1.0) * _cubic(tab, s / dt)

    t = dt * np.arange(1, J + 1)[:, None]
    a = np.where(t == dt, 0.5 * dt, dt)
    (yc, wc), (yd, wd), (y, w) = (_gauss_jacobi(c - 1.0),
                                  _gauss_jacobi(d - 1.0), _gauss_jacobi(0.0))
    ends = (a ** c * _cubic(tc, a * yc / dt) * m(td, d, t - a * yc)) @ wc + \
        (a ** d * _cubic(td, a * yd / dt) * m(tc, c, t - a * yd)) @ wd
    cells = dt * np.arange(J)[:, None]
    pc, pd = m(tc, c, cells + dt * y), m(td, d, cells + dt * (1.0 - y))
    pc[0] = pd[0] = 0.0                 # cell 0 is an end cell
    return ends + dt * _causal_conv(pc, pd, J) @ w


def _navot_end(f, c, a, dt):
    """Navot's term sum_(k<=3) zeta(1-c-k) h^(c+k) g^(k)(0)/k! at the end
    s = 0 of the trapezoid for int_0^t s^(c-1) g(s) ds, g(s) = phi(s) f(t-s)
    with phi = sum_k a_k s^k, at every t of the table f from the third on.
    h^r f^(r)(t)/r! come from the quartic through 5 table points, centred
    but at the last two t, so the term is one 5-point stencil of f."""
    z = [_zeta(1.0 - c - k) for k in range(4)]
    ah = a * dt ** np.arange(4)
    lam = dt ** c * np.array([(-1) ** r * sum(z[k] * ah[k - r] for k in
                                              range(r, 4)) for r in range(5)])
    p = np.arange(5)
    stencils = [np.linalg.solve(((p - q)[:, None] ** p).T, lam)
                for q in (2, 3, 4)]
    win = np.lib.stride_tricks.sliding_window_view(f, 5)
    return np.concatenate([[np.nan, np.nan], win @ stencils[0],
                           win[-1] @ np.transpose(stencils[1:])])


def convolve_densities(dc, dd):
    """(m_c * m_d) on the common grid of ``dc`` and ``dd``, with c and d
    the orders they record.

    Past t = 132 dt: the trapezoid on the grid, without the singular end
    values, by one real FFT, less Navot's end terms for s^(c-1) at s = 0
    and (t-s)^(d-1) at s = t.  Up to there: ``_conv_head``."""
    if not (np.array_equal(dc.t, dd.t) and len(dc.t) >= 3):
        raise DomainError("convolve_densities needs both densities on one "
                          "grid of at least 3 points")
    c, d, dt, n = dc.c, dd.c, dc.dt, len(dc.t)
    J = min(n, _J_DIRECT)
    ac, ad = _phi_taylor(c), _phi_taylor(d)
    tc, td = (np.concatenate([[a[0]], dens.values[:J + 2]
                              * dens.t[:J + 2] ** (1.0 - e)])
              for dens, e, a in ((dc, c, ac), (dd, d, ad)))
    out = np.empty(n)
    out[:J] = _conv_head(tc, td, c, d, dt, J)
    if n > J:
        fc, fd = dc.values, dd.values
        out[J:] = (dt * _causal_conv(fc, fd, n - 1)[J - 1:]
                   - _navot_end(fd, c, ac, dt)[J:]
                   - _navot_end(fc, d, ad, dt)[J:])
    return out


def semigroup_check(c, d, dt=1e-3, t_max=12.0):
    """sup_t |(m_c * m_d)(t) - m_{c+d}(t)| over the tabulation grid."""
    if not (c > 0 and d > 0):
        raise DomainError("need c, d > 0")
    dc = semigroup_density(c, dt, t_max)
    dd = dc if d == c else semigroup_density(d, dt, t_max)
    dcd = semigroup_density(c + d, dt, t_max)
    conv = convolve_densities(dc, dd)
    return float(np.max(np.abs(conv - dcd.values)))


# ---------------------------------------------------------------------------
# Hamburger's product formula
# ---------------------------------------------------------------------------

def hamburger_check(n, x):
    """(lhs, rhs) of the Hamburger partial-product identity

        (x prod_{k<=n} (1 + x^2/(k pi)^2))^(-1)
            = 2^n/C(2n,n) int e^(-xt) (1 - cos(pi t))^n dt,

    floats for a scalar x, arrays of x's shape for an array (one
    ``laplace_quad`` for all of it)."""
    if not (isinstance(n, int) and 0 <= n <= 6):
        raise DomainError("n must be an integer in [0, 6]")
    x = _positive(x)
    k = np.arange(1, n + 1, dtype=float)
    lhs = 1.0 / (x * np.prod(1.0 + x[..., None] ** 2 / (k * math.pi) ** 2,
                             axis=-1))
    rhs = 2.0 ** n / math.comb(2 * n, n) * laplace_quad(
        lambda t: (1.0 - np.cos(math.pi * t)) ** n, x, abs_tol=1e-13)
    return _like(x, lhs), _like(x, rhs)
