"""Adaptive Gauss-Kronrod quadrature (G7/K15), real or complex integrands,
a fixed exp-sinh rule for int_0^inf f(w) e^(-w) dw and a nested exp-sinh
rule for int_a^inf g."""

import cmath
import heapq
import math

import numpy as np

from .errors import ConvergenceError

# Kronrod-15 abscissae on [0, 1] side of [-1, 1]; even symmetry.  Full
# precision values from QUADPACK (Piessens et al. 1983, routine qk15).
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
# Gauss-7 weights matching _XK[1], _XK[3], _XK[5], _XK[7]
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])          # 15 ascending nodes
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])
_LIMIT = 2000  # panels before quad gives up

# Exp-sinh rule for int_0^inf f(w) e^(-w) dw (Takahasi & Mori 1974):
# w = exp(pi/2 sinh tau), trapezoid in tau with step 1/64 on
# [-435/64, 108/64], i.e. 544 nodes w from 5e-306 to 60.
_EXP_SINH_TAU = np.arange(-435, 109) / 64.0
EXP_SINH_NODES = np.exp(0.5 * np.pi * np.sinh(_EXP_SINH_TAU))
EXP_SINH_WEIGHTS = (0.5 * np.pi / 64.0) * np.cosh(_EXP_SINH_TAU) * \
    EXP_SINH_NODES * np.exp(-EXP_SINH_NODES)


# Nested exp-sinh rule for int_a^inf g (Bailey, Jeyabalan & Li 2005):
# m = a (1 + u), u = exp(pi/2 sinh tau), trapezoid in tau on
# [-2304/512, 3104/512], i.e. u from 2e-31 to 3e146.  Level 0 has step 1/8
# and each further level halves the step and adds only the new nodes, down
# to step 1/512.  A knee of g at m = x needs a step of about 1/log(x/a):
# for g ~ m^-2 the rule stops at step 1/16 up to x/a = 100, at 1/64 up to
# 3e9, and step 1/512 reaches 1e80 (1e51 for g ~ m^-6).  Each level is
# (step, u, du/dtau) at its new nodes, ascending in tau.
def _nested_nodes(j):
    """(u, du/dtau) of the nested rule at tau = j/512."""
    tau = j / 512.0
    u = np.exp(0.5 * np.pi * np.sinh(tau))
    return u, 0.5 * np.pi * np.cosh(tau) * u


_NESTED_LEVELS = [(0.125, *_nested_nodes(np.arange(-2304, 3105, 64)))] + [
    (k / 512.0, *_nested_nodes(np.arange(-2304 + k, 3105, 2 * k)))
    for k in (32, 16, 8, 4, 2, 1)]


def vectorized(f):
    """Wrap ``f`` so it maps an ndarray to an ndarray of the same shape.

    Each call first hands ``f`` the whole array.  A scalar-only ``f`` (one
    that raises on it or returns another shape, such as ``math.exp`` or a
    constant) is then called once per element instead.
    """
    def wrapped(x):
        x = np.asarray(x)
        try:
            out = f(x)
            if np.shape(out) == x.shape:
                return out
        except Exception:  # scalar-only f: fall through to the element loop
            pass
        return np.array([f(v) for v in x.flat]).reshape(x.shape)
    return wrapped


def _panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = f(mid + half * _NODES)
    ik = half * np.sum(_WEIGHTS_K * fx)
    if not cmath.isfinite(ik):
        # the Kronrod weights are all positive, so this catches any value
        # of fx that is not finite before the Gauss weights' zeros meet it
        raise ConvergenceError(
            f"integrand is not finite on the panel [{a}, {b}]")
    ig = half * np.sum(_WEIGHTS_G * fx)
    e = abs(ik - ig)
    # the Kronrod estimate superconverges; the standard rescaling credits it
    scale = half * float(np.sum(_WEIGHTS_K * np.abs(fx)))
    if scale > 0 and e < scale:
        e = scale * min(1.0, (200.0 * e / scale) ** 1.5)
    return ik, e


def quad(f, a, b, abs_tol=1e-12, rel_tol=1e-12, points=None):
    """Integrate ``f`` over [a, b] adaptively.

    ``f`` must accept an ndarray of abscissae.  ``points`` seeds extra panel
    boundaries (breakpoints, kinks).  Raises ConvergenceError when the
    subdivision limit is hit before the tolerance, or when the total or
    its error estimate is not finite.
    """
    edges = [a, b]
    if points is not None:
        edges += [p for p in points if a < p < b]
    edges = sorted(set(float(e) for e in edges))
    heap = []
    total = 0.0  # a complex panel sum promotes it
    err_sum = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        ik, err = _panel(f, lo, hi)
        total += ik
        err_sum += err
        heapq.heappush(heap, (-err, lo, hi, ik))
    count = len(heap)
    while err_sum > max(abs_tol, rel_tol * abs(total)) and heap:
        if count > _LIMIT:
            raise ConvergenceError(
                f"quadrature did not converge on [{a}, {b}]: "
                f"error {err_sum:.3e} after {count} panels")
        neg_err, lo, hi, ik = heapq.heappop(heap)
        err_sum += neg_err  # neg_err is -err
        total -= ik
        mid = 0.5 * (lo + hi)
        for p, q in ((lo, mid), (mid, hi)):
            i2, e2 = _panel(f, p, q)
            total += i2
            err_sum += e2
            heapq.heappush(heap, (-e2, p, q, i2))
        count += 2
    if not (np.isfinite(total) and math.isfinite(err_sum)):
        raise ConvergenceError(
            f"quadrature on [{a}, {b}] is not finite: total {total}, "
            f"error {err_sum}")
    return total


def exp_sinh_to_inf(g, a):
    """int_a^inf g(m) dm for a > 0, by the nested exp-sinh rule.

    ``g`` maps an ndarray of m to an ndarray and is called once per level,
    on that level's new nodes.  The levels stop when two successive ones
    agree to 1e-10 relative; the double-exponential error then squares,
    so the last level is at rounding level.  Raises ConvergenceError,
    never returning inf or nan, when a level is not finite, when the
    last node's term exceeds 1e-17 of the sum (g decays too slowly for
    the range), or when step 1/512 still disagrees with step 1/256.
    Overflow and underflow at the far nodes are silent: a g that
    overflows a denominator there correctly reads 0.
    """
    total = 0.0
    with np.errstate(over="ignore", under="ignore"):
        for level, (step, u, du) in enumerate(_NESTED_LEVELS):
            terms = a * du * np.asarray(g(a + a * u), dtype=float)
            previous, total = total, 0.5 * total + step * float(np.sum(terms))
            if not math.isfinite(total):
                raise ConvergenceError(
                    f"exp-sinh integral from {a} is not finite at step {step}")
            if level == 1:
                last = terms[-1]
            if level and abs(total - previous) <= 1e-10 * abs(total):
                if abs(step * last) > 1e-17 * abs(total):
                    raise ConvergenceError(
                        f"integrand decays too slowly for the exp-sinh range "
                        f"from {a}")
                return total
    raise ConvergenceError(
        f"exp-sinh integral from {a} did not converge: steps 1/256 and "
        f"1/512 differ by {abs(total - previous):.3e}")
