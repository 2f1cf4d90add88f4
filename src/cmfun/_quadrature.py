"""Adaptive Gauss-Kronrod quadrature (G7/K15) of real or vector-valued
integrands, one integrand call per generation of panels, and two nested
exp-sinh rules: for int_0^inf f(w) e^(-w) dw and for int_a^inf g."""

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
_LIMIT = 2000  # panels quad may evaluate in all before it gives up
_TINY = np.finfo(float).tiny

def _levels(lo, hi, shift, damped):
    """The levels of a nested exp-sinh rule (Takahasi & Mori 1974) in
    u = exp(pi/2 sinh tau), tau = j/512 for lo <= j <= hi, as (step, u,
    du/dtau, times e^(-u) when ``damped``) at each level's new nodes,
    ascending.  Level 0 holds j - shift = 0 (mod 64), step 1/8; level k
    holds j - shift = k (mod 2k), step k/512, for k = 32, 16, ..., 1."""
    j, levels = np.arange(lo, hi + 1), []
    for k in (64, 32, 16, 8, 4, 2, 1):
        tau = j[(j - shift) % min(2 * k, 64) == k % 64] / 512.0
        u = np.exp(0.5 * np.pi * np.sinh(tau))
        du = 0.5 * np.pi * np.cosh(tau) * u
        levels.append((k / 512.0, u, du * np.exp(-u) if damped else du))
    return levels


# int_0^inf f(w) e^(-w) dw with w = u from 5e-306 to 60.  Level 0 holds
# tau = 1/16 + i/8, so the first four levels (step 1/64) are exactly
# tau = i/64, -435 <= i <= 108.
EXP_SINH_LEVELS = _levels(-3480, 864, 32, True)


def exp_sinh_rule(levels):
    """(w, weights) of the trapezoid made of the first ``levels`` levels of
    EXP_SINH_LEVELS, ascending in w: a fixed rule for int_0^inf f e^(-w)."""
    step = EXP_SINH_LEVELS[levels - 1][0]
    w = np.concatenate([lv[1] for lv in EXP_SINH_LEVELS[:levels]])
    h = np.concatenate([lv[2] for lv in EXP_SINH_LEVELS[:levels]])
    order = np.argsort(w)
    return w[order], step * h[order]


# int_a^inf g (Bailey, Jeyabalan & Li 2005) with m = a (1 + u), u from
# 2e-31 to 3e146.  A knee of g at m = x needs a step of about 1/log(x/a):
# for g ~ m^-2 the rule stops at step 1/16 up to x/a = 100, at 1/64 up to
# 3e9, and step 1/512 reaches 1e80 (1e51 for g ~ m^-6).
_NESTED_LEVELS = _levels(-2304, 3104, 0, False)


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


def _panels(f, lo, hi):
    """(Kronrod sums, error estimates) of ``f`` on the panels [lo, hi]
    (1-D arrays), from one call of ``f`` on the 15 nodes of every panel.
    ``f`` returns its values along the last axis, behind any leading axes;
    both results have shape (leading axes..., panels)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()))
    fx = fx.reshape(fx.shape[:-1] + (len(lo), 15))
    ik = (_WEIGHTS_K * fx).sum(axis=-1)
    if not np.isfinite(ik).all():
        # the Kronrod weights are all positive, so this catches any value
        # of fx that is not finite before the Gauss weights' zeros meet it
        p = np.nonzero(~np.isfinite(ik))[-1][0]
        raise ConvergenceError(
            f"integrand is not finite on the panel [{lo[p]}, {hi[p]}]")
    ik *= half
    e = np.abs(ik - half * (fx @ _WEIGHTS_G))
    # the Kronrod estimate superconverges; the standard rescaling credits it
    scale = half * (np.abs(fx) @ _WEIGHTS_K)
    below = e < scale
    ratio = np.divide(e, scale, out=np.zeros_like(e), where=below)
    e = np.where(below, scale * np.minimum(1.0, (200.0 * ratio) ** 1.5), e)
    return ik, e


def quad(f, a, b, abs_tol=1e-12, rel_tol=1e-12, points=None):
    """Integrate ``f`` over [a, b] adaptively, in generations of panels.

    ``f`` maps a 1-D ndarray of abscissae to values along the last axis;
    leading axes make a vector-valued integrand, and the result has their
    shape.  Each generation calls ``f`` once, on the 15 Kronrod nodes of
    all of its new panels; the first holds the panels between a, b and the
    ``points`` inside (breakpoints, kinks).  The loop stops when every
    component's error sum is at most max(abs_tol, rel_tol |total|).  Else
    each panel's error is divided by its component's tolerance and the
    largest ratio over components is its score; the panels of the lowest
    scores that sum to at most 1/2 are kept and the others halved.
    Raises ConvergenceError when the next generation would take the
    panels evaluated in all past _LIMIT, or when a Kronrod sum, the total
    or its error sum is not finite.
    """
    edges = [a, b]
    if points is not None:
        edges += [p for p in points if a < p < b]
    edges = np.array(sorted(set(float(e) for e in edges)))
    lo, hi = edges[:-1], edges[1:]
    ik, err = _panels(f, lo, hi)
    count = len(lo)
    while True:
        total, err_sum = ik.sum(axis=-1), err.sum(axis=-1)
        if not (np.isfinite(total).all() and np.isfinite(err_sum).all()):
            raise ConvergenceError(
                f"quadrature on [{a}, {b}] is not finite: total {total}, "
                f"error {err_sum}")
        # floored at _TINY for an exact zero total with abs_tol 0
        tol = np.maximum(max(abs_tol, _TINY), rel_tol * np.abs(total))
        if (err_sum <= tol).all():
            return total[()]
        score = (err / tol[..., None]).reshape(-1, len(lo)).max(axis=0)
        order = score.argsort(kind="stable")
        split = np.ones(len(lo), dtype=bool)
        split[order[score[order].cumsum() <= 0.5]] = False
        new = 2 * np.count_nonzero(split)
        if count + new > _LIMIT:
            raise ConvergenceError(
                f"quadrature did not converge on [{a}, {b}]: error "
                f"{np.max(err_sum):.3e} after {count} panels")
        count += new
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        ik2, err2 = _panels(f, new_lo, new_hi)
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        ik = np.concatenate([ik[..., keep], ik2], axis=-1)
        err = np.concatenate([err[..., keep], err2], axis=-1)


def _nested_levels(levels, level_sum, knee=0.0, offset=0.0,
                   what="nested exp-sinh sum"):
    """(total, closed) of one or more rows of a nested exp-sinh sum over
    ``levels`` (EXP_SINH_LEVELS or _NESTED_LEVELS).

    ``level_sum(level, nodes, weights, rows)`` is, per open row, the
    weighted sum over the level's new nodes; ``rows`` is ``...`` (all) at
    level 0, an index array after.  A level's value is half the one before
    plus the step times that sum.  From level 1 on, a row closes at the
    first level whose step is at most 1/knee and which agrees with the one
    before to 1e-10 relative to |offset + value|: the double-exponential
    error then squares to rounding level.  Nodes lie knee times the step
    apart in log u where the integrand turns, and coarser levels can agree
    while they miss that.  A row at inf closes (inf - inf is nan, which
    does not disagree).  ``knee`` and ``offset`` are scalars or per row.
    closed[i] is the step at which row i closed, 0 if none did.  Invalid
    operations are silent, in ``level_sum`` too; a level that is nan
    raises ConvergenceError, naming the sum by ``what``."""
    rows = ...
    with np.errstate(invalid="ignore"):  # inf - inf, as above
        for level, (step, nodes, weights) in enumerate(levels):
            previous = total[rows] if level else 0.0
            current = 0.5 * previous + step * level_sum(level, nodes,
                                                        weights, rows)
            if np.isnan(current).any():
                raise ConvergenceError(f"{what} is nan at step {step}")
            if not level:
                total = np.atleast_1d(current)
                closed = np.zeros_like(total)
                knee, offset = closed + knee, closed + offset
                rows = np.arange(total.size)
                continue
            total[rows] = current
            change = np.abs(current - previous)
            done = (step * knee[rows] <= 1.0) & ~(
                change > 1e-10 * np.abs(offset[rows] + current))
            closed[rows[done]] = step
            rows = rows[~done]
            if not rows.size:
                break
    return total, closed


def exp_sinh_to_inf(g, a):
    """int_a^inf g(m) dm for a > 0, by ``_nested_levels`` on
    _NESTED_LEVELS with no knee.

    ``g`` maps an ndarray of m to values along the last axis (leading axes
    make one integral per row) and is called once per level, on its new
    nodes; a row keeps the value a 1-D call would give.  Raises
    ConvergenceError, never returning inf or nan, when a row is not
    finite, when a row's last node at step 1/16 exceeds 1e-17 of its sum
    over the step it closed at (g decays too slowly for the range), or
    when no level closes a row.  Overflow and underflow are silent.
    """
    seen = {}

    def level_sum(level, u, du, rows):
        values = np.asarray(g(a + a * u), dtype=float)
        terms = a * du * values.reshape(-1, len(u))[rows]
        seen.setdefault("shape", values.shape[:-1])
        if level == 1:
            seen["last"] = np.abs(terms[:, -1])
        return terms.sum(axis=-1)
    with np.errstate(over="ignore", under="ignore"):
        total, closed = _nested_levels(_NESTED_LEVELS, level_sum,
                                       what=f"exp-sinh integral from {a}")
    if not np.isfinite(total).all():
        raise ConvergenceError(f"exp-sinh integral from {a} is not finite")
    if np.any(closed * seen["last"] > 1e-17 * np.abs(total)):
        raise ConvergenceError(
            f"integrand decays too slowly for the exp-sinh range from {a}")
    if not closed.all():
        raise ConvergenceError(
            f"exp-sinh integral from {a} did not converge by step 1/512")
    return total.reshape(seen["shape"])[()]
