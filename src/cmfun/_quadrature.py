"""Adaptive Gauss-Kronrod quadrature (G7/K15) of real, complex or
vector-valued integrands, one integrand call per generation of panels,
and two nested exp-sinh rules: for int_0^inf f(w) e^(-w) dw and for
int_a^inf g."""

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

# Nested exp-sinh rule for int_0^inf f(w) e^(-w) dw (Takahasi & Mori 1974):
# w = exp(pi/2 sinh tau), trapezoid in tau on [-3480/512, 864/512], i.e.
# w from 5e-306 to 60.  Level 0 has step 1/8 and each further level halves
# the step and adds only the new nodes, down to step 1/512.  Level 0 holds
# tau = 1/16 + i/8, so the first four levels (step 1/64) are exactly
# tau = i/64, -435 <= i <= 108.  Each level is (step, w, e^(-w) dw/dtau)
# at its new nodes, ascending in tau.
def _exp_sinh_nodes(j):
    """(w, e^(-w) dw/dtau) of the exp-sinh rule at tau = j/512."""
    tau = j / 512.0
    w = np.exp(0.5 * np.pi * np.sinh(tau))
    return w, 0.5 * np.pi * np.cosh(tau) * w * np.exp(-w)


_J = np.arange(-3480, 865) - 32  # tau - 1/16, in units of 1/512
EXP_SINH_LEVELS = [(0.125, *_exp_sinh_nodes(32 + _J[_J % 64 == 0]))] + [
    (k / 512.0, *_exp_sinh_nodes(32 + _J[_J % (2 * k) == k]))
    for k in (32, 16, 8, 4, 2, 1)]


def exp_sinh_rule(levels):
    """(w, weights) of the trapezoid made of the first ``levels`` levels of
    EXP_SINH_LEVELS, ascending in w: a fixed rule for int_0^inf f e^(-w)."""
    step = EXP_SINH_LEVELS[levels - 1][0]
    w = np.concatenate([lv[1] for lv in EXP_SINH_LEVELS[:levels]])
    h = np.concatenate([lv[2] for lv in EXP_SINH_LEVELS[:levels]])
    order = np.argsort(w)
    return w[order], step * h[order]


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


def _panels(f, lo, hi):
    """(Kronrod sums, error estimates) of ``f`` on the panels [lo, hi]
    (1-D arrays), from one call of ``f`` on the 15 nodes of every panel.
    ``f`` returns its values along the last axis, behind any leading axes;
    both results have shape (leading axes..., panels)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()))
    fx = fx.reshape(fx.shape[:-1] + (len(lo), 15))
    if np.iscomplexobj(fx):
        # a complex product would promote the weights to w + 0j, whose
        # 0j meets an infinite real part as 0 * inf = nan (and warns);
        # scaling the (real, imag) pairs gives the same products
        pairs = np.asarray(fx, dtype=complex).view(float).reshape(
            fx.shape + (2,))
        wfx = (_WEIGHTS_K[:, None] * pairs).view(complex)[..., 0]
    else:
        wfx = _WEIGHTS_K * fx
    ik = wfx.sum(axis=-1)
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


def exp_sinh_to_inf(g, a):
    """int_a^inf g(m) dm for a > 0, by the nested exp-sinh rule.

    ``g`` maps an ndarray of m to values along the last axis (leading axes
    make one integral per row) and is called once per level, on its new
    nodes.  A row closes, keeping its value as a 1-D call would, when two
    successive levels agree to 1e-10 relative; the double-exponential error
    then squares, so its last level is at rounding level.  Raises
    ConvergenceError, never returning inf or nan, when an open row is not
    finite, when a closing row's last node exceeds 1e-17 of its sum (g
    decays too slowly for the range), or when step 1/512 still disagrees
    with step 1/256.  Overflow and underflow at the far nodes are silent.
    """
    rows, total = ..., 0.0  # the open rows, by index once some have closed
    with np.errstate(over="ignore", under="ignore"):
        for level, (step, u, du) in enumerate(_NESTED_LEVELS):
            values = np.asarray(g(a + a * u), dtype=float)
            terms = a * du * values.reshape(-1, len(u))[rows]
            current = 0.5 * total + step * terms.sum(axis=-1)
            if np.count_nonzero(np.isfinite(current)) < len(current):
                raise ConvergenceError(
                    f"exp-sinh integral from {a} is not finite at step {step}")
            if not level:
                out, total = np.empty(len(current)), current
                continue
            if level == 1:
                last = np.abs(terms[:, -1])
            size, change = np.abs(current), np.abs(current - total)
            done = change <= 1e-10 * size
            if np.count_nonzero(done & (last > (1e-17 / step) * size)):
                raise ConvergenceError(
                    f"integrand decays too slowly for the exp-sinh range "
                    f"from {a}")
            out[rows] = current
            if np.count_nonzero(done) == len(done):
                return out.reshape(values.shape[:-1])[()]
            keep = ~done
            rows = np.flatnonzero(keep) if rows is ... else rows[keep]
            total, last = current[keep], last[keep]
    raise ConvergenceError(
        f"exp-sinh integral from {a} did not converge: steps 1/256 and "
        f"1/512 differ by {np.max(change[keep]):.3e}")
