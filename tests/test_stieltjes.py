import dataclasses
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from cmfun import cesaro as cs
from cmfun import monotonicity as mono
from cmfun import specfun as sf
from cmfun import stieltjes as st
from cmfun._quadrature import quad
from cmfun._series import iterate_sums
from cmfun.errors import CapTooSmallError, ConvergenceError, DomainError

LOG2 = math.log(2.0)


def prym_seq(n):
    n = np.asarray(n, dtype=float)
    return (-1.0) ** n * np.exp(-sf.log_gamma(n + 1.0))


def cell_by_cell_sum(lefts, t, inner):
    """sum_i e^(-lefts_i t) inner(block, t)_i for ascending lefts >= 0, one
    exp per cell and t, the lefts taken 256 at a time and a block only at
    the t with t min(block) <= 746: the sum that the lattice factorization
    replaced, kept as its reference."""
    out = np.zeros_like(t)
    for lo in range(0, len(lefts), 256):
        sel = t * lefts[lo] <= 746.0
        if not np.any(sel):
            break
        block = slice(lo, lo + 256)
        out[sel] += np.sum(st._exp_neg_product(lefts[block, None], t[sel]) *
                           inner(block, t[sel]), axis=0)
    return out


def cell_by_cell_laplace(pp, t):
    """``pp.laplace(t)`` by ``cell_by_cell_sum`` over the nonzero cells."""
    live = np.any(pp.coeffs != 0.0, axis=1)
    co = pp.coeffs[live]
    lengths = np.diff(pp.breakpoints)[live, None]

    def inner(block, ts):
        moments = st._exp_moments(ts, lengths[block], pp.degree)
        return sum(co[block, j:j + 1] * mj for j, mj in enumerate(moments))

    return cell_by_cell_sum(pp.breakpoints[:-1][live], t, inner)


def atom_by_atom_kernel(atoms, t):
    """sum_i mass_i e^(-loc_i t) by ``cell_by_cell_sum``."""
    locs, masses = atoms.T
    return cell_by_cell_sum(locs, t, lambda block, _: masses[block, None])


class TestPiecewisePolynomial:
    def test_eval_right_continuous(self):
        pp = st.PiecewisePolynomial(np.array([0.0, 1.0, 2.0]),
                                    np.array([[1.0], [3.0]]))
        assert pp(0.5) == 1.0
        assert pp(1.0) == 3.0          # right-continuity at breakpoints
        assert pp(2.5) == 0.0
        assert pp(-1.0) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            st.PiecewisePolynomial(np.array([1.0, 0.5]), np.array([[1.0]]))
        with pytest.raises(DomainError):
            st.PiecewisePolynomial(np.array([0.0, 1.0]),
                                   np.array([[1.0], [1.0]]))

    def test_laplace_matches_quadrature(self):
        pp = st.PiecewisePolynomial(np.array([0.0, 0.7, 2.0]),
                                    np.array([[0.5, 1.0, -0.2], [2.0, 0.0, 0.0]]))
        for t in (1e-4, 0.3, 4.0):
            oracle = quad(lambda s: np.exp(-t * s) * pp(s), 0.0, 2.0,
                          abs_tol=1e-14, points=[0.7])
            assert abs(float(pp.laplace(t)[0]) - oracle) < 1e-12


    @settings(max_examples=400, deadline=None)
    @given(data=hs.data())
    def test_laplace_matches_mpmath(self, data):
        # degree 0-3 cells, some all zero, with t L on both sides of 1/2
        n = data.draw(hs.integers(1, 5))
        deg = data.draw(hs.integers(0, 3))
        lengths = data.draw(hs.lists(hs.floats(0.05, 3.0), min_size=n,
                                     max_size=n))
        coeffs = np.array(data.draw(hs.lists(
            hs.lists(hs.floats(-2.0, 2.0), min_size=deg + 1,
                     max_size=deg + 1), min_size=n, max_size=n)))
        zero = data.draw(hs.lists(hs.booleans(), min_size=n, max_size=n))
        coeffs[np.array(zero)] = 0.0
        ts = data.draw(hs.lists(hs.floats(0.01, 30.0), min_size=1,
                                max_size=4))
        bps = np.concatenate([[0.0], np.cumsum(lengths)])
        pp = st.PiecewisePolynomial(bps, coeffs)
        scale = st.PiecewisePolynomial(bps, np.abs(coeffs)).laplace(ts)
        got = pp.laplace(ts)
        # int_0^L e^(-t (a + u)) u^j du = e^(-t a) gamma(j + 1, t L) / t^(j+1)
        # through mpmath's incomplete gamma (its quad misses 1e-14 here); L
        # is the cell between the rounded breakpoints, not the drawn length
        for t, g, sc in zip(ts, got, scale):
            with mpmath.workdps(30):
                tm = mpmath.mpf(t)
                ref = sum(
                    c * mpmath.exp(-tm * a) * mpmath.gammainc(
                        j + 1, 0, tm * (mpmath.mpf(b) - a)) / tm ** (j + 1)
                    for a, b, row in zip(bps[:-1], bps[1:], coeffs)
                    for j, c in enumerate(row))
            assert abs(g - float(ref)) <= 1e-14 * sc + 1e-300

    @settings(max_examples=30, deadline=None)
    @given(data=hs.data())
    def test_laplace_many_cells_matches_mpmath(self, data):
        # 300-600 cells on the lattice left + i L, which the sum factors on
        # anchors, and t from the whole range together with 17-20 t below
        # 1/b, where all cells weigh alike.  Cells of one length L = k/64
        # keep every breakpoint exact, and make the oracle a polynomial in
        # r = e^(-t L): sum_i c_ij e^(-t a_i) = e^(-t a_0) sum_i c_ij r^i
        n = data.draw(hs.integers(300, 600))
        deg = data.draw(hs.integers(0, 3))
        length = data.draw(hs.integers(4, 192)) / 64.0
        left = data.draw(hs.integers(0, 3200)) / 64.0
        rng = np.random.default_rng(data.draw(hs.integers(0, 2 ** 32 - 1)))
        coeffs = rng.uniform(-2.0, 2.0, (n, deg + 1))
        coeffs[sorted(data.draw(hs.sets(hs.integers(0, n - 1),
                                        max_size=40)))] = 0.0
        bps = left + length * np.arange(n + 1.0)
        log_t = data.draw(hs.lists(hs.floats(-300.0, 4.0), min_size=1,
                                   max_size=6))
        band = data.draw(hs.lists(hs.floats(1e-300, 1.0, exclude_max=True),
                                  min_size=17, max_size=20))
        ts = np.concatenate([10.0 ** np.array(log_t),
                             np.array(band) / bps[-1]])
        pp = st.PiecewisePolynomial(bps, coeffs)
        scale = st.PiecewisePolynomial(bps, np.abs(coeffs)).laplace(ts)
        got = pp.laplace(ts)
        with mpmath.workdps(30):
            columns = [[mpmath.mpf(c) for c in coeffs[::-1, j]]
                       for j in range(deg + 1)]
            for t, g, sc in zip(ts, got, scale):
                tm, lm = mpmath.mpf(t), mpmath.mpf(length)
                r = mpmath.exp(-tm * lm)
                # int_0^L e^(-t u) u^j du, the same for every cell
                ref = mpmath.exp(-tm * mpmath.mpf(left)) * mpmath.fsum(
                    mpmath.gammainc(j + 1, 0, tm * lm) / tm ** (j + 1) *
                    mpmath.polyval(col, r) for j, col in enumerate(columns))
                assert abs(g - float(ref)) <= 1e-14 * sc + 1e-300, t

    def test_laplace_skips_cells_where_exp_underflows(self, monkeypatch):
        calls = []
        real = st._exp_moments

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(st, "_exp_moments", counted)
        pp = st.PiecewisePolynomial(np.array([1000.0, 1001.0]),
                                    np.array([[1.0, 2.0]]))
        assert pp.laplace(1.0)[0] == 0.0
        assert calls == []


class TestConvolveBox:
    def test_triangle(self):
        pp = st.convolve_box(1.0, 1.0)
        assert pp(1.0) == pytest.approx(1.0, abs=1e-15)
        assert pp(0.25) == pytest.approx(0.25, abs=1e-15)

    def test_plateau(self):
        pp = st.convolve_box(0.5, 1.3)
        assert pp(0.9) == pytest.approx(0.5, abs=1e-15)

    def test_mass(self):
        assert st.convolve_box(0.5, 1.3).mass() == pytest.approx(0.65, abs=1e-14)

    def test_degenerate(self):
        assert st.convolve_box(0.0, 1.0).mass() == 0.0

    def test_width_below_half_an_ulp(self):
        # 1 + 1e-17 == 1, so the descending cell is empty and is dropped
        pp = st.convolve_box(1e-17, 1.0)
        assert pp.mass() == pytest.approx(1e-17, rel=1e-15)
        assert st.stieltjes_eval(
            st.measure_genus1_log_ratio((1.0,), 1e-17, 1.0), 1.0) > 0.0


@hs.composite
def trapezoid_trains(draw):
    """(zeros, a, b): widths in (0, 3], sometimes equal or an integer apart
    so that knots of different boxes coincide, and 1-4 zeros in (0, 10],
    sometimes integers."""
    # widths below ~1e-6 are not representable as cell lengths next to a
    # zero near 10 (ulp 1.8e-15), which rounds their mass by far more than
    # 1e-13
    width = hs.floats(1e-6, 3.0)
    a = draw(width)
    kind = draw(hs.sampled_from(("free", "equal", "integer-gap")))
    if kind == "free":
        b = draw(width)
    elif kind == "equal":
        b = a
    else:
        a = draw(hs.floats(1e-6, 1.0))
        b = a + draw(hs.integers(1, 2))
    if draw(hs.booleans()):
        a, b = b, a
    zero = hs.one_of(hs.floats(0.0, 10.0, exclude_min=True),
                     hs.integers(1, 10).map(float))
    return draw(hs.lists(zero, min_size=1, max_size=4)), a, b


def assert_matches_boxes(pp, boxes):
    """Both ends of every cell of ``pp`` against ``boxes``(t), a direct sum
    of trapezoids."""
    bp, co = pp.breakpoints, pp.coeffs
    left = co[:, 0]
    right = co[:, 0] + co[:, 1] * np.diff(bp)
    for ends, values in ((bp[:-1], left), (bp[1:], right)):
        direct = boxes(ends)
        assert np.all(np.abs(values - direct) <= 1e-14 * (1.0 + direct))


class TestTrapezoidTrains:
    @settings(max_examples=150, deadline=None)
    @given(trapezoid_trains())
    def test_genus1_density_is_the_box_sum(self, train):
        zeros, a, b = train
        box = st.convolve_box(a, b)
        density = st.measure_genus1_log_ratio(zeros, a, b).density
        assert_matches_boxes(
            density, lambda t: sum(box(t - z) for z in sorted(zeros)))
        assert density.mass() == pytest.approx(len(zeros) * a * b, rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(trapezoid_trains())
    def test_gamma_ratio_profile_continues_the_density(self, train):
        _, a, b = train
        box = st.convolve_box(a, b)
        m = st.measure_gamma_ratio(a, b)
        T = m.tail.start
        assert_matches_boxes(
            m.density, lambda t: sum(box(t - k) for k in range(int(T))))
        # on [T, T+1) the density is sum_{k <= T} trap(T + s - k)
        #                               = sum_{i <= T} trap(s + i)
        assert_matches_boxes(
            m.tail.profile,
            lambda s: sum(box(s + i) for i in range(int(T) + 1)))
        last = m.density.coeffs[-1]
        at_T = last[0] + last[1] * np.diff(m.density.breakpoints)[-1]
        assert at_T == pytest.approx(m.tail.profile(0.0), abs=1e-14)
        assert m.tail.mean == pytest.approx(a * b, rel=1e-13)


class TestMeasureAlternating:
    def test_two_term(self):
        m = st.measure_alternating([0.0, 1.0], 1.0)
        x = 1.7
        assert st.stieltjes_eval(m, x) == pytest.approx(
            1.0 / x - 1.0 / (x + 1.0), abs=1e-14)

    def test_even_truncation_has_unbounded_tail(self):
        m = st.measure_alternating([0.0, 1.0, 2.0], 1.0)
        assert isinstance(m.tail, st.PeriodicTail)
        assert (m.tail.start, m.tail.period, m.tail.mean) == (2.0, 1.0, 1.0)
        x = 1.7
        expected = 1.0 / x - 1.0 / (x + 1.0) + 1.0 / (x + 2.0)
        assert st.stieltjes_eval(m, x) == pytest.approx(expected, abs=1e-14)

    def test_infinite_matches_beta(self):
        m = st.measure_alternating(lambda n: float(n), 1.0)
        assert m.density(0.5) == 1.0 and m.density(1.5) == 0.0
        assert m.density(2.5) == 1.0
        for x in np.geomspace(0.5, 50.0, 25):
            assert abs(st.stieltjes_eval(m, x) - sf.nielsen_beta(x)) <= 1e-8

    def test_fractional_order(self):
        lam = 0.6
        m = st.measure_alternating(lambda n: float(n), lam)
        assert m.order == pytest.approx(lam + 1.0)
        x = 1.3
        direct = sum((-1.0) ** n * (x + n) ** (-lam) for n in range(200000))
        direct += 0.5 * (x + 200000.0) ** (-lam)
        assert abs(st.stieltjes_eval(m, x) - direct) < 1e-7

    def test_locations_in_one_call(self):
        calls = []

        def loc(n):
            calls.append(n)
            return n + 0.37

        m = st.measure_alternating(loc, 0.5)
        assert len(calls) == 1
        # the same bits as one Python call per integer index
        assert np.array_equal(m.density.breakpoints[1:],
                              [n + 0.37 for n in range(4096)])
        assert m.tail.offset == 0.37 and m.tail.start == 2048

    @pytest.mark.parametrize("loc", [lambda n: n ** 1.5, np.sqrt])
    def test_non_affine_callable_raises(self, loc):
        # it once stopped at 2,048 gaps with no tail: 1.2e-6 off at x = 0.5
        # for n^1.5; a finite array of the locations is the truncation
        with pytest.raises(CapTooSmallError):
            st.measure_alternating(loc, 1.0)

    def test_not_nondecreasing_raises(self):
        with pytest.raises(DomainError):
            st.measure_alternating([0.0, 2.0, 1.0], 1.0)
        with pytest.raises(DomainError):
            st.measure_alternating([0.0, 1.0], 1.5)


class TestAtoms:
    def test_point_mass_at_zero(self):
        m = st.RepresentingMeasure(order=1.0, atoms=((0.0, 1.0),))
        assert st.stieltjes_eval(m, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_integer_atoms_trigamma(self):
        m = st.measure_integer_atoms()
        assert abs(st.stieltjes_eval(m, 1.0) - math.pi ** 2 / 6) <= 1e-10

    def test_atom_validation(self):
        with pytest.raises(DomainError):
            st.RepresentingMeasure(order=1.0, atoms=((1.0, 1.0), (0.5, 1.0)))
        with pytest.raises(DomainError):
            st.RepresentingMeasure(order=1.0, atoms=((0.5, -1.0),))


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("route", [st.stieltjes_eval, st.stieltjes_via_kernel])
def test_routes_reject_bad_x(route, x):
    m = st.measure_genus1_log_ratio((1.0,), 0.5, 1.3)
    with pytest.raises(DomainError):
        route(m, x)


def test_checks_call_a_measure_once_on_their_grid(monkeypatch):
    m = st.measure_alternating(lambda n: float(n), 1.0)
    shapes = []
    evaluate = st.stieltjes_eval

    def counted(measure, x):
        shapes.append(np.shape(x))
        return evaluate(measure, x)

    monkeypatch.setattr(st, "stieltjes_eval", counted)
    grid = mono.CheckGrid.default(n_points=6, n_max=4)
    rep = mono.cm_check(m, grid)
    assert rep.passed and not rep.witnesses
    assert shapes == [(6, 5)]
    shapes.clear()
    assert mono.lcm_check(m, grid).passed
    assert shapes == [(3, 6, 5)]


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_kernel_rejects_non_finite_t(t):
    kappa = st.CmKernel(st.measure_genus1_log_ratio((1.0,), 0.5, 1.3))
    with pytest.raises(DomainError):
        kappa(t)
    with pytest.raises(DomainError):
        kappa(np.array([1.0, t]))


class TestKernelKappa:
    def test_beta_measure_kernel(self):
        m = st.measure_alternating(lambda n: float(n), 1.0)
        kappa = st.CmKernel(m)
        for t in (0.01, 0.1, 1.0, 5.0):
            assert abs(kappa(t) - 1.0 / (t * (1.0 + math.exp(-t)))) <= 1e-12

    def test_integer_atoms_kernel(self):
        kappa = st.CmKernel(st.measure_integer_atoms())
        for t in (0.005, 0.3, 2.0):
            assert abs(kappa(t) - 1.0 / -math.expm1(-t)) <= 1e-9 / t

    def test_single_atom_kernel(self):
        m = st.RepresentingMeasure(order=1.0, atoms=((0.7, 2.5),))
        kappa = st.CmKernel(m)
        assert kappa(1.3) == pytest.approx(2.5 * math.exp(-0.7 * 1.3), abs=1e-15)

    def test_kernel_reproduces_f(self):
        m = st.measure_alternating(lambda n: float(n), 1.0)
        for x in (0.7, 3.0):
            assert abs(st.stieltjes_via_kernel(m, x)
                       - sf.nielsen_beta(x)) <= 1e-8

    def test_gap_tail_kernel_finite_at_tiny_t(self):
        # expm1(-2 h t) underflowed to 0 for t below about 1e-160
        kappa = st.CmKernel(st.measure_alternating(lambda n: n + 1, 0.05))
        assert kappa(1e-200) == pytest.approx(2.5e198, rel=1e-12)
        assert kappa(1e-160) == pytest.approx(2.5e158, rel=1e-12)

    def test_kernel_route_small_lam(self):
        # the integrand t^(lam-1) kappa(t) e^(-xt) ~ t^(lam-2) / 2 at t = 0
        # until the far field is taken out of kappa
        for lam in (0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3):
            m = st.measure_alternating(lambda n: n + 1, lam)
            for x in (0.05, 1.0, 50.0):
                assert st.stieltjes_via_kernel(m, x) == pytest.approx(
                    st.stieltjes_eval(m, x), rel=1e-12)

    def test_kernel_zero_where_e_to_minus_at_underflows(self):
        # the cross factor of e^(-a t) overflowed there, and 0 * inf was nan
        kappa = st.CmKernel(st.measure_alternating(lambda n: n + 1.0, 0.3))
        assert kappa(33838982.67989663) == 0.0
        assert np.all(kappa(np.geomspace(1e6, 1e12, 2000)) == 0.0)

    def test_exp_neg_product_keeps_its_bits(self):
        # the uncapped two-factor product, wherever it is positive
        def split(v):
            c = 134217729.0 * v
            hi = c - (c - v)
            return hi, v - hi

        a, t = (v.ravel() for v in np.meshgrid(np.geomspace(1e-3, 1e3, 41),
                                                np.geomspace(1e-3, 1e12, 80)))
        (a_hi, a_lo), (t_hi, t_lo) = split(a), split(t)
        with np.errstate(over="ignore", invalid="ignore"):
            old = np.exp(-(a_hi * t_hi)) * np.exp(-(a_hi * t_lo + a_lo * t))
        new = st._exp_neg_product(a, t)
        kept = old > 0
        assert np.any(np.isnan(old)) and np.sum(kept) > 1000
        np.testing.assert_array_equal(new[kept], old[kept])
        assert np.all(new[~kept] == 0.0)


@hs.composite
def kernel_layouts(draw):
    """A density or an atom measure whose transform the lattice sum takes:
    the integer and off + 2n lattices, gamma-ratio trapezoid trains (some
    with ulp-sliver cells), the Cesaro prym density at k = 1, genus 1, the
    sqrt locations and the integer atoms."""
    kind = draw(hs.sampled_from(("integer", "gaps", "gamma-ratio",
                                 "cesaro-prym-1", "genus1", "sqrt",
                                 "atoms")))
    lam = draw(hs.floats(0.05, 1.0))
    if kind == "integer":
        n = draw(hs.integers(1, 3000))
        deg = draw(hs.integers(0, 2))
        rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
        coeffs = rng.uniform(-2.0, 2.0, (n, deg + 1))
        coeffs[rng.random(n) < 0.2] = 0.0
        left = draw(hs.integers(0, 100))
        return st.PiecewisePolynomial(left + np.arange(n + 1.0), coeffs)
    if kind == "gaps":
        off = draw(hs.sampled_from((0.1, math.pi)))
        return st.measure_alternating(lambda n: n + off, lam).density
    if kind == "gamma-ratio":
        # a and b an integer apart, or one of them an integer, leave cells
        # one or a few ulp long where two knots round apart
        a, b = draw(hs.one_of(
            hs.sampled_from(((0.37, 2.37), (0.64, 1.0), (1.36, 2.36))),
            trapezoid_trains().map(lambda train: train[1:])))
        return st.measure_gamma_ratio(a, b).density
    if kind == "cesaro-prym-1":
        # measure_cesaro refuses k = 1 (its s^(1) has no exact tail), but
        # its density is this one
        s1 = iterate_sums(prym_seq(np.arange(4097.0)), 1)[1]
        return st.PiecewisePolynomial(np.arange(4098.0), lam * (lam + 1.0) *
                                      st._spline_rows(s1, 1))
    if kind == "genus1":
        zeros, a, b = draw(trapezoid_trains())
        return st.measure_genus1_log_ratio(zeros, a, b).density
    if kind == "sqrt":
        return st.measure_alternating(np.sqrt(np.arange(4096.0)),
                                      lam).density
    return st.RepresentingMeasure(order=2.0, atoms=st.measure_integer_atoms(
        draw(hs.floats(0.1, 10.0))).atoms)


@settings(max_examples=120, deadline=None)
@given(layout=kernel_layouts(), log_t=hs.lists(
    hs.floats(-300.0, 4.0), min_size=1, max_size=8))
def test_lattice_sum_matches_cell_by_cell(layout, log_t):
    # the same terms regrouped, each still of one compensated e^(-a t), so
    # the two agree to rounding of the sum of their absolute values
    t = 10.0 ** np.array(log_t)
    if isinstance(layout, st.RepresentingMeasure):
        got = st.CmKernel(layout)(t)
        want = scale = atom_by_atom_kernel(layout.atoms, t)
    else:
        got = layout.laplace(t)
        want = cell_by_cell_laplace(layout, t)
        scale = cell_by_cell_laplace(st.PiecewisePolynomial(
            layout.breakpoints, np.abs(layout.coeffs)), t)
    assert np.all(np.abs(got - want) <= 1e-14 * scale + 1e-300), \
        np.max(np.abs(got - want) / scale)


@pytest.mark.parametrize("build", [
    lambda: st.measure_alternating(lambda n: n + 0.1, 0.5).density,
    lambda: st.measure_alternating(lambda n: n + math.pi, 0.5).density,
    lambda: st.measure_gamma_ratio(0.37, 2.37).density,
    lambda: st.measure_gamma_reciprocal_ratio(0.5).density,
    lambda: st.measure_alternating(np.sqrt(np.arange(4096.0)), 0.5).density,
    lambda: st.measure_genus1_log_ratio((1.0, 2.5, 7.3), 0.4, 1.4).density],
    ids=["gaps-0.1", "gaps-pi", "gamma-ratio-sliver", "gamma-reciprocal",
         "sqrt", "genus1"])
def test_lattice_sum_holds_each_cell_once_and_exactly(build):
    # A_k + r_c is the left end of the cell at (k, c), with no rounding,
    # and each nonzero cell appears once with its coefficient row
    pp = build()
    lattice = pp._cell_sum
    live = np.any(pp.coeffs != 0.0, axis=1)
    k, c = np.nonzero(np.any(lattice.coeffs != 0.0, axis=2))
    lefts = [Fraction(a) + Fraction(r) for a, r in zip(
        lattice.anchors[k], lattice.residues[c])]
    cells = sorted(zip(lefts, lattice.lengths[c],
                       map(tuple, lattice.coeffs[k, c])))
    assert cells == list(zip(map(Fraction, pp.breakpoints[:-1][live]),
                             np.diff(pp.breakpoints)[live],
                             map(tuple, pp.coeffs[live])))


def kernel_route_catalog():
    for lam in (0.001, 0.05, 1.0):
        for off in (0.0, 1.5):
            yield f"alternating-{lam}-{off}", lambda lam=lam, off=off: \
                st.measure_alternating(lambda n: n + off, lam)
    yield "sqrt-locations", lambda: st.measure_alternating(
        np.sqrt(np.arange(4096.0)), 0.5)
    for s in (0.01, 0.5, 0.99):
        yield f"gamma-reciprocal-{s}", \
            lambda s=s: st.measure_gamma_reciprocal_ratio(s)
    yield "integer-atoms", st.measure_integer_atoms
    for a, b in ((0.5, 1.3), (1.0, 1.0), (0.5, 2.0)):
        yield f"gamma-ratio-{a}-{b}", lambda a=a, b=b: \
            st.measure_gamma_ratio(a, b)
    yield "genus1", lambda: st.measure_genus1_log_ratio((1.0, 2.0, 3.0),
                                                        0.5, 0.5)
    for key in ("prym", "alternating", "ones"):
        yield f"cesaro-{key}", lambda key=key: st.measure_cesaro(
            cs.preset_sequence(key).coef, 0, cs.preset_sequence(key).default_lam)


# relative tolerance of the kernel route against stieltjes_eval, by x
KERNEL_ROUTE_TOL = {1e-6: 1e-9, 1e-5: 1e-11, 1e-3: 1e-12, 0.05: 1e-12,
                    1.0: 1e-12, 50.0: 1e-12, 1e3: 1e-11}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", [b for _, b in kernel_route_catalog()],
                         ids=[name for name, _ in kernel_route_catalog()])
def test_kernel_route_grid(build):
    m = build()
    for x, tol in KERNEL_ROUTE_TOL.items():
        assert st.stieltjes_via_kernel(m, x) == pytest.approx(
            st.stieltjes_eval(m, x), rel=tol), x


def offset_alternating():
    return st.measure_alternating(lambda n: n + 1.5, 1.0)


def genus1():
    return st.measure_genus1_log_ratio((1.0, 2.0, 3.0), 0.5, 0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build,x,tol", [
    (offset_alternating, 1e-12, 1e-14), (offset_alternating, 1e5, 1e-14),
    (genus1, 1e-12, 1e-14), (genus1, 1e5, 1e-11)],
    ids=["alternating-1e-12", "alternating-1e5", "genus1-1e-12",
         "genus1-1e5"])
def test_kernel_route_far_x(build, x, tol):
    # the levels stop only where they resolve w = x: the fixed rule was
    # 8.5e-10 off for genus 1 at 1e-12; at 1e5 genus 1's kernel limits it
    m = build()
    assert st.stieltjes_via_kernel(m, x) == pytest.approx(
        st.stieltjes_eval(m, x), rel=tol)


@pytest.mark.parametrize("build", [b for _, b in kernel_route_catalog()],
                         ids=[name for name, _ in kernel_route_catalog()])
def test_kernel_route_small_x_at_rounding(build):
    # levels coarser than 1/(2 |log x|) agreed to 1e-10 while off by
    # 2e-12 (sqrt locations at x = 1e-8) and 3e-14 (gamma-reciprocal
    # s = 0.01 at x = 1e-5)
    m = build()
    for x in (1e-12, 1e-8, 1e-5):
        assert st.stieltjes_via_kernel(m, x) == pytest.approx(
            st.stieltjes_eval(m, x), rel=4e-15), x


@pytest.mark.parametrize("build", [offset_alternating, genus1],
                         ids=["alternating", "genus1"])
def test_kernel_route_converges_or_raises_at_tiny_x(build):
    # the fixed rule returned values 15 % (alternating) and 44 % (genus 1)
    # off at x = 1e-100; below e^-256 no level resolves w = x
    m = build()
    try:
        value = st.stieltjes_via_kernel(m, 1e-100)
    except ConvergenceError:
        pass
    else:
        assert value == pytest.approx(st.stieltjes_eval(m, 1e-100), rel=1e-8)
    with pytest.raises(ConvergenceError):
        st.stieltjes_via_kernel(m, 1e-120)


def test_kernel_route_counts(monkeypatch):
    # at most 250 kappa t per call on [0.05, 50], and at most 100k
    # coefficient values per gamma-reciprocal call (s <= 0.9); the fixed
    # rule took 498 t and 271k values
    counts = {"t": 0, "coef": 0}
    kappa = st.CmKernel.__call__

    def counted(self, t):
        counts["t"] += np.size(t)
        return kappa(self, t)

    monkeypatch.setattr(st.CmKernel, "__call__", counted)
    builds = [b for _, b in kernel_route_catalog()]
    builds += [lambda: st.measure_gamma_reciprocal_ratio(0.9)]
    for build in builds:
        m = build()
        if isinstance(m.tail, (st.SmoothCoefTail, st.AtomTail)):
            def coef(k, coef=m.tail.coef):
                counts["coef"] += np.size(k)
                return coef(k)
            m = dataclasses.replace(
                m, tail=dataclasses.replace(m.tail, coef=coef))
        for x in np.geomspace(0.05, 50.0, 7):
            counts.update(t=0, coef=0)
            st.stieltjes_via_kernel(m, x)
            assert counts["t"] <= 250, (build, x, counts)
            assert counts["coef"] <= 100_000, (build, x, counts)


@pytest.mark.parametrize("build", [
    lambda: st.measure_cesaro(cs.preset_sequence("prym").coef, 0,
                              cs.preset_sequence("prym").default_lam),
    lambda: st.measure_gamma_reciprocal_ratio(0.5)],
    ids=["cesaro-prym", "gamma-reciprocal-0.5"])
def test_kernel_route_memory_peak(build):
    # the density enters 256 cells at a time, never as one (cells x nodes)
    # array (78 MB on the 4096-cell prym measure)
    m = build()
    for x in (0.05, 1.0, 50.0):
        tracemalloc.start()
        try:
            st.stieltjes_via_kernel(m, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2 ** 20, (x, peak)


def test_kernel_memory_on_no_lattice():
    # 4,096 degree-2 cells at random breakpoints share no residue, so the
    # sum takes them one class each, 256 at a time, as the cell-by-cell
    # sum did: at 1,000 t that sum peaked at 21.65 MB of traced memory
    rng = np.random.default_rng(7)
    bps = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 4096.0, 4096))])
    kappa = st.CmKernel(st.RepresentingMeasure(order=2.0, density=(
        st.PiecewisePolynomial(bps, rng.uniform(0.1, 1.0, (4096, 3))))))
    t = np.geomspace(1e-4, 60.0, 1000)
    kappa(t[:1])  # the factorization is built once, on the first call
    tracemalloc.start()
    try:
        kappa(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 21.7 * 2 ** 20, peak


class TestGammaRatioMeasure:
    @pytest.mark.parametrize("a,b", [(0.5, 1.3), (1.0, 1.0), (0.5, 2.0)])
    def test_reproduces_log_ratio(self, a, b):
        m = st.measure_gamma_ratio(a, b)
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert abs(st.stieltjes_eval(m, x)
                       - sf.gamma_ratio_log(x, a, b)) <= 1e-7

    def test_density_matches_direct_sum(self):
        a, b = 0.5, 1.3
        m = st.measure_gamma_ratio(a, b)
        ts = np.linspace(0.01, 10.0, 777)
        direct = np.zeros_like(ts)
        for k in range(11):
            u = ts - k
            direct += np.where(u > 0, np.clip(np.minimum(np.minimum(u, a),
                                                         a + b - u), 0, None), 0.0)
        assert np.max(np.abs(m.density(ts) - direct)) <= 1e-12

    def test_density_b_one_min_formula(self):
        a = 0.4
        m = st.measure_gamma_ratio(a, 1.0)
        for t in (0.2, 1.3, 2.7, 5.5):
            expected = sum(min(t - j, a, a + 1.0 - (t - j))
                           for j in range(int(t) + 1) if 0 < t - j < a + 1.0)
            assert m.density(t) == pytest.approx(expected, abs=1e-12)

    def test_density_nonnegative(self):
        m = st.measure_gamma_ratio(0.5, 1.3)
        ts = np.linspace(1e-6, 10.0, 1000)
        assert np.min(m.density(ts)) >= 0.0

    def test_large_shifts_extend_the_table(self):
        # the density is tabulated to ceil(a + b) + 20 = 66 before the
        # periodic tail takes over
        m = st.measure_gamma_ratio(30.0, 15.5)
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            ref = sf.gamma_ratio_log(x, 30.0, 15.5)
            assert abs(st.stieltjes_eval(m, x) - ref) <= 1e-13 * ref


class TestGenus1Measure:
    def direct(self, zeros, a, b, x):
        return math.fsum(
            math.log1p((x + a) / z) + math.log1p((x + b) / z)
            - math.log1p(x / z) - math.log1p((x + a + b) / z) for z in zeros)

    @pytest.mark.parametrize("zeros,a,b", [
        ((1.0, 2.0, 3.0), 0.5, 0.5),
        ((0.5,), 1.0, 1.0),
        ((1.0, 4.0, 9.0), 0.3, 1.7),
    ])
    def test_matches_log_product(self, zeros, a, b):
        m = st.measure_genus1_log_ratio(zeros, a, b)
        for x in (0.5, 1.0, 4.0, 20.0):
            assert abs(st.stieltjes_eval(m, x)
                       - self.direct(zeros, a, b, x)) <= 1e-8

    def test_decay_at_infinity(self):
        m = st.measure_genus1_log_ratio((1.0,), 1.0, 1.0)
        assert abs(st.stieltjes_eval(m, 1e4)) <= 1e-3

    def test_degenerate(self):
        m = st.measure_genus1_log_ratio((1.0,), 0.0, 1.0)
        assert st.stieltjes_eval(m, 2.0) == 0.0


class TestGammaReciprocalMeasure:
    def test_value(self):
        s = 0.5
        m = st.measure_gamma_reciprocal_ratio(s)
        lhs = st.stieltjes_eval(m, 1.0) / math.gamma(s + 1.0)
        assert abs(lhs - math.gamma(1.0) / math.gamma(2.5)) <= 1e-8

    def test_density_cells(self):
        s = 0.3
        m = st.measure_gamma_reciprocal_ratio(s)
        assert m.density(0.5) == pytest.approx(1.0, abs=1e-15)
        assert m.density(1.5) == pytest.approx(1.0 - s, abs=1e-15)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
    def test_reproduces_ratio(self, s):
        m = st.measure_gamma_reciprocal_ratio(s)
        for x in (0.5, 1.0, 3.0, 10.0):
            target = math.exp(sf.log_gamma(x) - sf.log_gamma(x + s + 1.0))
            assert abs(st.stieltjes_eval(m, x) / math.gamma(s + 1.0)
                       - target) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            st.measure_gamma_reciprocal_ratio(1.2)

    @pytest.mark.parametrize("build", [
        lambda: st.measure_gamma_reciprocal_ratio(0.1),
        lambda: st.measure_gamma_reciprocal_ratio(0.5),
        lambda: st.measure_gamma_reciprocal_ratio(0.9),
        st.measure_integer_atoms], ids=["s-0.1", "s-0.5", "s-0.9", "atoms"])
    def test_coefficient_tail_at_large_x(self, build):
        # the tail's terms fall below any fixed absolute floor of its
        # integral; the kernel route (no tail sum) is the oracle
        m = build()
        for x in (1e4, 1e6, 1e8, 1e10, 1e12):
            assert st.stieltjes_eval(m, x) == pytest.approx(
                st.stieltjes_via_kernel(m, x), rel=1e-14, abs=0.0), x


class TestCesaroMeasure:
    def test_alternating_recovers_beta_measure(self):
        m = st.measure_cesaro(lambda n: (-1.0) ** np.asarray(n), 0, 1.0)
        assert m.density(0.5) == 1.0
        assert m.density(1.5) == 0.0
        assert m.density(2.5) == 1.0
        assert abs(st.stieltjes_eval(m, 1.0) - LOG2) <= 1e-8

    def test_prym_density_and_value(self):
        m = st.measure_cesaro(prym_seq, 0, 1.0)
        for mm in range(5):
            expected = math.fsum((-1.0) ** j / math.factorial(j)
                                 for j in range(mm + 1))
            assert m.density(mm + 0.5) == pytest.approx(expected, abs=1e-14)
        assert abs(st.stieltjes_eval(m, 1.0) - (1.0 - math.exp(-1.0))) <= 1e-8

    def test_order(self):
        m = st.measure_cesaro(prym_seq, 0, 1.5)
        assert m.order == pytest.approx(2.5)

    def test_k_one_rows(self):
        # a = (1, -1), k = 1: s^(1) = 1, 1, ..., density lam (lam+1) min(t, 1)
        m = st.measure_cesaro([1.0, -1.0], 1, 1.5)
        ts = np.array([0.0, 0.4, 0.99, 1.0, 1.7, 3.2, 4096.5])
        assert m.density(ts) == pytest.approx(3.75 * np.minimum(ts, 1.0),
                                              rel=1e-15, abs=0.0)
        assert m.tail.start == 4097.0
        assert m.tail.profile(np.array([0.3, 1.6])) == pytest.approx(
            [3.75, 3.75], rel=1e-15, abs=0.0)
        # a = delta_0: s^(1) = n + 1 grows, so there is no exact tail
        with pytest.raises(CapTooSmallError):
            st.measure_cesaro(lambda n: (np.asarray(n) == 0).astype(float),
                              1, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(hs.lists(hs.integers(0, 3), min_size=1, max_size=8),
           hs.integers(0, 3), hs.sampled_from([0.5, 1.0, 1.5, 2.0]),
           hs.lists(hs.floats(0.0, 24.0), min_size=1, max_size=8),
           hs.floats(0.0, 4.0))
    def test_rows_match_exact_density(self, c, k, lam, ts, tail_u):
        # a = (1 - E)^(k+1) c, with c held at c[-1] past its end, has
        # s^(k) = c >= 0, which settles, so the measure has a period-2
        # tail; the density is checked against exact rationals on its cells
        # and on the tail's first two periods
        ext = c + [c[-1]] * (k + 1)
        a = [sum((-1) ** i * math.comb(k + 1, i) * ext[n - i]
                 for i in range(min(n, k + 1) + 1))
             for n in range(len(c) + k)]
        m = st.measure_cesaro(np.array(a, dtype=float), k, lam)
        poch = math.prod(Fraction(lam) + i for i in range(k + 1))
        scale = float(poch) * (1 + max(c))
        for t in ts + [m.tail.start + tail_u]:
            exact = poch / math.factorial(k) * sum(
                aj * (Fraction(t) - j) ** k
                for j, aj in enumerate(a) if j <= t)
            got = (m.density(t) if t < m.tail.start else
                   m.tail.profile((t - m.tail.start) % 2.0))
            assert abs(got - float(exact)) <= 1e-14 * scale, (t, got, exact)

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.9])
    def test_binomial_against_nsum(self, a):
        # the tail keeps the alternating residual of s^(0)
        m = st.measure_cesaro(cs.preset_sequence("binomial-a", a).coef, 0, 1.0)
        for x in (0.5, 10.0, 100.0, 1000.0):
            ref = mpmath.nsum(lambda n: mpmath.binomial(-a, n) / (x + n),
                              [0, mpmath.inf])
            assert st.stieltjes_eval(m, x) == pytest.approx(
                float(ref), rel=1e-9, abs=0.0), x

    def test_settled_k_one_sequence_both_routes(self):
        # a = (1, -2, 2, -2, ...): s^(0) = 1, -1, 1, ..., s^(1) = 1, 0, 1, ...
        def coef(n):
            n = np.asarray(n)
            return np.where(n == 0, 1.0, 2.0 * (-1.0) ** n)
        for lam in (1.0, 1.5):
            m = st.measure_cesaro(coef, 1, lam)
            for x in (0.5, 10.0, 100.0):
                ref = float(mpmath.nsum(lambda n: (1 if n == 0 else
                                                   2 * (-1) ** int(n))
                                        / (x + n) ** lam, [0, mpmath.inf]))
                for value in (st.stieltjes_eval(m, x),
                              st.stieltjes_via_kernel(m, x)):
                    assert value == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_refuses_growing_sums(self):
        for key in cs.PRESET_KEYS:
            with pytest.raises(CapTooSmallError):
                st.measure_cesaro(cs.preset_sequence(key).coef, 1, 1.5)
        with pytest.raises(CapTooSmallError):
            st.measure_cesaro(lambda n: np.asarray(n, dtype=float), 0, 3.0)

    @pytest.mark.parametrize("a", [[1.0, 0.5], [1.0, -0.5, 0.25], [1.0] * 5,
                                   list(range(1, 12))])
    def test_short_arrays_are_finite_sums(self, a):
        for lam in (1.0, 1.5):
            m = st.measure_cesaro(a, 0, lam)
            for x in (0.5, 1.0, 7.0):
                exact = math.fsum(an / (x + n) ** lam for n, an in enumerate(a))
                assert st.stieltjes_eval(m, x) == pytest.approx(
                    exact, rel=1e-14, abs=0.0), (lam, x)


class TestEquivalenceOfRepresentations:
    def catalog(self):
        yield st.measure_alternating(lambda n: float(n), 1.0)
        yield st.measure_integer_atoms()
        yield st.measure_gamma_ratio(0.5, 1.3)
        yield st.measure_genus1_log_ratio((1.0, 2.0, 3.0), 0.5, 0.5)
        yield st.measure_gamma_reciprocal_ratio(0.5)
        yield st.measure_cesaro(prym_seq, 0, 1.0)

    def test_sokal_identity(self):
        xs = np.geomspace(0.5, 20.0, 10)
        for m in self.catalog():
            for x in xs:
                direct = st.stieltjes_eval(m, x)
                via_kernel = st.stieltjes_via_kernel(m, x)
                assert via_kernel == pytest.approx(direct, rel=1e-12), \
                    (m.order, x)

    def test_densities_nonnegative_sampled(self):
        for m in self.catalog():
            if m.density is None:
                continue
            hi = m.density.breakpoints[-1]
            ts = np.linspace(1e-9, hi, 1000)
            assert float(np.min(m.density(ts))) >= -1e-12

    def test_order_monotonicity_identity(self):
        # f(x) = order * int mu([0,t]) (x+t)^(-order-1) dt, with mu([0,t])
        # in closed form for two atom-free members
        def gaps_cumulative(t):
            # weight 1 on every gap (2n, 2n+1)
            n = np.floor(t / 2.0)
            return n + np.clip(t - 2.0 * n, 0.0, 1.0)

        def trap_sum_cumulative(t, a=0.5, b=1.3):
            # density sum_k trap(t - k), trap = chi_(0,a) * chi_(0,b), whose
            # integral over (0, u) is the area of a clipped triangle
            def corner(v):
                return 0.5 * np.maximum(v, 0.0) ** 2

            u = np.asarray(t)[..., None] - np.arange(np.floor(np.max(t)) + 1.0)
            area = corner(u) - corner(u - a) - corner(u - b) + \
                corner(u - a - b)
            return np.sum(area, axis=-1)

        x = 1.3
        for m, cum in ((st.measure_alternating(lambda n: float(n), 1.0),
                        gaps_cumulative),
                       (st.measure_gamma_ratio(0.5, 1.3),
                        trap_sum_cumulative)):
            order = m.order
            T = 400.0
            head = sum(quad(lambda t: cum(t) * (x + t) ** (-order - 1.0),
                            0.5 * k, 0.5 * (k + 1), abs_tol=1e-15,
                            rel_tol=1e-11) for k in range(800))
            # affine tail model through the period-averaged cumulative
            c_mid = quad(cum, T, T + 2.0, abs_tol=1e-13) / 2.0
            slope = (quad(cum, T + 2.0, T + 4.0, abs_tol=1e-13) / 2.0
                     - c_mid) / 2.0
            t_mid = T + 1.0
            tail = quad(lambda t: (c_mid + slope * (t - t_mid))
                        * (x + t) ** (-order - 1.0), T, 1e7,
                        rel_tol=1e-10)
            assert abs(order * (head + tail) - st.stieltjes_eval(m, x)) <= 1e-6

    def test_quadratic_cell_negative_inside_rejected(self):
        # (s - 0.3)^2 - 1e-4 is -1e-4 at s = 0.3 and positive at both ends,
        # where 1,000 samples over [0, 1000) step over (0.29, 0.31)
        pp = st.PiecewisePolynomial(
            np.array([0.0, 1.0, 1000.0]),
            np.array([[0.09 - 1e-4, -0.6, 1.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(DomainError, match="t=0.3"):
            st.RepresentingMeasure(order=2.0, density=pp)

    def test_quadratic_check_draws_no_samples(self, monkeypatch):
        # the profile s (1 - s) / 2 of the Barnes Q measure: ends and
        # vertices decide degree 2, and only degree >= 3 is sampled
        def sampled(self, t):
            raise AssertionError("sampled")

        monkeypatch.setattr(st.PiecewisePolynomial, "__call__", sampled)
        st.PeriodicTail(start=0.0, period=1.0, profile=st.PiecewisePolynomial(
            np.array([0.0, 1.0]), np.array([[0.0, 0.5, -0.5]])))

    def test_negative_density_rejected(self):
        pp = st.PiecewisePolynomial(np.array([0.0, 1.0]), np.array([[-1.0]]))
        with pytest.raises(DomainError):
            st.RepresentingMeasure(order=2.0, density=pp)

    def test_one_negative_cell_of_4096_rejected(self):
        # 1,000 samples missed a single negative cell about 3 times in 4
        bps = np.arange(4097.0)
        for i in range(4096):
            rows = np.ones((4096, 1))
            rows[i] = -5.0
            with pytest.raises(DomainError):
                st.RepresentingMeasure(
                    order=2.0, density=st.PiecewisePolynomial(bps, rows))

    @pytest.mark.parametrize("rows, tail_value", [
        ([[1.0, 0.0], [1.0, -1.001]], None),    # negative only at t = 2
        ([[1.0, 0.0], [1.0, 0.0]], -1e-6),      # negative for t > 2
    ])
    def test_linear_cell_negative_at_an_end_rejected(self, rows, tail_value):
        pp = st.PiecewisePolynomial(np.array([0.0, 1.0, 2.0]), np.array(rows))
        with pytest.raises(DomainError):
            st.RepresentingMeasure(
                order=3.0, density=pp, tail=None if tail_value is None
                else st._constant_tail(2.0, tail_value))

    def test_negative_periodic_profile_rejected(self):
        profile = st.PiecewisePolynomial(np.array([0.0, 1.0, 2.0]),
                                         np.array([[1.0], [-0.5]]))
        with pytest.raises(DomainError):
            st.PeriodicTail(start=3.0, period=2.0, profile=profile)
