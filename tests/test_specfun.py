import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoshell.errors import DomainError
from hoshell.specfun import (
    _erfc_fraction,
    chebyshev_lobatto,
    expi,
    gauss_kronrod,
    gauss_legendre,
    kummer_1f1,
    kummer_1f1_axis,
    legendre_coefficients,
    rising_roots,
)

from reference import double_factorial, legendre_p


class TestDoubleFactorial:
    def test_examples(self):
        assert double_factorial(7) == 105
        assert double_factorial(0) == 1
        assert double_factorial(-1) == 1
        assert double_factorial(10) == 3840

    def test_below_domain(self):
        with pytest.raises(DomainError):
            double_factorial(-2)

    @given(st.integers(min_value=1, max_value=60))
    def test_recurrence(self, n):
        assert double_factorial(n) == n * double_factorial(n - 2)


# Explicit low-order Legendre polynomials, exact coefficients ascending in x.
_EXPLICIT = {
    0: [Fraction(1)],
    1: [Fraction(0), Fraction(1)],
    2: [Fraction(-1, 2), Fraction(0), Fraction(3, 2)],
    3: [Fraction(0), Fraction(-3, 2), Fraction(0), Fraction(5, 2)],
    4: [Fraction(3, 8), Fraction(0), Fraction(-30, 8), Fraction(0), Fraction(35, 8)],
    5: [Fraction(0), Fraction(15, 8), Fraction(0), Fraction(-70, 8), Fraction(0),
        Fraction(63, 8)],
}


class TestLegendre:
    def test_order_zero_is_one(self):
        assert legendre_p(0, 0.37) == 1.0
        assert legendre_p(0, Fraction(1, 3)) == 1

    @pytest.mark.parametrize("alpha", range(0, 11))
    def test_value_one_at_unity(self, alpha):
        assert legendre_p(alpha, 1) == 1

    def test_exact_rational_value(self):
        assert legendre_p(4, 2) == Fraction(443, 8)

    @pytest.mark.parametrize("alpha", sorted(_EXPLICIT))
    def test_explicit_coefficients(self, alpha):
        assert list(legendre_coefficients(alpha)) == _EXPLICIT[alpha]

    def test_table_denominators_appear(self):
        denominators = {
            max(c.denominator for c in legendre_coefficients(a)) for a in (4, 6, 8, 10)
        }
        assert denominators == {8, 16, 128, 256}

    def test_cold_high_order(self):
        # A recursion over the order ran past Python's recursion limit here.
        legendre_coefficients.cache_clear()
        coeffs = legendre_coefficients(1200)
        assert len(coeffs) == 1201 and sum(coeffs) == 1  # P_n(1) = 1
        assert not any(coeffs[1199::-2]) and coeffs[0] == Fraction(
            math.comb(1200, 600), 2 ** 1200)

    @pytest.mark.parametrize("alpha", range(6, 11))
    def test_recurrence_matches_coefficients(self, alpha):
        x = Fraction(5, 7)
        explicit = sum(c * x ** i for i, c in enumerate(legendre_coefficients(alpha)))
        assert legendre_p(alpha, x) == explicit

    def test_array_input(self):
        xs = np.linspace(-1, 1, 7)
        vals = legendre_p(3, xs)
        assert np.allclose(vals, 0.5 * (5 * xs ** 3 - 3 * xs))


def _series_oracle(b, z, n_terms=500):
    # Independent brute-force summation; terms underflow well before the cap,
    # so this equals the full series at machine precision for small |z|.
    total = 0j
    term = 1.0 + 0j
    for n in range(n_terms):
        total += term
        term *= z / (b + n)
    return total


class TestKummer:
    def test_unit_at_origin(self):
        # The series stops at its first term: exactly 1 with a zero imaginary
        # part for every b the package passes, and no exception to the domain.
        for b in (1.0, 1.5, 2.0, 3.5, 86.0):
            got = kummer_1f1(b, 0.0)
            assert (got.real, got.imag) == (1.0, 0.0)
        with pytest.raises(DomainError):
            kummer_1f1(3.7, 0.0)

    def test_exponential_identity(self):
        # 1F1(1;2;iy) = (e^(iy) - 1)/(iy), on both sides of the series radius
        for y in (1.0, -37.0):
            want = (cmath.exp(1j * y) - 1.0) / (1j * y)
            assert abs(kummer_1f1(2.0, 1j * y) - want) < 1e-14

    def test_brute_force_oracle(self):
        got = kummer_1f1(4.0, 3j)
        assert abs(got - _series_oracle(4.0, 3j)) < 1e-13

    def test_rejects_nonpositive_b(self):
        with pytest.raises(DomainError):
            kummer_1f1(0.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        b=st.integers(min_value=3, max_value=20).map(lambda n: n / 2.0),
        y=st.floats(min_value=-20.0, max_value=20.0),
    )
    def test_contiguous_relation(self, b, y):
        # 1F1(1;b;z) = 1 + (z/b) 1F1(1;b+1;z) on the physical (imaginary) axis
        z = 1j * y
        lhs = kummer_1f1(b, z)
        rhs = 1.0 + (z / b) * kummer_1f1(b + 1.0, z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("b", [2.0, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0])
    @pytest.mark.parametrize("y", [0.5, 8.0, 12.0, 30.0, 60.0, 100.0, -45.0])
    def test_branch_consistency_via_euler_integral(self, b, y):
        # 1F1(1;b;iy) = (b-1) * integral_0^1 (1-t)^(b-2) e^(iyt) dt; the
        # integral is evaluated with a fine midpoint rule as an independent
        # (if slowly converging) oracle.
        n = 400_000
        t = (np.arange(n) + 0.5) / n
        val = (b - 1.0) * np.mean((1.0 - t) ** (b - 2.0) * np.exp(1j * y * t))
        assert abs(kummer_1f1(b, 1j * y) - val) < 5e-9

    def test_high_precision_oracle(self):
        # Arbitrary-precision reference across every evaluation branch.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        cases = [(b, 1j * y)
                 for b in (1.5, 2.0, 3.5, 4.0, 5.5)
                 for y in (0.3, 6.0, 11.0, 15.0, 25.0, 34.0, 50.0, 100.0, -60.0)]
        for b, z in cases:
            ref = complex(mp.hyp1f1(1, b, mp.mpc(z)))
            got = kummer_1f1(b, z)
            assert abs(got - ref) <= 5e-12 * abs(ref), (b, z)


    @pytest.mark.parametrize("dim", [*range(2, 13), 20, 40, 41, 60, 100, 170, 171, 600, 1021])
    def test_axis_oracle_every_dimension(self, dim):
        # b = (D+1)/2 on the imaginary axis is the whole domain the package
        # reaches: the array kernel and its scalar view both meet the oracle.
        # From D = 20 on, b > 10 and the series' reach is |y| <= b rather
        # than 10.  That edge is probed from both sides, and so is b/2, the
        # reach before: just past it the far branches lost digits at large b
        # (6.2e-7 at D = 170, y = 42.75).  At D = 600 and 1021 the series'
        # coefficient 1/(b)_(2m) leaves the float range while its term at
        # y = b is still 4.8e-10 and 1.2e-5; unscaled, both miss the oracle.
        mp = pytest.importorskip("mpmath")
        b = (dim + 1) / 2.0
        edges = [max(10.0, b), max(10.0, b / 2.0)]
        mags = np.concatenate([np.geomspace(1e-4, 1e4, 41),
                               [e * f for e in edges for f in (1 - 1e-12, 1.0, 1 + 1e-12)]])
        ys = np.concatenate([-mags, mags])
        values = kummer_1f1_axis(b, ys)
        with mp.workdps(40):
            for y, value in zip(ys, values):
                ref = complex(mp.hyp1f1(1, b, mp.mpc(0, y)))
                for got in (value, kummer_1f1(b, 1j * y)):
                    assert abs(got - ref) <= 5e-12 * abs(ref), (dim, y)

    @pytest.mark.parametrize("b", [1.5, 2.5, 4.5, 10.5])
    def test_half_integer_recurrence_oracle(self, b):
        # Past max(10, b), even D runs the recurrence upward from
        # 1F1(1; 3/2; iy), seeded straight from the erfc fraction: a few ulp
        # at both signs of y (the erf route gave 1.1e-13 at b = 1.5).
        mp = pytest.importorskip("mpmath")
        edge = max(10.0, b)
        mags = np.concatenate([[np.nextafter(edge, np.inf)], np.geomspace(edge, 1e6, 151)[1:]])
        ys = np.concatenate([-mags, mags])
        values = kummer_1f1_axis(b, ys)
        with mp.workdps(40):
            for y, value in zip(ys, values):
                ref = complex(mp.hyp1f1(1, b, mp.mpc(0, float(y))))
                assert abs(value - ref) <= 1e-15 * abs(ref), (b, y)

    @pytest.mark.parametrize("b", [1.0, 1.5, 2.0, 2.5, 3.0, 10.5, 86.0])
    def test_conjugate_symmetry_bit_for_bit(self, b):
        # 1F1(1; b; -iy) = conj 1F1(1; b; iy) holds exactly in every branch:
        # the series' real part depends on y^2 only and its imaginary part is
        # odd in y, as are the recurrence and its seeds.
        y = np.geomspace(1e-4, 1e4, 401)
        assert np.array_equal(kummer_1f1_axis(b, -y), np.conj(kummer_1f1_axis(b, y)))

    @pytest.mark.parametrize("b", [1.0, 1.5, 2.0, 2.5, 3.0, 10.5, 86.0])
    def test_small_arguments(self, b):
        # The term count comes from the largest |y| of a call, so y = 10 sets
        # it as on a closed-form grid.  A tiny y leaves 1 + i y/b: the real
        # part exactly 1 (y^2 underflows at 1e-160) and y/b to a few ulp.
        ys = np.array([0.0, -0.0, 1e-160, -1e-160, 1e-20, -1e-20, 10.0])
        values = kummer_1f1_axis(b, ys)
        assert values[0] == 1.0 + 0j and values[1] == 1.0 + 0j
        for y, value in zip(ys[2:6], values[2:6]):
            want = Fraction(y) / Fraction(b)
            assert value.real == 1.0
            assert abs(Fraction(value.imag) - want) <= 4e-16 * abs(want), (b, y)

    def test_tiny_argument_alone_keeps_its_imaginary_part(self):
        # A call whose largest |y| is below 1e-17 b sums j < 1 only; its j = 1
        # term y/b is still the whole imaginary part.
        alone = kummer_1f1(1.5, 1e-20j)
        assert alone.real == 1.0 and alone.imag == 1e-20 / 1.5
        assert alone == kummer_1f1_axis(1.5, np.array([1e-20, 10.0]))[0]

    @pytest.mark.parametrize("b", [1.5, 2.0, 2.5, 3.0])
    def test_series_oracle_closed_form_orders(self, b):
        # The b of the closed-form jobs (D = 2..5): the Taylor series over
        # |y| <= 10, and both sides of its edge.  The bound is the series' own
        # cancellation near |y| = 10 (up to 7.3e-13 measured), not its tail.
        mp = pytest.importorskip("mpmath")
        edge = [s * 10.0 * (1.0 + f) for s in (-1.0, 1.0) for f in (-1e-12, 1e-12)]
        ys = np.concatenate([np.linspace(-10.0, 10.0, 301), edge])
        values = kummer_1f1_axis(b, ys)
        with mp.workdps(40):
            for y, value in zip(ys, values):
                ref = complex(mp.hyp1f1(1, b, mp.mpc(0, float(y))))
                assert abs(value - ref) <= 2e-12 * abs(ref), (b, y)

    @pytest.mark.parametrize("b,z", [(2.0, 1.0), (3.5, 3 + 4j), (4.0, -1e-9 + 20j),
                                     (3.3, 5j), (7.9, 40j)])
    def test_rejects_off_axis_and_non_half_integer_b(self, b, z):
        with pytest.raises(DomainError):
            kummer_1f1(b, z)


def erf_sqrt_i(x):
    """erf(sqrt(ix)) = 1 - 2 sqrt(ix) e^(-ix) / (sqrt(pi) t), t the erfc
    fraction that seeds the even-D 1F1 recurrence past x = 10."""
    root = np.sqrt(0.5 * x) * (1.0 + 1.0j)
    return 1.0 - 2.0 * root * np.exp(-1j * x) / (math.sqrt(math.pi) * _erfc_fraction(x))


class TestErfSqrtI:
    @pytest.mark.parametrize("x", [120.0, 1e4])
    def test_ray_quadrature_oracle(self, x):
        # erf(sqrt(ix)) = (2/sqrt(pi)) e^(i pi/4) int_0^sqrt(x) e^(-i s^2) ds
        from scipy.integrate import simpson

        n = 2_000_001
        s = np.linspace(0.0, math.sqrt(x), n)
        vals = np.exp(-1j * s ** 2)
        ref = (2.0 / math.sqrt(math.pi)) * np.exp(1j * math.pi / 4) \
            * simpson(vals, x=s)
        assert abs(erf_sqrt_i(x) - ref) < 1e-10

    def test_high_precision_oracle(self):
        # Past 10 the bound is the worst error of scipy's Fresnel integrals there.
        mp = pytest.importorskip("mpmath")
        xs = np.concatenate([[np.nextafter(10.0, np.inf)], np.geomspace(10.0, 1e8, 301)[1:]])
        values = erf_sqrt_i(xs)
        with mp.workdps(40):
            for x, value in zip(xs, values):
                ref = complex(mp.erf(mp.sqrt(mp.mpc(0, float(x)))))
                assert abs(value - ref) <= 6.3e-15 * abs(ref), x


_EXPI_BOUND = 2.0 ** 21


def _expi_error(phases) -> float:
    """max |expi(phase) - exp(i phase)|, the difference taken at 40 digits."""
    mp = pytest.importorskip("mpmath")
    values = expi(phases)
    with mp.workdps(40):
        return float(max(abs(mp.mpc(v.real, v.imag) - mp.expj(mp.mpf(float(x))))
                         for x, v in zip(np.ravel(phases), np.ravel(values))))


class TestExpi:
    def test_against_mpmath_out_to_the_bound(self):
        # 20,001 entries in a (3, 6667) array: two blocks of 8,192 and a tail.
        rng = np.random.default_rng(22)
        scales = np.repeat([1.0, 1e3, 4.1e5, _EXPI_BOUND], [5001, 5000, 5000, 5000])
        phases = np.append(rng.uniform(-1.0, 1.0, 20_000) * scales[:20_000], _EXPI_BOUND)
        assert _expi_error(phases.reshape(3, 6667)) <= 2.5e-16
        assert _expi_error([-_EXPI_BOUND, _EXPI_BOUND]) <= 2.5e-16

    def test_reduction_edges(self):
        # Half-way between two table angles, and the multiples of pi/2, where
        # the table entry or the remainder could take the wrong side.
        top = int(_EXPI_BOUND * 512 / math.pi)  # the largest table step m
        j = np.concatenate([np.arange(-1100, 1100), np.arange(top - 10, top)])
        edges = (j + 0.5) * (math.pi / 512)
        quarters = np.arange(-2000, 2001) * (math.pi / 2)
        assert _expi_error(np.concatenate([edges, quarters])) <= 2.5e-16

    def test_zero_is_exactly_one(self):
        assert expi(0.0) == expi(-0.0) == 1.0
        assert np.all(expi(np.zeros((2, 3))) == 1.0)

    @pytest.mark.parametrize("phase", [np.nextafter(_EXPI_BOUND, np.inf),
                                       -np.nextafter(_EXPI_BOUND, np.inf),
                                       np.nan, np.inf, -np.inf])
    def test_rejects_phases_past_the_bound(self, phase):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="2\\^21"):
                expi(phase)
            with pytest.raises(DomainError, match="2\\^21"):
                expi(np.array([0.0, phase, 1.0]))


class TestQuadrature:
    @pytest.mark.parametrize("order", [2, 5, 20, 64, 200])
    def test_rule_invariants(self, order):
        rule = gauss_legendre(order)
        assert rule.order == order
        assert abs(np.sum(rule.weights) - 2.0) < 1e-13
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)
        assert np.all(rule.weights > 0)

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(min_value=1, max_value=40))
    def test_polynomial_exactness(self, order):
        rule = gauss_legendre(order)
        # odd monomial of top degree integrates to zero
        top_odd = 2 * order - 1
        assert abs(np.sum(rule.weights * rule.nodes ** top_odd)) < 1e-13
        # even monomial of next-to-top degree integrates exactly
        deg = 2 * order - 2
        exact = 2.0 / (deg + 1)
        assert abs(np.sum(rule.weights * rule.nodes ** deg) - exact) < 1e-12

    def test_panels_cover_interval(self):
        rule = gauss_legendre(8)
        x, w = rule.on_panels(0.0, 1.0, 3)
        assert abs(np.sum(w) - 1.0) < 1e-14
        assert abs(np.sum(w * x ** 2) - 1.0 / 3.0) < 1e-14
        # the same bits as mapping each panel on its own, in order
        for order, panels in [(6, 1), (6, 7), (8, 3), (200, 2), (200, 50)]:
            rule = gauss_legendre(order)
            edges = np.linspace(0.0, 1.0, panels + 1)
            parts = [rule.on_interval(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
            x, w = rule.on_panels(0.0, 1.0, panels)
            assert np.array_equal(x, np.concatenate([p[0] for p in parts]))
            assert np.array_equal(w, np.concatenate([p[1] for p in parts]))

    def test_rules_are_frozen(self):
        rule = gauss_legendre(12)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


# QUADPACK's qk15 and qk21 (Piessens et al., QUADPACK, Springer 1983): the
# non-negative abscissae of the 15- and 21-point Kronrod rules, from 1 down,
# and their weights.
_GK15 = ([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245, 0.0],
         [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
          0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
          0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
          0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GK21 = ([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
          0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
          0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
          0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
          0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0],
         [0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
          0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
          0.149445554002916905664936468389821])


class TestGaussKronrod:
    @pytest.mark.parametrize("n", [1, 2, 7, 10, 32, 320])
    def test_moments_exact_through_degree_3n_plus_1(self, n):
        rule = gauss_kronrod(n)
        assert rule.order == rule.nodes.size == rule.weights.size == 2 * n + 1
        powers = rule.nodes[:, None] ** np.arange(3 * n + 2)
        exact = np.where(np.arange(3 * n + 2) % 2, 0.0, 2.0 / (np.arange(3 * n + 2) + 1.0))
        assert np.max(np.abs(rule.weights @ powers - exact)) <= 2e-15

    @pytest.mark.parametrize("n", [1, 2, 7, 10, 32, 320])
    def test_gauss_nodes_embedded_and_weights_positive(self, n):
        rule = gauss_kronrod(n)
        assert np.array_equal(rule.nodes[:n], gauss_legendre(n).nodes)
        kronrod = rule.nodes[n:]
        assert np.array_equal(kronrod, -kronrod[::-1])
        # The n + 1 Kronrod nodes interlace the Gauss nodes, strictly.
        merged = np.sort(rule.nodes)
        assert np.all(np.diff(merged) > 0)
        assert np.array_equal(merged[::2], kronrod)
        assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("n,table", [(7, _GK15), (10, _GK21)])
    def test_quadpack_abscissae_and_weights(self, n, table):
        rule = gauss_kronrod(n)
        order = np.argsort(-rule.nodes)[:n + 1]  # non-negative nodes, from 1 down
        assert np.max(np.abs(rule.nodes[order] - table[0])) <= 1e-15
        assert np.max(np.abs(rule.weights[order] - table[1])) <= 1e-15

    def test_rule_is_frozen_and_checked(self):
        rule = gauss_kronrod(4)
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0
        with pytest.raises(DomainError):
            gauss_kronrod(0)


class TestChebyshevLobatto:
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_coefficients_of_a_polynomial(self, n):
        # The interpolant of a degree n-1 polynomial is that polynomial.
        x, to_coef = chebyshev_lobatto(n)
        assert x[0] == -1.0 and x[-1] == 1.0 and np.all(np.diff(x) > 0)
        want = np.arange(1.0, n + 1.0)
        values = np.polynomial.chebyshev.chebval(x, want)
        np.testing.assert_allclose(to_coef @ values, want, rtol=0.0, atol=1e-13 * n)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(DomainError):
            chebyshev_lobatto(1)

    def test_roots_of_a_smooth_row(self):
        x, _ = chebyshev_lobatto(16)
        target = np.array([1.0 / math.e + 1e-9, 0.5, 1.0, 2.0, math.e - 1e-9])
        got = rising_roots(np.tile(np.exp(x), (target.size, 1)), target)
        np.testing.assert_allclose(got, np.log(target), rtol=0.0, atol=1e-14)

    def test_roots_next_to_a_logarithmic_end(self):
        # f = x + k d log(d), d = (1 - x) / 2, rises to f(1) = 1 with an
        # infinite slope; with k given, the interpolant is exact.
        k = 0.7
        x, _ = chebyshev_lobatto(8)
        d = 0.5 - 0.5 * x
        values = x + k * np.where(d > 0, d * np.log(np.where(d > 0, d, 1.0)), 0.0)
        want = np.array([-0.5, 0.9, 1.0 - 2e-6, 1.0 - 2e-12])
        dw = 0.5 - 0.5 * want
        target = want + k * dw * np.log(dw)
        got = rising_roots(np.tile(values, (want.size, 1)), target, k)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        # A target past the last value gives that end.
        assert rising_roots(values[None, :], np.array([1.5]), k)[0] == 1.0
