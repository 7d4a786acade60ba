import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoshell.actionpoly import (
    ActionPolynomial,
    SystemParams,
    absorb_harmonic_terms,
    action_coefficients,
    delta_s,
    effective_frequency,
    oscillator_strengths,
    polynomial_delta_s,
    sigma_alpha,
    verify_legendre_form,
)
from hoshell.dos import pert_dos
from hoshell.errors import DomainError
from hoshell.specfun import legendre_coefficients

from reference import i_coefficient, k_coefficient

# Reference coefficient families for low orders (common denominator form).
KNOWN_COEFFS = {
    2: [Fraction(3, 2), Fraction(-1, 2)],
    3: [Fraction(5, 2), Fraction(-3, 2)],
    4: [Fraction(35, 8), Fraction(-30, 8), Fraction(3, 8)],
    5: [Fraction(63, 8), Fraction(-70, 8), Fraction(15, 8)],
    6: [Fraction(231, 16), Fraction(-315, 16), Fraction(105, 16), Fraction(-5, 16)],
    7: [Fraction(429, 16), Fraction(-693, 16), Fraction(315, 16), Fraction(-35, 16)],
    8: [Fraction(6435, 128), Fraction(-12012, 128), Fraction(6930, 128),
        Fraction(-1260, 128), Fraction(35, 128)],
    9: [Fraction(12155, 128), Fraction(-25740, 128), Fraction(18018, 128),
        Fraction(-4620, 128), Fraction(315, 128)],
    10: [Fraction(46189, 256), Fraction(-109395, 256), Fraction(90090, 256),
         Fraction(-30030, 256), Fraction(3465, 256), Fraction(-63, 256)],
}


class TestICoefficient:
    def test_examples(self):
        assert i_coefficient(2, 1) == Fraction(1, 4)
        assert i_coefficient(1, 0) == Fraction(1, 2)
        assert i_coefficient(2, 0) == Fraction(3, 8)

    @pytest.mark.parametrize("alpha", range(1, 13))
    def test_reflection_symmetry(self, alpha):
        for k in range(alpha + 1):
            assert i_coefficient(alpha, k) == i_coefficient(alpha, alpha - k)

    def test_trig_integral_oracle(self):
        # I equals the 2pi-averaged power integral times binom(alpha, k).
        s = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        for alpha, k in [(2, 1), (3, 0), (4, 2), (5, 1)]:
            avg = np.mean(np.sin(s) ** (2 * alpha - 2 * k) * np.cos(s) ** (2 * k))
            want = float(i_coefficient(alpha, k)) / math.comb(alpha, k)
            assert abs(avg - want) < 1e-14

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            i_coefficient(3, 4)
        with pytest.raises(DomainError):
            i_coefficient(3, -1)


class TestKCoefficient:
    def test_examples(self):
        assert k_coefficient(2, 1, 0, 0) == 2
        assert k_coefficient(4, 2, 1, 1) == -8

    @pytest.mark.parametrize("alpha,k", [(3, 1), (5, 2), (6, 3)])
    def test_mixed_parity_vanishes(self, alpha, k):
        for l in range(k + 1):
            for p in range(alpha - k + 1):
                if (l + p) % 2 == 1:
                    assert k_coefficient(alpha, k, l, p) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            k_coefficient(4, 2, 3, 0)
        with pytest.raises(DomainError):
            k_coefficient(4, 2, 0, 3)


def _coefficients_via_parity_split(alpha):
    """Literal assembly from the parity-split double sum, as a slow oracle:
    pair terms I_k * sum_{l,p} K * (1 - u)^((l+p)/2) plus the middle
    I_{a/2} u^(a/2) for even orders, with u the squared scaled momentum."""
    half = alpha // 2
    out = [Fraction(0)] * (half + 1)
    pair_top = (alpha - 1) // 2 if alpha % 2 else alpha // 2 - 1
    for k in range(pair_top + 1):
        weight = i_coefficient(alpha, k)
        for l in range(k + 1):
            for p in range(alpha - k + 1):
                kc = k_coefficient(alpha, k, l, p)
                if kc == 0:
                    continue
                m = (l + p) // 2
                for j in range(m + 1):
                    out[j] += weight * kc * math.comb(m, j) * (-1) ** j
    if alpha % 2 == 0:
        out[half] += i_coefficient(alpha, half)
    return tuple(out)


class TestActionCoefficients:
    @pytest.mark.parametrize("alpha", sorted(KNOWN_COEFFS))
    def test_reference_coefficients(self, alpha):
        assert list(action_coefficients(alpha).coeffs) == KNOWN_COEFFS[alpha]

    def test_order_one_is_constant_unity(self):
        # ltilde * P_1(1/ltilde) = 1; the double-factorial assembly agrees.
        assert action_coefficients(1).coeffs == (Fraction(1),)

    @pytest.mark.parametrize("alpha", range(1, 21))
    def test_parity_split_oracle(self, alpha):
        assert action_coefficients(alpha).coeffs == _coefficients_via_parity_split(alpha)

    @pytest.mark.parametrize("alpha", range(1, 65))
    def test_normalization_and_positivity(self, alpha):
        coeffs = action_coefficients(alpha).coeffs
        assert sum(coeffs) == 1  # value at ltilde = 1
        assert coeffs[0] > 0

    @pytest.mark.parametrize("alpha", range(2, 65))
    def test_alternating_signs(self, alpha):
        coeffs = action_coefficients(alpha).coeffs
        for a, b in zip(coeffs, coeffs[1:]):
            assert a * b < 0

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            ActionPolynomial(alpha=4, coeffs=(1.0, 2.0))


def _exact_scaled_values(alpha, ltilde):
    """P(ltilde) at each float ltilde = p / q, correctly rounded: the integer
    sum_j N_j p^(2j) q^(2(h-j)) over den q^(2h), with a_j = N_j / den."""
    coeffs = action_coefficients(alpha).coeffs
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    top = len(nums) - 1
    out = []
    for lt in ltilde:
        p, q = float(lt).as_integer_ratio()
        total = 0
        for j in range(top, -1, -1):
            total = total * p * p + nums[j] * (q * q) ** (top - j)
        out.append(total / (den * (q * q) ** top))
    return np.array(out)


class TestFloatViews:
    @pytest.mark.parametrize("view", ["float_coeffs", "v_coeffs"])
    def test_built_once_and_read_only(self, view):
        poly = action_coefficients(6)
        first = getattr(poly, view)
        assert getattr(poly, view) is first
        with pytest.raises(ValueError):
            first[0] = 2.0

    @pytest.mark.parametrize("alpha", [1, 2, 3, 7, 40, 200])
    def test_v_coeffs_are_the_orbit_averages(self, alpha):
        # b_m = C(alpha, 2m) C(2m, m) / 4^m, the ellipse average of the
        # (1 - ltilde^2)^m term, positive and correctly rounded.
        want = [float(Fraction(math.comb(alpha, 2 * m) * math.comb(2 * m, m), 4 ** m))
                for m in range(alpha // 2 + 1)]
        assert action_coefficients(alpha).v_coeffs.tolist() == want

    @pytest.mark.parametrize("alpha", [2, 4, 10, 30, 40, 60, 100, 200])
    def test_scaled_value_against_exact_values(self, alpha):
        # The monomial coefficients alternate and reach 3.5e13 at alpha = 40;
        # Horner in ltilde^2 lost all digits near ltilde = 1 by alpha = 50.
        poly = action_coefficients(alpha)
        ltilde = np.linspace(0.0, 1.0, 401)
        want = _exact_scaled_values(alpha, ltilde)
        got = poly.scaled_value(ltilde)
        assert np.max(np.abs(got - want) / want) <= 1e-14
        assert poly.scaled_value(1.0) == 1.0

    def test_float_coefficients_are_transformed_exactly(self):
        # Float a_j, as polynomial_delta_s gives them: each b_m is rounded once,
        # so b_0 = 1 + 1e16 - 1e16 is 1, where a float sum gives 0.
        poly = ActionPolynomial(alpha=4, coeffs=(1.0, 1e16, -1e16))
        assert poly.v_coeffs.tolist() == [1.0, 1e16, -1e16]
        assert poly.scaled_value(1.0) == 1.0
        assert ActionPolynomial(alpha=2, coeffs=(1.5, -0.5)).v_coeffs.tolist() == [1.0, 0.5]

    def test_past_the_float_range(self):
        # From alpha = 814 some a_j exceeds 1.8e308 while every b_m, at most
        # a0 = P(0), stays finite up to alpha = 1029.
        poly = action_coefficients(814)
        with pytest.raises(DomainError, match="order-814 coefficients a_j leave the float range"):
            poly.float_coeffs
        assert poly.scaled_value(1.0) == 1.0
        with pytest.raises(DomainError, match="order-1100 coefficients b_m leave the float range"):
            action_coefficients(1100).scaled_value(0.5)


class TestLegendreForm:
    def test_small_orders_all_match(self):
        checks = verify_legendre_form(40)
        assert all(c.matches for c in checks)
        assert [c.alpha for c in checks] == list(range(1, 41))

    def test_coefficients_are_legendre_coefficients(self):
        for alpha in (3, 8, 13):
            legendre = legendre_coefficients(alpha)
            derived = action_coefficients(alpha).coeffs
            for j, c in enumerate(derived):
                assert c == legendre[alpha - 2 * j]


class TestSigma:
    def test_trivials(self):
        assert sigma_alpha(0.0, 1.0, 2, 1.0) == 0.0
        assert abs(sigma_alpha(1.0, 1.0, 2, 1.0) - 2.0 * math.pi) < 1e-15

    @settings(max_examples=100, deadline=None)
    @given(
        energy=st.floats(min_value=0.01, max_value=50.0),
        eps=st.floats(min_value=-2.0, max_value=2.0),
        alpha=st.integers(min_value=1, max_value=10),
        omega=st.floats(min_value=0.2, max_value=4.0),
    )
    def test_amplitude_form_equivalence(self, energy, eps, alpha, omega):
        # eps 2 pi E^a / w^(2a+1) == eps pi R0^(2a) / (2^(a-1) w)
        r0 = math.sqrt(2.0 * energy) / omega
        other = eps * math.pi * r0 ** (2 * alpha) / (2.0 ** (alpha - 1) * omega)
        ours = sigma_alpha(energy, eps, alpha, omega)
        assert ours == pytest.approx(other, rel=1e-12, abs=1e-300)


class TestDeltaS:
    def test_end_point_values(self):
        poly = action_coefficients(2)
        assert delta_s(poly, 1.0, 1.0) == pytest.approx(-1.0, rel=1e-14)
        assert delta_s(poly, 1.0, 0.0) == pytest.approx(-1.5, rel=1e-14)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 5, 9])
    def test_circular_orbit_value(self, alpha):
        # P_alpha(1) = 1 forces dS = -sigma at ltilde = 1.
        assert delta_s(action_coefficients(alpha), 2.7, 1.0) == pytest.approx(
            -2.7, rel=1e-13)

    def test_rejects_unphysical_momentum(self):
        poly = action_coefficients(2)
        with pytest.raises(DomainError):
            delta_s(poly, 1.0, 1.2)
        with pytest.raises(DomainError):
            delta_s(poly, 1.0, -0.1)

    @pytest.mark.parametrize("alpha", range(1, 21))
    def test_negative_for_positive_strength(self, alpha):
        poly = action_coefficients(alpha)
        for lt in np.linspace(0.0, 1.0, 101):
            assert delta_s(poly, 3.3, float(lt)) < 0.0


class TestEffectiveFrequency:
    def test_no_harmonic_terms(self):
        params = SystemParams.single(3, 0.2, 2)
        assert effective_frequency(params) == params.omega

    def test_direct_formula(self):
        params = SystemParams.single(3, 0.005, 1)
        assert effective_frequency(params) == pytest.approx(math.sqrt(1.01), rel=1e-15)

    def test_mean_field_shift(self):
        # 3 U0 rho0 / R_TF^2 = 0.03 enters as a harmonic term of strength half.
        params = SystemParams(dim=3, terms=((0.015, 1), (1e-4, 2), (1e-6, 3)))
        assert effective_frequency(params) == pytest.approx(math.sqrt(1.03), rel=1e-15)

    def test_inverted_trap_rejected(self):
        with pytest.raises(DomainError):
            effective_frequency(SystemParams.single(3, -0.51, 1))

    def test_absorb_strips_harmonic_terms(self):
        params = SystemParams(dim=3, terms=((0.015, 1), (1e-4, 2)))
        eff = absorb_harmonic_terms(params)
        assert [t.alpha for t in eff.terms] == [2]
        assert eff.omega == pytest.approx(math.sqrt(1.03), rel=1e-15)


class TestOscillatorStrengths:
    def test_orders_merge_and_cancel(self):
        # At hbar = omega = 1 each eps' is the merged strength, bit for bit.
        params = SystemParams(dim=3, terms=((1e-3, 2), (2e-5, 3), (5e-4, 2), (1e-4, 4),
                                            (-1e-4, 4)))
        assert oscillator_strengths(params) == ({2: 1e-3 + 5e-4, 3: 2e-5}, 1.0)
        assert oscillator_strengths(SystemParams(dim=3)) == ({}, 1.0)

    def test_units(self):
        # eps' = eps hbar^(alpha-1) / omega^(alpha+1); powers of 2 are exact.
        params = SystemParams(dim=3, omega=0.5, hbar=4.0, terms=((1e-3, 2), (3e-5, 3)))
        assert oscillator_strengths(params) == ({2: 1e-3 * 4.0 / 0.5 ** 3,
                                                 3: 3e-5 * 16.0 / 0.5 ** 4}, 2.0)
        strengths, _ = oscillator_strengths(SystemParams.single(3, 1e-153, 2, hbar=1e150))
        assert strengths[2] == pytest.approx(1e-3, rel=1e-15)

    @pytest.mark.parametrize("system,match", [
        (dict(omega=1e308, terms=((1e-3, 2),)), "omega^(alpha+1)=0 leaves"),
        (dict(omega=1e-100, terms=((1e-3, 3),)), "omega^(alpha+1)=inf leaves"),
        (dict(hbar=1e-310), "hbar omega=1e-310 or"),
        (dict(terms=((0.0, 10 ** 400),)), "the order alpha leaves the float range"),
    ])
    def test_float_range(self, system, match):
        with pytest.raises(DomainError, match=re.escape(match)):
            oscillator_strengths(SystemParams(dim=3, **system))


class TestPolynomialDeltaS:
    def test_single_term_matches_delta_s(self):
        params = SystemParams.single(3, 0.07, 2)
        energy = 4.2
        poly, sigma = polynomial_delta_s(params, energy)
        want_sigma = sigma_alpha(energy, 0.07, 2, 1.0)
        assert sigma == pytest.approx(want_sigma, rel=1e-14)
        for lt in (0.0, 0.4, 1.0):
            assert -sigma * poly.scaled_value(lt) == pytest.approx(
                delta_s(action_coefficients(2), want_sigma, lt), rel=1e-13)

    @pytest.mark.parametrize("alpha", [2, 3, 4, 10])
    def test_single_order_polynomial_is_energy_independent(self, alpha):
        # One term's polynomial is its order's, exactly, at every energy: the
        # scalar view agrees with the single term pert_dos passes to modulation.
        params = SystemParams.single(3, -1.25e-3, alpha)
        want = action_coefficients(alpha).float_coeffs
        for energy in np.linspace(1.0, 70.0, 97):
            poly, _ = polynomial_delta_s(params, float(energy))
            assert poly.alpha == alpha
            assert np.array_equal(poly.float_coeffs, want)

    def test_linearity_in_strength(self):
        whole = SystemParams.single(3, 0.08, 2)
        split = SystemParams(dim=3, terms=((0.04, 2), (0.04, 2)))
        energy = 2.9
        p1, s1 = polynomial_delta_s(whole, energy)
        p2, s2 = polynomial_delta_s(split, energy)
        assert s1 == pytest.approx(s2, rel=1e-14)
        assert np.allclose(p1.float_coeffs, p2.float_coeffs, rtol=1e-14)

    def test_mean_field_combination(self):
        # U0 rho0 (6 R_TF^2 r^4 + r^6) / (16 R_TF^6): summing the order-2 and
        # order-3 polynomials gives, in units of U0 rho0 pi R0^4/(32 w R_TF^4),
        # the bracket 9 + (5/4) x - (3 + (3/4) x) l^2 with x = R0^2/R_TF^2.
        u0rho0, r_tf, omega = 0.002, 3.0, 1.0
        eps2 = 6.0 * u0rho0 / (16.0 * r_tf ** 4)
        eps3 = u0rho0 / (16.0 * r_tf ** 6)
        params = SystemParams(dim=3, omega=omega, terms=((eps2, 2), (eps3, 3)))
        energy = 2.0
        r0_sq = 2.0 * energy / omega ** 2
        x = r0_sq / r_tf ** 2
        unit = u0rho0 * math.pi * r0_sq ** 2 / (32.0 * omega * r_tf ** 4)
        poly, sigma = polynomial_delta_s(params, energy)
        for lt in (0.0, 0.3, 0.77, 1.0):
            want = -unit * (9.0 + 1.25 * x - (3.0 + 0.75 * x) * lt ** 2)
            assert -sigma * poly.scaled_value(lt) == pytest.approx(want, rel=1e-12)

    def test_combined_polynomial_is_two_coefficients(self):
        params = SystemParams(dim=3, terms=((1e-4, 2), (1e-6, 3)))
        poly, _ = polynomial_delta_s(params, 5.0)
        # order-2 and order-3 monomials both stop at ltilde^2
        assert np.allclose(poly.float_coeffs[2:], 0.0, atol=1e-18)
        assert abs(sum(poly.float_coeffs) - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [30, 40, 50])
    def test_high_order_mixture_is_rounded_once(self, alpha):
        # The float a_j of a high order alternate in sign and grow, so a
        # mixture of them lost digits at l = 1 (7.5e-13 at alpha = 30, 2.2e-9
        # at 40, 5.3e-5 at 50).  Mixed exactly, sigma P(l) stays within a few
        # ulp of sum_t sigma_t P_t(l) summed in Fractions.
        params = SystemParams(dim=3, terms=((1e-3, 2), (1e-9, alpha)))
        poly, sigma = polynomial_delta_s(params, 1.0)
        ltilde = np.linspace(0.0, 1.0, 101)
        got = sigma * poly.scaled_value(ltilde)
        for lt, value in zip(ltilde, got):
            l2 = Fraction(lt) ** 2
            want = Fraction(0)
            for eps, order in params.terms:
                p = Fraction(0)
                for a in reversed(action_coefficients(order).coeffs):
                    p = p * l2 + a
                want += Fraction(sigma_alpha(1.0, eps, order, 1.0)) * p
            assert abs(Fraction(value) - want) <= Fraction(1e-13) * abs(want), lt

    def test_rejects_harmonic_terms(self):
        params = SystemParams(dim=3, terms=((0.01, 1), (1e-4, 2)))
        with pytest.raises(DomainError):
            polynomial_delta_s(params, 1.0)

    def test_no_terms_gives_zero_strength(self):
        poly, sigma = polynomial_delta_s(SystemParams(dim=3), 1.0)
        assert sigma == 0.0
        assert poly.scaled_value(0.5) == 1.0

    @pytest.mark.parametrize("terms", [
        ((-1.25e-3, 2),), ((2e-5, 3),), ((1e-7, 10),),
        ((1e-3, 2), (2e-5, 3)), ((1e-4, 2), (-1e-6, 3), (1e-9, 4)),
        ((1e-3, 2), (-1e-3, 2)), ((0.0, 4),), (),
    ])
    def test_array_path_equals_scalar_view(self, terms):
        # pert_dos's path: per-term sigma_t over the whole grid, each with its
        # own order's polynomial.  Its action -sum_t sigma_t P_t(ltilde) is the
        # scalar view's -sigma P(ltilde) at every energy.
        params = SystemParams(dim=3, omega=1.3, terms=terms)
        grid = np.linspace(0.5, 70.0, 97)
        ltilde = np.linspace(0.0, 1.0, 11)
        per_term = sum((np.outer(sigma_alpha(grid, eps, alpha, 1.3),
                                 action_coefficients(alpha).scaled_value(ltilde))
                        for eps, alpha in terms), np.zeros((grid.size, ltilde.size)))
        for energy, row in zip(grid, per_term):
            poly, sigma = polynomial_delta_s(params, float(energy))
            want = sigma * poly.scaled_value(ltilde)
            assert np.all(np.abs(row - want) <= 1e-13 * np.max(np.abs(row), initial=1e-300))

    def test_zero_total_strength_gives_unit_polynomial(self):
        # The two terms cancel exactly at E = 1 only: there the scalar view
        # gives the order-1 unit polynomial, at E = 2 the mixed-order one.
        params = SystemParams(dim=3, terms=((1.0, 2), (-1.0, 3)))
        assert polynomial_delta_s(params, 1.0) == (ActionPolynomial(alpha=1, coeffs=(1.0,)), 0.0)
        poly, sigma = polynomial_delta_s(params, 2.0)
        assert poly.alpha == 3 and sigma == -8.0 * math.pi

    def test_array_path_rejects_bad_input(self):
        # pert_dos's energy check, and sigma past the float range on an array.
        with pytest.raises(DomainError, match="energy must be > 0, got 0.0"):
            pert_dos(SystemParams.single(3, 1e-3, 2), np.array([1.0, 0.0, 2.0]))
        with pytest.raises(DomainError, match="the action scale sigma"):
            sigma_alpha(np.array([1.0, 2.0]), 1e-3, 3, 1e-100)


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            SystemParams(dim=1)
        with pytest.raises(DomainError):
            SystemParams(dim=3, omega=0.0)
        with pytest.raises(DomainError):
            SystemParams(dim=3, hbar=-1.0)
        with pytest.raises(DomainError):
            SystemParams(dim=3, terms=((0.1, 0),))

    @pytest.mark.parametrize("field", ["epsilon", "omega", "hbar"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        system = {"dim": 3, "epsilon": 1e-3, "alpha": 2, field: value}
        with pytest.raises(DomainError, match="finite"):
            SystemParams.single(**system)

    @pytest.mark.parametrize("system", [
        {"dim": 2.5}, {"dim": math.nan}, {"dim": "3"},
        {"dim": 3, "terms": ((1e-3, 2.5),)}, {"dim": 3, "terms": ((1e-3, math.inf),)},
    ])
    def test_rejects_a_dimension_or_order_that_is_not_an_integer(self, system):
        # An order of 2.5 was stored as 2, D = 2.5 and nan were accepted, and
        # an infinite order raised OverflowError.
        with pytest.raises(DomainError, match="must be an integer") as info:
            SystemParams(**system)
        assert "\n" not in str(info.value)

    def test_numpy_integers_are_stored_as_ints(self):
        params = SystemParams(dim=np.int64(3), terms=((1e-3, np.int32(2)),))
        assert type(params.dim) is int and type(params.terms[0].alpha) is int
        assert params == SystemParams.single(3, 1e-3, 2)
