import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from hoshell.actionpoly import SystemParams, action_coefficients, polynomial_delta_s, sigma_alpha
from hoshell.dos import pert_dos
from hoshell.errors import AccuracyError, DomainError, UnsupportedMethodError
from hoshell.modfactor import (
    _CHUNK_ENTRIES,
    _GRID_CHUNK,
    _NODES_PER_RADIAN,
    DEFAULT_ORDER,
    _harmonic_sums,
    _nested_grid,
    modulation,
    modulation_closed_form,
    modulation_quadrature,
    spa_stationary_point_audit,
)
from hoshell.specfun import QuadratureRule, expi, gauss_legendre, kummer_1f1


def spa_value(poly, sigma_over_hbar, dim, k):
    """The SPA's M_k at one sigma / hbar, read from the array kernel."""
    return complex(modulation(poly, k * sigma_over_hbar, dim, 1, "spa")[0, 0])


class TestQuadrature:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [1, 2, 4, 10])
    def test_unit_at_zero_strength(self, dim, alpha):
        m = modulation_quadrature(action_coefficients(alpha), 0.0, dim, 1)
        assert abs(m.value - 1.0) <= 1e-9

    def test_brute_force_riemann_oracle(self):
        # D=4, order 2, sigma/hbar = 5, k = 1 against a 10^7-panel midpoint sum.
        poly = action_coefficients(2)
        x = 5.0
        n = 10_000_000
        ell = (np.arange(n) + 0.5) / n
        phase = -x * (1.5 - 0.5 * ell ** 2)
        ref = 3.0 * np.mean(ell ** 2 * np.exp(1j * phase))
        got = modulation_quadrature(poly, x, 4, 1).value
        assert abs(got - ref) < 1e-7

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.sampled_from([2, 3, 4]),
        dim=st.integers(min_value=2, max_value=5),
        x=st.floats(min_value=0.0, max_value=40.0),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_conjugation_and_bound(self, alpha, dim, x, k):
        poly = action_coefficients(alpha)
        plus = modulation_quadrature(poly, x, dim, k).value
        minus = modulation_quadrature(poly, x, dim, -k).value
        assert abs(minus - plus.conjugate()) <= 1e-12
        assert abs(plus) <= 1.0 + 1e-9

    def test_rejects_zero_k(self):
        with pytest.raises(DomainError):
            modulation_quadrature(action_coefficients(2), 1.0, 3, 0)

    def test_combined_polynomial_input(self):
        params = SystemParams(dim=3, terms=((1e-3, 2), (1e-5, 3)))
        poly, sigma = polynomial_delta_s(params, 10.0)
        quad = modulation_quadrature(poly, sigma, 3, 1).value
        closed = modulation_closed_form(poly, sigma, 3, 1).value
        assert abs(quad - closed) <= 1e-9 * abs(closed)


_SCALAR = {"quadrature": lambda *args: modulation_quadrature(*args).value,
           "closed_form": lambda *args: modulation_closed_form(*args).value,
           "spa": spa_value}
# The quadrature cases keep their original ids (dim-alpha-k_max).
_RECURRENCE_CASES = [
    pytest.param(method, dim, alpha, k_max,
                 id=("" if method == "quadrature" else f"{method}-") + f"{dim}-{alpha}-{k_max}")
    for method, alphas in (("quadrature", (2, 3, 4, 10)), ("closed_form", (2, 3)),
                           ("spa", (2, 3, 4, 10)))
    for dim in (2, 3, 4, 5) for alpha in alphas for k_max in (10, 1)
]


class TestArrayKernel:
    @pytest.mark.parametrize("method,dim,alpha,k_max", _RECURRENCE_CASES)
    def test_harmonic_recurrence_matches_scalar(self, method, dim, alpha, k_max):
        poly = action_coefficients(alpha)
        sigmas = np.array([-23.0, -4.5, -0.3])
        got = modulation(poly, sigmas, dim, k_max, method)
        assert got.shape == (3, k_max)
        for i, sigma in enumerate(sigmas):
            for k in range(1, k_max + 1):
                want = _SCALAR[method](poly, k * sigma, dim, 1)
                assert abs(got[i, k - 1] - want) <= 1e-12 * max(1.0, abs(want))

    def test_rows_beyond_one_chunk(self):
        # Small sigma gives one panel: its DEFAULT_ORDER Gauss nodes and the
        # DEFAULT_ORDER + 1 Kronrod nodes, 2 * DEFAULT_ORDER + 1 per row.
        per_chunk = _CHUNK_ENTRIES // (2 * DEFAULT_ORDER + 1)
        sigmas = np.linspace(0.1, 0.9, 2 * per_chunk + 7)
        poly = action_coefficients(3)
        got = modulation(poly, sigmas, 4, 3, "quadrature")
        for i, sigma in enumerate(sigmas):
            for k in (1, 2, 3):
                want = modulation_quadrature(poly, sigma, 4, k).value
                assert abs(got[i, k - 1] - want) <= 1e-12

    @pytest.mark.parametrize("method", ["closed_form", "spa"])
    def test_grid_rows_beyond_one_block(self, method):
        step = _GRID_CHUNK // 10
        sigmas = np.linspace(-40.0, 40.0, 2 * step + 7)
        poly = action_coefficients(2)
        got = modulation(poly, sigmas, 4, 10, method)
        for i in (0, step - 1, step, 2 * step - 1, 2 * step, len(sigmas) - 1):
            for k in (1, 10):
                want = _SCALAR[method](poly, sigmas[i], 4, k)
                assert abs(got[i, k - 1] - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("method", ["quadrature", "closed_form", "spa"])
    def test_exactly_one_at_zero_strength(self, method):
        got = modulation(action_coefficients(2), [0.0, 3.0, 0.0], 3, 4, method)
        assert np.all(got[[0, 2]] == 1.0)
        assert np.all(got[1] != 1.0)

    def test_coarse_rule_raises_through_array_path(self):
        with pytest.raises(AccuracyError, match=r"order=6, panels=1, x=5\b"):
            modulation(action_coefficients(2), [0.5, 12.0, 30.0], 3, 10,
                       "quadrature", gauss_legendre(6))

    @pytest.mark.parametrize("method", ["quadrature", "closed_form", "spa"])
    @pytest.mark.parametrize("eps3", [2e-5, -2e-5])
    def test_per_term_rows_match_the_combined_polynomial(self, method, eps3):
        # One sigma_t / hbar column per term against the scalar view's
        # normalised polynomial, for strengths of the same and opposite sign.
        # The opposite-sign a1 parts cancel near E = 16.7, where SPA fails.
        terms = ((1e-3, 2), (eps3, 3))
        energies = [5.0, 12.0, 20.0, 33.0]
        polys = [action_coefficients(alpha) for _, alpha in terms]
        sigmas = [[sigma_alpha(e, eps, alpha, 1.0) for eps, alpha in terms] for e in energies]
        got = modulation(polys, sigmas, 3, 6, method)
        assert got.shape == (4, 6)
        for energy, row in zip(energies, got):
            poly, sigma = polynomial_delta_s(SystemParams(dim=3, terms=terms), energy)
            want = modulation(poly, sigma, 3, 6, method)[0]
            assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_per_term_input_is_checked(self):
        polys = [action_coefficients(2), action_coefficients(4)]
        assert np.all(modulation(polys, np.zeros((3, 2)), 3, 2, "closed_form") == 1.0)
        assert modulation([], np.zeros((3, 0)), 3, 2, "spa").shape == (3, 2)
        with pytest.raises(DomainError):
            modulation(polys, [1.0, 2.0], 3, 2, "quadrature")
        with pytest.raises(DomainError):
            modulation(polys, [[1.0, 2.0, 3.0]], 3, 2, "quadrature")
        with pytest.raises(UnsupportedMethodError):
            modulation(polys, [[1.0, 0.0]], 3, 2, "closed_form")

    def test_rejects_bad_arguments(self):
        poly = action_coefficients(2)
        with pytest.raises(DomainError):
            modulation(poly, [1.0], 1, 3, "quadrature")
        with pytest.raises(DomainError):
            modulation(poly, [1.0], 3, 0, "quadrature")
        with pytest.raises(DomainError):
            modulation(poly, [1.0, math.nan], 3, 2, "quadrature")
        with pytest.raises(DomainError):
            modulation(poly, [[1.0, 2.0]], 3, 2, "quadrature")
        with pytest.raises(UnsupportedMethodError):
            modulation(poly, [1.0], 3, 2, "simpson")


def _mpmath_modulation(poly, x: float, dim: int) -> complex:
    """M_1 at x by mpmath's Gauss-Legendre quadrature on panels of at most
    two phase cycles, sized from max |P'| on a dense grid."""
    mp = pytest.importorskip("mpmath")
    coeffs = [float(c) for c in poly.coeffs]
    ell = np.linspace(0.0, 1.0, 4097)
    slope = np.max(np.abs(sum(2 * j * c * ell ** (2 * j - 1) for j, c in enumerate(coeffs) if j)))
    panels = int(abs(x) * slope / (4.0 * math.pi)) + 2

    def integrand(ell):
        phase = sum(c * ell ** (2 * j) for j, c in enumerate(coeffs))
        return (dim - 1) * ell ** (dim - 2) * mp.expj(-x * phase)

    with mp.workdps(17):
        return complex(mp.quad(integrand, mp.linspace(0, 1, panels + 1),
                               method="gauss-legendre"))


# Coarse nodes per row at most, 1024 panels of 200 nodes, at 0.5 nodes per
# radian of the fastest local phase.
_BUDGET_PHASE = 1024 * 200 / 0.5


def _record_phases(monkeypatch) -> list:
    """Wrap the quadrature's `expi` to record max |phase| of every call."""
    import hoshell.modfactor as modfactor

    seen = []

    def recording(phase):
        seen.append(float(np.max(np.abs(phase))))
        return expi(phase)

    monkeypatch.setattr(modfactor, "expi", recording)
    return seen


class TestPanelSizing:
    """The 32-node rule, placed by the fastest local phase, against oracles
    that share none of its nodes."""

    @pytest.mark.parametrize("alpha,slope", [(2, 1.0), (3, 3.0)])  # max |P'| at l = 1
    @pytest.mark.parametrize("dim", [*range(2, 9), 60, 170])
    def test_against_closed_form_out_to_the_node_budget(self, alpha, slope, dim):
        poly = action_coefficients(alpha)
        sigmas = np.linspace(-40.0, 40.0, 41)  # k sigma / hbar up to 400
        quad = modulation(poly, sigmas, dim, 10, "quadrature")
        closed = modulation(poly, sigmas, dim, 10, "closed_form")
        assert np.all(np.abs(quad - closed) <= 1e-10 * np.maximum(1.0, np.abs(closed)))
        edge = 0.99 * _BUDGET_PHASE / slope
        xs = [0.5 * edge, -edge, edge]
        quad = modulation(poly, xs, dim, 1, "quadrature")
        closed = modulation(poly, xs, dim, 1, "closed_form")
        assert np.all(np.abs(quad - closed) <= 1e-10 * np.maximum(1.0, np.abs(closed)))

    @pytest.mark.parametrize("alpha,xs", [(4, (0.7, -13.0, 45.0, -100.0)),
                                          (10, (0.05, -0.9, 1.3, -2.5))])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_against_mpmath(self, alpha, xs, dim):
        poly = action_coefficients(alpha)
        got = modulation(poly, xs, dim, 1, "quadrature")[:, 0]
        for x, value in zip(xs, got):
            want = _mpmath_modulation(poly, x, dim)
            assert abs(value - want) <= 1e-10 * max(1.0, abs(want)), x

    def test_combined_polynomial_at_large_x(self):
        params = SystemParams(dim=3, terms=((1e-3, 2), (1e-5, 3)))
        poly, sigma = polynomial_delta_s(params, 10.0)
        for dim in (2, 3, 7):
            for sigmas, k_max in ((sigma * np.geomspace(10.0, 4e3, 25), 10), ([3e5, -3e5], 1)):
                quad = modulation(poly, sigmas, dim, k_max, "quadrature")
                closed = modulation(poly, sigmas, dim, k_max, "closed_form")
                assert np.all(np.abs(quad - closed)
                              <= 1e-10 * np.maximum(1.0, np.abs(closed)))

    @pytest.mark.parametrize("alpha", [2, 4, 10, 16, 40])
    @pytest.mark.parametrize("dim", [2, 3, 170])
    def test_wide_panels_pass_their_check(self, alpha, dim):
        # One or two panels span most of [0, 1], where the phase rate climbs
        # from slow to fast (high alpha) or the weight l^(D-2) peaks at l = 1.
        # At 0.5 nodes per radian alone the estimate reached 40 * 1e-8 here
        # (alpha = 40, D = 2); the 200-node rule computed every row.
        poly = action_coefficients(alpha)
        probe = poly.scaled_value(np.linspace(0.0, 1.0, 513))
        slope = 512.0 * float(np.max(np.abs(np.diff(probe))))
        got = modulation(poly, np.linspace(0.0, 200.0 / slope, 201), dim, 1, "quadrature")
        assert np.all(np.abs(got) <= 1.0 + 1e-9)

    @pytest.mark.parametrize("alpha", [2, 3, 4, 10])
    @pytest.mark.parametrize("k_max", [1, 10])
    def test_the_old_panel_budget_still_computes(self, alpha, k_max):
        # The 200-node rule took 10 nodes per cycle of the swing max P - min P
        # and stopped at 1024 panels; every row below that edge still computes.
        poly = action_coefficients(alpha)
        probe = poly.scaled_value(np.linspace(0.0, 1.0, 513))
        edge = 1024 * 200 / 10 * 2 * math.pi / (k_max * float(np.ptp(probe)))
        got = modulation(poly, [-0.999 * edge, 0.5 * edge, 0.999 * edge], 3, k_max, "quadrature")
        assert np.all(np.abs(got) <= 1.0 + 1e-9)

    @pytest.mark.parametrize("alpha", [2, 3, 4, 10])
    @pytest.mark.parametrize("k_max", [1, 10])
    def test_phases_stay_within_the_expi_bound(self, alpha, k_max, monkeypatch):
        # Relative to the circular orbit a row's phase is at most
        # |sigma / hbar| (max P - min P) <= rate / k_max, so at 0.99 of the
        # node budget it stays below 4.1e5 rad / k_max, inside expi's 2^21.
        seen = _record_phases(monkeypatch)
        poly = action_coefficients(alpha)
        probe = poly.scaled_value(np.linspace(0.0, 1.0, 513))
        edge = 0.99 * _BUDGET_PHASE / (k_max * 512.0 * float(np.max(np.abs(np.diff(probe)))))
        got = modulation(poly, [-edge, 0.5 * edge, edge], 3, k_max, "quadrature")
        assert np.all(np.abs(got) <= 1.0 + 1e-9)
        assert 0.0 < max(seen) <= 0.99 * _BUDGET_PHASE / k_max

    @pytest.mark.parametrize("dim", [2, 3, 7])
    def test_constant_polynomial_has_no_phase(self, dim, monkeypatch):
        # alpha = 1 makes P constant: every node phase is exactly 0, and the
        # whole of exp(-i x) is the circular-orbit factor, at any sigma / hbar.
        seen = _record_phases(monkeypatch)
        sigmas = np.array([5e299, -5e299, 1e300, -1e300])
        got = modulation(action_coefficients(1), sigmas, dim, 10, "quadrature")
        assert max(seen) == 0.0
        x = sigmas[:, None] * np.arange(1, 11)
        assert np.all(np.abs(got - np.exp(-1j * x)) <= 1e-15)

    def test_one_row_at_the_node_budget_stays_in_memory(self):
        # 6,331 panels of 32 Gauss and 33 Kronrod nodes, 411,515 in one row.
        # expi works in blocks of 8,192 entries; whole-row temporaries raised
        # this traced peak from 29.4 to 32.5 MiB with the doubled-panel pair.
        poly = action_coefficients(2)  # max |P'| = 1
        modulation(poly, [1.0], 3, 1, "quadrature")  # the rule is cached
        tracemalloc.start()
        try:
            modulation(poly, [0.99 * _BUDGET_PHASE], 3, 1, "quadrature")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30.5 * 2 ** 20

    def test_readme_job_work(self, monkeypatch):
        # The README dos job (D = 3, alpha = 2, eps = 1.25e-3, 3451 energies
        # on [1, 70], k_max = 10) put 2,473,800 (row, node) entries through
        # the harmonic sums with 200-node panels sized by the average swing,
        # and 997,344 with 32-node panels checked against doubled panels.
        # The Gauss nodes also serve the Kronrod sum: 675,285.
        import hoshell.modfactor as modfactor

        entries = []
        sums = modfactor._harmonic_sums

        def counting(phase, *args):
            entries.append(phase.size)
            return sums(phase, *args)

        monkeypatch.setattr(modfactor, "_harmonic_sums", counting)
        pert_dos(SystemParams.single(3, 1.25e-3, 2), np.linspace(1.0, 70.0, 3451),
                 k_max=10, width=0.1, method="quadrature")
        assert sum(entries) <= 675_285


class TestGaussKronrodEstimate:
    """|Kronrod - Gauss| against |Gauss on doubled panels - Gauss|, the
    estimate it replaced: both measure the Gauss rule's own error."""

    @pytest.mark.parametrize("order", [6, DEFAULT_ORDER])
    def test_matches_the_doubled_panel_estimate(self, order):
        rule = gauss_legendre(order)
        ratios, roundoff = [], []
        for alpha in range(2, 11):
            poly = action_coefficients(alpha)
            probe = poly.scaled_value(np.linspace(0.0, 1.0, 513))
            slope = 512.0 * float(np.max(np.abs(np.diff(probe))))
            end = np.array([poly.scaled_value(1.0)])
            for dim in range(2, 7):
                for x in np.geomspace(0.1, 0.99 * _BUDGET_PHASE / slope, 6):
                    # The panel count `modulation` gives this x at k_max = 1.
                    count = max(1, math.ceil(x * slope * _NODES_PER_RADIAN / order + 0.5))
                    values, weights, gauss_weights = _nested_grid((poly,), end, dim, rule, count)
                    fine, coarse = (v[0, 0] for v in _harmonic_sums(-x * values, weights,
                                                                    gauss_weights, 1))
                    nodes, w = rule.on_panels(0.0, 1.0, 2 * count)
                    doubled = (expi(-x * (poly.scaled_value(nodes) - end[0]))
                               @ ((dim - 1) * w * nodes ** (dim - 2)))
                    if abs(doubled - coarse) > 1e-11:
                        ratios.append(abs(fine - coarse) / abs(doubled - coarse))
                    else:
                        roundoff.append(abs(fine - coarse))
        assert np.all(np.abs(np.array(ratios) - 1.0) <= 1e-2)
        assert np.all(np.array(roundoff) <= 1e-11)
        if order < DEFAULT_ORDER:  # the default rule leaves every row to roundoff
            assert len(ratios) > 250, len(ratios)

    @pytest.mark.parametrize("dim,panels", [(2, 1), (3, 7), (6, 40)])
    def test_gauss_side_is_the_rule_on_panels(self, dim, panels):
        # The Gauss nodes come first, with the weights the doubled-panel pair
        # gave its coarse grid, bit for bit.
        rule, poly = gauss_legendre(DEFAULT_ORDER), action_coefficients(3)
        end = np.array([poly.scaled_value(1.0)])
        values, weights, gauss_weights = _nested_grid((poly,), end, dim, rule, panels)
        nodes, w = rule.on_panels(0.0, 1.0, panels)
        assert values.shape == (1, weights.size) == (1, panels * (2 * DEFAULT_ORDER + 1))
        assert np.array_equal(values[0, :nodes.size], poly.scaled_value(nodes) - end[0])
        assert np.array_equal(gauss_weights, ((dim - 1) * w * nodes ** (dim - 2)).astype(complex))

    def test_rule_must_be_gauss_legendre(self):
        midpoints = QuadratureRule(np.linspace(-0.9, 0.9, 10), np.full(10, 0.2), 10)
        with pytest.raises(DomainError, match="Gauss-Legendre rule"):
            modulation(action_coefficients(2), [1.0], 3, 1, "quadrature", midpoints)


class TestClosedForm:
    def test_unit_at_zero_strength(self):
        assert modulation_closed_form(action_coefficients(3), 0.0, 4, 2).value == 1.0

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0])
    def test_against_quadrature(self, alpha, dim, x):
        poly = action_coefficients(alpha)
        for k in (1, 2, 3):
            quad = modulation_quadrature(poly, x, dim, k).value
            closed = modulation_closed_form(poly, x, dim, k).value
            assert abs(quad - closed) <= 1e-9 * abs(closed)

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("x", [0.3, 2.0, 9.0, 33.0])
    def test_displayed_hypergeometric_bracket(self, alpha, x):
        # 1 + 2z/(D+1) + 4 z^2 1F1(1;(D+5)/2;z)/((D+1)(D+3)) times the
        # circular-orbit phase equals the implementation for every D.
        a0, a1 = [float(c) for c in action_coefficients(alpha).coeffs]
        for dim in range(2, 8):
            z = 1j * x * a1
            bracket = (1.0 + 2.0 * z / (dim + 1)
                       + 4.0 * z * z * kummer_1f1((dim + 5) / 2.0, z)
                       / ((dim + 1) * (dim + 3)))
            displayed = cmath.exp(-1j * x * (a0 + a1)) * bracket
            got = modulation_closed_form(action_coefficients(alpha), x, dim, 1).value
            assert abs(displayed - got) <= 1e-10 * abs(got)

    def test_dimension_three_elementary_identity(self):
        # i/(x a1) (e^(-i x (a0+a1)) - e^(-i x a0)) for the quartic case
        a0, a1 = 1.5, -0.5
        for x in (0.7, 4.0, 18.0):
            want = 1j / (x * a1) * (cmath.exp(-1j * x * (a0 + a1))
                                    - cmath.exp(-1j * x * a0))
            got = modulation_closed_form(action_coefficients(2), x, 3, 1).value
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_conjugation(self):
        poly = action_coefficients(3)
        plus = modulation_closed_form(poly, 7.3, 5, 2).value
        minus = modulation_closed_form(poly, 7.3, 5, -2).value
        assert abs(minus - plus.conjugate()) <= 1e-12

    def test_supershell_zeros(self):
        # For D=3 the modulus vanishes exactly when x |a1| is a multiple of 2 pi.
        for alpha, a1 in ((2, 0.5), (3, 1.5)):
            poly = action_coefficients(alpha)
            for s in (1, 2):
                x = 2.0 * math.pi * s / a1
                assert abs(modulation_closed_form(poly, x, 3, 1).value) < 1e-12

    def test_rejects_higher_orders(self):
        with pytest.raises(UnsupportedMethodError):
            modulation_closed_form(action_coefficients(4), 1.0, 3, 1)


def _erf_ratio(w: float) -> complex:
    """erf(sqrt(i w)) / sqrt(i w) with the principal branch, any real w != 0."""
    root = cmath.sqrt(1j * w)
    return complex(erf(root)) / root


def _elementary(a0: float, a1: float, x: float, dim: int) -> complex:
    """Dimension-specific elementary/erf forms of M for D = 2..7 and x a1 != 0:
    the circular (l = 1) and diameter (l = 0) end-point terms."""
    w = x * a1
    eout = cmath.exp(-1j * x * (a0 + a1))  # circular end point
    ein = cmath.exp(-1j * x * a0)          # diameter end point
    root_pi = math.sqrt(math.pi)
    return {
        2: lambda: 0.5 * root_pi * _erf_ratio(w) * ein,
        3: lambda: 1j / w * (eout - ein),
        4: lambda: 0.75j / w * (2.0 * eout - root_pi * _erf_ratio(w) * ein),
        5: lambda: 2.0 / w ** 2 * ((1j * w + 1.0) * eout - ein),
        6: lambda: (0.625 / w ** 2
                    * ((4j * w + 6.0) * eout - 3.0 * root_pi * _erf_ratio(w) * ein)),
        7: lambda: 3.0 / w ** 3 * ((1j * w * w + 2.0 * w - 2j) * eout + 2j * ein),
    }[dim]()


class TestElementaryForms:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_against_hypergeometric(self, dim, alpha):
        poly = action_coefficients(alpha)
        a0, a1 = [float(c) for c in poly.coeffs]
        for x in (0.1, 1.0, 5.0, 20.0):
            for k in (1, 2, 3):
                table = _elementary(a0, a1, k * x, dim)
                hyper = modulation_closed_form(poly, x, dim, k).value
                assert abs(table - hyper) <= 1e-10 * max(abs(hyper), 1e-3)


class TestSpa:
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_exact_for_dimension_three(self, alpha):
        poly = action_coefficients(alpha)
        for x in (0.1, 1.0, 5.0, 20.0, 64.0):
            for k in (1, 2, 3, -1):
                spa = spa_value(poly, x, 3, k)
                closed = modulation_closed_form(poly, x, 3, k).value
                assert abs(spa - closed) <= 1e-12 * abs(closed)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("alpha", [2, 4])
    def test_accuracy_improves_with_strength(self, dim, alpha):
        poly = action_coefficients(alpha)
        rel = {}
        for x in (5.0, 50.0):
            quad = modulation_quadrature(poly, x, dim, 1).value
            spa = spa_value(poly, x, dim, 1)
            rel[x] = abs(spa - quad) / abs(quad)
        # Exact cases sit at the numerical noise floor on both sides.
        assert rel[50.0] <= 0.5 * rel[5.0] or rel[50.0] <= 1e-10

    def test_high_order_stays_finite(self):
        poly = action_coefficients(10)
        for x in (1.0, 5.0, 20.0):
            value = spa_value(poly, x, 3, 1)
            assert np.isfinite(value.real) and np.isfinite(value.imag)

    @pytest.mark.parametrize("alpha", [40, 50])
    @pytest.mark.parametrize("x", [1.0, 100.0])
    def test_high_order_against_exact_end_point_data(self, alpha, x):
        # Reference from the exact Fractions: P(1) = 1, P'(1) = alpha(1-alpha)/2,
        # and the diameter phase x a0 exactly, at 60 digits.  The float sums
        # of the monomial coefficients were off by 3.3e-3 to 1.5 here.
        mp = pytest.importorskip("mpmath")
        a0, a1 = (Fraction(x) * c for c in action_coefficients(alpha).coeffs[:2])
        with mp.workdps(60):
            upper = 1j * mp.expj(-x) / (x * mp.mpf(alpha * (1 - alpha)) / 2)
            lower = (mp.mpf(a1.denominator) / (2 * abs(a1.numerator))
                     * mp.expj(-(mp.mpf(a0.numerator) / a0.denominator - mp.pi / 2)))
            want = complex(2 * (upper + lower))
        got = spa_value(action_coefficients(alpha), x, 3, 1)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_negative_strength_tracks_quadrature(self):
        # a1 flips sign under eps < 0; the branch of the end-point moment
        # must follow the quadrature.
        poly = action_coefficients(2)
        for dim in (2, 3, 4):
            quad = modulation_quadrature(poly, -60.0, dim, 1).value
            spa = spa_value(poly, -60.0, dim, 1)
            assert abs(spa - quad) <= 0.08 * abs(quad)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(UnsupportedMethodError):
            spa_value(action_coefficients(1), 1.0, 3, 1)


class TestStationaryPointAudit:
    def test_rejects_order_one(self):
        with pytest.raises(DomainError, match="order >= 2"):
            spa_stationary_point_audit(action_coefficients(1))

    @pytest.mark.parametrize("alpha", [2, 3, 10])
    def test_no_interior_stationary_points(self, alpha):
        report = spa_stationary_point_audit(action_coefficients(alpha))
        assert report.max_derivative_root < 1.0
        assert report.min_abs_slope > 0.0

    @pytest.mark.parametrize("alpha", [*range(2, 33), 60, 100, 200])
    def test_sweep_of_orders(self, alpha):
        # A failed audit raises PropertyViolationError.  The slope's terms share
        # one sign, so its smallest magnitude is at l = 1: |P'(1)| = alpha(alpha-1)/2.
        report = spa_stationary_point_audit(action_coefficients(alpha))
        assert report.min_abs_slope == alpha * (alpha - 1) / 2
