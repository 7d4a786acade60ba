import math

import numpy as np
import pytest
from scipy.signal import hilbert

import hoshell.dos
from hoshell.actionpoly import SystemParams, absorb_harmonic_terms, polynomial_delta_s
from hoshell.dos import (
    DosCurve,
    envelope_nodes,
    envelope_profile,
    ho_dos,
    pert_dos,
    supershell_factorized,
    supershell_nodes,
)
from hoshell.ebk import angular_degeneracy
from hoshell.errors import DomainError, UnsupportedMethodError
from hoshell.modfactor import modulation

from reference import ho_spectrum


class TestHoSpectrum:
    def test_degeneracy_examples(self):
        levels = ho_spectrum(3, 1.0, 1.0, 4)
        assert [lev.degeneracy for lev in levels] == [1, 3, 6, 10, 15]
        assert levels[2].energy == pytest.approx(3.5)

    def test_two_dimensional_counting(self):
        for lev in ho_spectrum(2, 1.0, 1.0, 12):
            assert lev.degeneracy == lev.n + 1

    def test_four_dimensional_example(self):
        assert ho_spectrum(4, 1.0, 1.0, 3)[3].degeneracy == 20

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_degeneracy_splits_into_angular_blocks(self, dim):
        for lev in ho_spectrum(dim, 1.0, 1.0, 30):
            split = sum(angular_degeneracy(dim, l)
                        for l in range(lev.n % 2, lev.n + 1, 2))
            assert split == lev.degeneracy


class TestHoDos:
    def test_comb_recovers_degeneracies(self):
        width = 0.02
        grid = np.arange(0.8, 6.0, 0.003)
        curve = ho_dos(3, 1.0, 1.0, grid, k_max=200, width=width)
        for n, want in enumerate((1, 3, 6, 10)):
            e_n = n + 1.5
            sel = (grid >= e_n - 3 * width) & (grid <= e_n + 3 * width)
            got = np.trapezoid(curve.total[sel], grid[sel])
            assert got == pytest.approx(want, rel=1e-3)

    def test_oscillating_is_finite_and_grid_validated(self):
        grid = np.linspace(1.0, 10.0, 101)
        curve = ho_dos(2, 1.0, 1.0, grid, k_max=50, width=0.05)
        assert np.all(np.isfinite(curve.oscillating))
        with pytest.raises(DomainError):
            DosCurve(energies=grid[::-1], smooth=curve.smooth, oscillating=curve.oscillating)

    @pytest.mark.parametrize("dim,omega,hbar", [(0, 1.0, 1.0), (1, 1.0, 1.0), (3, 0.0, 1.0),
                                                (3, math.inf, 1.0), (3, 1.0, 0.0),
                                                (3, 1.0, math.nan)])
    def test_rejects_bad_system(self, dim, omega, hbar):
        # The same checks as SystemParams, for the spectrum and its trace formula.
        with pytest.raises(DomainError):
            ho_dos(dim, omega, hbar, np.array([5.0, 6.0]))
        with pytest.raises(DomainError):
            ho_spectrum(dim, omega, hbar, 4)

    @pytest.mark.parametrize("width", [-0.1, math.nan, math.inf])
    def test_rejects_bad_width(self, width):
        # the width enters squared: a negative one must not pass as its absolute value
        with pytest.raises(DomainError, match="width"):
            ho_dos(3, 1.0, 1.0, np.array([5.0, 6.0]), k_max=20, width=width)


class TestPertDos:
    def test_unperturbed_matches_leading_order_comb(self):
        # With eps = 0 every modulation factor is 1 and the curve equals the
        # oscillator trace formula up to the smooth-prefactor difference.
        grid = np.arange(6.0, 16.0, 0.01)
        params = SystemParams.single(3, 0.0, 2)
        pert = pert_dos(params, grid, k_max=10, width=0.1, method="closed_form")
        ho = ho_dos(3, 1.0, 1.0, grid, k_max=10, width=0.1)
        ratio = pert.smooth / ho.smooth
        assert np.allclose(pert.oscillating, ho.oscillating * ratio, rtol=1e-10)

    def test_smooth_column_is_leading_thomas_fermi(self):
        grid = np.array([1.0, 2.0, 5.0])
        curve = pert_dos(SystemParams.single(4, 0.0, 2), grid, k_max=1)
        assert np.allclose(curve.smooth, grid ** 3 / 6.0, rtol=1e-14)

    @pytest.mark.parametrize("dim,omega,grid", [
        (170, 1.0, [1.0, 18.25, 35.5, 52.75, 70.0]),   # 70^169 overflows
        (40, 1e-3, [1e-8, 1e-7, 1e-3]),                # 1e-8^39 is subnormal
        (400, 1.0, [40.0, 55.0, 70.0]),                # 399! overflows
    ])
    def test_smooth_column_past_the_power_range(self, dim, omega, grid):
        # E^(D-1) leaves the normal float range, E^(D-1) / ((D-1)! (hbar omega)^D)
        # does not.  Reference: mpmath at 40 digits.
        mp = pytest.importorskip("mpmath")
        curve = pert_dos(SystemParams.single(dim, 0.0, 2, omega=omega), np.array(grid),
                         k_max=2)
        with mp.workdps(40):
            want = [float(mp.mpf(e) ** (dim - 1) / (mp.factorial(dim - 1) * mp.mpf(omega) ** dim))
                    for e in grid]
        np.testing.assert_allclose(curve.smooth, want, rtol=1e-15, atol=0.0)
        assert np.all(np.isfinite(curve.oscillating))

    def test_smooth_column_out_of_range_is_domain_error(self):
        with pytest.raises(DomainError, match=r"leaves the float range at E=1e\+10"):
            pert_dos(SystemParams.single(171, 0.0, 2), np.array([1.0, 1e10]), k_max=1)
        # Past D = 1021 a mantissa power of the quotient can be subnormal.
        with pytest.raises(DomainError, match="must be <= 1021 for the smooth term, got 1022"):
            pert_dos(SystemParams.single(1022, 0.0, 2), np.array([400.0]), k_max=1)

    def test_methods_agree(self):
        params = SystemParams.single(3, 1.25e-3, 2)
        grid = np.arange(20.0, 24.0, 0.5)
        base = pert_dos(params, grid, k_max=5, width=0.1, method="quadrature")
        for method in ("closed_form", "spa"):
            other = pert_dos(params, grid, k_max=5, width=0.1, method=method)
            scale = np.max(np.abs(base.oscillating))
            assert np.allclose(other.oscillating, base.oscillating,
                               atol=1e-7 * scale)

    @pytest.mark.parametrize("dim", [170, 171])
    @pytest.mark.parametrize("eps,grid", [(1.25e-3, np.linspace(1.0, 70.0, 200)),
                                          (0.1, np.array([60.0, 65.0, 70.0]))])
    def test_closed_form_meets_quadrature_at_large_dimension(self, dim, eps, grid):
        # 1F1(1; (D+1)/2; iy) lost digits just past |y| = b/2 at large b
        # (2.05e-7 smooth at D = 170, E = 60.29), and at eps = 0.1 its even-D
        # branch overflowed to nan.  The quadrature contract bounds the gap.
        params = SystemParams.single(dim, eps, 2)
        quad = pert_dos(params, grid, k_max=10, method="quadrature")
        closed = pert_dos(params, grid, k_max=10, method="closed_form")
        assert np.all(np.abs(closed.oscillating - quad.oscillating)
                      <= 2 * 10 * 1e-8 * quad.smooth)

    def test_damping_factor_ratio_is_exact_gaussian(self):
        params = SystemParams.single(3, 1e-3, 2)
        grid = np.array([10.0])
        width = 0.25
        damped = pert_dos(params, grid, k_max=1, width=width, method="closed_form")
        bare = pert_dos(params, grid, k_max=1, width=0.0, method="closed_form")
        want = math.exp(-((width * 2.0 * math.pi / 2.0) ** 2))
        assert damped.oscillating[0] / bare.oscillating[0] == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("width", [-0.1, math.nan, math.inf])
    def test_rejects_bad_width(self, width):
        # width 0, the undamped sum, stays valid: see the damping-ratio test above
        with pytest.raises(DomainError, match="width"):
            pert_dos(SystemParams.single(3, 1e-3, 2), np.array([5.0, 6.0]), width=width)

    def test_k_sum_bound(self):
        params = SystemParams.single(3, 1e-3, 2)
        grid = np.arange(5.0, 30.0, 0.02)
        curve = pert_dos(params, grid, k_max=10, width=0.1, method="closed_form")
        ks = np.arange(1, 11)
        damp = np.exp(-((0.1 * ks * 2.0 * math.pi / 2.0) ** 2))
        bound = 2.0 * curve.smooth * np.sum(damp)  # |M_k| <= 1 termwise
        assert np.all(np.abs(curve.oscillating) <= bound * (1 + 1e-12))

    def test_harmonic_term_shifts_frequency(self):
        # A pure alpha=1 perturbation rescales the comb spacing, nothing else.
        grid = np.arange(3.0, 9.0, 0.01)
        shifted = pert_dos(SystemParams.single(3, 0.06, 1), grid,
                           k_max=8, width=0.05, method="closed_form")
        omega_eff = math.sqrt(1.12)
        direct = pert_dos(SystemParams(dim=3, omega=omega_eff), grid,
                          k_max=8, width=0.05, method="closed_form")
        assert np.allclose(shifted.oscillating, direct.oscillating, rtol=1e-10)

    def test_uniform_unperturbed_limit(self):
        # max |dg(eps) - dg(0)| shrinks monotonically as eps -> 0.
        grid = np.arange(5.0, 25.0, 0.05)
        base = pert_dos(SystemParams.single(3, 0.0, 2), grid,
                        k_max=8, width=0.1, method="closed_form").oscillating
        gaps = []
        for eps in (1e-3, 1e-4, 1e-5):
            cur = pert_dos(SystemParams.single(3, eps, 2), grid,
                           k_max=8, width=0.1, method="closed_form").oscillating
            gaps.append(np.max(np.abs(cur - base)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_realness_of_k_sum(self):
        # The +k/-k pairing is real by construction; spot-check by direct
        # complex summation of the same series.
        params = SystemParams.single(4, 2e-4, 3)
        energy = 12.0
        curve = pert_dos(params, np.array([energy]), k_max=6, width=0.05,
                         method="closed_form")
        from hoshell.actionpoly import polynomial_delta_s
        from hoshell.modfactor import modulation_closed_form

        poly, sigma = polynomial_delta_s(params, energy)
        total = 0j
        for k in list(range(-6, 0)) + list(range(1, 7)):
            mod = modulation_closed_form(poly, sigma, 4, k).value
            damp = math.exp(-((0.05 * k * math.pi) ** 2))
            total += (-1.0) ** (4 * k) * damp * mod * np.exp(2j * math.pi * k * energy)
        assert abs(total.imag) <= 1e-12 * max(1.0, abs(total.real))
        pref = energy ** 3 / 6.0
        assert curve.oscillating[0] == pytest.approx(pref * total.real, rel=1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("method", ["quadrature", "closed_form", "spa"])
    @pytest.mark.parametrize("k_max", [1, 60])
    def test_horner_sum_matches_the_termwise_sum(self, monkeypatch, dim, method, k_max):
        # pert_dos sums the repetitions by Horner in z = exp(2 pi i e); here
        # each term takes its own exponential, with the same M_k.  k_max = 1
        # runs no Horner step; at width 0.01 all 60 terms count (the last at
        # 0.029 of the first), and sigma / hbar runs up to 20.
        seen = []

        def recorded(*args, **kwargs):
            seen.append(modulation(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(hoshell.dos, "modulation", recorded)
        e = np.linspace(2.0, 12.0, 101)
        params = SystemParams.single(dim, 20.0 / (2.0 * math.pi * 12.0 ** 2), 2)
        curve = pert_dos(params, e, k_max=k_max, width=0.01, method=method)
        (mods,) = seen
        total = np.zeros_like(e)
        for k in range(1, k_max + 1):
            weight = (-1.0) ** (dim * k) * math.exp(-((0.01 * k * math.pi) ** 2))
            total += weight * (mods[:, k - 1] * np.exp(2j * math.pi * k * e)).real
        assert np.all(np.abs(curve.oscillating - 2.0 * curve.smooth * total)
                      <= 1e-12 * curve.smooth)

    @pytest.mark.parametrize("method", ["quadrature", "closed_form"])
    def test_mixed_orders_match_scalar_reference(self, method):
        # pert_dos keeps one sigma_t column per order; compare with the
        # per-(E, k) scalar sum of the trace formula over the normalised
        # polynomial, which differs at every energy for mixed orders.  The
        # closed form takes orders 2 and 3 only.
        from hoshell.actionpoly import polynomial_delta_s
        from hoshell.modfactor import modulation_closed_form, modulation_quadrature

        scalar = {"quadrature": modulation_quadrature,
                  "closed_form": modulation_closed_form}[method]
        for terms in TERM_SETS:
            if method == "closed_form" and any(alpha > 3 for _, alpha in terms):
                continue
            params = SystemParams(dim=3, terms=terms)
            # At k = 6, order 10 at 1e-7 needs more than the quadrature's
            # node budget past E = 7.
            grid = np.linspace(*((3.0, 6.0) if (1e-7, 10) in terms else (8.0, 30.0)), 9)
            curve = pert_dos(params, grid, k_max=6, width=0.1, method=method)
            for energy, smooth, got in zip(grid, curve.smooth, curve.oscillating):
                poly, sigma = polynomial_delta_s(params, float(energy))
                total = 0.0
                for k in range(1, 7):
                    mod = scalar(poly, sigma, 3, k).value
                    damp = math.exp(-((0.1 * k * math.pi) ** 2))
                    total += (-1.0) ** k * damp * (mod * np.exp(2j * math.pi * k * energy)).real
                assert abs(got - 2.0 * smooth * total) <= 1e-10 * smooth, (terms, energy)

    @pytest.mark.parametrize("method", ["quadrature", "closed_form"])
    def test_cancelling_strengths_stay_continuous(self, method):
        # At E = 50, sigma_2 + sigma_3 = 0 exactly, but the two polynomials
        # differ, so M_k is not 1 there.  A path through the normalised
        # polynomial wrote the unperturbed sum: -1249.99 between -66 and +66.
        params = SystemParams(dim=3, terms=((1e-3, 2), (-2e-5, 3)))
        grid = np.linspace(1.0, 70.0, 3451)
        assert grid[2450] == 50.0
        curve = pert_dos(params, grid, k_max=10, method=method)
        near = pert_dos(params, [50.0 - 1e-7, 50.0 + 1e-7], k_max=10, method=method)
        middle = 0.5 * (near.oscillating[0] + near.oscillating[1])
        assert abs(curve.oscillating[2450] - middle) <= 1e-6 * curve.smooth[2450]
        assert max(abs(curve.oscillating[2449]), abs(curve.oscillating[2451])) < 100.0


# Single, mixed, cancelling and empty perturbations.
TERM_SETS = [
    ((-1.25e-3, 2),), ((2e-5, 3),), ((1e-7, 10),),
    ((1e-3, 2), (2e-5, 3)), ((1e-4, 2), (-1e-6, 3), (1e-9, 4)),
    ((1e-3, 2), (-1e-3, 2)), ((0.0, 4),), (),
]


def _scalar_reference(params, grid, k_max, width, method):
    """The oscillating column of pert_dos, rebuilt from one scalar
    polynomial_delta_s and one single-row modulation call per energy, and the
    bound 1e-12 * smooth * max(1, max_k |M_k|) for each energy.  The factor
    max_k |M_k| only matters for SPA, which exceeds 1 at small x."""
    params = absorb_harmonic_terms(params)
    dim, omega, hbar = params.dim, params.omega, params.hbar
    ks = np.arange(1, k_max + 1)
    weights = (-1.0) ** (dim * ks) * np.exp(-((width * ks * math.pi / (omega * hbar)) ** 2))
    out, bound = [], []
    for energy in grid:
        poly, sigma = polynomial_delta_s(params, float(energy))
        mods = modulation(poly, [sigma / hbar], dim, k_max, method)[0]
        smooth = energy ** (dim - 1) / (math.factorial(dim - 1) * (hbar * omega) ** dim)
        phases = np.exp(1j * (2.0 * math.pi * energy / (omega * hbar)) * ks)
        out.append(2.0 * smooth * ((mods * phases).real @ weights))
        bound.append(1e-12 * smooth * max(1.0, np.max(np.abs(mods))))
    return np.array(out), np.array(bound)


# Every method each order supports: the closed form and SPA need two coefficients.
ORDER_METHODS = [(2, "quadrature"), (2, "closed_form"), (2, "spa"),
                 (3, "quadrature"), (3, "closed_form"), (3, "spa"), (4, "quadrature")]


class TestArrayActionScale:
    """pert_dos computes sigma(E) and the normalised polynomial for the whole
    grid at once; it must agree with the per-energy scalar evaluation."""

    omega, hbar = 1.3, 0.7

    def grid(self, e_max=30.0):
        return np.linspace(0.5, e_max, 41) * self.hbar * self.omega

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("alpha,method", ORDER_METHODS)
    def test_matches_scalar_reference(self, dim, alpha, method):
        # Strength chosen so that sigma / hbar reaches 40 at the top of the grid.
        e_max = 30.0 * self.hbar * self.omega
        eps = (-1.0) ** dim * 40.0 * self.hbar * self.omega ** (2 * alpha + 1) / (
            2.0 * math.pi * e_max ** alpha)
        params = SystemParams.single(dim, eps, alpha, omega=self.omega, hbar=self.hbar)
        curve = pert_dos(params, self.grid(), k_max=8, width=0.1, method=method)
        want, bound = _scalar_reference(params, self.grid(), 8, 0.1, method)
        assert np.all(np.abs(curve.oscillating - want) <= bound)

    @pytest.mark.parametrize("method", ["quadrature", "closed_form", "spa"])
    def test_zero_strength_is_the_unperturbed_sum(self, method):
        # A zero strength, no terms, and two terms of one order that cancel:
        # they are merged before sigma is formed, so the sum is exact.
        ks = np.arange(1, 9)
        weights = (-1.0) ** (3 * ks) * np.exp(-((0.1 * ks * math.pi / (self.omega * self.hbar)) ** 2))
        bare = np.cos(2.0 * math.pi * np.outer(self.grid(), ks) / (self.omega * self.hbar))
        for terms in (((0.0, 2),), (), ((1.0, 2), (-1.0, 2))):
            params = SystemParams(dim=3, omega=self.omega, hbar=self.hbar, terms=terms)
            curve = pert_dos(params, self.grid(), k_max=8, width=0.1, method=method)
            want = 2.0 * curve.smooth * (bare @ weights)
            assert np.all(np.abs(curve.oscillating - want) <= 1e-12 * curve.smooth), terms

    @pytest.mark.parametrize("terms", [((1e-3, 2),), ()])
    def test_empty_grid_gives_an_empty_curve(self, terms):
        curve = pert_dos(SystemParams(dim=3, terms=terms), np.array([]), k_max=8)
        assert curve.energies.shape == curve.smooth.shape == curve.oscillating.shape == (0,)

    @pytest.mark.parametrize("method", ["quadrature", "closed_form"])
    @pytest.mark.parametrize("eps", [-1.25e-3, 5e-324])
    def test_zero_strength_term_of_the_same_order_leaves_the_bits(self, method, eps):
        # Terms of one order are merged before sigma is formed.  The least
        # subnormal eps leaves sigma = 0 at the low energies only.
        grid = np.geomspace(1e-3, 30.0, 201)
        single = pert_dos(SystemParams(dim=3, terms=((eps, 2),)), grid, method=method)
        padded = pert_dos(SystemParams(dim=3, terms=((eps, 2), (0.0, 2))), grid, method=method)
        assert np.array_equal(single.oscillating, padded.oscillating)

    @pytest.mark.parametrize("alpha,method", ORDER_METHODS)
    def test_absorbed_harmonic_term(self, alpha, method):
        params = SystemParams(dim=3, omega=self.omega, hbar=self.hbar,
                              terms=((0.04, 1), (2e-3 / 10 ** alpha, alpha)))
        with pytest.raises(DomainError):
            polynomial_delta_s(params, self.grid()[0])
        curve = pert_dos(params, self.grid(), k_max=8, width=0.1, method=method)
        want, bound = _scalar_reference(params, self.grid(), 8, 0.1, method)
        assert np.all(np.abs(curve.oscillating - want) <= bound)

    def test_single_order_makes_one_modulation_call(self, monkeypatch):
        # One call for the whole grid, for one term or several: a per-energy
        # loop would show up here as one call per energy.
        calls = []

        def counted_modulation(poly, sigma_over_hbar, *args, **kwargs):
            calls.append(np.shape(sigma_over_hbar))
            return modulation(poly, sigma_over_hbar, *args, **kwargs)

        monkeypatch.setattr(hoshell.dos, "modulation", counted_modulation)
        grid = np.linspace(1.0, 70.0, 2001)
        pert_dos(SystemParams.single(3, 1.25e-3, 2), grid, k_max=10, method="closed_form")
        pert_dos(SystemParams(dim=3, terms=((1e-3, 2), (2e-5, 3))), grid, k_max=10,
                 method="closed_form")
        assert calls == [(2001, 1), (2001, 2)]


class TestSupershell:
    def test_node_formulas(self):
        p2 = SystemParams.single(3, 1.25e-3, 2)
        assert supershell_nodes(p2, 1)[0] == pytest.approx(40.0, rel=1e-12)
        nodes = supershell_nodes(p2, 4)
        assert nodes[3] / nodes[0] == pytest.approx(2.0, rel=1e-12)
        p3 = SystemParams.single(3, 1.1e-5, 3)
        want = (2.0 / (3.0 * 1.1e-5)) ** (1.0 / 3.0)
        assert supershell_nodes(p3, 1)[0] == pytest.approx(want, rel=1e-12)

    def test_terms_of_one_order_merge(self):
        merged = SystemParams(dim=3, terms=((1e-3, 2), (2.5e-4, 2), (0.0, 3)))
        assert supershell_nodes(merged, 3) == supershell_nodes(
            SystemParams.single(3, 1e-3 + 2.5e-4, 2), 3)

    def test_nodes_past_the_float_range(self):
        # sqrt(2 / eps') at eps' = 1e-320 overflows.
        with pytest.raises(DomainError, match="float range"):
            supershell_nodes(SystemParams.single(3, 1e-320, 2), 2)

    def test_rejects_zero_strength_and_wrong_shape(self):
        with pytest.raises(DomainError):
            supershell_nodes(SystemParams.single(3, 0.0, 2), 2)
        with pytest.raises(UnsupportedMethodError):
            supershell_nodes(SystemParams.single(4, 1e-3, 2), 2)
        with pytest.raises(UnsupportedMethodError):
            supershell_factorized(SystemParams.single(3, 1e-3, 4),
                                  np.array([1.0]))

    @pytest.mark.parametrize("width", [-0.1, math.nan, math.inf])
    def test_factorized_rejects_bad_width(self, width):
        with pytest.raises(DomainError, match="width"):
            supershell_factorized(SystemParams.single(3, 1.25e-3, 2),
                                  np.array([10.0, 20.0]), width=width)

    def test_resolves_the_system_once(self, monkeypatch):
        calls = []
        absorb = hoshell.dos.absorb_harmonic_terms
        monkeypatch.setattr(hoshell.dos, "absorb_harmonic_terms",
                            lambda params: calls.append(params) or absorb(params))
        params = SystemParams(dim=3, terms=((0.01, 1), (1.1e-5, 3)))
        supershell_factorized(params, np.array([10.0, 20.0]))
        supershell_nodes(params, 2)
        assert len(calls) == 2

    @pytest.mark.parametrize("eps,alpha", [(1.25e-3, 2), (-1.25e-3, 2), (1.1e-5, 3)])
    def test_factorized_equals_trace_formula(self, eps, alpha):
        params = SystemParams.single(3, eps, alpha)
        grid = np.arange(20.0, 45.0, 0.02)
        curve = pert_dos(params, grid, k_max=10, width=0.1, method="quadrature")
        fact = supershell_factorized(params, grid, k_max=10, width=0.1)
        scale = np.max(np.abs(curve.oscillating))
        assert np.max(np.abs(fact - curve.oscillating)) <= 1e-8 * scale

    def test_envelope_node_position(self):
        params = SystemParams.single(3, 1.25e-3, 2)
        grid = np.arange(25.0, 55.0, 0.02)
        curve = pert_dos(params, grid, k_max=10, width=0.1, method="closed_form")
        nodes = envelope_nodes(grid, curve.oscillating, 1.0)
        assert len(nodes) == 1
        assert abs(nodes[0] - 40.0) < 1.0

    def test_envelope_nodes_follow_their_definition(self):
        # Window by window: a minimum below its left neighbour and at most its
        # right one, at most 0.3 times the highest window on either side
        # (empty, nan windows skipped), moved by the parabola through its
        # neighbours.  Uneven grids leave windows empty; rounding makes ties.
        rng = np.random.default_rng(3)
        count = 0
        for _ in range(100):
            grid = np.sort(rng.uniform(0.0, 50.0, 300))
            osc = np.round(rng.normal(size=300) * np.sin(grid / 7.0), 1)
            centers, env = envelope_profile(grid, osc, 0.4)
            want = []
            for i in range(1, env.size - 1):
                lo, mid, hi = env[i - 1:i + 2]
                if (mid < lo and mid <= hi
                        and mid <= 0.3 * min(np.nanmax(env[:i]), np.nanmax(env[i + 1:]))):
                    shift = 0.5 * (lo - hi) / (lo - 2.0 * mid + hi)
                    want.append(centers[i] + shift * (centers[1] - centers[0]))
            np.testing.assert_array_equal(envelope_nodes(grid, osc, 0.4), want)
            count += len(want)
        assert count > 100

    @pytest.mark.parametrize("size,spacing", [(0, 1.0), (1500, 0.0), (1500, -1.0),
                                              (1500, math.nan), (1500, math.inf)])
    def test_envelope_rejects_empty_grid_and_bad_spacing(self, size, spacing):
        grid = np.linspace(25.0, 55.0, size)
        with pytest.raises(DomainError):
            envelope_nodes(grid, np.sin(grid), spacing)

    @pytest.mark.parametrize("eps,alpha", [(1.25e-3, 2), (1.1e-5, 3)])
    def test_node_depth_below_five_percent(self, eps, alpha):
        # Instantaneous (analytic-signal) envelope at the node against the
        # adjacent antinode amplitude.
        params = SystemParams.single(3, eps, alpha)
        node = supershell_nodes(params, 1)[0]
        grid = np.arange(node - 14.0, node + 10.0, 0.01)
        dg = pert_dos(params, grid, k_max=10, width=0.1,
                      method="closed_form").oscillating
        envelope = np.abs(hilbert(dg))
        at_node = envelope[np.argmin(np.abs(grid - node))]
        antinode = np.max(np.abs(dg))
        assert at_node < 0.05 * antinode

    def test_envelope_profile_tracks_beat(self):
        params = SystemParams.single(3, 1.25e-3, 2)
        grid = np.arange(30.0, 50.0, 0.02)
        curve = pert_dos(params, grid, k_max=10, width=0.1, method="closed_form")
        centers, env = envelope_profile(grid, curve.oscillating, 1.0)
        assert len(centers) == len(env) == 20
        assert abs(centers[np.argmin(env)] - 40.0) <= 1.0
