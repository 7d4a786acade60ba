import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from hoshell.actionpoly import SystemParams, action_coefficients, delta_s, sigma_alpha
from hoshell.dos import envelope_nodes, pert_dos
from hoshell.ebk import (
    EbkLevel,
    angular_degeneracy,
    ebk_dos,
    ebk_energy,
    enumerate_levels,
    outer_turning_point,
    radial_action,
    tf_smooth,
)
from hoshell.errors import AccuracyError, DomainError, NoBoundStateError, TruncationWarning
from hoshell.specfun import gauss_kronrod, gauss_legendre


class TestTurningPoint:
    def test_harmonic_limit(self):
        params = SystemParams.single(3, 0.0, 2)
        assert outer_turning_point(params, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_quadratic_in_r_squared_oracle(self):
        # 0.1 r^4 + 0.5 r^2 - 1 = 0 solved exactly in u = r^2
        params = SystemParams.single(3, 0.1, 2)
        u = (-0.5 + math.sqrt(0.25 + 0.4)) / 0.2
        assert outer_turning_point(params, 1.0) == pytest.approx(
            math.sqrt(u), rel=1e-13)

    def test_positive_strength_shrinks_radius(self):
        base = outer_turning_point(SystemParams.single(3, 0.0, 2), 2.0)
        tight = outer_turning_point(SystemParams.single(3, 0.3, 2), 2.0)
        assert tight < base

    def test_energy_residual(self):
        params = SystemParams.single(4, 0.02, 3)
        energy = 5.0
        r = outer_turning_point(params, energy)
        assert abs(0.5 * r ** 2 + 0.02 * r ** 6 - energy) <= 1e-12 * energy

    def test_above_barrier_rejected(self):
        params = SystemParams.single(3, -0.05, 2)
        # barrier of 0.5 r^2 - 0.05 r^4 peaks at V = 1.25
        with pytest.raises(NoBoundStateError):
            outer_turning_point(params, 1.5)
        assert outer_turning_point(params, 1.0) > 0

    def test_momentum_sign_flips_at_boundary(self):
        params = SystemParams.single(3, 0.05, 2)
        energy = 3.0
        r = outer_turning_point(params, energy)

        def p_squared(rr):
            return 2.0 * (energy - 0.5 * rr ** 2 - 0.05 * rr ** 4)

        assert p_squared(0.999 * r) > 0
        assert p_squared(1.001 * r) < 0


class TestRadialAction:
    def test_harmonic_analytic(self):
        params = SystemParams.single(3, 0.0, 2)
        for energy, l_eff in ((1.0, 0.0), (2.3, 0.7), (60.0, 0.5), (10.0, 9.0)):
            want = math.pi * (energy - l_eff)
            assert radial_action(params, energy, l_eff) == pytest.approx(
                want, rel=1e-12)

    def test_empty_well_rejected(self):
        params = SystemParams.single(3, 0.0, 2)
        with pytest.raises(NoBoundStateError):
            radial_action(params, 1.0, 1.5)  # E < omega * L_eff

    def test_energy_past_the_float_range_rejected(self):
        # The turning-point terms 4 E^2 overflow above 6.7e153 hbar omega.
        params = SystemParams.single(3, 1e-3, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"1e\+160 hbar omega lies above 6\.7e\+153"):
                radial_action(params, 1e160, 0.5)
            assert math.isfinite(radial_action(params, 6e153, 0.5))

    @pytest.mark.parametrize("eps", [-1e-3, 2e-3])
    @pytest.mark.parametrize("rel", [1e-10, 1e-8])
    def test_just_above_the_well_bottom(self, eps, rel):
        # S_r vanishes at the well bottom, where the quadrature check is held
        # to 1e-10 pi hbar instead of 1e-10 S_r.  Reference: mpmath's well
        # bottom, turning points and tanh-sinh quadrature in u = r^2.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            eps_mp, l2 = mp.mpf(eps), mp.mpf(100)  # L_eff = 10
            # dV_eff/du = 0, times 2 u^2, at the well bottom
            u_well = mp.findroot(lambda u: u * u + 4 * eps_mp * u ** 3 - l2, 10)
            energy = float((u_well + 3 * eps_mp * u_well ** 2) * (1 + rel))

            def q(u):
                return 2 * mp.mpf(energy) * u - u * u - 2 * eps_mp * u ** 3 - l2

            spread = 10 * mp.sqrt(rel) * u_well
            u_in = mp.findroot(q, (u_well - spread, u_well), solver="bisect")
            u_out = mp.findroot(q, (u_well, u_well + spread), solver="bisect")
            want = float(mp.quad(lambda u: mp.sqrt(max(q(u), 0)) / u,
                                 [u_in, u_well, u_out]))
        got = radial_action(SystemParams.single(3, eps, 2), energy, 10.0)
        assert abs(got - want) <= 1e-10 * max(want, math.pi)

    def test_half_action_consistency_with_orbit_perturbation(self):
        # One radial libration covers half the closed orbit, so the radial
        # action shift is half the orbit action shift; Richardson in eps
        # pins the factor.
        params0 = SystemParams.single(3, 0.0, 2)
        energy, l_eff = 3.0, 0.9
        ltilde = l_eff / energy
        ratios = []
        for eps in (1e-5, 1e-6):
            pert = SystemParams.single(3, eps, 2)
            shift = radial_action(pert, energy, l_eff) \
                - radial_action(params0, energy, l_eff)
            ds = delta_s(action_coefficients(2), sigma_alpha(energy, eps, 2, 1.0),
                         ltilde)
            ratios.append(shift / ds)
        extrapolated = (10.0 * ratios[1] - ratios[0]) / 9.0
        assert extrapolated == pytest.approx(0.5, abs=1e-7)


class TestEbkEnergy:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_unperturbed_exactness(self, dim):
        params = SystemParams.single(dim, 0.0, 2)
        for n in range(0, 21, 3):
            for l in range(n % 2, n + 1, 4):
                level = ebk_energy(params, (n - l) // 2, l)
                want = n + dim / 2.0
                assert abs(level.energy - want) <= 1e-9 * want

    def test_first_order_shift_matches_torus_average(self):
        # dE/deps at fixed actions is the orbit average of r^4: for the
        # lowest D=3 level (E=1.5, L_eff=0.5) that is 3 E^2/2 - L^2/2 = 13/4.
        shifts = []
        for eps in (1e-3, 1e-4):
            level = ebk_energy(SystemParams.single(3, eps, 2), 0, 0)
            shifts.append((level.energy - 1.5) / eps)
        extrapolated = (10.0 * shifts[1] - shifts[0]) / 9.0
        assert extrapolated == pytest.approx(3.25, abs=1e-3)

    def test_quantum_diagonalization_oracle(self):
        # Radial Schroedinger eigenvalues (finite differences, Richardson in
        # the mesh) agree with torus quantization to the usual hbar^2 level.
        eps = 1.25e-3
        params = SystemParams.single(3, eps, 2)

        def qm_level(l, n_r, n=24000, rmax=14.0):
            h = rmax / n
            r = np.arange(1, n) * h
            v = l * (l + 1) / (2.0 * r ** 2) + 0.5 * r ** 2 + eps * r ** 4
            diag = 1.0 / h ** 2 + v
            off = -0.5 / h ** 2 * np.ones(n - 2)
            return eigh_tridiagonal(diag, off, select="i",
                                    select_range=(n_r, n_r))[0][0]

        for l, n_r in ((0, 20), (20, 10), (40, 0)):
            want = qm_level(l, n_r)
            got = ebk_energy(params, n_r, l).energy
            assert abs(got - want) < 5e-3

    def test_monotone_in_quantum_numbers(self):
        params = SystemParams.single(3, 0.01, 2)
        radial = [ebk_energy(params, n_r, 2).energy for n_r in range(4)]
        assert all(a < b for a, b in zip(radial, radial[1:]))
        angular = [ebk_energy(params, 1, l).energy for l in range(4)]
        assert all(a < b for a, b in zip(angular, angular[1:]))

    def test_negative_strength_below_barrier(self):
        params = SystemParams.single(3, -1e-3, 2)
        level = ebk_energy(params, 0, 0)
        assert 1.4 < level.energy < 1.5
        with pytest.raises(NoBoundStateError):
            ebk_energy(params, 80, 0)

    def test_large_angular_momentum_meets_the_residual(self):
        # The harmonic guess lies below this level's well and Newton steps
        # overshoot it: the level bound caps the bracket above, so a
        # bisection stays finite instead of running to E = inf.
        params = SystemParams.single(3, 1e-3, 2)
        level = ebk_energy(params, 0, 10 ** 5)
        s = radial_action(params, level.energy, 10 ** 5 + 0.5)
        assert abs(s - math.pi) <= 1e-11 * math.pi

    def test_rejects_negative_quantum_numbers(self):
        with pytest.raises(DomainError):
            ebk_energy(SystemParams.single(3, 0.0, 2), -1, 0)

    @pytest.mark.parametrize("n_r,l", [(10 ** 400, 0), (0, 10 ** 400), (2 ** 53, 0), (10 ** 30, 5)],
                             ids=["n_r=1e400", "l=1e400", "n_r=2**53", "n_r=1e30"])
    def test_rejects_quantum_numbers_past_exact_floats(self, n_r, l):
        with pytest.raises(DomainError, match="2\\*\\*53"):
            ebk_energy(SystemParams.single(3, 1e-3, 2), n_r, l)


class TestDegeneracy:
    def test_three_dimensional_form(self):
        for l in range(10):
            assert angular_degeneracy(3, l) == 2 * l + 1

    def test_factorial_formula(self):
        for dim in (3, 4, 5, 6):
            for l in range(1, 25):
                want = (2 * l + dim - 2) * math.factorial(l + dim - 3) \
                    // (math.factorial(dim - 2) * math.factorial(l))
                assert angular_degeneracy(dim, l) == want

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_shell_sum_identity(self, dim):
        for n in range(31):
            total = sum(angular_degeneracy(dim, l) for l in range(n % 2, n + 1, 2))
            assert total == math.comb(n + dim - 1, dim - 1)


class TestSmoothDos:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_unperturbed_closed_form(self, dim):
        params = SystemParams.single(dim, 0.0, 2)
        for energy in (0.5, 3.0, 20.0):
            want = energy ** (dim - 1) / math.factorial(dim - 1)
            assert tf_smooth(params, energy) == pytest.approx(want, rel=1e-10)

    def test_two_dimensional_special_case(self):
        params = SystemParams(dim=2, omega=2.0, hbar=0.5)
        energy = 3.0
        assert tf_smooth(params, energy) == pytest.approx(
            energy / (0.5 * 2.0) ** 2, rel=1e-10)

    def test_riemann_sum_oracle(self):
        params = SystemParams.single(3, 0.01, 2)
        energy = 10.0
        r_max = outer_turning_point(params, energy)
        n = 1_000_000
        r = (np.arange(n) + 0.5) * r_max / n
        body = np.maximum(energy - 0.5 * r ** 2 - 0.01 * r ** 4, 0.0)
        integral = np.sum(np.sqrt(body) * r ** 2) * r_max / n
        pref = (2.0 * math.pi) ** -1.5 * 2.0 * math.pi ** 1.5 / math.gamma(1.5) ** 2
        assert tf_smooth(params, energy) == pytest.approx(pref * integral, rel=1e-8)

    def test_monotone_increasing(self):
        params = SystemParams.single(3, 0.02, 2)
        values = [tf_smooth(params, e) for e in np.linspace(0.5, 12.0, 24)]
        assert all(v > 0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("alpha", [2, 3, 4])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_mpmath_quadrature_oracle(self, dim, alpha, sign):
        # Exponents D/2 - 1 = 0, 1/2, 1, 3/2, 2, 5/2 each take their own path
        # through the kernel.  Reference: mpmath's turning point and
        # tanh-sinh quadrature directly in r, at 80% and 30% of the energy
        # of the eps < 0 barrier top.
        mp = pytest.importorskip("mpmath")
        omega, hbar, eps = 1.3, 0.7, sign * 1e-2
        r_top = (omega ** 2 / (2.0 * alpha * 1e-2)) ** (1.0 / (2 * alpha - 2))
        e_top = 0.5 * omega ** 2 * r_top ** 2 - 1e-2 * r_top ** (2 * alpha)
        energies = np.array([0.3, 0.8]) * e_top
        want = []
        with mp.workdps(30):
            pref = ((2 * mp.pi * mp.mpf(hbar) ** 2) ** (-mp.mpf(dim) / 2)
                    * 2 * mp.pi ** (mp.mpf(dim) / 2) / mp.gamma(mp.mpf(dim) / 2) ** 2)
            for energy in energies:
                def excess(r, energy=mp.mpf(energy)):
                    return (energy - mp.mpf(omega) ** 2 * r ** 2 / 2
                            - mp.mpf(eps) * r ** (2 * alpha))

                r_hi = r_top if eps < 0 else math.sqrt(2.0 * energy) / omega
                r_max = mp.findroot(excess, (0, r_hi), solver="anderson")
                integral = mp.quad(lambda r: max(excess(r), 0) ** (mp.mpf(dim) / 2 - 1)
                                   * r ** (dim - 1), [0, r_max])
                want.append(float(pref * integral))
        got = tf_smooth(SystemParams.single(dim, eps, alpha, omega=omega, hbar=hbar),
                        energies)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("alpha", [2, 3, 4])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bracketing_root_and_adaptive_quadrature(self, dim, alpha, sign):
        # outer_turning_point against a bracketing root in r (Anderson-Bjorck
        # on [0, r_hi]) and tf_smooth against tanh-sinh quadrature in r, both
        # at 30 digits, up to a millionth of the eps < 0 barrier top below it
        # (the same energies for eps > 0), where the outer root is nearly double.
        mp = pytest.importorskip("mpmath")
        eps = sign * 1e-2
        r_top = (1.0 / (2.0 * alpha * 1e-2)) ** (1.0 / (2 * alpha - 2))
        e_top = 0.5 * r_top ** 2 - 1e-2 * r_top ** (2 * alpha)
        energies = np.array([0.05, 0.6, 1.0 - 1e-6]) * e_top
        params = SystemParams.single(dim, eps, alpha)
        got = tf_smooth(params, energies)
        with mp.workdps(30):
            pref = ((2 * mp.pi) ** (-mp.mpf(dim) / 2) * 2 * mp.pi ** (mp.mpf(dim) / 2)
                    / mp.gamma(mp.mpf(dim) / 2) ** 2)
            for energy, smooth in zip(energies, got):
                def excess(r, energy=mp.mpf(energy)):
                    return energy - r ** 2 / 2 - mp.mpf(eps) * r ** (2 * alpha)

                r_hi = mp.mpf(r_top) if eps < 0 else mp.sqrt(2 * mp.mpf(energy))
                r_max = mp.findroot(excess, (mp.mpf(0), r_hi), solver="anderson")
                assert outer_turning_point(params, energy) == pytest.approx(
                    float(r_max), rel=1e-13)
                integral = mp.quad(lambda r: max(excess(r), 0) ** (mp.mpf(dim) / 2 - 1)
                                   * r ** (dim - 1), [0, r_max / 2, r_max])
                assert smooth == pytest.approx(float(pref * integral), rel=1e-11)

    @pytest.mark.parametrize("dim,eps", [(2, 1e-3), (3, 1e-3), (3, -1.25e-3), (4, -1.25e-3),
                                         (5, 2e-2)])
    def test_halves_of_a_grid_give_the_same_bits(self, dim, eps):
        # Blocks of 960 rows at 48 nodes split this grid at rows 960 and 1920,
        # and its halves at 960 and 40: each row's value is its own.
        params = SystemParams.single(dim, eps, 2)
        grid = np.linspace(0.01, 39.0, 2000)
        whole = tf_smooth(params, grid)
        assert np.array_equal(whole, np.concatenate([tf_smooth(params, grid[:1000]),
                                                     tf_smooth(params, grid[1000:])]))
        assert np.array_equal(whole[[0, 959, 960, 1999]],
                              [tf_smooth(params, e) for e in grid[[0, 959, 960, 1999]]])

    def test_node_tables_are_read_only(self):
        # lru_cache hands the same arrays to every call; a kernel that wrote
        # into one would corrupt all later results.
        import hoshell.ebk as ebk

        for tables in (ebk._angle_nodes(120), ebk._angle_nodes(120, gauss_kronrod),
                       ebk._tf_nodes(120, 3, 2), ebk._tf_nodes(120, 3, 2, gauss_kronrod),
                       ebk._angle_nodes(48, ebk._midpoints), ebk._tf_nodes(48, 3, 2, ebk._midpoints),
                       ebk._tf_poly_nodes(2, 4, 2), ebk._tf_poly_nodes(2, 4, 2, gauss_kronrod),
                       (ebk._midpoints(48).nodes, ebk._midpoints(48).weights)):
            for table in tables:
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 1.0
        for pair in (*ebk._angle_pairs(), *ebk._tf_pairs(3, 2), *ebk._tf_pairs(4, 2)):
            for table in (*pair.nodes, pair.w, pair.w_coarse):
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 1.0


class TestEbkDos:
    def test_unperturbed_gaussian_comb(self):
        params = SystemParams.single(3, 0.0, 2)
        width = 0.1
        grid = np.arange(0.5, 9.0, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            g, smooth, levels = ebk_dos(params, grid, width=width)
        # peaks at n + 3/2 carrying weight (n+1)(n+2)/2
        for n in range(5):
            e_n = n + 1.5
            sel = (grid >= e_n - 4 * width) & (grid <= e_n + 4 * width)
            got = np.trapezoid(g[sel], grid[sel])
            assert got == pytest.approx((n + 1) * (n + 2) / 2.0, rel=1e-4)

    def test_total_state_count(self):
        params = SystemParams.single(3, 0.0, 2)
        grid = np.arange(0.01, 10.0, 0.01)
        g, smooth, levels = ebk_dos(params, grid, width=0.08)
        count = np.trapezoid(g, grid)
        want = sum(lev.degeneracy for lev in levels if lev.energy < 10.0 - 0.4)
        assert count == pytest.approx(want, rel=0.02)

    def test_truncation_warning(self):
        params = SystemParams.single(3, 0.0, 2)
        with pytest.warns(TruncationWarning):
            enumerate_levels(params, 12.0, n_r_max=2, l_max=40)

    def test_rejects_nan_e_max(self):
        # nan compares false with every energy, which would give an empty list
        # and a false "l cap reached" warning
        with pytest.raises(DomainError, match="e_max"):
            enumerate_levels(SystemParams.single(3, 1e-3, 2), math.nan)

    def test_infinite_e_max_walks_to_the_caps(self):
        with pytest.warns(TruncationWarning, match="n_r cap 3 reached at l=0"):
            levels = enumerate_levels(SystemParams.single(2, 1e-2, 2), math.inf,
                                      n_r_max=3, l_max=4)
        assert len(levels) == 4 * 5

    def test_level_cache_roundtrip(self):
        params = SystemParams.single(3, 1e-3, 2)
        grid = np.arange(1.0, 6.0, 0.02)
        g1, s1, levels = ebk_dos(params, grid, width=0.15)
        g2, s2, _ = ebk_dos(params, grid, width=0.15, levels=levels)
        assert np.array_equal(g1, g2) and np.array_equal(s1, s2)

    @pytest.mark.parametrize("eps,other,match", [
        (1.25e-3, SystemParams.single(4, 0.02, 2), "not a D=4 level"),
        (1.25e-3, SystemParams.single(3, 1e-3, 2), "not quantized in this system"),
        (0.0, SystemParams.single(3, -1.25e-3, 2), "outside this system's well"),
    ])
    def test_rejects_levels_of_another_system(self, eps, other, match):
        # another dimension, a weaker strength, a barrier below the levels
        levels = enumerate_levels(SystemParams.single(3, eps, 2), 55.0, l_max=60)
        with pytest.raises(DomainError, match=match):
            ebk_dos(other, np.arange(2.0, 8.0, 0.5), 0.3, levels=levels)

    @pytest.mark.parametrize("width", [0.05, 0.7])
    def test_grid_slices_match_full_grid_sum(self, width):
        # Below the ground state (E = 1.5) g falls through the subnormal
        # range to 0.0 at 27.3 widths, where a narrower slice would show.
        params = SystemParams.single(3, 1.25e-3, 2)
        grid = np.linspace(0.01, 30.0, 3001)
        g, _, levels = ebk_dos(params, grid, width=width)
        full = np.zeros_like(grid)
        for lev in sorted(levels, key=lambda lev: (lev.energy, lev.l, lev.n_r)):
            full += lev.degeneracy * np.exp(-((grid - lev.energy) / width) ** 2)
        assert np.array_equal(g, full / (width * math.sqrt(math.pi)))

    @pytest.mark.parametrize("grid", [[], [[1.0, 2.0], [3.0, 4.0]], 3.0])
    def test_rejects_empty_or_not_1d_grid(self, grid):
        params = SystemParams.single(3, 1.25e-3, 2)
        with pytest.raises(DomainError, match="non-empty 1-D"):
            ebk_dos(params, np.array(grid), 0.1)

    @pytest.mark.parametrize("width", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_width(self, width):
        # nan would give nan rows and inf a zero g_ebk
        params = SystemParams.single(3, 1.25e-3, 2)
        with pytest.raises(DomainError, match="width must be finite and > 0"):
            ebk_dos(params, np.arange(2.0, 8.0, 0.5), width)

    def test_rejects_grid_not_increasing(self):
        params = SystemParams.single(3, 1.25e-3, 2)
        for grid in ([30.0, 1.0], [1.0, 2.0, 2.0]):
            with pytest.raises(DomainError, match="strictly increasing"):
                ebk_dos(params, grid, 0.1)


    def test_shuffled_level_list_gives_the_same_bits(self):
        # Levels are summed in (E, l, n_r) order whatever the list's order;
        # at eps = 0 whole shells share one energy, so l and n_r break ties.
        for eps in (0.0, 1.25e-3):
            params = SystemParams.single(3, eps, 2)
            grid = np.linspace(0.5, 14.0, 1201)
            levels = enumerate_levels(params, 16.0)
            shuffled = list(levels)
            np.random.default_rng(7).shuffle(shuffled)
            assert shuffled != levels
            g, smooth, _ = ebk_dos(params, grid, 0.2, levels=levels)
            g2, smooth2, back = ebk_dos(params, grid, 0.2, levels=shuffled)
            assert np.array_equal(g, g2) and np.array_equal(smooth, smooth2)
            assert back is shuffled

    def test_quantum_numbers_past_the_float_range_rejected(self):
        # l = 10^400 with its D = 3 degeneracy passes the degeneracy check but
        # has no float value; it must be a domain error, not an OverflowError.
        huge = 10 ** 400
        level = EbkLevel(n_r=0, l=huge, energy=1.5, degeneracy=2 * huge + 1)
        with pytest.raises(DomainError, match="leave the float range"):
            ebk_dos(SystemParams.single(3, 0.0, 2), np.arange(1.0, 3.0, 0.5), 0.3,
                    levels=[level])


class TestCrossPipeline:
    def test_weak_perturbation_convergence(self):
        # The torus-quantized beat sits above the perturbative one; both the
        # relative node offset and the decorrelation shrink as the
        # perturbation weakens (matching dimensionless windows around the
        # first node).
        results = {}
        for eps in (1.25e-3, 3.125e-4):
            params = SystemParams.single(3, eps, 2)
            node = math.sqrt(2.0 / eps)
            grid = np.arange(0.125 * node, 1.4 * node, 0.02)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                g, smooth, _ = ebk_dos(params, grid, width=0.1)
            dg_ebk = g - smooth
            dg_pert = pert_dos(params, grid, k_max=10, width=0.1,
                               method="closed_form").oscillating
            pearson = float(np.corrcoef(dg_pert, dg_ebk)[0, 1])
            nodes_p = envelope_nodes(grid, dg_pert, 1.0)
            nodes_e = envelope_nodes(grid, dg_ebk, 1.0)
            assert len(nodes_p) >= 1 and len(nodes_e) >= 1
            results[eps] = (pearson, (nodes_e[0] - nodes_p[0]) / node)
        strong, weak = results[1.25e-3], results[3.125e-4]
        assert weak[0] > strong[0] > 0.0   # correlation improves
        assert 0.0 < weak[1] < strong[1]   # relative node offset shrinks


def _oracle_action(params, energy, l_eff):
    """2 * integral p_r dr by adaptive quadrature in r, with turning points
    from bracketing root solves on a sampled p_r^2 (independent of the
    package's u = r^2 kernel)."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    (eps, alpha), = params.terms
    w2 = params.omega ** 2

    def p2(r):
        return 2.0 * energy - w2 * r * r - 2.0 * eps * r ** (2 * alpha) - l_eff ** 2 / (r * r)

    r = np.linspace(1e-6, 3.0 * math.sqrt(2.0 * energy / w2), 20001)
    positive = p2(r) > 0
    first = int(np.argmax(positive))
    last = first + int(np.argmax(~positive[first:]))
    r_in = 0.0 if first == 0 else brentq(p2, r[first - 1], r[first], xtol=1e-15)
    r_out = brentq(p2, r[last - 1], r[last], xtol=1e-15)
    val, _ = quad(lambda x: math.sqrt(max(p2(x), 0.0)), r_in, r_out,
                  epsabs=0.0, epsrel=1e-13, limit=400)
    return 2.0 * val


class TestArrayKernel:
    @pytest.mark.parametrize("dim,eps,alpha,e_max", [
        (2, 2e-3, 2, 25.0),
        (3, -1.25e-3, 2, 60.0),   # past the barrier at E = 50
        (4, 1e-4, 3, 20.0),
        (3, -5e-5, 3, 30.0),
        (2, -3e-3, 2, 30.0),
    ])
    def test_levels_against_quadrature_in_r(self, dim, eps, alpha, e_max):
        params = SystemParams.single(dim, eps, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            levels = enumerate_levels(params, e_max)
        picks = [levels[i] for i in np.linspace(0, len(levels) - 1, 7).astype(int)]
        picks.append(max(levels, key=lambda lev: lev.energy))
        for lev in picks:
            target = 2.0 * math.pi * (lev.n_r + 0.5)
            got = _oracle_action(params, lev.energy, lev.l + 0.5 * (dim - 2))
            assert abs(got - target) <= 1e-9 * target, (lev, got, target)

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_level_just_below_separatrix(self, delta):
        # D = 2, l = 0 has L_eff = 0 for any hbar; with V = r^2/2 - g r^4 the
        # separatrix action is sqrt(2)/(6 g) at E_top = 1/(16 g).  Choosing
        # hbar puts level n = 5 a fraction delta of a quantum below it.
        g, n = 1e-3, 5
        hbar = math.sqrt(2.0) / (6.0 * g) / (2.0 * math.pi * (n + 0.5 + delta))
        params = SystemParams.single(2, -g, 2, hbar=hbar)
        e_top = 1.0 / (16.0 * g)
        level = ebk_energy(params, n, 0)
        assert ebk_energy(params, n - 1, 0).energy < level.energy < e_top
        target = 2.0 * math.pi * hbar * (n + 0.5)
        assert abs(radial_action(params, level.energy, 0.0) - target) <= 1e-11 * target
        with pytest.raises(NoBoundStateError):
            ebk_energy(params, n + 1, 0)
        with pytest.raises(NoBoundStateError):
            radial_action(params, e_top * (1.0 + 1e-9), 0.0)
        with pytest.warns(TruncationWarning, match=r"\(n_r=6, l=0\) above barrier"):
            levels = enumerate_levels(params, e_top, l_max=0)
        assert [lev.n_r for lev in levels] == list(range(n + 1))

    def test_zero_angular_momentum_row(self):
        # D = 2, l = 0: the inner turning point is the origin.
        params = SystemParams.single(2, 0.0, 2)
        assert radial_action(params, 3.7, 0.0) == pytest.approx(math.pi * 3.7, rel=1e-13)
        pert = SystemParams.single(2, 4e-3, 2)
        level = ebk_energy(pert, 3, 0)
        assert _oracle_action(pert, level.energy, 0.0) == pytest.approx(
            2.0 * math.pi * 3.5, rel=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_unperturbed_levels_are_exact(self, dim):
        # The Newton solve starts at hbar omega (n + D/2), which the harmonic
        # action meets to within the acceptance threshold.
        params = SystemParams.single(dim, 0.0, 2)
        for n_r in range(0, 12, 3):
            for l in range(0, 12, 4):
                assert ebk_energy(params, n_r, l).energy == 2 * n_r + l + dim / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            levels = enumerate_levels(params, 30.0)
        for lev in levels:
            want = 2 * lev.n_r + lev.l + dim / 2.0
            assert abs(lev.energy - want) <= 1e-12 * want

    def test_hbar_and_omega_scaling(self):
        # r -> r sqrt(hbar/omega) maps (omega, hbar, eps) onto (1, 1,
        # eps hbar^(alpha-1) / omega^(alpha+1)) with energies in hbar omega.
        omega, hbar, eps, alpha = 1.7, 0.6, 2e-3, 3
        params = SystemParams.single(3, eps, alpha, omega=omega, hbar=hbar)
        unit = SystemParams.single(3, eps * hbar ** (alpha - 1) / omega ** (alpha + 1), alpha)
        for n_r, l in ((0, 0), (4, 2), (1, 9)):
            got = ebk_energy(params, n_r, l).energy / (hbar * omega)
            assert got == pytest.approx(ebk_energy(unit, n_r, l).energy, rel=1e-12)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(log_hbar=st.floats(-100.0, 100.0), log_omega=st.floats(-100.0, 100.0))
    def test_scaling_law_of_every_entry_point(self, log_hbar, log_omega):
        # At a fixed eps' = eps hbar^(alpha-1) / omega^(alpha+1), energies scale
        # by hbar omega, S_r by hbar, r_max by sqrt(hbar/omega) and tf_smooth by
        # 1 / (hbar omega), with hbar and omega far apart in the float range.
        eps_unit, log_eps = -2e-3, 3.0 * log_omega - log_hbar
        assume(abs(log_eps) < 300.0)
        hbar, omega = 10.0 ** log_hbar, 10.0 ** log_omega
        params = SystemParams.single(3, eps_unit * 10.0 ** log_eps, 2, omega=omega, hbar=hbar)
        unit = SystemParams.single(3, eps_unit, 2)
        e0, rel = hbar * omega, dict(rtol=1e-12, atol=0.0)
        assert ebk_energy(params, 2, 3).energy / e0 == pytest.approx(
            ebk_energy(unit, 2, 3).energy, rel=1e-12)
        levels, want = enumerate_levels(params, 8.0 * e0), enumerate_levels(unit, 8.0)
        assert [(lev.n_r, lev.l) for lev in levels] == [(lev.n_r, lev.l) for lev in want]
        np.testing.assert_allclose([lev.energy / e0 for lev in levels],
                                   [lev.energy for lev in want], **rel)
        e = np.array([2.0, 5.5, 9.0])
        np.testing.assert_allclose(radial_action(params, e * e0, 1.5 * hbar) / hbar,
                                   radial_action(unit, e, 1.5), **rel)
        assert outer_turning_point(params, 5.5 * e0) / math.sqrt(hbar / omega) == (
            pytest.approx(outer_turning_point(unit, 5.5), rel=1e-12))
        np.testing.assert_allclose(tf_smooth(params, e * e0) * e0, tf_smooth(unit, e), **rel)
        # A cached level list passes this trap's quantization check.
        grid = np.linspace(2.0, 6.0, 9)
        g, smooth, _ = ebk_dos(params, grid * e0, 0.3 * e0, levels=levels)
        g_unit, smooth_unit, _ = ebk_dos(unit, grid, 0.3, levels=want)
        np.testing.assert_allclose(g * e0, g_unit, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(smooth * e0, smooth_unit, **rel)

    def test_barrier_beyond_the_float_range(self):
        # For eps = -1e-100 the barrier lies near E = 1e99 and is computed;
        # further out, u^(alpha+1) at the barrier would overflow.
        levels = enumerate_levels(SystemParams.single(3, -1e-100, 2), 5.0)
        assert [lev.energy for lev in levels] == pytest.approx(
            [lev.energy for lev in enumerate_levels(SystemParams.single(3, 0.0, 2), 5.0)],
            rel=1e-12)
        with pytest.raises(DomainError, match="barrier of strength -1e-165 lies beyond"):
            enumerate_levels(SystemParams.single(3, -1e-165, 2), 5.0)

    def test_absorbed_harmonic_term(self):
        # An alpha = 1 term only shifts the frequency: omega'^2 = omega^2 + 2 eps1.
        mixed = SystemParams(dim=3, terms=((0.3, 1), (1e-3, 2)))
        folded = SystemParams.single(3, 1e-3, 2, omega=math.sqrt(1.6))
        assert ebk_energy(mixed, 2, 3) == ebk_energy(folded, 2, 3)
        assert ebk_energy(SystemParams.single(3, 0.3, 1), 2, 3).energy == pytest.approx(
            math.sqrt(1.6) * 8.5, rel=1e-13)
        with pytest.raises(DomainError):
            ebk_energy(SystemParams(dim=3, terms=((1e-3, 2), (1e-4, 3))), 0, 0)

    @pytest.mark.parametrize("terms,single", [
        (((1e-3, 2), (5e-4, 2)), (1e-3 + 5e-4, 2)), (((1e-3, 2), (0.0, 3)), (1e-3, 2))])
    def test_terms_of_one_order_merge(self, terms, single):
        # The strengths of an order add before they are resolved, and an order
        # whose strength is 0 drops out, as in pert_dos.
        merged, want = SystemParams(dim=3, terms=terms), SystemParams(dim=3, terms=(single,))
        assert enumerate_levels(merged, 12.0) == enumerate_levels(want, 12.0)
        grid = np.linspace(2.0, 10.0, 33)
        got, ref = ebk_dos(merged, grid, 0.3), ebk_dos(want, grid, 0.3)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        assert got[2] == ref[2]
        with pytest.raises(DomainError, match="reference pipeline handles a single monomial term"):
            enumerate_levels(SystemParams(dim=3, terms=(*terms, (1e-4, 4))), 12.0)

    def test_array_tf_smooth_matches_points(self):
        params = SystemParams.single(3, -1.2e-3, 2)
        grid = np.linspace(0.05, 40.0, 517)   # not a multiple of the row block
        values = tf_smooth(params, grid)
        assert values.shape == grid.shape
        points = np.array([tf_smooth(params, float(e)) for e in grid])
        assert isinstance(tf_smooth(params, 3.0), float)
        np.testing.assert_allclose(values, points, rtol=1e-14, atol=0.0)

    def test_kernel_rows_per_level(self, monkeypatch):
        import hoshell.ebk as ebk

        rows = []
        kernel = ebk._radial_action_rows

        def counting(trap, e, *args):
            rows.append(np.size(e))
            return kernel(trap, e, *args)

        monkeypatch.setattr(ebk, "_radial_action_rows", counting)
        levels = ebk.enumerate_levels(SystemParams.single(3, 3e-4, 2), 60.0)
        assert sum(rows) <= 4 * len(levels)


def _rows_per_level(monkeypatch, params, e_max):
    """Action-kernel rows per kept level of one enumerate_levels call."""
    import hoshell.ebk as ebk

    rows = []
    kernel = ebk._radial_action_rows

    def counting(trap, e, *args):
        rows.append(np.size(e))
        return kernel(trap, e, *args)

    monkeypatch.setattr(ebk, "_radial_action_rows", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        levels = ebk.enumerate_levels(params, e_max)
    return sum(rows) / len(levels)


class TestLevelWalk:
    # The first-order start E(n_r-1) + 2 pi hbar / T_r took 3.12 rows per
    # kept level for these eps > 0 walks, and 3.45 (D = 2) and 3.46 (D = 4)
    # for the eps < 0 walks past the barrier at E = 50.
    @pytest.mark.parametrize("dim,eps,e_max,bound", [
        (3, 3e-4, 113.5, 2.3), (4, 3e-4, 112.0, 2.3),
        (2, -1.25e-3, 60.0, 3.45), (4, -1.25e-3, 60.0, 3.45)])
    def test_rows_per_level(self, monkeypatch, dim, eps, e_max, bound):
        rate = _rows_per_level(monkeypatch, SystemParams.single(dim, eps, 2), e_max)
        assert rate <= bound

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("alpha,eps", [(2, 1e-3), (3, 1e-5), (4, 2e-7)])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_levels_quantize_the_cold_start_action(self, dim, alpha, eps, sign):
        # The walk solves turning points from the previous Newton step's
        # roots; radial_action solves them from the harmonic roots.
        params = SystemParams.single(dim, sign * eps, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            levels = enumerate_levels(params, 40.0)
        assert levels
        n_r, l, e = (np.array([getattr(lev, k) for lev in levels], dtype=float)
                     for k in ("n_r", "l", "energy"))
        target = 2.0 * math.pi * (n_r + 0.5)
        action = radial_action(params, e, l + 0.5 * (dim - 2))
        assert np.all(np.abs(action - target) <= 1e-11 * target)


def _kernel_calls(monkeypatch, params, e_max):
    """Action-kernel calls of one enumerate_levels call."""
    import hoshell.ebk as ebk

    calls = []
    kernel = ebk._radial_action_rows

    def counting(trap, e, *args):
        calls.append(np.size(e))
        return kernel(trap, e, *args)

    monkeypatch.setattr(ebk, "_radial_action_rows", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        ebk.enumerate_levels(params, e_max)
    return len(calls)


def _barrier_top(params, l_eff):
    """E_top of V_eff(r) = r^2/2 + eps r^(2 alpha) + L^2/(2 r^2) for eps < 0, from
    brentq on r^3 dV_eff/dr = r^4 + 2 alpha eps r^(2 alpha + 2) - L^2 past its
    hump, where it falls below -L^2 by twice the hump radius; nan where the
    hump stays below L^2 (no well)."""
    from scipy.optimize import brentq

    (eps, alpha), = params.terms
    r_hump = (-1.0 / (alpha * (alpha + 1) * eps)) ** (0.5 / (alpha - 1))

    def slope(r):
        return r ** 4 + 2.0 * alpha * eps * r ** (2 * alpha + 2) - l_eff ** 2

    if not slope(r_hump) > 0:
        return math.nan
    r = brentq(slope, r_hump, 2.0 * r_hump, xtol=1e-15)
    return 0.5 * r * r + eps * r ** (2 * alpha) + 0.5 * l_eff ** 2 / (r * r)


class TestLevelSet:
    @pytest.mark.parametrize("dim,eps,bound", [(3, 3e-4, 3), (2, -1.25e-3, 8), (4, -1.25e-3, 8)])
    def test_kernel_calls(self, monkeypatch, dim, eps, bound):
        # The walk made 111 (eps > 0) and 204 (eps < 0) calls of about 30 rows.
        e_max = 113.5 if eps > 0 else 60.0
        assert _kernel_calls(monkeypatch, SystemParams.single(dim, eps, 2), e_max) <= bound

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("alpha,eps", [(2, 1e-3), (3, 1e-5), (4, 2e-7)])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_each_l_stops_where_the_cold_start_action_does(self, dim, alpha, eps, sign):
        # Per l the set holds n_r = 0, 1, ... up to the last level at or below
        # e_max, and radial_action puts the next one above e_max or beyond
        # the barrier; the same for every l without levels.
        e_max, l_max = 40.0, 60
        params = SystemParams.single(dim, sign * eps, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            levels = enumerate_levels(params, e_max, l_max=l_max)
        count = np.zeros(l_max + 1, dtype=int)
        for lev in levels:
            assert lev.n_r == count[lev.l] and lev.energy <= e_max
            count[lev.l] += 1
        for l in range(l_max + 1):
            l_eff = l + 0.5 * (dim - 2)
            e_top = _barrier_top(params, l_eff) if sign < 0 else math.inf
            if not e_top > l_eff:  # no well
                assert count[l] == 0
                continue
            # Just below a barrier top, S_r lies within 1e-7 of the separatrix action.
            try:
                action = radial_action(params, min(e_max, e_top * (1.0 - 1e-9)), l_eff)
            except NoBoundStateError:  # e_max at or below the well bottom
                action = 0.0
            assert 2.0 * math.pi * (count[l] - 0.5) <= action * (1.0 + 1e-9)
            assert action * (1.0 + 1e-7) < 2.0 * math.pi * (count[l] + 0.5)

    def test_strength_far_above_one(self):
        # With eps' >> 1 the levels scale as eps^(1/3); turning points solved
        # from a previous Newton step's roots did not converge at 1e60.
        def scaled(s):
            levels = enumerate_levels(SystemParams.single(3, s, 2), 20.0 * s ** (1.0 / 3.0),
                                      l_max=40, n_r_max=20)
            return ([(lev.n_r, lev.l) for lev in levels],
                    np.array([lev.energy for lev in levels]) / s ** (1.0 / 3.0))

        keys, want = scaled(1e30)
        assert len(keys) == 15
        for s in (1e60, 1e90, 1e147):
            got_keys, got = scaled(s)
            assert got_keys == keys
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


class TestTruncationParity:
    # Warning texts and level sets as produced by the bracket-search
    # implementation this kernel replaced.
    def test_radial_cap(self):
        with pytest.warns(TruncationWarning) as rec:
            enumerate_levels(SystemParams.single(3, 1e-3, 2), 12.0, n_r_max=2, l_max=40)
        assert str(rec[0].message) == (
            "level enumeration truncated: n_r cap 2 reached at l=0; "
            "n_r cap 2 reached at l=1; n_r cap 2 reached at l=2; "
            "n_r cap 2 reached at l=3; n_r cap 2 reached at l=4")

    def test_angular_cap(self):
        with pytest.warns(TruncationWarning) as rec:
            levels = enumerate_levels(SystemParams.single(3, 1e-3, 2), 30.0, l_max=6)
        assert str(rec[0].message) == "level enumeration truncated: l cap 6 reached"
        assert len(levels) == 89

    def test_walk_end_below_the_barrier(self):
        # Every l up to the first whose lowest level lies above e_max is
        # complete, so nothing was truncated.
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            levels = enumerate_levels(SystemParams.single(3, -1.25e-3, 2), 30.0)
        assert levels

    def test_past_the_barrier(self):
        with pytest.warns(TruncationWarning) as rec:
            levels = enumerate_levels(SystemParams.single(2, -2e-2, 2), 20.0, l_max=30)
        assert str(rec[0].message) == (
            "level enumeration truncated: (n_r=2, l=0) above barrier; "
            "(n_r=1, l=1) above barrier; (n_r=1, l=2) above barrier; "
            "(n_r=1, l=3) above barrier; (n_r=0, l=4) above barrier")
        assert [(lev.n_r, lev.l) for lev in levels] == [
            (0, 0), (1, 0), (0, 1), (0, 2), (0, 3)]


def _rows_by_order(monkeypatch, name, call):
    """Rows each rule pair's fine rule summed during call(), keyed by its node count."""
    import hoshell.ebk as ebk

    rows = {}
    kernel = getattr(ebk, name)

    def counting(trap, e, *args):
        rows[args[-1].w.size] = rows.get(args[-1].w.size, 0) + np.size(e)
        return kernel(trap, e, *args)

    monkeypatch.setattr(ebk, name, counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        call()
    return rows


class TestNestedRules:
    def test_coarse_nodes_are_a_slice_of_the_fine_ones(self):
        # Every rung evaluates its fine rule's nodes once, and its coarse rule
        # takes nodes among them: a nested pair's is the 16-point midpoint
        # rule on the 48 midpoints [1::3]; a Gauss-Kronrod pair's is the
        # n-point Gauss-Legendre rule on the first n of its 2n+1 nodes, with
        # nodes and weights bit for bit those of gauss_legendre(n) mapped.
        import hoshell.ebk as ebk

        mid, gk = ebk._midpoints, gauss_kronrod

        def tf(table, dim, alpha):  # positional, as the ladders call it
            return lambda n, rule=gauss_legendre: table(n, dim, alpha, rule)

        ladders = [(ebk._angle_pairs(), [(ebk._angle_nodes, 48, mid), (ebk._angle_nodes, 120, gk)])]
        for dim, alpha in ((3, 2), (5, 3)):
            odd = tf(ebk._tf_nodes, dim, alpha)
            ladders.append((ebk._tf_pairs(dim, alpha), [(odd, 48, mid), (odd, 120, gk)]))
        for dim, alpha, n in ((2, 2, 1), (4, 2, 2), (6, 4, 6), (4, 356, 179)):
            exact = tf(ebk._tf_poly_nodes, dim, alpha)
            ladders.append((ebk._tf_pairs(dim, alpha),
                            [(exact, n, gk), (tf(ebk._tf_nodes, dim, alpha), 120, gk)]))
        ladders.append((ebk._tf_pairs(4, 357), [(tf(ebk._tf_nodes, 4, 357), 120, gk)]))
        for pairs, rungs in ladders:
            assert len(pairs) == len(rungs)
            for pair, (table, n, rule) in zip(pairs, rungs):
                fine = table(n, rule)
                coarse = table(16, mid) if rule is mid else table(n)
                assert pair.w is fine[0]
                for node, own, want in zip(pair.nodes, fine[1:], coarse[1:]):
                    assert node is own
                    np.testing.assert_array_equal(node[pair.coarse], want)
                if rule is mid:
                    assert pair.coarse == slice(1, None, 3)
                    np.testing.assert_array_equal(pair.w_coarse, 3.0 * fine[0][1::3])
                    np.testing.assert_allclose(pair.w_coarse, coarse[0], rtol=1e-15, atol=0.0)
                else:
                    assert pair.coarse == slice(n) and fine[0].size == 2 * n + 1
                    np.testing.assert_array_equal(pair.w_coarse, coarse[0])
        # The table maps gauss_legendre(120) itself: its weights, bit for bit.
        theta, w = gauss_legendre(120).on_interval(-0.5 * math.pi, 0.5 * math.pi)
        np.testing.assert_array_equal(ebk._angle_pairs()[1].w_coarse, w)
        np.testing.assert_array_equal(ebk._angle_pairs()[1].nodes[0][:120], np.cos(theta))

    @pytest.mark.parametrize("dim,alpha", [(2, 2), (4, 2), (4, 3), (6, 4)])
    def test_even_dimension_rules_are_exact(self, dim, alpha):
        # Both rules of the pair integrate t^(D/2-1) (1 - t/2 - t^alpha/2)^(D/2-1) / 2
        # exactly: a polynomial of the integrand's degree (D/2-1)(alpha+1).
        import hoshell.ebk as ebk

        mp = pytest.importorskip("mpmath")
        pair = ebk._tf_pairs(dim, alpha)[0]
        t, t_a = pair.nodes
        p = dim // 2 - 1
        f = (1.0 - 0.5 * t - 0.5 * t_a) ** p
        with mp.workdps(30):
            want = float(mp.quad(lambda x: x ** p * (1 - x / 2 - x ** alpha / 2) ** p / 2, [0, 1]))
        fine, coarse = ebk._pair_sums(f[None, :], pair)
        assert abs(fine[0] - want) <= 1e-14 * want and abs(coarse[0] - want) <= 1e-14 * want

    @pytest.mark.parametrize("dim,eps,share", [
        # 10.0% of the rows at D = 3 (barrier tops included) were measured
        (3, 3e-4, 0.0), (4, 3e-4, 0.0), (3, -1.25e-3, 0.11)])
    def test_fallback_rows(self, monkeypatch, dim, eps, share):
        rows = _rows_by_order(monkeypatch, "_action_sums", lambda: enumerate_levels(
            SystemParams.single(dim, eps, 2), 60.0))
        assert set(rows) <= {48, 241}
        assert rows.get(241, 0) <= share * sum(rows.values())

    def test_barrier_tops_go_straight_to_the_fallback(self, monkeypatch):
        import hoshell.ebk as ebk

        trap = ebk._resolve(SystemParams.single(3, -1.25e-3, 2))[0]
        l2 = trap.l_eff(np.arange(30)) ** 2
        rows = _rows_by_order(monkeypatch, "_action_sums", lambda: ebk._separatrix_action(trap, l2))
        assert rows == {48: 0, 241: 30}

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("eps", [1.2e-3, -1.2e-3])
    def test_tf_smooth_needs_no_fallback(self, monkeypatch, dim, eps):
        # Up to 95% of the barrier top (E = 52.1), for eps < 0
        grid = np.linspace(0.5, 49.5, 2001)
        rows = _rows_by_order(monkeypatch, "_tf_sums", lambda: tf_smooth(
            SystemParams.single(dim, eps, 2), grid))
        assert rows == {5 if dim == 4 else 3 if dim == 2 else 48: grid.size}

    def test_missed_rows_are_summed_again_on_the_fallback(self):
        # A fake kernel whose coarse sum misses on rows 1 and 3 of the first
        # rung; row 4 starts on the last rung, and a miss there raises.
        import hoshell.ebk as ebk

        first, fallback = rules = ebk._angle_pairs()
        calls = []

        def sums(x, miss, rule):
            calls.append((rule is first, x.tolist()))
            fine = x + (rule is first)
            return fine, fine + miss * (rule is first or x > 9)

        x, miss = np.arange(6.0), np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
        out = ebk._checked(sums, (x, miss), 1e-10, 1.0, "test", rules,
                           np.where(np.arange(6) == 4, 1, 0))
        np.testing.assert_array_equal(out, [[1.0, 1.0, 3.0, 3.0, 4.0, 6.0]])
        assert calls == [(True, [0.0, 1.0, 2.0, 3.0, 5.0]), (False, [1.0, 3.0, 4.0])]
        with pytest.raises(AccuracyError, match="test quadrature error 1.000e"):
            ebk._checked(sums, (x + 10.0, miss), 1e-10, 1.0, "test", rules)

    def test_one_rung_ladder_sums_a_missed_row_once(self, monkeypatch):
        # Past 360 exact nodes at even D, the 241-node Gauss-Kronrod pair is
        # tf_smooth's only rung: a miss on it raises without a second sum.
        import hoshell.ebk as ebk

        assert len(ebk._tf_pairs(4, 357)) == 1 and len(ebk._tf_pairs(4, 356)) == 2
        kernel, calls = ebk._tf_sums, []

        def missing(trap, e, r_max, pair):
            calls.append((pair.w.size, e.size))
            fine, coarse = kernel(trap, e, r_max, pair)
            return fine, 2.0 * coarse

        monkeypatch.setattr(ebk, "_tf_sums", missing)
        with pytest.raises(AccuracyError, match="smooth DOS quadrature error"):
            tf_smooth(SystemParams.single(4, 1e-3, 400), np.linspace(0.5, 40.0, 300))
        assert calls == [(241, 191), (241, 109)]
