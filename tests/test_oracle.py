import math

import numpy as np
import pytest

from hoshell import oracle
from hoshell.actionpoly import SystemParams, action_coefficients, delta_s, sigma_alpha
from hoshell.errors import DomainError, StepSizeError
from hoshell.oracle import (
    EllipseOrbit,
    PhaseState,
    angular_momentum,
    delta_s_oracle,
    integrate_orbit,
)

from reference import diameter_action_expansion

PERIOD = 2.0 * math.pi


class TestEllipseOrbit:
    def test_derived_quantities(self):
        orbit = EllipseOrbit(a=2.0, b=1.0, omega=1.5)
        assert orbit.r0_squared == 5.0
        assert orbit.energy == pytest.approx(0.5 * 1.5 ** 2 * 5.0)
        assert orbit.angular_momentum == pytest.approx(3.0)
        assert orbit.ltilde == pytest.approx(0.8)

    def test_limits(self):
        assert EllipseOrbit(a=1.3, b=1.3).ltilde == 1.0
        assert EllipseOrbit(a=1.3, b=0.0).ltilde == 0.0
        with pytest.raises(DomainError):
            EllipseOrbit(a=1.0, b=1.2)


class TestIntegrator:
    def test_unperturbed_matches_analytic_solution(self):
        params = SystemParams.single(3, 0.0, 2)
        init = PhaseState(q=[1.0, 0.0, -0.4], p=[0.0, 0.7, 0.2])
        traj = integrate_orbit(params, init, 10 * PERIOD, PERIOD / 2048)
        analytic = (np.outer(np.cos(traj.times), init.q)
                    + np.outer(np.sin(traj.times), init.p))
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(traj.positions - analytic)) <= 1e-9 * scale

    def test_returns_to_start_after_period(self):
        params = SystemParams.single(2, 0.0, 2)
        init = PhaseState(q=[0.9, -0.2], p=[0.3, 0.5])
        traj = integrate_orbit(params, init, PERIOD, PERIOD / 2048)
        assert np.max(np.abs(traj.positions[-1] - init.q)) <= 1e-9
        assert np.max(np.abs(traj.momenta[-1] - init.p)) <= 1e-9

    def test_stiffer_potential_shortens_period(self):
        params = SystemParams.single(2, 0.05, 2)
        init = PhaseState(q=[1.0, 0.0], p=[0.0, 0.0])  # diameter orbit
        traj = integrate_orbit(params, init, 1.2 * PERIOD, PERIOD / 4096)
        x = traj.positions[:, 0]
        crossings = traj.times[1:][(x[:-1] > 0) & (x[1:] <= 0)]
        assert crossings[0] < 0.25 * PERIOD  # quarter period comes early

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_conservation_over_ten_periods(self, dim):
        rng = np.random.default_rng(dim)
        params = SystemParams.single(dim, 0.02, 2)
        init = PhaseState(q=rng.normal(size=dim), p=rng.normal(size=dim))
        traj = integrate_orbit(params, init, 10 * PERIOD, PERIOD / 1500)
        drift = np.max(np.abs(traj.energies - traj.energies[0]))
        assert drift <= 1e-9 * abs(traj.energies[0])
        comps0, mag0 = angular_momentum(init)
        for i in range(0, len(traj.times), 750):
            comps, _ = angular_momentum(
                PhaseState(q=traj.positions[i], p=traj.momenta[i]))
            assert np.max(np.abs(comps - comps0)) <= 1e-9 * mag0

    def test_three_forces_per_step(self, monkeypatch):
        # The force that closes one velocity-Verlet substep opens the next.
        calls = []
        force = oracle._force

        def counted(params, q):
            calls.append(q)
            return force(params, q)

        monkeypatch.setattr(oracle, "_force", counted)
        params = SystemParams.single(3, 0.02, 2)
        init = PhaseState(q=[1.0, 0.0, -0.4], p=[0.0, 0.7, 0.2])
        integrate_orbit(params, init, 40 * 0.01, 0.01)
        assert len(calls) == 1 + 3 * 40

    def test_instability_detected(self):
        params = SystemParams.single(2, 5.0, 3)
        init = PhaseState(q=[2.0, 0.0], p=[0.0, 0.0])
        with pytest.raises(StepSizeError):
            integrate_orbit(params, init, 10 * PERIOD, 0.9)

    def test_rejects_bad_step(self):
        params = SystemParams.single(2, 0.0, 2)
        with pytest.raises(DomainError):
            integrate_orbit(params, PhaseState(q=[1.0, 0.0], p=[0.0, 0.0]),
                            1.0, 0.0)

    @pytest.mark.parametrize("t_end,dt", [(math.nan, 0.01), (math.inf, 0.01), (1.0, math.nan),
                                          (1.0, math.inf), (1e300, 1e-300)])
    def test_rejects_non_finite_times(self, t_end, dt):
        params = SystemParams.single(2, 0.0, 2)
        with pytest.raises(DomainError):
            integrate_orbit(params, PhaseState(q=[1.0, 0.0], p=[0.0, 0.0]), t_end, dt)

    @pytest.mark.parametrize("t_end", [1e15, 1e20, 1e300])
    def test_rejects_more_steps_than_an_array_holds(self, t_end):
        # Finite step counts past what numpy can shape, or past what memory
        # can hold (1e17 steps of 2 floats, 1.4 EiB), used to end in numpy's
        # "Maximum allowed dimension exceeded" ValueError or its MemoryError.
        params = SystemParams.single(2, 0.0, 2)
        with pytest.raises(DomainError, match=r"t_end=.* dt=0\.01 .* steps") as info:
            integrate_orbit(params, PhaseState(q=[1.0, 0.0], p=[0.0, 0.0]), t_end, 0.01)
        assert "\n" not in str(info.value)


class TestAngularMomentum:
    def test_parallel_vectors_vanish(self):
        state = PhaseState(q=[1.0, 2.0, 3.0], p=[2.0, 4.0, 6.0])
        comps, mag = angular_momentum(state)
        assert np.allclose(comps, 0.0, atol=1e-14)
        assert mag == pytest.approx(0.0, abs=1e-14)

    def test_three_dimensional_cross_product(self):
        q = np.array([0.3, -1.2, 0.7])
        p = np.array([1.1, 0.4, -0.6])
        comps, mag = angular_momentum(PhaseState(q=q, p=p))
        cross = np.cross(q, p)
        # components are p_j q_k - p_k q_j for ordered pairs (j, k)
        assert set(np.round(np.abs(comps), 12)) == set(np.round(np.abs(cross), 12))
        assert mag == pytest.approx(np.linalg.norm(cross), rel=1e-12)

    def test_lagrange_identity(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 4, 6):
            q = rng.normal(size=dim)
            p = rng.normal(size=dim)
            _, mag = angular_momentum(PhaseState(q=q, p=p))
            want = (q @ q) * (p @ p) - (q @ p) ** 2
            assert mag ** 2 == pytest.approx(want, rel=1e-12)


class TestDeltaSOracle:
    def test_circular_orbit_closed_form(self):
        # constant integrand: -eps T (R0^2/2)^alpha = -sigma_alpha
        orbit = EllipseOrbit(a=1.0, b=1.0, omega=1.0)
        for alpha in (1, 2, 3, 7):
            got = delta_s_oracle(orbit, 0.3, alpha)
            want = -sigma_alpha(orbit.energy, 0.3, alpha, 1.0)
            assert got == pytest.approx(want, rel=1e-13)

    def test_diameter_orbit_quartic(self):
        orbit = EllipseOrbit(a=1.0, b=0.0, omega=1.0)
        want = -1.5 * sigma_alpha(orbit.energy, 0.2, 2, 1.0)
        assert delta_s_oracle(orbit, 0.2, 2) == pytest.approx(want, rel=1e-13)

    def test_matches_polynomial_for_random_orbits(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            alpha = int(rng.integers(1, 13))
            a = float(rng.uniform(0.3, 2.0))
            b = float(rng.uniform(0.0, a))
            omega = float(rng.uniform(0.5, 2.0))
            eps = float(rng.uniform(-0.5, 0.5))
            orbit = EllipseOrbit(a=a, b=b, omega=omega)
            got = delta_s_oracle(orbit, eps, alpha)
            want = delta_s(action_coefficients(alpha),
                           sigma_alpha(orbit.energy, eps, alpha, omega),
                           orbit.ltilde)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("alpha", [40, 50])
    def test_matches_polynomial_at_high_order(self, alpha):
        # The float Horner form in ltilde^2 was off by 2.8e-3 at alpha = 40
        # and by a factor 5.2 at alpha = 50 on this orbit.
        orbit = EllipseOrbit(a=1.0, b=0.95)
        want = delta_s_oracle(orbit, 1e-3, alpha)
        got = delta_s(action_coefficients(alpha), sigma_alpha(orbit.energy, 1e-3, alpha, 1.0),
                      orbit.ltilde)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_even_under_axis_swap(self):
        for alpha in (2, 3, 8):
            one = delta_s_oracle(EllipseOrbit(a=1.7, b=0.4), 0.1, alpha)
            # swapping axes is a quarter-period time shift of the same orbit
            swapped = -0.1 * PERIOD * np.mean(
                (0.4 ** 2 * np.cos(np.linspace(0, 2 * np.pi, 256, endpoint=False)) ** 2
                 + 1.7 ** 2 * np.sin(np.linspace(0, 2 * np.pi, 256, endpoint=False)) ** 2
                 ) ** alpha)
            assert one == pytest.approx(swapped, rel=1e-13)

    def test_scaling_collapse(self):
        # dS / sigma depends only on ltilde, across decades of energy.
        ltilde = 0.6
        values = []
        for scale in (0.1, 1.0, 10.0):
            r0 = math.sqrt(2.0 * scale)
            b_over_a = ltilde / (1.0 + math.sqrt(1.0 - ltilde ** 2))
            a = r0 / math.sqrt(1.0 + b_over_a ** 2)
            orbit = EllipseOrbit(a=a, b=a * b_over_a, omega=1.3)
            ds = delta_s_oracle(orbit, 0.05, 4)
            values.append(ds / sigma_alpha(orbit.energy, 0.05, 4, 1.3))
        assert np.ptp(values) <= 1e-12 * abs(values[0])


class TestDiameterExpansion:
    @pytest.mark.parametrize("alpha,a0", [(1, 1.0), (2, 1.5), (3, 2.5), (6, 231.0 / 16)])
    def test_gamma_form_equals_scaled_leading_coefficient(self, alpha, a0):
        params = SystemParams.single(3, 0.3, alpha, omega=1.3)
        energy = 2.7
        s0, correction = diameter_action_expansion(params, energy)
        assert s0 == pytest.approx(2.0 * math.pi * energy / 1.3, rel=1e-15)
        want = -sigma_alpha(energy, 0.3, alpha, 1.3) * a0
        assert correction == pytest.approx(want, rel=1e-12)

    def test_matches_time_integral_on_diameter(self):
        params = SystemParams.single(3, 0.02, 2, omega=1.0)
        energy = 1.8
        orbit = EllipseOrbit(a=math.sqrt(2.0 * energy), b=0.0)
        _, correction = diameter_action_expansion(params, energy)
        assert correction == pytest.approx(
            delta_s_oracle(orbit, 0.02, 2), rel=1e-12)
