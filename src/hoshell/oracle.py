"""Ground-truth classical mechanics: symplectic trajectory integration for
the perturbed trap, generalized angular momentum, and direct time-quadrature
of the first-order action integral over unperturbed ellipse orbits.

The action oracle always integrates over the unperturbed ellipse, as
first-order perturbation theory prescribes; the trajectory integrator exists
for conservation checks and period-shift sanity only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actionpoly import SystemParams
from .errors import DomainError, StepSizeError

__all__ = [
    "EllipseOrbit",
    "PhaseState",
    "Trajectory",
    "angular_momentum",
    "delta_s_oracle",
    "integrate_orbit",
]


@dataclass(frozen=True)
class EllipseOrbit:
    """Unperturbed orbit with finite semi-axes a >= b >= 0 at a finite
    frequency omega > 0."""

    a: float
    b: float
    omega: float = 1.0

    def __post_init__(self):
        if not (math.inf > self.a >= self.b >= 0.0) or self.a <= 0.0:
            raise DomainError(f"need finite a >= b >= 0 with a > 0, got a={self.a}, b={self.b}")
        if not 0 < self.omega < math.inf:
            raise DomainError(f"frequency must be finite and > 0, got {self.omega}")

    @property
    def r0_squared(self) -> float:
        return self.a ** 2 + self.b ** 2

    @property
    def energy(self) -> float:
        return 0.5 * self.omega ** 2 * self.r0_squared

    @property
    def angular_momentum(self) -> float:
        return self.omega * self.a * self.b

    @property
    def ltilde(self) -> float:
        return 2.0 * self.a * self.b / self.r0_squared


@dataclass(frozen=True)
class PhaseState:
    q: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.shape != p.shape:
            raise DomainError("position and momentum must share a shape")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise DomainError("phase-space components must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    positions: np.ndarray  # (steps+1, D)
    momenta: np.ndarray    # (steps+1, D)
    energies: np.ndarray


def _force(params: SystemParams, q: np.ndarray) -> np.ndarray:
    f = -params.omega ** 2 * q
    r2 = np.float64(q @ q)  # np scalar: overflow saturates to inf, not raises
    for eps, alpha in params.terms:
        f -= 2.0 * alpha * eps * r2 ** (alpha - 1) * q
    return f


def _energy(params: SystemParams, q: np.ndarray, p: np.ndarray) -> float:
    r2 = np.float64(q @ q)
    e = 0.5 * np.float64(p @ p) + 0.5 * params.omega ** 2 * r2
    for eps, alpha in params.terms:
        e += eps * r2 ** alpha
    return float(e)


# Composition weights turning the velocity-Verlet kernel into a 4th-order
# symplectic scheme (triple-jump splitting).
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1


def integrate_orbit(params: SystemParams, initial: PhaseState, t_end: float,
                    dt: float) -> Trajectory:
    """Fixed-step 4th-order symplectic integration of the perturbed trap.

    Each step composes three velocity-Verlet substeps with the triple-jump
    weights, preserving the splitting structure of the Hamiltonian; the
    force closing one substep opens the next, so a step costs three forces.
    """
    if not (0 < dt < math.inf and math.isfinite(t_end / dt)):
        raise DomainError(f"need a finite dt > 0 and t_end / dt, got t_end={t_end}, dt={dt}")
    n_steps = max(1, round(t_end / dt))
    q = initial.q.copy()
    p = initial.p.copy()
    try:  # numpy raises ValueError for a shape past np.intp, MemoryError past memory
        qs = np.empty((n_steps + 1, q.size))
        ps = np.empty((n_steps + 1, q.size))
        es = np.empty(n_steps + 1)
    except (ValueError, MemoryError):
        raise DomainError(f"t_end={t_end} over dt={dt} asks for {n_steps:.3g} steps; "
                          "their trajectory arrays do not fit in memory") from None
    qs[0], ps[0], es[0] = q, p, _energy(params, q, p)
    e0 = es[0]
    scale = abs(e0) if e0 != 0 else 1.0
    # Divergence is detected by the drift check; let overflow saturate quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        f = _force(params, q)
        for i in range(1, n_steps + 1):
            for w in (_W1, _W0, _W1):
                h = w * dt
                p = p + 0.5 * h * f
                q = q + h * p
                f = _force(params, q)  # also opens the next substep
                p = p + 0.5 * h * f
            qs[i], ps[i] = q, p
            es[i] = _energy(params, q, p)
            if not np.isfinite(es[i]) or abs(es[i] - e0) > 1e-3 * scale:
                raise StepSizeError(
                    f"energy drifted by {abs(es[i] - e0):.3e} after {i} steps; "
                    f"reduce dt={dt}"
                )
    times = initial.t + dt * np.arange(n_steps + 1)
    return Trajectory(times=times, positions=qs, momenta=ps, energies=es)


def angular_momentum(state: PhaseState) -> tuple[np.ndarray, float]:
    """All pairwise components p_j q_k - p_k q_j (j < k) and the magnitude,
    which satisfies |L|^2 = |q|^2 |p|^2 - (q . p)^2."""
    q, p = state.q, state.p
    dim = q.size
    comps = np.array([
        p[j] * q[k] - p[k] * q[j]
        for j in range(dim) for k in range(j + 1, dim)
    ])
    return comps, float(np.sqrt(np.sum(comps ** 2)))


def delta_s_oracle(orbit: EllipseOrbit, epsilon: float, alpha: int) -> float:
    """First-order action change -eps * integral over one period of
    [a^2 cos^2(wt) + b^2 sin^2(wt)]^alpha dt, by the periodic trapezoidal
    rule on 256 nodes (exact for this trigonometric polynomial of degree
    2 alpha while alpha < 128)."""
    if alpha < 1:
        raise DomainError(f"order must be >= 1, got {alpha}")
    period = 2.0 * math.pi / orbit.omega
    s = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    integrand = (orbit.a ** 2 * np.cos(s) ** 2 + orbit.b ** 2 * np.sin(s) ** 2) ** alpha
    return -epsilon * period * float(np.mean(integrand))
