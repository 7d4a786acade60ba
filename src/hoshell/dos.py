"""Oscillating density of states: exact oscillator limit, the perturbative
trace formula with Gaussian averaging, the factorized super-shell form for
D=3, and the analytic super-shell node positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actionpoly import SystemParams, absorb_harmonic_terms, action_coefficients, oscillator_strengths
from .errors import DomainError, UnsupportedMethodError
from .modfactor import Method, modulation

# pert_dos no longer calls these; they stay importable from this module
# because the benchmark's tracer (perfbench/tracer.py) patches them here.
from .actionpoly import polynomial_delta_s  # noqa: F401
from .modfactor import modulation_closed_form, modulation_quadrature  # noqa: F401

__all__ = [
    "DosCurve",
    "envelope_nodes",
    "ho_dos",
    "pert_dos",
    "supershell_factorized",
    "supershell_nodes",
]


@dataclass(frozen=True)
class DosCurve:
    """Density of states on an energy grid, split into smooth and oscillating."""

    energies: np.ndarray
    smooth: np.ndarray
    oscillating: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.energies) <= 0):
            raise DomainError("energy grid must be strictly increasing")

    @property
    def total(self) -> np.ndarray:
        return self.smooth + self.oscillating


# Largest (energy, k) grid of one pert_dos call: its modulation factors alone
# take 16 bytes per entry, 256 MiB here.
_MAX_GRID = 1 << 24


def _damping(width: float, k: np.ndarray) -> np.ndarray:
    """exp(-(w k pi)^2) for a width w in units of hbar omega."""
    if not 0.0 <= width < math.inf:
        raise DomainError(f"smoothing width must be finite and >= 0, got {width}")
    return np.exp(-((width * k * math.pi) ** 2))


def ho_dos(dim: int, omega: float, hbar: float, energies: np.ndarray,
           k_max: int = 200, width: float = 0.0) -> DosCurve:
    """Gaussian-averaged trace formula of the unperturbed oscillator.

    Uses the full product prefactor, so the k-sum reproduces the quantum
    spectrum as a train of Gaussians of weight equal to the degeneracies.
    """
    SystemParams(dim=dim, omega=omega, hbar=hbar)  # checks D >= 2, finite omega, hbar > 0
    energies = np.asarray(energies, dtype=float)
    shell = energies / (hbar * omega)
    pref = np.ones_like(shell)
    for j in range(1, dim):
        pref *= shell - dim / 2.0 + j
    pref /= hbar * omega * math.factorial(dim - 1)
    ks = np.arange(1, k_max + 1)
    damp = _damping(width / (hbar * omega), ks)
    signs = (-1.0) ** (dim * ks)
    phases = np.cos(2.0 * math.pi * np.outer(shell, ks))
    osc = pref * (2.0 * phases @ (signs * damp))
    return DosCurve(energies=energies, smooth=pref, oscillating=osc)


def pert_dos(params: SystemParams, energies: np.ndarray, k_max: int = 10,
             width: float | None = None, method: Method = "quadrature") -> DosCurve:
    """Perturbative trace formula on an energy grid, in e = E / (hbar omega).

    The smooth column is the leading Thomas-Fermi term
    E^(D-1) / ((D-1)! (hbar omega)^D); the oscillating column is

        2 * smooth * sum_{k=1}^{k_max} (-1)^(Dk) e^(-(w k pi / hbar omega)^2)
                         Re{ M_k exp(2 pi i k e) }.

    Harmonic terms are folded into an effective frequency, and each other
    order into its oscillator-unit strength eps', so M_k is one `modulation`
    call with a column sigma / hbar = 2 pi eps' e^alpha per order.  The phase
    of repetition k is z^k with z = exp(2 pi i e), so the k-sum is a
    polynomial in z, summed by Horner with one exponential per energy.  An
    energy <= 0, a grid of more than 2**24 (energy, k) entries, a D above
    1021, or an eps', hbar omega or smooth term outside the float range is a
    DomainError.
    """
    params = absorb_harmonic_terms(params)
    dim = params.dim
    strengths, unit = oscillator_strengths(params)
    energies = np.asarray(energies, dtype=float)
    if energies.size * k_max > _MAX_GRID:
        raise DomainError(f"{energies.size} energies x k_max {k_max} exceed the budget "
                          f"of {_MAX_GRID} (energy, k) entries")
    if dim > 1021:  # past it a mantissa power below can be subnormal
        raise DomainError(f"spatial dimension must be <= 1021 for the smooth term, got {dim}")
    # E^(D-1), (D-1)! and (hbar omega)^D can each leave the float range where
    # the quotient does not (D = 170, E = 70): it goes by mantissa and exponent.
    fact, (m_u, x_u) = math.factorial(dim - 1), math.frexp(unit)
    m_n, x_n = math.frexp(fact / (1 << fact.bit_length()) * m_u ** dim)
    m_e, x_e = np.frexp(energies)
    with np.errstate(over="ignore"):
        smooth = np.ldexp(m_e ** (dim - 1) / m_n,
                          x_e * (dim - 1) - x_n - fact.bit_length() - dim * x_u)
    if not np.all(np.isfinite(smooth)):
        raise DomainError(f"E^(D-1) / ((D-1)! (hbar omega)^D) leaves the float range "
                          f"at E={energies[~np.isfinite(smooth)][0]:g}")
    ks = np.arange(1, k_max + 1)
    weights = (-1.0) ** (dim * ks) * _damping(0.1 if width is None else width / unit, ks)
    if np.any(energies <= 0):
        raise DomainError(f"energy must be > 0, got {float(np.min(energies))}")
    e = energies / unit
    with np.errstate(over="ignore"):  # `modulation` rejects a sigma past the float range
        sigma_over_hbar = np.reshape([eps * 2.0 * math.pi * e ** alpha for alpha, eps
                                      in strengths.items()], (len(strengths), e.size))
    mods = modulation([action_coefficients(alpha) for alpha in strengths], sigma_over_hbar.T,
                      dim, k_max, method)
    z = np.exp(2j * math.pi * e)
    acc = weights[-1] * mods[:, -1]
    for k in range(k_max - 2, -1, -1):
        acc *= z
        acc += weights[k] * mods[:, k]
    acc *= z
    osc = 2.0 * smooth * acc.real
    return DosCurve(energies=energies, smooth=smooth, oscillating=osc)


def _supershell_setup(params: SystemParams):
    """(eps', alpha, a0, a1, hbar omega) for D=3 and a single order, 2 or 3,
    whose action polynomial is a0 + a1 ltilde^2; eps' is its strength in
    oscillator units."""
    params = absorb_harmonic_terms(params)
    strengths, unit = oscillator_strengths(params)
    if params.dim != 3 or len(strengths) > 1 or not set(strengths) <= {2, 3}:
        raise UnsupportedMethodError("factorized super-shell form needs D=3 and a single "
                                     "order-2 or order-3 monomial perturbation")
    if not strengths:
        raise DomainError("super-shell analysis needs a nonzero perturbation")
    ((alpha, eps),) = strengths.items()
    a0, a1 = action_coefficients(alpha).float_coeffs.tolist()
    return eps, alpha, a0, a1, unit


def supershell_factorized(params: SystemParams, energies: np.ndarray,
                          k_max: int = 10, width: float = 0.0) -> np.ndarray:
    """Factorized oscillating DOS for D=3 and orders 2, 3, in e = E / (hbar omega)
    and s = sigma / hbar = 2 pi eps' e^alpha:

        (e^(2-alpha) / (pi eps' a1 hbar omega))
        * sum_k ((-1)^k / k) cos(k [2 pi e - s (a0 + a1/2)]) sin(k s a1 / 2),

    with the optional per-k Gaussian damping of the averaged trace formula.
    """
    eps, alpha, a0, a1, unit = _supershell_setup(params)
    e = np.asarray(energies, dtype=float) / unit
    ks = np.arange(1, k_max + 1)
    damp = _damping(width / unit, ks)
    s = eps * 2.0 * math.pi * e ** alpha
    slow = np.sin(np.outer(s, ks) * a1 / 2.0)
    fast = np.cos(np.outer(2.0 * math.pi * e - s * (a0 + 0.5 * a1), ks))
    series = (fast * slow) @ (damp * (-1.0) ** ks / ks)
    return e ** (2 - alpha) / (math.pi * eps * a1) / unit * series


def supershell_nodes(params: SystemParams, s_max: int) -> list[float]:
    """Shell quantum numbers E/(hbar omega) where the beat envelope vanishes:
    sqrt(2 s / |eps'|) at order 2, (2 s / (3 |eps'|))^(1/3) at order 3."""
    eps, alpha, _, _, _ = _supershell_setup(params)
    if s_max < 1:
        raise DomainError(f"s_max must be >= 1, got {s_max}")
    out = [math.sqrt(2.0 * s / abs(eps)) if alpha == 2
           else (2.0 * s / (3.0 * abs(eps))) ** (1.0 / 3.0) for s in range(1, s_max + 1)]
    if not out[-1] < math.inf:  # nodes rise with s
        raise DomainError("super-shell nodes leave the float range at the "
                          f"oscillator-unit strength {eps:g}")
    return out


def envelope_profile(energies: np.ndarray, oscillating: np.ndarray,
                     shell_spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Shell-oscillation envelope: max |oscillating| over consecutive windows
    of one shell spacing.  Returns (window centers, envelope samples)."""
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0 or not 0.0 < shell_spacing < math.inf:
        raise DomainError(f"envelope needs energies and a finite spacing > 0, got "
                          f"{energies.size} energies and spacing {shell_spacing}")
    oscillating = np.asarray(oscillating, dtype=float)
    lo, hi = energies[0], energies[-1]
    n_windows = max(3, int(round((hi - lo) / shell_spacing)))
    edges = np.linspace(lo, hi, n_windows + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    env = np.empty(n_windows)
    for i in range(n_windows):
        sel = (energies >= edges[i]) & (energies <= edges[i + 1])
        env[i] = np.max(np.abs(oscillating[sel])) if np.any(sel) else np.nan
    return centers, env


def envelope_nodes(energies: np.ndarray, oscillating: np.ndarray,
                   shell_spacing: float) -> np.ndarray:
    """Locate beat nodes of the shell-oscillation envelope.

    A node is an interior local minimum of the windowed envelope that is
    below 0.3 times both flanking local maxima; this rejects the
    shallow ripple minima where only part of the repetition sum vanishes.
    Positions are refined by parabolic interpolation.
    """
    centers, env = envelope_profile(energies, oscillating, shell_spacing)
    n = len(env)
    nodes = []
    for i in range(1, n - 1):
        if not (env[i] < env[i - 1] and env[i] <= env[i + 1]):
            continue
        left = env[:i][env[:i] > env[i]]
        right = env[i + 1:][env[i + 1:] > env[i]]
        peak_left = np.max(left) if left.size else env[i - 1]
        peak_right = np.max(right) if right.size else env[i + 1]
        if env[i] > 0.3 * min(peak_left, peak_right):
            continue
        denom = env[i - 1] - 2.0 * env[i] + env[i + 1]
        shift = 0.5 * (env[i - 1] - env[i + 1]) / denom if denom > 0 else 0.0
        nodes.append(centers[i] + shift * (centers[1] - centers[0]))
    return np.asarray(nodes)
