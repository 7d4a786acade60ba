"""First-order perturbative action for even radial monomial perturbations.

The action change per primitive orbit of the unperturbed oscillator, the
orbit average of r^(2 alpha), is an even polynomial in the scaled angular
momentum ltilde = 2 L / (omega R0^2) with Legendre polynomial coefficients,
and a sum of positive terms in 1 - ltilde^2.  Coefficients are derived once
per order in exact integer arithmetic and cached.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .specfun import legendre_coefficients

__all__ = [
    "ActionPolynomial",
    "LegendreFormCheck",
    "PerturbationTerm",
    "SystemParams",
    "action_coefficients",
    "delta_s",
    "effective_frequency",
    "oscillator_strengths",
    "polynomial_delta_s",
    "sigma_alpha",
    "verify_legendre_form",
]


def _integer(value, what: str) -> int:
    """`value` as an int: an int, a numpy integer or an integral float."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):  # not a number, nan or inf
        pass
    raise DomainError(f"{what} must be an integer, got {value!r}")


class PerturbationTerm(NamedTuple):
    epsilon: float
    alpha: int


@dataclass(frozen=True)
class SystemParams:
    """Trap configuration: dimension, frequency, hbar and perturbation terms.

    The mass is fixed to 1; the oscillator length scale R0 = sqrt(2E)/omega
    is derived per energy rather than stored.
    """

    dim: int
    omega: float = 1.0
    hbar: float = 1.0
    terms: tuple[PerturbationTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "spatial dimension"))
        if self.dim < 2:
            raise DomainError(f"spatial dimension must be >= 2, got {self.dim}")
        if not 0 < self.omega < math.inf:
            raise DomainError(f"trap frequency must be finite and > 0, got {self.omega}")
        if not 0 < self.hbar < math.inf:
            raise DomainError(f"hbar must be finite and > 0, got {self.hbar}")
        terms = tuple(PerturbationTerm(float(e), _integer(a, "monomial order"))
                      for e, a in self.terms)
        for eps, alpha in terms:
            if alpha < 1:
                raise DomainError(f"monomial order must be >= 1, got {alpha}")
            if not math.isfinite(eps):
                raise DomainError(f"perturbation strength must be finite, got {eps}")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def single(cls, dim: int, epsilon: float, alpha: int, omega: float = 1.0,
               hbar: float = 1.0) -> "SystemParams":
        return cls(dim=dim, omega=omega, hbar=hbar,
                   terms=(PerturbationTerm(epsilon, alpha),))


def _shifted(values: list) -> list:
    """sum_j values[j] u^j in powers of 1 - u; the map is its own inverse."""
    n = len(values)
    return [(-1) ** m * sum(values[j] * math.comb(j, m) for j in range(m, n))
            for m in range(n)]


@dataclass(frozen=True)
class ActionPolynomial:
    """Coefficients a_j of the scaled action: -dS/sigma = sum_j a_j ltilde^(2j).
    Its float views are built once, read-only, and raise past the float range."""

    alpha: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.alpha // 2 + 1:
            raise DomainError(f"order {self.alpha} needs {self.alpha // 2 + 1} coefficients, "
                              f"got {len(self.coeffs)}")

    def _floats(self, values, name: str) -> np.ndarray:
        try:
            out = np.array([float(c) for c in values])
        except OverflowError:
            raise DomainError(f"order-{self.alpha} {name} leave the float range") from None
        out.setflags(write=False)
        return out

    @cached_property
    def float_coeffs(self) -> np.ndarray:
        return self._floats(self.coeffs, "coefficients a_j")

    @cached_property
    def v_coeffs(self) -> np.ndarray:
        """b_m of P = sum_m b_m (1 - ltilde^2)^m, each rounded once from integers
        over the common denominator of the a_j (a float a_j is exact as a Fraction)."""
        coeffs = [Fraction(c) for c in self.coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        nums = _shifted([c.numerator * (den // c.denominator) for c in coeffs])
        return self._floats((n / den for n in nums), "coefficients b_m")

    def scaled_value(self, ltilde):
        """sum_m b_m v^m by Horner in v = (1 - ltilde)(1 + ltilde): for a single
        order no term cancels, and P(1) = b_0 = 1 exactly."""
        lt = np.asarray(ltilde, dtype=float)
        v = (1.0 - lt) * (1.0 + lt)
        out = np.zeros_like(v)
        for b in self.v_coeffs[::-1]:
            out = out * v + b
        return out if out.ndim else float(out)


@lru_cache(maxsize=None)
def action_coefficients(alpha: int) -> ActionPolynomial:
    """Exact rational coefficients a_j for a single monomial of order alpha.

    The ellipse is r^2 = A + B cos(phi) with (B/A)^2 = 1 - ltilde^2 = v, and
    cos^(2m) averages to C(2m, m) / 4^m, so P = sum_m b_m v^m with every
    b_m = C(alpha, 2m) C(2m, m) / 4^m > 0; a_j = (-1)^j sum_{m>=j} b_m C(m, j).
    """
    if alpha < 1:
        raise DomainError(f"order must be >= 1, got {alpha}")
    half = alpha // 2
    scaled = [math.comb(alpha, 2 * m) * math.comb(2 * m, m) * 4 ** (half - m)
              for m in range(half + 1)]
    coeffs = tuple(Fraction(a, 4 ** half) for a in _shifted(scaled))
    return ActionPolynomial(alpha=alpha, coeffs=coeffs)


@dataclass(frozen=True)
class LegendreFormCheck:
    alpha: int
    matches: bool


def verify_legendre_form(alpha_max: int) -> list[LegendreFormCheck]:
    """Compare derived coefficients against ltilde^a P_a(1/ltilde), exactly.

    The right-hand side's coefficient of ltilde^(2j) is the coefficient of
    x^(alpha-2j) in P_alpha(x).  Failure is reported, not raised.
    """
    if alpha_max < 1:
        raise DomainError(f"alpha_max must be >= 1, got {alpha_max}")
    out = []
    for alpha in range(1, alpha_max + 1):
        derived = action_coefficients(alpha).coeffs
        legendre = legendre_coefficients(alpha)
        expected = tuple(legendre[alpha - 2 * j] for j in range(alpha // 2 + 1))
        out.append(LegendreFormCheck(alpha=alpha, matches=derived == expected))
    return out


def sigma_alpha(energy, epsilon: float, alpha: int, omega: float):
    """Action scale of the perturbation: eps * 2 pi E^alpha / omega^(2 alpha + 1),
    formed as eps 2 pi ((E / omega) / omega)^alpha / omega so that no power of
    omega must fit the float range; an array of energies gives an array.  A
    sigma outside the float range is a DomainError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            sigma = epsilon * 2.0 * math.pi * ((energy / omega) / omega) ** alpha / omega
    except OverflowError:  # a float's ** raises where an array's gives inf
        sigma = math.inf
    if not np.all(np.isfinite(sigma)):
        raise DomainError(f"the action scale sigma leaves the float range at eps={epsilon:g}, "
                          f"alpha={alpha}, omega={omega:g}")
    return sigma


def delta_s(poly: ActionPolynomial, sigma: float, ltilde: float) -> float:
    """First-order action change -sigma * sum_j a_j ltilde^(2j)."""
    if not 0.0 <= ltilde <= 1.0:
        raise DomainError(f"scaled angular momentum must lie in [0, 1], got {ltilde}")
    return -sigma * poly.scaled_value(ltilde)


def effective_frequency(params: SystemParams) -> float:
    """Trap frequency absorbing all harmonic (alpha=1) perturbation terms."""
    eps1 = sum(t.epsilon for t in params.terms if t.alpha == 1)
    try:
        radicand = params.omega ** 2 + 2.0 * eps1
    except OverflowError:
        raise DomainError(f"omega^2 leaves the float range at omega={params.omega:g}") from None
    if radicand <= 0:
        raise DomainError(
            f"harmonic terms invert the trap: omega^2 + 2*eps = {radicand}"
        )
    return math.sqrt(radicand)


def absorb_harmonic_terms(params: SystemParams) -> SystemParams:
    """Re-parametrize: fold alpha=1 terms into the frequency, keep the rest."""
    higher = tuple(t for t in params.terms if t.alpha >= 2)
    if len(higher) == len(params.terms):
        return params
    return SystemParams(dim=params.dim, omega=effective_frequency(params),
                        hbar=params.hbar, terms=higher)


def oscillator_strengths(params: SystemParams) -> tuple[dict[int, float], float]:
    """{alpha: eps'} and hbar omega for a system whose harmonic terms are absorbed:
    eps' = eps hbar^(alpha-1) / omega^(alpha+1), in oscillator units, from the merged
    strength of each order, by mantissa and exponent; orders that cancel drop out.
    An order, hbar omega or a nonzero eps' outside the float range is a DomainError."""
    merged: dict[int, float] = {}
    for eps, alpha in params.terms:
        merged[alpha] = merged.get(alpha, 0.0) + eps
    if any(alpha > sys.float_info.max for alpha in merged):  # exact int/float comparisons
        raise DomainError("the order alpha leaves the float range")
    (m_h, x_h), (m_w, x_w) = math.frexp(params.hbar), math.frexp(params.omega)
    strengths, unit = {}, params.hbar * params.omega
    for alpha, (m_e, x_e) in ((a, math.frexp(eps)) for a, eps in merged.items() if eps):
        try:  # the strength, or 2^y past alpha = 1000, can overflow
            y = (alpha - 1) * (math.log2(m_h) - math.log2(m_w)) - 2.0 * math.log2(m_w)
            strengths[alpha] = math.ldexp(m_e * 2.0 ** y,
                                          x_e + (alpha - 1) * x_h - (alpha + 1) * x_w)
        except OverflowError:
            strengths[alpha] = math.inf
    bad = [s for s in strengths.values() if not 0.0 < abs(s) < math.inf]
    if bad or not sys.float_info.min <= unit < math.inf:
        shown = [*bad, *strengths.values(), 0.0][0]  # the first strength at fault, if any
        raise DomainError(f"hbar omega={unit:g} or the strength eps hbar^(alpha-1) / "
                          f"omega^(alpha+1)={shown:g} leaves the float range")
    return strengths, unit


def polynomial_delta_s(params: SystemParams, energy: float) -> tuple[ActionPolynomial, float]:
    """Combined action polynomial for a polynomial perturbation at energy E.

    Returns (poly, sigma) with dS_total(ltilde) = -sigma * sum_j c_j ltilde^(2j)
    and sum_j c_j = 1, summing each monomial term linearly with its own action
    scale folded in; where sigma is 0, poly is the unit order-1 polynomial.
    The c_j are exact Fractions, the float weights sigma_t / sigma times each
    term's exact a_j, so the float views round the mixture once.  All terms
    must have alpha >= 2.  `pert_dos` keeps the terms apart; this is the
    independent per-energy view that checks it.
    """
    energy = float(energy)
    if not energy > 0:
        raise DomainError(f"energy must be > 0, got {energy}")
    if any(t.alpha < 2 for t in params.terms):
        raise DomainError("alpha=1 terms must be absorbed into the frequency first")
    sigmas = [sigma_alpha(energy, eps, alpha, params.omega) for eps, alpha in params.terms]
    sigma = sum(sigmas)
    if sigma == 0.0:
        return ActionPolynomial(alpha=1, coeffs=(1.0,)), 0.0
    max_alpha = max(t.alpha for t in params.terms)
    coeffs = [Fraction(0)] * (max_alpha // 2 + 1)
    for s, (_, alpha) in zip(sigmas, params.terms):
        weight = Fraction(s / sigma)
        for j, a in enumerate(action_coefficients(alpha).coeffs):
            coeffs[j] += weight * a
    return ActionPolynomial(alpha=max_alpha, coeffs=tuple(coeffs)), sigma
