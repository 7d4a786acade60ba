"""Independent references that only the tests call.

None of these is on a path of the package, the CLI, the scripts or the
benchmark: each is a second derivation the tests hold a kernel against.

- `double_factorial`, `i_coefficient` and `k_coefficient`: the parity-split
  double sum for the action coefficients, assembled term by term.
- `legendre_p`: Legendre polynomials by the three-term recurrence, exact for
  int and Fraction inputs.
- `diameter_action_expansion`: the diameter-orbit action correction in its
  Gamma-function form.
- `ho_spectrum` and `HoLevel`: the unperturbed oscillator levels and their
  binomial degeneracies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from hoshell.actionpoly import SystemParams
from hoshell.errors import DomainError


def double_factorial(n: int) -> int:
    """n!! = n(n-2)(n-4)...; empty products (-1)!! and 0!! are 1."""
    if n < -1:
        raise DomainError(f"double factorial needs n >= -1, got {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def legendre_p(alpha: int, x):
    """Legendre polynomial P_alpha(x) by the three-term recurrence.

    Exact inputs (int or Fraction) produce exact Fraction values; floats and
    numpy arrays go through float arithmetic.
    """
    if alpha < 0:
        raise DomainError(f"polynomial order must be >= 0, got {alpha}")
    exact = isinstance(x, (int, Fraction)) and not isinstance(x, bool)
    if exact:
        x = Fraction(x)
        one = Fraction(1)
    else:
        one = 1.0
    p_prev = one
    if alpha == 0:
        return p_prev if exact else p_prev * (x * 0 + 1.0)
    p_cur = x * one
    for n in range(1, alpha):
        p_prev, p_cur = p_cur, ((2 * n + 1) * x * p_cur - n * p_prev) / (n + 1)
    return p_cur


def i_coefficient(alpha: int, k: int) -> Fraction:
    """Trigonometric-integral weight alpha! (2k-1)!! (2a-2k-1)!! / (k! (a-k)! (2a)!!)."""
    if alpha < 1:
        raise DomainError(f"order must be >= 1, got {alpha}")
    if not 0 <= k <= alpha:
        raise DomainError(f"index k must lie in [0, {alpha}], got {k}")
    num = (math.factorial(alpha) * double_factorial(2 * k - 1)
           * double_factorial(2 * (alpha - k) - 1))
    den = (math.factorial(k) * math.factorial(alpha - k)
           * double_factorial(2 * alpha))
    return Fraction(num, den)


def k_coefficient(alpha: int, k: int, l: int, p: int) -> int:
    """binom(k,l) binom(alpha-k,p) [(-1)^l + (-1)^p]; zero for mixed parity."""
    if not 0 <= l <= k:
        raise DomainError(f"need 0 <= l <= k, got l={l}, k={k}")
    if not 0 <= p <= alpha - k:
        raise DomainError(f"need 0 <= p <= alpha-k, got p={p}, alpha-k={alpha - k}")
    return math.comb(k, l) * math.comb(alpha - k, p) * ((-1) ** l + (-1) ** p)


def diameter_action_expansion(params: SystemParams, energy: float
                              ) -> tuple[float, float]:
    """Leading action 2 pi E / omega of the primitive orbit and the
    first-order diameter-orbit correction

        -eps 2^(a+1) sqrt(pi) Gamma(a + 1/2) E^a / (Gamma(a+1) omega^(2a+1)),

    for a single monomial term."""
    if energy <= 0:
        raise DomainError(f"energy must be > 0, got {energy}")
    if len(params.terms) != 1:
        raise DomainError("diameter expansion handles a single monomial term")
    eps, alpha = params.terms[0]
    omega = params.omega
    s0 = 2.0 * math.pi * energy / omega
    correction = (-eps * 2.0 ** (alpha + 1) * math.sqrt(math.pi)
                  * math.gamma(alpha + 0.5) * energy ** alpha
                  / (math.gamma(alpha + 1.0) * omega ** (2 * alpha + 1)))
    return s0, correction


@dataclass(frozen=True)
class HoLevel:
    n: int
    energy: float
    degeneracy: int


def ho_spectrum(dim: int, omega: float, hbar: float, n_max: int) -> list[HoLevel]:
    """Unperturbed levels hbar omega (n + D/2) with binomial degeneracies."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    SystemParams(dim=dim, omega=omega, hbar=hbar)  # checks D >= 2, finite omega, hbar > 0
    return [
        HoLevel(n=n, energy=hbar * omega * (n + dim / 2.0),
                degeneracy=math.comb(n + dim - 1, dim - 1))
        for n in range(n_max + 1)
    ]
