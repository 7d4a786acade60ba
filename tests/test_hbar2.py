"""The exact hbar^2 law: first-order quantum shifts check the action polynomial.

In oscillator units the radial level (n_r, l) of the D-dimensional oscillator
has E0 = 2 n_r + nu + 1, with the Langer-shifted angular momentum
nu = l + D/2 - 1.  The first-order quantum shift of that level per unit
strength of r^(2 alpha) is Q = <n_r| X^alpha |n_r>, X the matrix of r^2 in
the radial basis.  Its torus average is C = E0^alpha P(nu / E0), P the action
polynomial.  R = Q - C is a polynomial of total degree exactly alpha - 2 in
(E0, nu): the hbar^2 correction (Brack & Bhaduri, Semiclassical Physics,
1997, ch. 2-3).  Along a line in (n_r, l) both E0 and nu are affine, so the
(alpha-1)-th finite difference of R vanishes exactly.

A diagonal similarity keeps the diagonal of X^alpha, so X is taken as the
rational tridiagonal with diagonal 2k + nu + 1, superdiagonal 1 and
subdiagonal k (k + nu).  nu is an integer or a half-integer, so everything is
exact in Fractions; a wrong coefficient of P leaves a degree-alpha part that
no longer cancels.
"""

import math
from fractions import Fraction

import pytest

from hoshell.actionpoly import action_coefficients


def _moment(alpha: int, n_r: int, nu: Fraction) -> Fraction:
    """Q = <n_r| X^alpha |n_r>.  A path of alpha steps from n_r back to n_r
    stays below n_r + alpha//2 + 1, so X cut there gives it exactly."""
    size = n_r + alpha // 2 + 1
    v = [Fraction(0)] * size
    v[n_r] = Fraction(1)
    for _ in range(alpha):
        v = [(2 * k + nu + 1) * v[k]
             + (v[k + 1] if k + 1 < size else 0)
             + (k * (k + nu) * v[k - 1] if k else 0)
             for k in range(size)]
    return v[n_r]


def _torus_average(coeffs, alpha: int, n_r: int, nu: Fraction) -> Fraction:
    """C = E0^alpha P(nu / E0) = sum_j a_j nu^(2j) E0^(alpha - 2j)."""
    e0 = 2 * n_r + nu + 1
    return sum(a * nu ** (2 * j) * e0 ** (alpha - 2 * j) for j, a in enumerate(coeffs))


def _remainder(coeffs, alpha: int, dim: int, n_r: int, l: int) -> Fraction:
    nu = l + Fraction(dim, 2) - 1
    return _moment(alpha, n_r, nu) - _torus_average(coeffs, alpha, n_r, nu)


def _difference(values: list, order: int) -> Fraction:
    """The order-th forward difference at the first of `values`."""
    return sum((-1) ** (order - i) * math.comb(order, i) * values[i] for i in range(order + 1))


def _lines(alpha: int):
    """(start, step) in (n_r, l): n_r alone, l alone, both, and n_r up with l
    down from 2 alpha.  Each takes alpha points, all with l >= 0."""
    return [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 2), (1, 1)), ((0, 2 * alpha), (1, -1))]


def _line_remainders(coeffs, alpha: int, dim: int, start, step) -> list:
    (n0, l0), (dn, dl) = start, step
    return [_remainder(coeffs, alpha, dim, n0 + t * dn, l0 + t * dl) for t in range(alpha)]


@pytest.mark.parametrize("dim", range(2, 7))
@pytest.mark.parametrize("alpha", range(2, 13))
def test_quantum_minus_torus_shift_has_degree_alpha_minus_2(alpha, dim):
    coeffs = action_coefficients(alpha).coeffs
    lines = [_line_remainders(coeffs, alpha, dim, *line) for line in _lines(alpha)]
    assert all(_difference(r, alpha - 1) == 0 for r in lines)
    assert any(_difference(r, alpha - 2) != 0 for r in lines)


@pytest.mark.parametrize("alpha,want", [(2, Fraction(1, 2)), (3, Fraction(21, 4))])
def test_hbar2_term_at_the_lowest_level(alpha, want):
    # R_2 = 1/2 and R_3 = 7 E0 / 2, at n_r = 0 and nu = 1/2 (D = 3, l = 0).
    assert _remainder(action_coefficients(alpha).coeffs, alpha, 3, 0, 0) == want


def test_a_wrong_coefficient_breaks_the_law():
    # The check has teeth: one coefficient of P off by 2^-10 leaves a
    # degree-alpha part in Q - C.
    alpha = 4
    coeffs = list(action_coefficients(alpha).coeffs)
    coeffs[1] += Fraction(1, 1024)
    lines = [_line_remainders(coeffs, alpha, 3, *line) for line in _lines(alpha)]
    assert any(_difference(r, alpha - 1) != 0 for r in lines)
