"""Complex modulation factor of the perturbed trace formula.

Three mutually checking evaluations of

    M_k = (D-1) * integral_0^1  l^(D-2) exp(-i k sigma P(l) / hbar) dl,

where sigma P(l) = sum_t sigma_t P_t(l) sums the scaled action polynomials
P_t(l) = sum_j a_tj l^(2j) of the perturbation's terms: direct
Gauss-Kronrod quadrature on equal panels sized by the fastest local phase
k sum_t |sigma_t max P_t'(l)| / hbar, checked against the Gauss rule on the
same nodes, a hypergeometric closed form for two-coefficient polynomials,
and the end-point stationary-phase asymptotics.
All formulas are written in terms of the dimensionless x_t = k sigma_t / hbar.

`modulation` is the array entry point: M_1 ... M_kmax for every row of
sigma_t / hbar.  Every method is one array kernel: the quadrature is batched
over rows and harmonics, and the closed form and the SPA are array
expressions over the (row, k) grid, each x a_j summed over the terms.  For
the quartic and sextic cases the closed form is exactly the two end-point
terms of the circular (l = 1) and diameter (l = 0) orbits: exponentials for
odd D, an erf for even D.  The scalar functions are its per-point views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .actionpoly import ActionPolynomial
from .errors import AccuracyError, DomainError, PropertyViolationError, UnsupportedMethodError
from .specfun import QuadratureRule, expi, gauss_kronrod, gauss_legendre, kummer_1f1_axis

# The closed form reaches 1F1 through `kummer_1f1_axis`; the scalar view stays
# importable from this module because the benchmark's tracer
# (perfbench/tracer.py) patches it here.
from .specfun import kummer_1f1  # noqa: F401

__all__ = [
    "ModulationFactor",
    "StationaryPointAudit",
    "modulation",
    "modulation_closed_form",
    "modulation_quadrature",
    "spa_stationary_point_audit",
]

Method = Literal["quadrature", "closed_form", "spa"]

DEFAULT_ORDER = 32
# Panels of the 32-node Gauss-Legendre rule resolve a phase at pi nodes per
# wavelength, 0.5 nodes per radian of its fastest local rate, plus half a
# panel: a panel that spans much of [0, 1] sees the rate climb from slow to
# fast (alpha >= 9) or the weight l^(D-2) peak at l = 1 (D = 170), and at
# 0.5 nodes per radian alone its coarse/fine estimate reached 40 * 1e-8.
_NODES_PER_RADIAN = 0.5
_QUAD_TOL = 1e-8
_CHUNK_ENTRIES = 1 << 13  # (row, node) entries per quadrature chunk
# Gauss nodes per row at most, 1024 panels of 200 nodes: the Kronrod rule then
# adds n + 1 per panel of n, and a one-row chunk's temporaries take 16 MB.
_BUDGET_ORDER = 200
_MAX_NODES = (1 << 10) * _BUDGET_ORDER
# (row, k) entries per closed-form / SPA block: each complex temporary stays
# at 32 kB.  Whole-grid temporaries (20,010 entries for 2001 energies and
# k_max = 10) raised the peak RSS of a `dos --method closed` run by ~4 MB.
_GRID_CHUNK = 1 << 11


@dataclass(frozen=True)
class ModulationFactor:
    value: complex


def _check_k(k: int) -> None:
    if k == 0:
        raise DomainError("repetition index k must be nonzero")


def _nested_grid(polys: tuple, ends: np.ndarray, dim: int, rule: QuadratureRule,
                 panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gauss nodes of all panels, then the Kronrod nodes of each: P_t(l) -
    P_t(1) at them, one row per term, with P_t(1) in `ends`; the weights
    (D-1) w l^(D-2) of the Kronrod rule on all of them, and those of the
    Gauss rule on the first panels * n.  Weights are complex, so the harmonic
    sums are BLAS products."""
    n = rule.order
    kronrod = gauss_kronrod(n)
    if not np.array_equal(kronrod.nodes[:n], rule.nodes):
        raise DomainError(f"modulation quadrature needs a Gauss-Legendre rule, got another "
                          f"rule of order {n}")
    def regroup(a):  # each Kronrod panel holds the Gauss nodes, then its own
        a = a.reshape(panels, -1)
        return np.concatenate((a[:, :n], a[:, n:]), axis=None)

    # The first nodes are those of `rule.on_panels`, bit for bit.
    nodes, weights = map(regroup, kronrod.on_panels(0.0, 1.0, panels))
    gauss_weights = rule.on_panels(0.0, 1.0, panels)[1]
    values = np.array([poly.scaled_value(nodes) - end for poly, end in zip(polys, ends)])
    power = nodes ** (dim - 2)
    return (values, ((dim - 1) * weights * power).astype(complex),
            ((dim - 1) * gauss_weights * power[:gauss_weights.size]).astype(complex))


def _harmonic_sums(phase: np.ndarray, weights: np.ndarray, gauss_weights: np.ndarray,
                   k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_n weights[n] exp(i k phase[i, n]) for k = 1..k_max, on all nodes
    (the Kronrod rule) and on the first gauss_weights.size (the Gauss rule).

    The exponential is evaluated once per (row, node), by the table-driven
    `expi`; harmonic k is its k-th power by repeated multiplication, and both
    rules sum that one power.  The phase is taken relative to the circular
    orbit (l = 1), so it stays within `expi`'s bound; `_quadrature`
    multiplies that orbit's phase into the sums.
    """
    base = expi(phase)
    power = base.copy()
    gauss = power[:, :gauss_weights.size]
    fine = np.empty((len(phase), k_max), dtype=complex)
    coarse = np.empty_like(fine)
    for k in range(k_max):
        if k:
            power *= base
        fine[:, k] = power @ weights
        coarse[:, k] = gauss @ gauss_weights
    return fine, coarse


def _quadrature(polys: tuple, s: np.ndarray, dim: int, k_max: int,
                rule: QuadratureRule) -> np.ndarray:
    out = np.ones((len(s), k_max), dtype=complex)
    # Bound on the fastest local phase rate, sum_t k_max |sigma_t / hbar|
    # max |P_t'(l)|, with each |P_t'| read from chords of a dense probe.
    probe = np.linspace(0.0, 1.0, 513)
    slopes = [512.0 * float(np.max(np.abs(np.diff(poly.scaled_value(probe))))) for poly in polys]
    rate = np.sum(np.abs(k_max * s) * slopes, axis=1)
    panels = np.maximum(1, np.ceil(rate * _NODES_PER_RADIAN / rule.order + 0.5))
    if not np.all(panels * rule.order <= _MAX_NODES):  # also catches nan
        raise AccuracyError(
            f"modulation quadrature needs {np.max(panels):.4g} panels of order {rule.order} "
            f"(k_max={k_max}, max |sigma/hbar|={np.max(np.abs(s)):.6g}), over the budget "
            f"of {_MAX_NODES // _BUDGET_ORDER} panels of {_BUDGET_ORDER} nodes"
        )
    panels = panels.astype(int)
    active = np.any(s != 0.0, axis=1)
    # The integrand's phase is taken relative to the circular orbit (l = 1), so
    # |phase| <= sum_t |sigma_t / hbar| (max P_t - min P_t), about rate / k_max:
    # within the node budget that is 4.1e5 rad, inside `expi`'s 2^21.  The
    # circular-orbit factor exp(-i k sum_t sigma_t P_t(1) / hbar) multiplies
    # each row's sums afterwards; the Gauss/Kronrod check reads the same before it.
    ends = np.array([poly.scaled_value(1.0) for poly in polys])
    ks = np.arange(1, k_max + 1)
    for count in sorted(set(panels[active].tolist())):
        rows = np.flatnonzero(active & (panels == count))
        values, weights, gauss_weights = _nested_grid(polys, ends, dim, rule, count)
        chunk = max(1, _CHUNK_ENTRIES // len(weights))  # nodes per row, not terms
        for start in range(0, len(rows), chunk):
            sel = rows[start:start + chunk]
            # np.dot, not @: with one term, @ takes a loop without BLAS.
            fine, coarse = _harmonic_sums(np.dot(-s[sel], values), weights, gauss_weights, k_max)
            err = np.abs(fine - coarse)
            limit = _QUAD_TOL * np.maximum(1.0, np.abs(fine))
            if np.any(err > limit):
                i, k = np.unravel_index(np.argmax(err / limit), err.shape)
                xs = ", ".join(f"{x:.6g}" for x in (k + 1) * s[sel][i])
                raise AccuracyError(
                    f"modulation quadrature error estimate {err[i, k]:.3e} exceeds "
                    f"{_QUAD_TOL:.0e}; raise the rule order or panel count "
                    f"(order={rule.order}, panels={count}, x={xs})"
                )
            out[sel] = fine * np.exp(-1j * np.outer(np.dot(s[sel], ends), ks))
    return out


def modulation_quadrature(poly: ActionPolynomial, sigma_over_hbar: float,
                          dim: int, k: int,
                          rule: QuadratureRule | None = None) -> ModulationFactor:
    """M_k by Gauss-Kronrod quadrature of the one-dimensional integral: the
    one-point view of `modulation` at x = k sigma / hbar.

    The interval is split into equal panels, 0.5 nodes per radian of the
    fastest local phase x max |P'(l)| plus half a panel; the returned value
    is the (2n+1)-point Kronrod extension of the n-point Gauss rule on them,
    and its difference from the Gauss rule on the shared nodes serves as the
    error estimate.
    """
    _check_k(k)
    value = modulation(poly, k * sigma_over_hbar, dim, 1, "quadrature", rule)[0, 0]
    return ModulationFactor(complex(value))


def _closed_form(polys: tuple, x: np.ndarray, dim: int) -> np.ndarray:
    for poly in polys:
        if len(poly.coeffs) > 2:
            raise UnsupportedMethodError(
                f"closed form needs at most two coefficients (orders 2 and 3); "
                f"order {poly.alpha} has {len(poly.coeffs)} - use quadrature"
            )
    a0, a1 = np.array([[*poly.float_coeffs, 0.0][:2] for poly in polys]).T
    return np.exp(-1j * (x @ (a0 + a1))) * kummer_1f1_axis((dim + 1) / 2.0, x @ a1)


def modulation_closed_form(poly: ActionPolynomial, sigma_over_hbar: float,
                           dim: int, k: int) -> ModulationFactor:
    """Hypergeometric closed form, valid for two-coefficient action polynomials:

        exp(-i x (a0+a1)) [1 + 2z/(D+1) + 4 z^2 1F1(1; (D+5)/2; z) / ((D+1)(D+3))]

    with z = i x a1 and x = k sigma / hbar.  Evaluated through the contiguous
    contraction exp(-i x a0) exp(-z) 1F1(1; (D+1)/2; z), which is the same
    function but free of the bracket's large-|z| cancellation.  The one-point
    view of the kernel behind `modulation`.
    """
    _check_k(k)
    value = modulation(poly, k * sigma_over_hbar, dim, 1, "closed_form")[0, 0]
    return ModulationFactor(complex(value))


def _spa(polys: tuple, x: np.ndarray, dim: int) -> np.ndarray:
    """End-point stationary-phase asymptotics, written for one term; x has
    shape (row, k, term), and each x a_j or x b_m is a sum over the terms.
    The circular end point l=1 contributes i exp(-i x P(1))/(x P'(1)), with
    P(1) = b_0 and P'(1) = -2 b_1 from `v_coeffs` (1 and alpha(1-alpha)/2 for
    one order); the diameter end point l=0 contributes the Fresnel-type moment
    Gamma(s)/2 |x a1|^(-s) exp(-i (x a0 + sign(x a1) s pi/2)) with s = (D-1)/2,
    the principal branch of (1/(x a1))^s; x P(1) stays clear of the rounding of x a0."""
    if any(len(poly.coeffs) < 2 for poly in polys):
        raise UnsupportedMethodError("SPA needs a non-constant action polynomial")
    w = x @ [poly.float_coeffs[1] for poly in polys]
    if np.any(w == 0.0):
        raise DomainError("SPA needs sigma * a1 * k != 0")
    x_slope = x @ [-2.0 * poly.v_coeffs[1] for poly in polys]
    if np.any(x_slope == 0.0):
        raise DomainError("degenerate upper end point: P'(1) = -2 b_1 vanishes")
    s = 0.5 * (dim - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # |w|^(-s) at a tiny x; checked below
        upper = 1j * np.exp(-1j * (x @ [poly.v_coeffs[0] for poly in polys])) / x_slope
        lower = (0.5 * math.gamma(s) * np.abs(w) ** (-s)
                 * np.exp(-1j * (x @ [poly.float_coeffs[0] for poly in polys]
                                 + np.sign(w) * s * math.pi / 2.0)))
        out = (dim - 1) * (upper + lower)
    if not np.all(np.isfinite(out)):
        xs = ", ".join(f"{v:g}" for v in x[~np.isfinite(out)][0])
        raise DomainError(f"SPA end-point terms leave the float range at x = k sigma / hbar = {xs}")
    return out


_KERNELS = {"closed_form": _closed_form, "spa": _spa}


def modulation(poly, sigma_over_hbar, dim: int, k_max: int, method: Method,
               rule: QuadratureRule | None = None) -> np.ndarray:
    """M_1 ... M_kmax for every row of sigma / hbar.

    `poly` is a sequence of per-term polynomials P_t, with one column of
    sigma_t / hbar per term in a (rows, terms) array: a row's phase is
    sum_t sigma_t P_t(l) / hbar.  One ActionPolynomial with a scalar or 1-D
    array of sigma / hbar is the one-term case.  Returns a complex array of
    shape (rows, k_max); rows whose every sigma_t is 0 are exactly 1 for
    every method.  "quadrature" sizes the panels of each row for the fastest
    local phase of its highest harmonic, evaluates exp(-i sum_t sigma_t
    (P_t(l) - P_t(1)) / hbar) once per (row, node) with `specfun.expi`,
    reaches harmonic k by repeated multiplication, and multiplies in the
    circular-orbit phase exp(-i k sum_t sigma_t P_t(1) / hbar) once per
    (row, k).  `rule` is the n-point Gauss-Legendre rule on each panel (any
    other rule is a DomainError), and its (2n+1)-point Kronrod extension
    (`specfun.gauss_kronrod`) reuses its nodes: every exponential serves both
    sums, the Kronrod sum is returned,
    and |Kronrod - Gauss| <= 1e-8 max(1, |Kronrod|) is checked for every
    (row, k).  A row that needs more Gauss nodes than 1024 panels of 200 is
    an AccuracyError.
    "closed_form" and "spa" evaluate their formulas as array expressions
    over the (row, k) grid, in blocks of rows.  `rule` applies to the
    quadrature only.
    """
    if dim < 2:
        raise DomainError(f"spatial dimension must be >= 2, got {dim}")
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    s = np.asarray(sigma_over_hbar, dtype=float)
    if isinstance(poly, ActionPolynomial):  # the one-term case
        poly, s = [poly], (np.reshape(s, (-1, 1)) if s.ndim <= 1 else s)
    polys = tuple(poly)
    if s.ndim != 2 or s.shape[1] != len(polys):
        raise DomainError(f"sigma / hbar needs one column per term, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise DomainError("sigma / hbar must be finite")
    if method == "quadrature":
        return _quadrature(polys, s, dim, k_max, rule or gauss_legendre(DEFAULT_ORDER))
    if method not in _KERNELS:
        raise UnsupportedMethodError(f"unknown modulation method {method!r}")
    out = np.ones((len(s), k_max), dtype=complex)
    rows = np.flatnonzero(np.any(s != 0.0, axis=1))
    ks = np.arange(1, k_max + 1)
    step = max(1, _GRID_CHUNK // k_max)
    for start in range(0, len(rows), step):
        sel = rows[start:start + step]
        out[sel] = _KERNELS[method](polys, s[sel, None, :] * ks[:, None], dim)
    return out


@dataclass(frozen=True)
class StationaryPointAudit:
    min_abs_slope: float
    max_derivative_root: float


def spa_stationary_point_audit(poly: ActionPolynomial) -> StationaryPointAudit:
    """Certify that the phase has no stationary point in (0, 1], or raise a
    PropertyViolationError.

    Scans the reduced slope -2 sum_{m>=1} m b_m v^(m-1), v = 1 - l^2, for sign
    changes on a dense grid (for one order its terms share a sign) and,
    independently, checks that every root of the derivative of the matching
    Legendre polynomial lies strictly inside (-1, 1), so the slope cannot
    vanish for 1/l >= 1.
    """
    if poly.alpha < 2:
        raise DomainError(f"audit needs order >= 2, got {poly.alpha}")
    b = poly.v_coeffs
    grid = np.linspace(1e-5, 1.0, 100_000)  # steps of 1e-5 from l = 1e-5
    v = (1.0 - grid) * (1.0 + grid)
    reduced = np.zeros_like(grid)
    for m in range(len(b) - 1, 0, -1):
        reduced = reduced * v - 2.0 * m * b[m]
    signs = np.sign(reduced)
    root_free = bool(np.all(signs == signs[-1]) and np.all(signs != 0.0))
    # Independent certificate: slope is proportional to l^(alpha-1) P'_{alpha-1}(1/l).
    basis = np.zeros(poly.alpha)
    basis[-1] = 1.0
    deriv_roots = np.polynomial.legendre.legroots(np.polynomial.legendre.legder(basis))
    max_root = float(np.max(np.abs(deriv_roots))) if deriv_roots.size else 0.0
    if not (root_free and max_root < 1.0):
        raise PropertyViolationError(
            f"stationary point detected inside (0, 1] for order {poly.alpha}: "
            f"scan root-free={root_free}, max |root of P'| = {max_root}"
        )
    return StationaryPointAudit(min_abs_slope=float(np.min(np.abs(reduced))),
                                max_derivative_root=max_root)
