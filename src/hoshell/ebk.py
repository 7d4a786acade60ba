"""Non-perturbative reference pipeline: torus-quantized radial spectra,
angular degeneracies, Gaussian-smoothed level densities, and the smooth
Thomas-Fermi density of states with its turning-point solve.  It computes in
oscillator units, hbar = omega = 1 (energies in hbar omega, actions in hbar,
lengths in sqrt(hbar/omega)); only the public entry points convert.

Radial integrals work in u = r^2, where the momentum polynomial
Q(u) = 2 E u - u^2 - 2 eps u^(alpha+1) - L^2 has simple roots at the
turning points; mapping u = u_mid + du sin(theta) absorbs both square-root
end points.  Kernels take arrays of rows (E, L^2), each inside the window of
its effective potential: above the well bottom, below any barrier top.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .actionpoly import SystemParams, absorb_harmonic_terms, oscillator_strengths
from .errors import (
    AccuracyError,
    DomainError,
    ForeignLevelsError,
    NoBoundStateError,
    TruncationWarning,
)
from .specfun import chebyshev_lobatto, gauss_kronrod, gauss_legendre, rising_roots

__all__ = [
    "EbkLevel",
    "angular_degeneracy",
    "ebk_dos",
    "ebk_energy",
    "enumerate_levels",
    "outer_turning_point",
    "radial_action",
    "tf_smooth",
]

_FIRST_ORDER = 24
_ACTION_ORDER = 120
# Rows per block of the action kernel: bounds every (rows x nodes) temporary,
# to 247 KB on the 241 nodes of the Gauss-Kronrod fallback.  Blocks of 256
# rows on a 240-node rule, two such temporaries freed per block, let glibc trim
# the heap top on every block, which then faulted its pages back in (about
# 7,000 minor faults per 8,001-energy tf_smooth call, against 500).  Wider
# action blocks raise the peak memory of an enumeration and do not run faster.
_ROW_CHUNK = 128
# tf_smooth's blocks hold _ROW_CHUNK x 360 entries at any node count, 360 being
# the most nodes an exact even-D rung takes: 940 rows on the 49-node first
# rung, 191 on the fallback.
_TF_BLOCK_ENTRIES = _ROW_CHUNK * 3 * _ACTION_ORDER
_MAX_STEPS = 200
_ULP = float(np.finfo(float).eps)
# Below this energy (in hbar omega) the terms 2 E u and u^2 ~ 4 E^2 of Q(u) at
# the outer turning point leave the normal float range, and the root cannot
# meet its 1e-12 E residual (it failed up to 1.3e-155); above _E_FINITE they
# overflow.
_E_NORMAL = math.sqrt(sys.float_info.min)
_E_FINITE = 0.5 * math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class EbkLevel:
    n_r: int
    l: int
    energy: float
    degeneracy: int


def angular_degeneracy(dim: int, l: int) -> int:
    """Multiplicity of angular momentum l on the (D-1)-sphere:
    (2l + D - 2)(l + D - 3)! / ((D - 2)! l!), with the l = 0 state counting 1."""
    if dim < 2:
        raise DomainError(f"spatial dimension must be >= 2, got {dim}")
    if l < 0:
        raise DomainError(f"angular momentum must be >= 0, got {l}")
    if l == 0:
        return 1
    return math.comb(l + dim - 2, dim - 2) + math.comb(l + dim - 3, dim - 2)


class _Trap(NamedTuple):
    """A system resolved once into oscillator units (hbar = omega = 1), one monomial left."""

    dim: int
    eps: float
    alpha: int

    def l_eff(self, l):
        return l + 0.5 * (self.dim - 2)

    def target(self, n_r):
        return 2.0 * math.pi * (n_r + 0.5)


def _resolve(params: SystemParams) -> tuple[_Trap, float, float]:
    """The trap in oscillator units with the hbar and hbar omega that convert back."""
    params = absorb_harmonic_terms(params)
    strengths, unit = oscillator_strengths(params)
    if len(strengths) > 1:
        raise DomainError("reference pipeline handles a single monomial term")
    # A harmonic trap takes alpha = 2, so that no kernel forms 0 * u^alpha = 0 * inf.
    ((alpha, eps_u),) = strengths.items() or [(2, 0.0)]
    # No kernel forms a power above u^(alpha+1) at the zero of g past the barrier.
    if eps_u < 0 and (alpha + 1) / (alpha - 1) * -math.log(2.0 * alpha * -eps_u) > 709.0:
        raise DomainError(f"the barrier of strength {eps_u:g} lies beyond the float range")
    return _Trap(params.dim, eps_u, alpha), params.hbar, unit


def _physical(values, unit: float, what: str) -> np.ndarray:
    """Kernel results times their physical unit; each must stay finite."""
    with np.errstate(over="ignore"):
        out = np.multiply(values, unit)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{what} leaves the float range")
    return out


def _safe_newton(func, lo, hi, x, rising):
    """Elementwise root of func(u) -> (value, slope) on brackets [lo, hi], where
    `rising` rows are negative below the root (rtsafe, Numerical Recipes 9.4):
    steps leaving the bracket bisect; done at a correction or bracket of ulps."""
    lo, hi, x = (np.array(a, dtype=float) for a in np.broadcast_arrays(lo, hi, x))
    for _ in range(_MAX_STEPS):
        val, slope = func(x)
        below = (val < 0) == rising
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - val / slope
        tol = 4.0 * _ULP * np.abs(x)
        done = (np.abs(newton - x) <= tol) | (hi - lo <= tol) | (val == 0)
        if done.all():
            return x
        x = np.where(done, x, np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi)))
    raise AccuracyError("turning-point solve did not converge")


class _Window(NamedTuple):
    """Well bottom and barrier top (inf for eps >= 0) per row; nan if open."""

    u_well: np.ndarray
    e_well: np.ndarray
    u_top: np.ndarray
    e_top: np.ndarray

    def take(self, rows) -> "_Window":
        return _Window(*(a[rows] for a in self))


def _window(trap: _Trap, l2) -> _Window:
    """Stationary points of V_eff(u) = u / 2 + eps u^alpha + L^2 / (2 u):
    roots of g(u) = u^2 + 2 alpha eps u^(alpha+1) - L^2, at energies
    E = u + (alpha+1) eps u^alpha.  For eps < 0 the well bottom and the
    barrier top straddle the hump of g, which must rise above zero."""
    eps, a = trap.eps, trap.alpha

    def g(u):
        return (u * u + 2.0 * a * eps * u ** (a + 1) - l2,
                2.0 * u + 2.0 * a * (a + 1) * eps * u ** a)

    def energy(u):
        return u + (a + 1) * eps * u ** a

    u_harm = np.sqrt(l2)
    if eps >= 0:
        # g is convex and rising, and >= 0 at u_harm and at u_eps, where the
        # strength term alone reaches L^2 (g = u_eps^2): Newton from the lower
        # falls monotonically onto the root.
        with np.errstate(over="ignore"):  # a tiny eps: inf loses the minimum
            u_start = u_harm if eps == 0 else np.minimum(
                u_harm, (l2 / (2.0 * a * eps)) ** (1.0 / (a + 1)))
        u_well = _safe_newton(g, 0.0, u_start, u_start, True)
        inf = np.full(l2.shape, np.inf)
        return _Window(u_well, energy(u_well), inf, inf)
    u_hump = (1.0 / (a * (a + 1) * -eps)) ** (1.0 / (a - 1))
    u_well = _safe_newton(g, 0.0, u_hump, np.minimum(u_harm, u_hump), True)
    # g(u_zero) = -L^2 <= 0 past the hump
    u_zero = np.full(l2.shape, (1.0 / (2.0 * a * -eps)) ** (1.0 / (a - 1)))
    u_top = _safe_newton(g, u_hump, u_zero, u_zero, False)
    open_ = ~(u_hump ** 2 * (a - 1) / (a + 1) > l2)
    u_well[open_] = u_top[open_] = np.nan
    return _Window(u_well, energy(u_well), u_top, energy(u_top))


def _momentum(trap: _Trap, e, l2):
    """Q(u) = 2 E u - u^2 - 2 eps u^(alpha+1) - L^2 per row, with its slope."""
    eps, a = trap.eps, trap.alpha

    def q(u):
        # u ** a * u, not u ** (a + 1): numpy squares fast but takes the
        # generic power for a cube.
        ua = u ** a
        return (2.0 * e * u - u * u - 2.0 * eps * ua * u - l2,
                2.0 * e - 2.0 * u - 2.0 * eps * (a + 1) * ua)
    return q


def _outer_bracket(trap: _Trap, e, l2, u_top):
    """The harmonic outer root u_plus of Q, and the top of the outer root's
    bracket: the barrier top, or (eps > 0) where the strength term alone
    reaches E."""
    eps, a = trap.eps, trap.alpha
    u_plus = e + np.sqrt(np.maximum(e * e - l2, 0.0))
    with np.errstate(over="ignore"):  # a tiny eps > 0: inf loses the minimum
        hi_out = (u_top if eps < 0 else u_plus if eps == 0
                  else np.minimum(u_plus, (e / eps) ** (1.0 / a)))
    return u_plus, hi_out


def _turning_points(trap: _Trap, e, l2, win: _Window, start=None):
    """Roots u_in below the well bottom and u_out between it and the barrier
    top, in one pass.  For eps >= 0, Q is concave and below its harmonic part,
    so Newton from the harmonic roots moves monotonically onto the true ones.
    `start`, the roots (u_in, u_out) at a nearby energy, replaces the
    harmonic roots as the starting point; the brackets stay the same.  Rows
    above `_E_FINITE` are a DomainError."""
    _check_finite_terms(e)
    e, l2, u_well, u_top = np.broadcast_arrays(e, l2, win.u_well, win.u_top)
    u_plus, hi_out = _outer_bracket(trap, e, l2, u_top)
    u_minus = l2 / u_plus
    lo_in = u_minus if trap.eps >= 0 else np.zeros_like(e)
    # Start from the given or the harmonic roots, clipped into the brackets;
    # the first n rows are the inner roots, where Q rises.
    x_in, x_out = (u_minus, u_plus) if start is None else start
    n = e.size
    lo, hi, x = (np.concatenate(p) for p in (
        (lo_in, u_well), (u_well, hi_out),
        (np.clip(x_in, lo_in, u_well), np.clip(x_out, u_well, hi_out))))
    roots = _safe_newton(_momentum(trap, np.tile(e, 2), np.tile(l2, 2)), lo, hi, x,
                         np.arange(2 * n) < n)
    return roots[:n], roots[n:]


def _frozen(*tables):
    """Node tables shared by every call through lru_cache: read-only, so a
    kernel working in place cannot corrupt them."""
    for table in tables:
        table.setflags(write=False)
    return tables


class _Pair(NamedTuple):
    """A (2n+1)-node Gauss-Kronrod pair on one node table, each node evaluated
    once: the fine Kronrod rule takes every node with weights w, the coarse
    rule is the n-point Gauss-Legendre rule on the first n, `coarse` =
    slice(n), with weights w_coarse."""

    nodes: tuple
    w: np.ndarray
    coarse: slice
    w_coarse: np.ndarray


def _kronrod(n: int, table, *args) -> _Pair:
    """The (2n+1)-node Gauss-Kronrod pair on the node table (w, *nodes) of a
    rule: the Kronrod rule, and the n-point Gauss-Legendre rule on its first n."""
    w, *nodes = table(n, *args, gauss_kronrod)
    return _Pair(tuple(nodes), w, slice(n), table(n, *args)[0])


def _pair_sums(f, pair: _Pair):
    """The fine and the coarse sums of integrand values f (rows, nodes).  Sums
    run pairwise along each row (not a BLAS product), so a row's value ignores
    the rows beside it."""
    return (f * pair.w).sum(axis=1), (f[:, pair.coarse] * pair.w_coarse).sum(axis=1)


def _checked(sums, columns, tol: float, floor: float, what: str, rules: tuple[_Pair, ...],
             rung=None, entries: int | None = None) -> np.ndarray:
    """The fine results (k, rows) of sums(*columns, rule) -> (*fine, coarse).
    Each row starts on its `rung` of the ladder `rules` (rung 0 if None), and
    its first result must agree with its coarse sum to tol * max(|result|,
    floor); a row that misses goes up one rung, and a miss on the last rung
    raises.  A rung sums its rows in blocks of entries // (nodes of the rule)
    rows, or of _ROW_CHUNK rows if `entries` is None."""
    rung = np.zeros(columns[0].size, dtype=int) if rung is None else np.array(rung)
    for i, rule in enumerate(rules):
        rows = np.flatnonzero(rung == i)
        if i and not rows.size:  # rung 0 sums even no rows, for the shape of out
            continue
        step = _ROW_CHUNK if entries is None else max(1, entries // rule.nodes[0].size)
        picked = [c[rows] for c in columns]
        blocks = np.concatenate([np.array(sums(*(c[j:j + step] for c in picked), rule))
                                 for j in range(0, max(rows.size, 1), step)], axis=1)
        fine, coarse = blocks[:-1], blocks[-1]
        if not i:
            out = np.empty((len(fine), rung.size))
        out[:, rows] = fine
        err = np.abs(fine[0] - coarse)
        miss = err > tol * np.maximum(np.abs(fine[0]), floor)
        if miss.any() and i + 1 == len(rules):
            raise AccuracyError(f"{what} quadrature error {err.max():.3e} "
                                f"exceeds {tol:g} relative")
        rung[rows[miss]] += 1
    return out


@lru_cache(maxsize=None)
def _angle_nodes(order: int, rule=gauss_legendre):
    # Half-angle forms of 1 +- sin(theta) keep full relative precision at the
    # end points, where the plain expressions cancel catastrophically.
    theta, w = rule(order).on_interval(-0.5 * math.pi, 0.5 * math.pi)
    half_angle = 0.25 * math.pi - 0.5 * theta
    return _frozen(w, np.cos(theta), 2.0 * np.cos(half_angle) ** 2,
                   2.0 * np.sin(half_angle) ** 2)


@lru_cache(maxsize=None)
def _angle_pairs() -> tuple[_Pair, ...]:
    """The action kernel's ladder: the 49-node Gauss-Kronrod pair, then the
    241-node one.  With both turning points simple roots, S_r's integrand is
    cos^2(theta) g(sin theta) and T_r's G(sin theta), for g and G smooth on
    [-1, 1]: smooth and periodic in theta."""
    return _kronrod(_FIRST_ORDER, _angle_nodes), _kronrod(_ACTION_ORDER, _angle_nodes)


def _action_sums(trap: _Trap, e, l2, u_in, u_out, pair: _Pair):
    """S_r = integral sqrt(Q(u))/u du and T_r = dS_r/dE = integral
    du/sqrt(Q(u)) over [u_in, u_out] in the mapped angle: (S_r, T_r) on the
    fine rule of the pair and S_r on its coarse one."""
    eps, a = trap.eps, trap.alpha
    cos, plus, minus = pair.nodes
    s, t, s_coarse = np.empty(e.size), np.empty(e.size), np.empty(e.size)
    parts, origin = [], u_in == 0.0
    if origin.any():
        # The integrand collapses to sqrt(mid (1-sin) (Q(u)/u)): smooth and
        # cancellation-free despite the 1/u measure.
        mid = 0.5 * u_out[origin, None]
        u = mid * plus
        q_over_u = 2.0 * e[origin, None] - u - 2.0 * eps * u ** a
        f = np.sqrt(np.maximum(mid * minus * q_over_u, 0.0))
        parts.append((origin, f, f, q_over_u))
    rest = ~origin if parts else slice(None)
    # Work in v = log u: the 1/u measure is absorbed, so wells with
    # u_in << u_out (small angular momentum, high energy) stay resolved.
    v_in = np.log(u_in[rest, None])
    v_half = 0.5 * (np.log(u_out[rest, None]) - v_in)
    u = np.exp(v_in + v_half * plus)
    q = 2.0 * e[rest, None] * u - u * u - 2.0 * eps * u ** a * u - l2[rest, None]
    f = v_half * cos * np.sqrt(np.maximum(q, 0.0))
    parts.append((rest, f, f * u, q))
    # T_r's integrand is S_r's times u / Q, on the fine rule only.
    for rows, f, fu, q in parts:
        s[rows], s_coarse[rows] = _pair_sums(f, pair)
        with np.errstate(divide="ignore", invalid="ignore"):
            t[rows] = (np.where(q > 0, fu / q, 0.0) * pair.w).sum(axis=1)
    return s, t, s_coarse


def _radial_action_rows(trap: _Trap, e, l2, win: _Window | None = None, start=None):
    """The action kernel, in oscillator units: (S_r, T_r, u_in, u_out) for rows
    (E, L^2) inside their window (checked unless given), turning points solved
    from `start` if given.  S_r is checked to 1e-10 max(S_r, pi) per row: it
    vanishes at the well bottom, and pi is the least target.  T_r steers Newton.
    Rows at their barrier top, where u_out is a double root and the first
    rung converges only algebraically, start on the ladder's last rung."""
    win = _window_holding(trap, e, l2) if win is None else win
    u_in, u_out = _turning_points(trap, e, l2, win, start)
    rules = _angle_pairs()
    s, t = _checked(partial(_action_sums, trap), (e, l2, u_in, u_out), 1e-10, math.pi,
                    "radial action", rules, (e >= win.e_top) * (len(rules) - 1))
    return s, t, u_in, u_out


def _separatrix_action(trap: _Trap, l2) -> tuple[_Window, np.ndarray]:
    """Each row's window, and S_r(E_top): inf for eps >= 0, nan for an open well;
    the integrand is linear at the double root u_top, so smooth in the angle."""
    win = _window(trap, l2)
    s = np.full(np.shape(l2), np.inf if trap.eps >= 0 else np.nan)
    if trap.eps < 0:
        rows = np.flatnonzero(~np.isnan(win.e_well))
        top = win.take(rows)
        s[rows] = _radial_action_rows(trap, top.e_top, l2[rows], top)[0]
    return win, s


def _window_holding(trap: _Trap, e, l2) -> _Window:
    """The windows of rows (E, L^2), each of which must hold its energy."""
    if not np.all(e > 0):
        raise DomainError(f"energy must be > 0, got {np.min(e)}")
    win = _window(trap, l2)
    if np.any(np.isnan(win.e_well) | (e >= win.e_top)):
        raise NoBoundStateError(f"energy {np.max(e)} hbar omega lies above the barrier")
    if np.any(e <= win.e_well):
        raise NoBoundStateError(f"energy {np.min(e)} hbar omega lies below the well minimum")
    return win


def _check_finite_terms(e) -> None:
    """Past _E_FINITE hbar omega the terms 4 E^2 of Q(u) overflow: a DomainError."""
    if np.any(e > _E_FINITE):
        raise DomainError(f"energy {np.max(e):g} hbar omega lies above {_E_FINITE:.3g}, where "
                          "the turning-point terms leave the float range")


def _outer_radius(trap: _Trap, e: np.ndarray) -> np.ndarray:
    """Outer turning radius of the l = 0 motion, |V(r_max) - E| <= 1e-12 E,
    for energies from `_E_NORMAL` to `_E_FINITE` (a DomainError outside).
    Every row has the window of L = 0, whose well bottom u = 0 is also the
    inner root, so one window row serves all and only the outer roots are
    solved, from the harmonic root in the bracket [0, top]."""
    win = _window_holding(trap, e, np.zeros(1))
    if np.any(e < _E_NORMAL):
        raise DomainError(f"energy {np.min(e):g} hbar omega lies below {_E_NORMAL:.3g}, where "
                          "the turning-point terms leave the normal float range")
    _check_finite_terms(e)
    u_plus, hi = _outer_bracket(trap, e, 0.0, win.u_top)
    u_out = _safe_newton(_momentum(trap, e, 0.0), win.u_well, hi,
                         np.clip(u_plus, win.u_well, hi), False)
    r_max = np.sqrt(u_out)
    resid = np.abs(0.5 * r_max ** 2 + trap.eps * r_max ** (2 * trap.alpha) - e)
    if np.any(resid > 1e-12 * e):
        raise AccuracyError(f"turning point residual {np.max(resid):.3e} exceeds 1e-12 * E")
    return r_max


def outer_turning_point(params: SystemParams, energy: float) -> float:
    """Outer turning radius of V(r) = omega^2 r^2 / 2 + eps r^(2 alpha) at the
    given energy, for l = 0, whose inner turning point is r = 0."""
    trap, hbar, unit = _resolve(params)
    r_max = _physical(_outer_radius(trap, np.array([float(energy) / unit])),
                      hbar / math.sqrt(unit), "turning point")
    return float(r_max[0])


def radial_action(params: SystemParams, energy, l_eff):
    """Radial action 2 * integral of sqrt(2E - omega^2 r^2 - 2 eps r^(2a) - L^2/r^2) dr
    between the turning points, with both square-root end points mapped away.

    Equal to integral of sqrt(Q(u))/u du over [u_in, u_out], summed on the
    49-node Gauss-Kronrod rule in the mapped angle; the 24-point Gauss rule on
    its nodes must agree to 1e-10 max(S_r, pi hbar), or else the 241-node
    pair must.
    Arrays of E and L_eff go through the kernel in one pass."""
    e, l_eff = np.broadcast_arrays(energy, l_eff)
    trap, hbar, unit = _resolve(params)
    s = _radial_action_rows(trap, e.ravel() / unit, (l_eff.ravel() / hbar) ** 2)[0]
    s = _physical(s, hbar, "radial action")
    return float(s[0]) if l_eff.ndim == 0 else s.reshape(l_eff.shape)


def _quantize(trap: _Trap, l2, win: _Window, n_r, guess):
    """E with S_r(E, L) = 2 pi (n_r + 1/2), one level per row, for rows whose
    level exists, by Newton in E inside [E_well, min(E_top, `_level_bound`)]
    that bisects when a step leaves the bracket; a guess outside it starts
    mid-bracket.  Accepts |S_r - target| <= 1e-12 target, or the 1e-11
    contract once the bracket has collapsed.  Each step solves its turning
    points from the previous step's roots."""
    target = trap.target(n_r)
    lo, hi = win.e_well.copy(), np.minimum(win.e_top, _level_bound(trap, n_r, l2))
    e = np.where((guess > lo) & (guess <= hi), guess, 0.5 * (lo + hi))
    energy = np.empty(l2.size)
    rows, start = np.arange(l2.size), None
    # Not _safe_newton's loop: its cheap solves ran slower with this loop's per-row gathers.
    for _ in range(_MAX_STEPS):
        s, t, u_in, u_out = _radial_action_rows(trap, e, l2[rows], win.take(rows), start)
        resid = s - target[rows]
        lo[rows] = np.where(resid < 0, e, lo[rows])
        hi[rows] = np.where(resid < 0, hi[rows], e)
        stalled = hi[rows] - lo[rows] <= 4.0 * _ULP * e
        ok = np.abs(resid) <= np.where(stalled, 1e-11, 1e-12) * target[rows]
        energy[rows[ok]] = e[ok]
        if ok.all():
            return energy
        rows, e, newton = rows[~ok], e[~ok], (e - resid / t)[~ok]
        start = u_in[~ok], u_out[~ok]
        inside = (newton > lo[rows]) & (newton < hi[rows])
        e = np.where(inside, newton, 0.5 * (lo[rows] + hi[rows]))
    raise AccuracyError(f"quantization residual {np.max(np.abs(resid)):.3e} exceeds "
                        f"1e-11 * target for {rows.size} levels")


def ebk_energy(params: SystemParams, n_r: int, l: int) -> EbkLevel:
    """Torus-quantized level: solve S_r(E) = 2 pi hbar (n_r + 1/2) with the
    half-integer angular shift L_eff = hbar (l + (D-2)/2) from the unperturbed
    energy.  It exists when S_r at the barrier top (if any) exceeds the target."""
    if not (0 <= n_r < 2 ** 53 and 0 <= l < 2 ** 53):  # the integers floats hold exactly
        raise DomainError(f"quantum numbers must lie in [0, 2**53), got ({n_r}, {l})")
    trap, _, unit = _resolve(params)
    l2 = np.array([trap.l_eff(l) ** 2])
    win, s_top = _separatrix_action(trap, l2)
    if not s_top[0] > trap.target(n_r):
        raise NoBoundStateError(f"level (n_r={n_r}, l={l}) has no bound solution")
    energy = _quantize(trap, l2, win, np.array([n_r]), np.array([2 * n_r + l + trap.dim / 2.0]))
    return EbkLevel(n_r=n_r, l=l, energy=float(_physical(energy, unit, "energy")[0]),
                    degeneracy=angular_degeneracy(trap.dim, l))


_TABLE_NODES = 12  # Chebyshev-Lobatto nodes in E per l of the action table


def _level_bound(trap: _Trap, n_r, l2) -> np.ndarray:
    """An energy at or above level n_r's, per row.  Inside u = r^2 <= u*, an
    eps > 0 trap lies below the oscillator of frequency w, w^2 = 1 +
    2 eps u*^(alpha-1); so at E = V(u*), S_r >= pi (E / w - L), and u* puts
    that at the target.  For eps <= 0 the harmonic level lies at or above."""
    m = 2.0 * n_r + 1.0 + np.sqrt(l2)
    if trap.eps <= 0:
        return m
    a, eps = trap.alpha, trap.eps
    u = np.minimum(2.0 * m, (2.0 * m * m) ** (1.0 / (a + 1)) / eps ** (1.0 / (a + 1)))
    return 0.5 * u + (eps ** (1.0 / a) * u) ** a


def _level_count(trap: _Trap, s_max, s_top, n_r_max: int, band: float) -> np.ndarray:
    """How many levels n_r = 0, 1, ... each row holds: S_r rises across its
    window, so those with 2 pi (n_r + 1/2) <= s_max (1 + band) and below the
    separatrix action s_top, at most n_r_max + 1."""
    count = np.floor(np.minimum(s_max * (1.0 + band) / (2.0 * math.pi) + 0.5, n_r_max + 1.0))
    return (count - (trap.target(count - 1.0) >= s_top)).astype(int)


def _level_set(trap: _Trap, l2, win: _Window, s_top, e_max: float, n_r_max: int):
    """Candidate levels (l, n_r) and their starts, from one table of S_r per l
    whose well bottom lies below e_max.

    S_r rises across each window, so (n_r, l) is a candidate when
    2 pi (n_r + 1/2) <= S_r(min(e_max, E_top)) (1 + 1e-9) and lies below the
    separatrix action.  The table spans [E_well, top] on Chebyshev-Lobatto
    nodes in E; top is the lowest of E_top, the bound of level n_r_max + 1
    and the power of two at or above e_max, so that an l's table, and each
    start, is the same for every e_max up to that power of two.  At a barrier
    top S_r has the term (E_top - E) log(E_top - E) / w_b, for
    w_b^2 = -V_eff''(r_top) = 2 (alpha - 1) - 2 (alpha + 1) L^2 / u_top^2,
    which the interpolant takes as known."""
    rows = np.flatnonzero(win.e_well < e_max)
    w, l2 = win.take(rows), l2[rows]
    mant, expo = math.frexp(e_max)
    cap = e_max if mant == 0.5 or math.isinf(e_max) else math.ldexp(1.0, expo)
    top = np.minimum(np.minimum(w.e_top, cap), _level_bound(trap, n_r_max + 1, l2))
    closed, width, probe = top == w.e_top, top - w.e_well, e_max < top
    x = chebyshev_lobatto(_TABLE_NODES)[0][1:-1]
    nodes = w.e_well[:, None] + width[:, None] * (0.5 + 0.5 * x)
    # One kernel call: the inner nodes, top unless it is a barrier top, and e_max.
    which = np.concatenate([np.repeat(np.arange(rows.size), _TABLE_NODES - 2),
                            np.flatnonzero(~closed), np.flatnonzero(probe)])
    e = np.concatenate([nodes.ravel(), top[~closed], np.full(np.count_nonzero(probe), e_max)])
    s = iter(np.split(_radial_action_rows(trap, e, l2[which], w.take(which))[0],
                      np.cumsum([nodes.size, rows.size - np.count_nonzero(closed)])))
    table = np.zeros((rows.size, _TABLE_NODES))
    table[:, 1:-1], table[:, -1] = next(s).reshape(nodes.shape), s_top[rows]
    table[~closed, -1] = next(s)
    s_max = table[:, -1].copy()
    s_max[probe] = next(s)
    count = _level_count(trap, s_max, s_top[rows], n_r_max, 1e-9)
    row = np.repeat(np.arange(rows.size), count)
    n_r = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    # w_b^2 > 0 on a closed well; the floor only keeps rounding at its edge finite.
    k, a, u = np.zeros(rows.size), trap.alpha, w.u_top[closed]
    wb2 = 2.0 * (a - 1) - 2.0 * (a + 1) * l2[closed] / u ** 2
    k[closed] = width[closed] / np.sqrt(np.maximum(wb2, _ULP))
    x = rising_roots(table[row], trap.target(n_r), k[row])
    return rows[row], n_r, w.e_well[row] + width[row] * (0.5 + 0.5 * x)


class _Levels(NamedTuple):
    """Levels as columns: n_r, l and energy as arrays, and the degeneracies
    as exact ints (a D = 170 shell outgrows int64)."""

    n_r: np.ndarray
    l: np.ndarray
    energy: np.ndarray
    degeneracy: list

    @classmethod
    def of(cls, levels: list[EbkLevel]) -> "_Levels":
        """The columns of a level list, with n_r and l as floats."""
        try:
            n_r, l, e = np.array([(lev.n_r, lev.l, lev.energy) for lev in levels],
                                 dtype=float).reshape(-1, 3).T
        except OverflowError:
            raise ForeignLevelsError("level quantum numbers leave the float range") from None
        return cls(n_r, l, e, [lev.degeneracy for lev in levels])

    def records(self) -> list[EbkLevel]:
        return list(map(EbkLevel, self.n_r.tolist(), self.l.tolist(), self.energy.tolist(),
                        self.degeneracy))

    def by_energy(self) -> "_Levels":
        """The levels ordered by (E, l, n_r), equal keys kept in their order:
        the order of sorted() with that key."""
        order = np.lexsort((self.n_r, self.l, self.energy))
        return _Levels(self.n_r[order], self.l[order], self.energy[order],
                       [self.degeneracy[i] for i in order.tolist()])


def _level_table(params: SystemParams, e_max: float, n_r_max: int, l_max: int) -> _Levels:
    """enumerate_levels' levels as columns, ordered by l, then n_r."""
    if math.isnan(e_max):
        raise DomainError("e_max must not be nan")
    if n_r_max < 0 or l_max < 0:
        raise DomainError(f"level caps must be >= 0, got n_r_max={n_r_max}, l_max={l_max}")
    trap, _, unit = _resolve(params)
    e_max = e_max / unit
    try:  # numpy raises ValueError for a size past np.intp, MemoryError past memory
        l2 = trap.l_eff(np.arange(l_max + 1)) ** 2
    except (ValueError, MemoryError):
        raise DomainError(f"l_max={l_max} asks for more angular momenta than fit "
                          "in memory") from None
    win, s_top = _separatrix_action(trap, l2)
    l, n_r, start = _level_set(trap, l2, win, s_top, e_max, n_r_max)
    energy = _quantize(trap, l2[l], win.take(l), n_r, start)
    kept = energy <= e_max
    l, n_r, energy = l[kept], n_r[kept], _physical(energy[kept], unit, "energy")
    top = np.full(l2.size, -1)
    np.maximum.at(top, l, n_r)
    # Levels are complete up to the first l whose lowest level exists but was not kept.
    l_end = int(np.argmax(np.append((s_top > trap.target(0)) & (top < 0), True)))
    # Why each l stopped in n_r: the cap, the barrier, or e_max.
    truncated = [f"n_r cap {n_r_max} reached at l={l}" if n > n_r_max
                 else f"(n_r={n}, l={l}) above barrier"
                 for l, n in enumerate(top[:l_end] + 1)
                 if n > n_r_max or not s_top[l] > trap.target(n)]
    if l_end == l2.size:
        truncated.append(f"l cap {l_max} reached")
    if truncated:
        warnings.warn("level enumeration truncated: " + "; ".join(truncated[:5]),
                      TruncationWarning)
    degeneracy = {k: angular_degeneracy(trap.dim, k) for k in set(l.tolist())}
    return _Levels(n_r, l, energy, [degeneracy[k] for k in l.tolist()])


def enumerate_levels(params: SystemParams, e_max: float,
                     n_r_max: int = 200, l_max: int = 400) -> list[EbkLevel]:
    """All torus-quantized levels with E <= e_max, ordered by l, then n_r.

    One table of S_r per l, on Chebyshev-Lobatto nodes in E, gives the
    candidate levels: S_r rises across each window, so (n_r, l) is one when
    2 pi hbar (n_r + 1/2) <= S_r(min(e_max, E_top)) (1 + 1e-9).  Each starts
    from the root of the table's interpolant, one batched Newton solve
    quantizes them all, and the levels with E <= e_max are kept.  Warns if
    the caps cut the enumeration short, and names levels above a barrier
    (eps < 0).
    """
    return _level_table(params, e_max, n_r_max, l_max).records()


def _check_levels(params: SystemParams, levels: list[EbkLevel], e_need: float,
                  n_r_max: int, l_max: int) -> _Levels:
    """The columns of `levels`, which must be this system's levels below e_need
    within the caps: each degeneracy matches its l in this dimension, each l's
    n_r read 0, 1, 2, ..., and each energy lies in its l's well and quantizes
    this trap's radial action to 1e-9 of its target.  Every l whose well bottom
    lies below e_need, up to one past the largest cached l (the lowest level
    rises with l), holds at least the levels that `_level_count` finds below
    S_r(min(e_need, E_top)), less its 1e-9 band.  One window per distinct l and
    one action call.  Raises ForeignLevelsError for the first level that fails."""
    (trap, _, unit), table = _resolve(params), _Levels.of(levels)
    # Probe l = 0, 1, ... to one past the largest cached l.  They lead the
    # distinct ls once the degeneracy check has refused every l < 0.
    probed = np.arange(min(l_max, table.l.max(initial=-1.0) + 1.0) + 1.0)
    ls, at = np.unique(np.concatenate([probed, table.l]), return_inverse=True)
    at = at[probed.size:]
    shells = [angular_degeneracy(trap.dim, k) if k >= 0 else None for k in map(int, ls.tolist())]
    for i in np.flatnonzero([shells[k] != d for k, d in zip(at.tolist(), table.degeneracy)])[:1]:
        raise ForeignLevelsError(f"level (n_r={levels[i].n_r}, l={levels[i].l}) with degeneracy "
                                 f"{levels[i].degeneracy} is not a D={trap.dim} level")
    order = np.lexsort((table.n_r, at))
    due = np.arange(order.size) - np.searchsorted(at[order], at[order])
    for k in np.flatnonzero(table.n_r[order] != due)[:1]:
        i = order[k]
        raise ForeignLevelsError(f"level (n_r={levels[i].n_r}, l={levels[i].l}) stands where "
                                 f"n_r={due[k]} is due: each l's n_r must read 0, 1, 2, ...")
    l2, e, need = trap.l_eff(ls) ** 2, table.energy / unit, e_need / unit
    win = _window(trap, l2)
    for i in np.flatnonzero(~((e > win.e_well[at]) & (e < win.e_top[at])))[:1]:
        raise ForeignLevelsError(f"level (n_r={levels[i].n_r}, l={levels[i].l}) at "
                                 f"E={levels[i].energy} lies outside this system's well")
    probe = np.flatnonzero(win.e_well[:probed.size] < need)
    rows = np.concatenate([at, probe])
    s = _radial_action_rows(trap, np.concatenate([e, np.minimum(need, win.e_top[probe])]),
                            l2[rows], win.take(rows))[0]
    action, s_need, target = s[:e.size], s[e.size:], trap.target(table.n_r)
    bad = np.flatnonzero(~(np.abs(action - target) <= 1e-9 * target))
    for i in bad[:1]:
        raise ForeignLevelsError(f"level (n_r={levels[i].n_r}, l={levels[i].l}) at "
                                 f"E={levels[i].energy} is not quantized in this system "
                                 f"({bad.size} of {len(levels)} levels do not match)")
    # Only levels below e_need by more than the band are due, so a cache
    # written out to e_max = e_need passes.
    have = np.bincount(at, minlength=ls.size)[probe]
    for j in np.flatnonzero(_level_count(trap, s_need, s_need, n_r_max, -1e-9) > have)[:1]:
        raise ForeignLevelsError(f"level (n_r={have[j]}, l={probe[j]}) lies below "
                                 f"E={e_need:g} but is missing")
    return table


def ebk_dos(params: SystemParams, energies: np.ndarray, width: float,
            n_r_max: int = 200, l_max: int = 400,
            levels: list[EbkLevel] | None = None
            ) -> tuple[np.ndarray, np.ndarray, list[EbkLevel]]:
    """Gaussian-smoothed torus-quantized DOS and its smooth reference.

    Returns (g_ebk, g_smooth, levels); the oscillating part is their
    difference.  The grid must be 1-D, non-empty and strictly increasing.  The
    smooth density comes first, so a grid on which it leaves the float range
    is refused before any level is enumerated.
    Levels are enumerated out to 6 widths past the grid end, unless a
    precomputed list is supplied.  Such a list must hold levels of this
    system, each (n_r, l) once, and every level that lies 5 widths past the
    grid end or less, up to the caps n_r_max and l_max.  A level at the cut
    weighs exp(-36) = 2.3e-16 of its peak at the grid end, so whether it falls
    inside the cut cannot show in g_ebk; one between 5 and 6 widths out, which
    a list need not hold, weighs at most exp(-25) = 1.4e-11 of it.

    The levels are read into columns once, which the check and the sum share.
    They are summed in the order of (E, l, n_r), so g_ebk does not depend on
    the order of the list.  Past 27.5 widths exp(-x^2) is exactly 0.0
    (x^2 > 745.14), so each level is added on its grid slice only, in one
    buffer, and g_ebk has the bits of the full-grid sum.  From about 26.6
    widths out the terms are subnormal, where exp and the product run many
    times slower; they are kept, since they are part of those bits.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or not energies.size:
        raise DomainError(f"energy grid must be a non-empty 1-D array, "
                          f"got shape {energies.shape}")
    if not 0.0 < width < math.inf:
        raise DomainError(f"smoothing width must be finite and > 0, got {width}")
    if np.any(np.diff(energies) <= 0):
        raise DomainError("energy grid must be strictly increasing")
    smooth = tf_smooth(params, energies)
    e_cut = energies[-1] + 6.0 * width
    if levels is None:
        table = _level_table(params, e_cut, n_r_max, l_max)
        levels = table.records()
    else:
        table = _check_levels(params, levels, energies[-1] + 5.0 * width, n_r_max, l_max)
    table = table.by_energy()
    lo = np.searchsorted(energies, table.energy - 27.5 * width)
    hi = np.searchsorted(energies, table.energy + 27.5 * width, side="right")
    g = np.zeros_like(energies)
    for centre, weight, a, b in zip(table.energy.tolist(), map(float, table.degeneracy),
                                    lo.tolist(), hi.tolist()):
        # weight * exp(-((E - centre) / width)^2), bit for bit, without temporaries
        t = energies[a:b] - centre
        t /= width
        t *= -t
        np.exp(t, out=t)
        t *= weight
        g[a:b] += t
    with np.errstate(over="ignore"):
        g /= width * math.sqrt(math.pi)
    if not np.all(np.isfinite(g)):
        raise DomainError(f"torus-quantized DOS leaves the float range at width={width:g}")
    return g, smooth, levels


@lru_cache(maxsize=None)
def _tf_nodes(order: int, dim: int, alpha: int, rule=gauss_legendre):
    """The measure s^(D-1) cos(psi) w, s^2 and s^(2 alpha) at the nodes of
    r = r_max s, s = sin(psi), on [0, pi/2]."""
    psi, w = rule(order).on_interval(0.0, 0.5 * math.pi)
    s = np.sin(psi)
    return _frozen(s ** (dim - 1) * np.cos(psi) * w, s * s, s ** (2 * alpha))


@lru_cache(maxsize=None)
def _tf_poly_nodes(order: int, dim: int, alpha: int, rule=gauss_legendre):
    """The measure t^(D/2-1) w / 2, t and t^alpha at the nodes of
    r = r_max sqrt(t) on [0, 1]."""
    t, w = rule(order).on_interval(0.0, 1.0)
    return _frozen(t ** (dim // 2 - 1) * 0.5 * w, t, t ** alpha)


@lru_cache(maxsize=None)
def _tf_pairs(dim: int, alpha: int) -> tuple[_Pair, ...]:
    """tf_smooth's ladder of Gauss-Kronrod pairs: its own first rung, then the
    241-node pair in psi.  At odd D the integrand s^(D-1) cos(psi)^(D-1)
    h(s^2)^(D/2-1) is smooth and periodic in psi: the 49-node pair in psi.  At
    even D it is a polynomial in t = s^2 of degree (D/2-1)(alpha+1), which
    Gauss-Legendre in t integrates exactly on n = degree // 2 + 1 nodes, and so
    does the pair's Kronrod rule; past 360 nodes the fallback is the only rung."""
    fallback = _kronrod(_ACTION_ORDER, _tf_nodes, dim, alpha)
    if dim % 2:
        return _kronrod(_FIRST_ORDER, _tf_nodes, dim, alpha), fallback
    n = (dim // 2 - 1) * (alpha + 1) // 2 + 1
    if 2 * n + 1 > 3 * _ACTION_ORDER:
        return (fallback,)
    return _kronrod(n, _tf_poly_nodes, dim, alpha), fallback


def _tf_sums(trap: _Trap, e, r_max, pair: _Pair):
    """r_max^D * sum [E - a s^2 - b s^(2 alpha)]^(D/2-1) w per row on the fine
    and the coarse rule of a pair, with a = r_max^2 / 2 and b = eps r_max^(2 alpha);
    the weights w carry the measure."""
    s2, s2a = pair.nodes
    power = 0.5 * trap.dim - 1.0
    if power == 0.0:  # D = 2: the bracket drops out, so every row sums the same
        f = np.ones((1, s2.size))
    else:
        f = np.multiply.outer(0.5 * r_max ** 2, s2)
        np.subtract(e[:, None], f, out=f)
        f -= np.multiply.outer(trap.eps * r_max ** (2 * trap.alpha), s2a)
        np.maximum(f, 0.0, out=f)
        f **= power  # numpy's in-place scalar power takes sqrt at 0.5, bit for bit
    scale = r_max ** trap.dim
    fine, coarse = _pair_sums(f, pair)
    return fine * scale, coarse * scale


def tf_smooth(params: SystemParams, energy):
    """Smooth phase-space DOS:

        (2 pi hbar^2)^(-D/2) * (2 pi^(D/2) / Gamma(D/2)^2)
            * integral_0^rmax [E - V(r)]^(D/2-1) r^(D-1) dr,

    summed at odd D on the 49-node Gauss-Kronrod rule in r = rmax sin(psi),
    which flattens the end point, and at even D, where the integrand is a
    polynomial in t = (r/rmax)^2, on a Gauss-Kronrod rule in t that is exact.
    Takes a float or an array; each element has its own 1e-12 E turning-point
    residual and 1e-11 check against the pair's Gauss rule, or else on the
    241-node Gauss-Kronrod pair in psi."""
    trap, _, unit = _resolve(params)
    energies = np.asarray(energy, dtype=float)
    e = energies.ravel() / unit
    r_max = _outer_radius(trap, e)
    # r_max^D or the sums times it can pass the float range: inf there (and
    # inf - inf in the check), which `_physical` refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _checked(partial(_tf_sums, trap), (e, r_max), 1e-11, 1e-300, "smooth DOS",
                       _tf_pairs(trap.dim, trap.alpha), entries=_TF_BLOCK_ENTRIES)[0]
    out = _physical(out, (2.0 * math.pi) ** (-0.5 * trap.dim) * 2.0 * math.pi ** (0.5 * trap.dim)
                    / math.gamma(0.5 * trap.dim) ** 2 / unit, "smooth DOS")
    return float(out[0]) if energies.ndim == 0 else out.reshape(energies.shape)
