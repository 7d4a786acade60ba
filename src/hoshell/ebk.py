"""Non-perturbative reference pipeline: torus-quantized radial spectra,
angular degeneracies, Gaussian-smoothed level densities, and the smooth
Thomas-Fermi density of states with its turning-point solve.

Radial integrals work in u = r^2, where the momentum polynomial
Q(u) = 2 E u - omega^2 u^2 - 2 eps u^(alpha+1) - L^2 has simple roots at the
turning points; mapping u = u_mid + du sin(theta) absorbs both square-root
end points.  Kernels take arrays of rows (E, L^2), each inside the window of
its effective potential: above the well bottom, below any barrier top.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .actionpoly import SystemParams, absorb_harmonic_terms
from .errors import AccuracyError, DomainError, NoBoundStateError, TruncationWarning
from .specfun import gauss_legendre

__all__ = [
    "EbkLevel",
    "TurningPoint",
    "angular_degeneracy",
    "ebk_dos",
    "ebk_energy",
    "enumerate_levels",
    "outer_turning_point",
    "radial_action",
    "tf_smooth",
]

_ACTION_ORDER = 120
# Rows per quadrature block: bounds every (rows x nodes) temporary.  At 240
# nodes a 128-row temporary is 240 KB; with 256 rows, freeing two of them let
# glibc trim the heap top on every block of tf_smooth, which then faulted its
# pages back in (about 7,000 minor faults per 8,001-energy call, against 500).
_ROW_CHUNK = 128
_MAX_STEPS = 200
_ULP = float(np.finfo(float).eps)


@dataclass(frozen=True)
class EbkLevel:
    n_r: int
    l: int
    energy: float
    degeneracy: int


@dataclass(frozen=True)
class TurningPoint:
    r_max: float
    inner: float = 0.0


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
    """A system resolved once: harmonic terms absorbed, one monomial left."""

    hbar: float
    omega: float
    dim: int
    eps: float
    alpha: int

    def l_eff(self, l):
        return self.hbar * (l + 0.5 * (self.dim - 2))

    def target(self, n_r):
        return 2.0 * math.pi * self.hbar * (n_r + 0.5)


def _resolve(params: SystemParams) -> _Trap:
    params = absorb_harmonic_terms(params)
    if len(params.terms) > 1:
        raise DomainError("reference pipeline handles a single monomial term")
    try:
        w2 = params.omega ** 2
    except OverflowError:
        w2 = math.inf
    if not 0.0 < w2 < math.inf:  # every kernel works with omega^2
        raise DomainError(f"omega^2 leaves the float range at omega={params.omega:g}")
    eps, alpha = params.terms[0] if params.terms else (0.0, 2)
    return _Trap(params.hbar, params.omega, params.dim, eps, alpha)


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
    """Stationary points of V_eff(u) = w^2 u / 2 + eps u^alpha + L^2 / (2 u):
    roots of g(u) = w^2 u^2 + 2 alpha eps u^(alpha+1) - L^2, at energies
    E = w^2 u + (alpha+1) eps u^alpha.  For eps < 0 the well bottom and the
    barrier top straddle the hump of g, which must rise above zero."""
    w2, eps, a = trap.omega ** 2, trap.eps, trap.alpha
    l2 = np.asarray(l2, dtype=float)

    def g(u):
        return (w2 * u * u + 2.0 * a * eps * u ** (a + 1) - l2,
                2.0 * w2 * u + 2.0 * a * (a + 1) * eps * u ** a)

    def energy(u):
        return w2 * u + (a + 1) * eps * u ** a

    u_harm = np.sqrt(l2 / w2)
    # For eps >= 0, g is convex and rising with g(u_harm) >= 0.
    u_hump = u_harm if eps >= 0 else (w2 / (a * (a + 1) * -eps)) ** (1.0 / (a - 1))
    u_well = _safe_newton(g, 0.0, u_hump, np.minimum(u_harm, u_hump), True)
    if eps >= 0:
        inf = np.full(l2.shape, np.inf)
        return _Window(u_well, energy(u_well), inf, inf)
    # g(u_zero) = -L^2 <= 0 past the hump
    u_zero = np.full(l2.shape, (w2 / (2.0 * a * -eps)) ** (1.0 / (a - 1)))
    u_top = _safe_newton(g, u_hump, u_zero, u_zero, False)
    open_ = ~(w2 * u_hump ** 2 * (a - 1) / (a + 1) > l2)
    u_well[open_] = u_top[open_] = np.nan
    return _Window(u_well, energy(u_well), u_top, energy(u_top))


def _turning_points(trap: _Trap, e, l2, win: _Window, start=None):
    """Roots u_in below the well bottom and u_out between it and the barrier
    top, in one pass.  For eps >= 0, Q is concave and below its harmonic part,
    so Newton from the harmonic roots moves monotonically onto the true ones.
    `start`, the roots (u_in, u_out) at a nearby energy, replaces the
    harmonic roots as the starting point; the brackets stay the same."""
    w2, eps, a = trap.omega ** 2, trap.eps, trap.alpha
    e, l2, u_well, u_top = np.broadcast_arrays(
        np.asarray(e, dtype=float), np.asarray(l2, dtype=float), win.u_well, win.u_top)
    u_plus = (e + np.sqrt(np.maximum(e * e - w2 * l2, 0.0))) / w2
    u_minus = l2 / (w2 * u_plus)
    lo_in = u_minus if eps >= 0 else np.zeros_like(e)
    hi_out = (u_top if eps < 0 else u_plus if eps == 0
              else np.minimum(u_plus, (e / eps) ** (1.0 / a)))
    # Start from the given or the harmonic roots, clipped into the brackets;
    # the first n rows are the inner roots, where Q rises.
    x_in, x_out = (u_minus, u_plus) if start is None else start
    n = e.size
    e, l2 = np.tile(e, 2), np.tile(l2, 2)
    lo, hi, x = (np.concatenate(p) for p in (
        (lo_in, u_well), (u_well, hi_out),
        (np.clip(x_in, lo_in, u_well), np.clip(x_out, u_well, hi_out))))

    def q(u):
        # u ** a * u, not u ** (a + 1): numpy squares fast but takes the
        # generic power for a cube.
        ua = u ** a
        return (2.0 * e * u - w2 * u * u - 2.0 * eps * ua * u - l2,
                2.0 * e - 2.0 * w2 * u - 2.0 * eps * (a + 1) * ua)

    roots = _safe_newton(q, lo, hi, x, np.arange(2 * n) < n)
    return roots[:n], roots[n:]


def _checked(sums, columns, tol: float, floor: float, what: str) -> np.ndarray:
    """The 240-node results (k, rows) of sums(*columns, order), by row blocks;
    the first must agree with the 120-node rule to tol * max(|result|, floor)
    on every row."""
    out = []
    for start in range(0, columns[0].size, _ROW_CHUNK):
        block = [c[start:start + _ROW_CHUNK] for c in columns]
        coarse, fine = sums(*block, _ACTION_ORDER)[0], np.array(sums(*block, 2 * _ACTION_ORDER))
        err = np.abs(fine[0] - coarse)
        if np.any(err > tol * np.maximum(np.abs(fine[0]), floor)):
            raise AccuracyError(f"{what} quadrature error {err.max():.3e} "
                                f"exceeds {tol:g} relative")
        out.append(fine)
    return np.concatenate(out, axis=1) if out else np.empty((2, 0))


def _frozen(*tables):
    """Node tables shared by every call through lru_cache: read-only, so a
    kernel working in place cannot corrupt them."""
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def _angle_nodes(order: int):
    # Half-angle forms of 1 +- sin(theta) keep full relative precision at the
    # end points, where the plain expressions cancel catastrophically.
    theta, w = gauss_legendre(order).on_interval(-0.5 * math.pi, 0.5 * math.pi)
    half_angle = 0.25 * math.pi - 0.5 * theta
    return _frozen(w, np.cos(theta), 2.0 * np.cos(half_angle) ** 2,
                   2.0 * np.sin(half_angle) ** 2)


def _action_sums(trap: _Trap, e, l2, u_in, u_out, order: int):
    """S_r = integral sqrt(Q(u))/u du and T_r = dS_r/dE = integral
    du/sqrt(Q(u)) over [u_in, u_out] on one rule in the mapped angle."""
    w2, eps, a = trap.omega ** 2, trap.eps, trap.alpha
    w, cos, plus, minus = _angle_nodes(order)
    s, t = np.empty(e.size), np.empty(e.size)
    origin, rest = u_in == 0.0, u_in != 0.0
    # The integrand collapses to sqrt(mid (1-sin) (Q(u)/u)): smooth and
    # cancellation-free despite the 1/u measure.
    mid = 0.5 * u_out[origin, None]
    u = mid * plus
    q_over_u = 2.0 * e[origin, None] - w2 * u - 2.0 * eps * u ** a
    f = np.sqrt(np.maximum(mid * minus * q_over_u, 0.0))
    parts = [(origin, f, f, q_over_u)]
    # Work in v = log u: the 1/u measure is absorbed, so wells with
    # u_in << u_out (small angular momentum, high energy) stay resolved.
    v_in = np.log(u_in[rest, None])
    v_half = 0.5 * (np.log(u_out[rest, None]) - v_in)
    u = np.exp(v_in + v_half * plus)
    q = 2.0 * e[rest, None] * u - w2 * u * u - 2.0 * eps * u ** a * u - l2[rest, None]
    f = v_half * cos * np.sqrt(np.maximum(q, 0.0))
    parts.append((rest, f, f * u, q))
    # T_r's integrand is S_r's times u / Q.  Sums run pairwise along each row
    # (not a BLAS product), so a row's value ignores the rows beside it.
    for rows, f, fu, q in parts:
        s[rows] = np.sum(f * w, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t[rows] = np.sum(np.where(q > 0, fu / q, 0.0) * w, axis=1)
    return s, t


def _radial_action_rows(trap: _Trap, e, l2, win: _Window, start=None):
    """The action kernel: (S_r, T_r, u_in, u_out) for rows (E, L^2) inside
    their window, the turning points solved from `start` if given.  S_r is
    checked to 1e-10 max(S_r, pi hbar) per row: S_r vanishes at the well
    bottom, and pi hbar is the smallest quantization target.  T_r only
    steers Newton."""
    u_in, u_out = _turning_points(trap, e, l2, win, start)
    s, t = _checked(partial(_action_sums, trap), (e, l2, u_in, u_out), 1e-10,
                    math.pi * trap.hbar, "radial action")
    return s, t, u_in, u_out


def _separatrix_action(trap: _Trap, l2, win: _Window) -> np.ndarray:
    """S_r(E_top) per row, inf for eps >= 0 and nan for an open well; the
    integrand is linear at the double root u_top, so smooth in the angle."""
    s = np.full(np.shape(l2), np.inf if trap.eps >= 0 else np.nan)
    if trap.eps < 0:
        rows = np.flatnonzero(~np.isnan(win.e_well))
        top = win.take(rows)
        s[rows] = _radial_action_rows(trap, top.e_top, l2[rows], top)[0]
    return s


def _window_holding(trap: _Trap, e, l2) -> _Window:
    """The windows of rows (E, L^2), each of which must hold its energy."""
    if not np.all(e > 0):
        raise DomainError(f"energy must be > 0, got {np.min(e)}")
    win = _window(trap, l2)
    if np.any(np.isnan(win.e_well) | (e >= win.e_top)):
        raise NoBoundStateError(f"energy {np.max(e)} lies above the barrier")
    if np.any(e <= win.e_well):
        raise NoBoundStateError(f"energy {np.min(e)} lies below the well minimum")
    return win


def _outer_radius(trap: _Trap, e: np.ndarray) -> np.ndarray:
    """Outer turning radius of the l = 0 motion, |V(r_max) - E| <= 1e-12 E."""
    l2 = np.zeros(e.size)
    r_max = np.sqrt(_turning_points(trap, e, l2, _window_holding(trap, e, l2))[1])
    resid = np.abs(0.5 * trap.omega ** 2 * r_max ** 2
                   + trap.eps * r_max ** (2 * trap.alpha) - e)
    if np.any(resid > 1e-12 * e):
        raise AccuracyError(f"turning point residual {np.max(resid):.3e} exceeds 1e-12 * E")
    return r_max


def outer_turning_point(params: SystemParams, energy: float) -> TurningPoint:
    """Outer classical turning point of V(r) = omega^2 r^2 / 2 + eps r^(2 alpha)
    at the given energy (the l = 0 radial problem)."""
    r_max = _outer_radius(_resolve(params), np.array([float(energy)]))
    return TurningPoint(r_max=float(r_max[0]), inner=0.0)


def radial_action(params: SystemParams, energy, l_eff):
    """Radial action 2 * integral of sqrt(2E - omega^2 r^2 - 2 eps r^(2a) - L^2/r^2) dr
    between the turning points, with both square-root end points mapped away.

    Equal to integral of sqrt(Q(u))/u du over [u_in, u_out]; the order-doubled
    quadrature difference must stay below 1e-10 relative.  Arrays of E and
    L_eff go through the kernel in one pass.
    """
    e, l_eff = np.broadcast_arrays(np.asarray(energy, dtype=float),
                                   np.asarray(l_eff, dtype=float))
    trap = _resolve(params)
    e, l2 = e.ravel(), l_eff.ravel() ** 2
    s = _radial_action_rows(trap, e, l2, _window_holding(trap, e, l2))[0]
    return float(s[0]) if l_eff.ndim == 0 else s.reshape(l_eff.shape)


def _quantize(trap: _Trap, l2, win: _Window, target: float, guess):
    """(E, T_r(E)) with S_r(E, L) = target for rows whose level exists, by
    Newton in E inside [E_well, E_top) that bisects when a step leaves the
    bracket.  Accepts |S_r - target| <= 1e-12 target, or the 1e-11 contract
    once the bracket has collapsed.  Each step solves its turning points from
    the previous step's roots."""
    lo, hi = win.e_well.copy(), win.e_top.copy()
    # Out of the window, start mid-window or (eps >= 0) a harmonic step up.
    e = np.where((guess > lo) & (guess < hi), guess,
                 np.where(np.isfinite(hi), 0.5 * (lo + hi),
                          lo + target * trap.omega / math.pi))
    energy, period = np.empty(l2.size), np.empty(l2.size)
    rows, start = np.arange(l2.size), None
    for _ in range(_MAX_STEPS):
        s, t, u_in, u_out = _radial_action_rows(trap, e, l2[rows], win.take(rows), start)
        resid = s - target
        lo[rows] = np.where(resid < 0, e, lo[rows])
        hi[rows] = np.where(resid < 0, hi[rows], e)
        stalled = hi[rows] - lo[rows] <= 4.0 * _ULP * e
        ok = np.abs(resid) <= np.where(stalled, 1e-11, 1e-12) * target
        energy[rows[ok]], period[rows[ok]] = e[ok], t[ok]
        if ok.all():
            return energy, period
        rows, e, newton = rows[~ok], e[~ok], (e - resid / t)[~ok]
        start = u_in[~ok], u_out[~ok]
        inside = (newton > lo[rows]) & (newton < hi[rows])
        e = np.where(inside, newton, 0.5 * (lo[rows] + hi[rows]))
    raise AccuracyError(f"quantization residual {np.max(np.abs(resid)):.3e} exceeds "
                        f"1e-11 * target for {rows.size} levels")


def ebk_energy(params: SystemParams, n_r: int, l: int) -> EbkLevel:
    """Torus-quantized level: solve S_r(E) = 2 pi hbar (n_r + 1/2) with the
    half-integer angular shift L_eff = hbar (l + (D-2)/2) from the unperturbed
    energy.  It exists when S_r at the barrier top (if any) exceeds the target.
    """
    if n_r < 0 or l < 0:
        raise DomainError(f"quantum numbers must be >= 0, got ({n_r}, {l})")
    trap = _resolve(params)
    l2 = np.array([trap.l_eff(l) ** 2])
    win = _window(trap, l2)
    if not _separatrix_action(trap, l2, win)[0] > trap.target(n_r):
        raise NoBoundStateError(f"level (n_r={n_r}, l={l}) has no bound solution")
    e0 = np.array([trap.hbar * trap.omega * (2 * n_r + l + trap.dim / 2.0)])
    energy, _ = _quantize(trap, l2, win, trap.target(n_r), e0)
    return EbkLevel(n_r=n_r, l=l, energy=float(energy[0]),
                    degeneracy=angular_degeneracy(trap.dim, l))


def enumerate_levels(params: SystemParams, e_max: float,
                     n_r_max: int = 200, l_max: int = 400) -> list[EbkLevel]:
    """All torus-quantized levels with E <= e_max, ordered by l, then n_r.

    Walks l outward, and n_r upward within each l, until the energy exceeds
    e_max; warns with a weight bound if the caps cut the enumeration short.
    Levels above a barrier (eps < 0) are skipped and reported in the warning.
    All active l of one n_r are solved at once.  With the level spacing
    s = dE/dn = 2 pi hbar / T_r, each starts from the Adams-Bashforth step
    E(n_r-1) + 1.5 s(n_r-1) - 0.5 s(n_r-2), or E(n_r-1) + s(n_r-1) at n_r = 1.
    """
    if math.isnan(e_max):
        raise DomainError("e_max must not be nan")
    if n_r_max < 0 or l_max < 0:
        raise DomainError(f"level caps must be >= 0, got n_r_max={n_r_max}, l_max={l_max}")
    trap = _resolve(params)
    with np.errstate(over="ignore"):
        l_eff = trap.l_eff(np.arange(l_max + 1))
        l2 = l_eff ** 2
    # Every nonzero L^2 must be a normal float: the kernels work at its scale.
    if not np.all((l2 < math.inf) & ((l2 >= np.finfo(float).tiny) | (l_eff == 0.0))):
        raise DomainError(f"(hbar l)^2 leaves the float range at hbar={trap.hbar:g}, "
                          f"l <= {l_max}")
    win = _window(trap, l2)
    s_top = _separatrix_action(trap, l2, win)
    found, top = [], np.full(l2.size, -1)
    step_before = np.full(l2.size, np.nan)  # s(n_r - 2) per l; nan until n_r = 2
    # n_r = 0 for every l whose well bottom lies below e_max.
    rows = np.flatnonzero(win.e_well <= e_max)
    guess = trap.hbar * trap.omega * (rows + trap.dim / 2.0)
    l_end = l2.size
    for n_r in range(n_r_max + 1):
        target = trap.target(n_r)
        exists = s_top[rows] > target
        rows = rows[exists]
        e_rows, t_rows = _quantize(trap, l2[rows], win.take(rows), target, guess[exists])
        if n_r == 0:
            # The first l whose lowest level exists above e_max ends the walk.
            above = (s_top > target) & (win.e_well > e_max)
            above[rows] = e_rows > e_max
            l_end = int(np.argmax(above)) if above.any() else l2.size
        kept = (e_rows <= e_max) & (rows < l_end)
        rows, e_rows, t_rows = rows[kept], e_rows[kept], t_rows[kept]
        top[rows] = n_r
        found += [(int(l), n_r, float(e)) for l, e in zip(rows, e_rows)]
        if not rows.size:
            break
        step = 2.0 * math.pi * trap.hbar / t_rows
        guess = e_rows + np.where(np.isnan(step_before[rows]), step,
                                  1.5 * step - 0.5 * step_before[rows])
        step_before[rows] = step
    # Why the walk in n_r stopped, per l: the cap, the barrier, or e_max.
    truncated = []
    for l, n_next in enumerate(top[:l_end] + 1):
        if n_next > n_r_max:
            truncated.append(f"n_r cap {n_r_max} reached at l={l}")
        elif not s_top[l] > trap.target(n_next):
            truncated.append(f"(n_r={n_next}, l={l}) above barrier")
    if l_end == l2.size:
        truncated.append(f"l cap {l_max} reached")
    if truncated:
        warnings.warn("level enumeration truncated: " + "; ".join(truncated[:5]),
                      TruncationWarning)
    return [EbkLevel(n_r=n_r, l=l, energy=e, degeneracy=angular_degeneracy(trap.dim, l))
            for l, n_r, e in sorted(found)]


def _check_levels(params: SystemParams, levels: list[EbkLevel]) -> None:
    """Each degeneracy must match its l in this dimension, and each energy must
    quantize this trap's radial action to 1e-9 of its target (one pass)."""
    trap = _resolve(params)
    for lev in levels:
        if lev.n_r < 0 or lev.degeneracy != angular_degeneracy(trap.dim, lev.l):
            raise DomainError(f"level (n_r={lev.n_r}, l={lev.l}) with degeneracy "
                              f"{lev.degeneracy} is not a D={trap.dim} level")
    n_r, l, e = (np.array([getattr(lev, k) for lev in levels], dtype=float)
                 for k in ("n_r", "l", "energy"))
    target = trap.target(n_r)
    try:
        action = radial_action(params, e, trap.l_eff(l))
    except NoBoundStateError as exc:
        raise DomainError(f"a given level lies outside this system's well: {exc}") from exc
    bad = np.flatnonzero(~(np.abs(action - target) <= 1e-9 * target))
    if bad.size:
        lev = levels[bad[0]]
        raise DomainError(f"level (n_r={lev.n_r}, l={lev.l}) at E={lev.energy} is not "
                          f"quantized in this system ({bad.size} of {len(levels)} "
                          f"levels do not match)")


def ebk_dos(params: SystemParams, energies: np.ndarray, width: float,
            n_r_max: int = 200, l_max: int = 400,
            levels: list[EbkLevel] | None = None
            ) -> tuple[np.ndarray, np.ndarray, list[EbkLevel]]:
    """Gaussian-smoothed torus-quantized DOS and its smooth reference.

    Returns (g_ebk, g_smooth, levels); the oscillating part is their
    difference.  The grid must be 1-D, non-empty and strictly increasing.
    Levels are enumerated out to 5 widths past the grid end so no Gaussian
    weight is lost, unless a precomputed list is supplied; such a list must
    hold levels of this system.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or not energies.size:
        raise DomainError(f"energy grid must be a non-empty 1-D array, "
                          f"got shape {energies.shape}")
    if not 0.0 < width < math.inf:
        raise DomainError(f"smoothing width must be finite and > 0, got {width}")
    if np.any(np.diff(energies) <= 0):
        raise DomainError("energy grid must be strictly increasing")
    e_cut = energies[-1] + 5.0 * width
    if levels is None:
        levels = enumerate_levels(params, e_cut, n_r_max=n_r_max, l_max=l_max)
    else:
        _check_levels(params, levels)
    g = np.zeros_like(energies)
    # fixed accumulation order keeps the sum independent of enumeration order;
    # past 27.5 widths exp(-x^2) is exactly 0.0 (x^2 > 745.14), so each level
    # is added on its grid slice only and g is the same as the full-grid sum
    ordered = sorted(levels, key=lambda lev: (lev.energy, lev.l, lev.n_r))
    centres = np.array([lev.energy for lev in ordered])
    lo = np.searchsorted(energies, centres - 27.5 * width)
    hi = np.searchsorted(energies, centres + 27.5 * width, side="right")
    for level, a, b in zip(ordered, lo, hi):
        g[a:b] += level.degeneracy * np.exp(-((energies[a:b] - level.energy) / width) ** 2)
    g /= width * math.sqrt(math.pi)
    return g, tf_smooth(params, energies), levels


@lru_cache(maxsize=None)
def _tf_nodes(order: int, dim: int, alpha: int):
    """s^2, s^(2 alpha) and the measure s^(D-1) cos(psi) w at the nodes of
    r = r_max s, s = sin(psi), on [0, pi/2]."""
    psi, w = gauss_legendre(order).on_interval(0.0, 0.5 * math.pi)
    s = np.sin(psi)
    return _frozen(s * s, s ** (2 * alpha), s ** (dim - 1) * np.cos(psi) * w)


def _tf_sums(trap: _Trap, e, r_max, order: int):
    """r_max^D * sum [E - a s^2 - b s^(2 alpha)]^(D/2-1) s^(D-1) cos(psi) w per
    row, with a = omega^2 r_max^2 / 2 and b = eps r_max^(2 alpha)."""
    s2, s2a, measure = _tf_nodes(order, trap.dim, trap.alpha)
    power = 0.5 * trap.dim - 1.0
    if power == 0.0:  # D = 2: the bracket drops out
        f = np.broadcast_to(measure, (e.size, measure.size))
    else:
        f = np.multiply.outer(0.5 * trap.omega ** 2 * r_max ** 2, s2)
        np.subtract(e[:, None], f, out=f)
        f -= np.multiply.outer(trap.eps * r_max ** (2 * trap.alpha), s2a)
        np.maximum(f, 0.0, out=f)
        if power == 0.5:
            np.sqrt(f, out=f)
        elif power != 1.0:
            np.power(f, power, out=f)
        f *= measure
    return (np.sum(f, axis=1) * r_max ** trap.dim,)


def tf_smooth(params: SystemParams, energy):
    """Smooth phase-space DOS:

        (2 pi hbar^2)^(-D/2) * (2 pi^(D/2) / Gamma(D/2)^2)
            * integral_0^rmax [E - V(r)]^(D/2-1) r^(D-1) dr,

    with the substitution r = rmax sin(psi) flattening the end point for odd D.
    Takes a float or an array; each element has its own 1e-12 E turning-point
    residual and 1e-11 coarse/fine check.
    """
    trap = _resolve(params)
    energies = np.asarray(energy, dtype=float)
    e = energies.ravel()
    out = _checked(partial(_tf_sums, trap), (e, _outer_radius(trap, e)), 1e-11, 1e-300,
                   "smooth DOS")[0]
    out *= ((2.0 * math.pi * trap.hbar ** 2) ** (-0.5 * trap.dim)
            * 2.0 * math.pi ** (0.5 * trap.dim) / math.gamma(0.5 * trap.dim) ** 2)
    return float(out[0]) if energies.ndim == 0 else out.reshape(energies.shape)
