"""Numerical kernels: the exact coefficients of the Legendre polynomials, the
confluent hypergeometric function 1F1(1; b; i y) on the imaginary axis for
b = (D+1)/2 (its Taylor series summed in real arithmetic), a table-driven
exp(i phi), Gauss-Legendre quadrature rules and their Kronrod extensions, and
the roots of a rising Chebyshev-Lobatto interpolant.

Everything here is pure and reentrant; quadrature rules are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "QuadratureRule",
    "chebyshev_lobatto",
    "expi",
    "gauss_kronrod",
    "gauss_legendre",
    "kummer_1f1",
    "kummer_1f1_axis",
    "legendre_coefficients",
    "rising_roots",
]


@lru_cache(maxsize=None)
def legendre_coefficients(alpha: int) -> tuple[Fraction, ...]:
    """Exact coefficients of P_alpha in ascending powers of x, from the explicit
    sum: x^(alpha-2k) takes (-1)^k C(alpha, k) C(2 alpha - 2k, alpha) / 2^alpha."""
    out = [Fraction(0)] * (alpha + 1)
    for k in range(alpha // 2 + 1):
        out[alpha - 2 * k] = Fraction((-1) ** k * math.comb(alpha, k)
                                      * math.comb(2 * alpha - 2 * k, alpha), 2 ** alpha)
    return tuple(out)


# ---------------------------------------------------------------------------
# Confluent hypergeometric function 1F1(1; b; i y)
# ---------------------------------------------------------------------------

def _series_1f1(b: float, y: np.ndarray) -> np.ndarray:
    """Taylor series 1F1(1; b; iy) = sum_j (iy)^j / (b)_j for real y, in real
    arithmetic: the even j give the real part sum_m (-y^2)^m / (b)_(2m), the
    odd j the imaginary part (y / b) sum_m (-y^2)^m b / (b)_(2m+1)
    (Abramowitz & Stegun 13.1.2, split by parity).  Each is a polynomial in
    -y^2, summed in place by Horner in the power basis (two array operations
    per term) from coefficients formed once per call, with one term count for
    all of y, fixed before the loop."""
    # The sum keeps the terms j < n, for the first n with |y| / (b+n) < 1/2 and
    # |y|^n / (b)_n < 1e-17 at the largest |y|: from n on each term is under
    # half the one before, so the neglected tail is below 2e-17.  It keeps
    # j = 1 even at n = 1, the whole of the imaginary part of a tiny y.
    r = float(np.max(np.abs(y), initial=0.0))
    n, bound = 0, 1.0
    while not (r < 0.5 * (b + n) and bound < 1e-17):
        bound *= r / (b + n)
        n += 1
    # Horner runs in t = -y^2 / s with s = max(r^2, 1), so the coefficients
    # s^m / (b)_(2m) are the terms at |y| = r: 1/(b)_(2m) alone leaves the
    # float range while its term still counts (b = 511: 1/(b)_112 does, and
    # the term at |y| = b is 1.2e-5).
    s = max(r * r, 1.0)
    even, odd = [1.0], [1.0]  # s^m / (b)_(2m) and s^m b / (b)_(2m+1)
    for m in range(1, (n + 1) // 2):  # even j = 2m < n
        even.append(even[-1] * s / ((b + 2 * m - 2) * (b + 2 * m - 1)))
    for m in range(1, n // 2):  # odd j = 2m + 1 < n
        odd.append(odd[-1] * s / ((b + 2 * m - 1) * (b + 2 * m)))
    t = y * y
    t *= -1.0 / s
    re, im = np.full_like(y, even.pop()), np.full_like(y, odd.pop())
    for c in reversed(even):
        re *= t
        re += c
    for c in reversed(odd):
        im *= t
        im += c
    im *= y
    im /= b
    out = np.empty(y.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _upward_1f1(b: float, y: np.ndarray) -> np.ndarray:
    # The contiguous relation 1F1(1;c+1;z) = c (1F1(1;c;z) - 1) / z, upward
    # from 1F1(1;1;z) = e^z (integer b) or from 1F1(1;3/2;iy) =
    # sqrt(pi) e^(iy) / (2 sqrt(iy)) - 1/t (half-integer b, y > 0; the
    # conjugate for y < 0), t the erfc fraction of `_erfc_fraction`.  Each
    # step scales an error by c / |z| < 1 for |z| > b, and no intermediate
    # leaves the float range.
    z = 1j * y
    if float(b).is_integer():
        f, c = np.exp(z), 1.0
    else:
        s = np.abs(y)
        f = math.sqrt(math.pi / 8.0) * (1.0 - 1.0j) * np.exp(1j * s) / np.sqrt(s) \
            - 1.0 / _erfc_fraction(s)
        f, c = np.where(y < 0, f.conjugate(), f), 1.5
    while c < b:
        f = c * (f - 1.0) / z
        c += 1.0
    return f


def kummer_1f1_axis(b: float, y) -> np.ndarray:
    """1F1(1; b; i y) for a real array y, b >= 1 with 2b an integer.

    This is the only domain the package reaches: b = (D+1)/2 on the
    imaginary axis.  The Taylor series serves |y| <= max(10, b), where it
    is roundoff-safe (for b > 10 no term exceeds the first) and one term
    count, set by the largest |y| and b, bounds the tail at every point; it
    is summed in real arithmetic, by Horner in -y^2 for the real part and
    for the imaginary part.
    Beyond it, the contiguous relation in b runs upward from e^z (integer
    b, odd D) or from 1F1(1; 3/2; iy), through the continued fraction for
    erfc (half-integer b, even D); it is stable for |y| > b and loses
    digits below it (3.6e-9 at D = 170, y = b/2).
    """
    if not (b >= 1.0 and float(2 * b).is_integer()):
        raise DomainError(f"1F1(1;b;iy) needs b >= 1 with 2b an integer, got b={b}")
    b = float(b)
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape, dtype=complex)
    near = np.abs(y) <= max(10.0, b)
    out[near] = _series_1f1(b, y[near])
    out[~near] = _upward_1f1(b, y[~near])
    return out


def kummer_1f1(b: float, z: complex) -> complex:
    """1F1(1; b; z), the confluent hypergeometric series sum_n z^n / (b)_n, at
    one point of the imaginary axis: the scalar view of `kummer_1f1_axis`.

    Raises DomainError for z off the imaginary axis, and for b < 1 or 2b not
    an integer, z = 0 included.
    """
    z = complex(z)
    if z.real != 0.0:
        raise DomainError(f"1F1(1;b;z) is evaluated on the imaginary axis only, got z={z}")
    return complex(kummer_1f1_axis(b, z.imag))


# Depth of the erfc fraction: past x = 10, the only arguments the recurrence
# passes, it measured within 2.2e-16 of mpmath at 40 digits.
_FRACTION_DEPTH = 18


def _erfc_fraction(x: np.ndarray) -> np.ndarray:
    """t = 2ix + 1 - 1*2/(2ix + 5 - 3*4/(2ix + 9 - ...)) to `_FRACTION_DEPTH`
    partial numerators, evaluated backward for all of x at once; then
    sqrt(pi) e^(ix) erfc(sqrt(ix)) = 2 sqrt(ix) / t.  This is the even part
    of Laplace's continued fraction for erfc (Abramowitz & Stegun 7.1.14;
    Cuyt et al., Handbook of Continued Fractions for Special Functions,
    ch. 13), which converges faster the larger x is."""
    a = 2j * x
    t = a + (4 * _FRACTION_DEPTH + 1)
    for k in range(_FRACTION_DEPTH - 1, -1, -1):
        t = (a + (4 * k + 1)) - ((2 * k + 1) * (2 * k + 2)) / t
    return t


# ---------------------------------------------------------------------------
# exp(i phi) by table lookup
# ---------------------------------------------------------------------------

# phi = m pi/512 + r with |r| <= pi/1024 (Tang, ACM TOMS 15, 144 (1989)).  pi/512
# is split into a high part of 24 significant bits and the rest (Cody & Waite,
# Software Manual for the Elementary Functions, 1980), so m * hi is exact for
# |m| < 2^29, which covers |phi| <= 2^21.
_EXPI_HI = float.fromhex("0x1.921fb6p-8")
_EXPI_LO = -1.707476171947751e-10  # pi/512 - _EXPI_HI
_EXPI_BOUND = 2.0 ** 21
_EXPI_BLOCK = 1 << 13  # entries per block: a complex temporary takes 128 kB
# Adding 1.5 * 2^52 rounds to an integer, which the low bits of the sum hold.
_ROUNDING_SHIFT = 1.5 * 2.0 ** 52


def _expi_table() -> np.ndarray:
    """exp(i pi m/512) for m = 0..1023, from the exact angle m * hi and the
    correction exp(i m lo) - 1 = i m lo - (m lo)^2 / 2, |m lo| < 1.8e-7."""
    m = np.arange(1024)
    head = np.exp(1j * (m * _EXPI_HI))
    tail = m * _EXPI_LO
    table = head + head * (1j * tail - 0.5 * tail * tail)
    table.setflags(write=False)
    return table


_EXPI_TABLE = _expi_table()


def expi(phase) -> np.ndarray:
    """exp(i phase) for a real array with |phase| <= 2^21, within 2.5e-16.

    exp(i m pi/512) comes from a 1,024-entry table and exp(i r) - 1 from the
    Taylor series of cos r - 1 through r^4 and of sin r through r^5 (their
    remainders are below 2e-18 at |r| = pi/1024).  The work runs in blocks of
    8,192 entries, so the memory beyond the result does not grow with the
    array.  A phase past the bound, or not finite, is a DomainError.
    """
    phase = np.asarray(phase, dtype=float)
    low, high = phase.min(initial=0.0), phase.max(initial=0.0)
    if not (-_EXPI_BOUND <= low and high <= _EXPI_BOUND):  # also catches nan
        raise DomainError(f"expi needs finite |phase| <= 2^21, got range [{low:g}, {high:g}]")
    flat = phase.ravel()
    out = np.empty(flat.shape, dtype=complex)
    # The series run in contiguous scratch and fill exp(i r) - 1 at the end:
    # on its strided real and imaginary views they ran 20-30% slower.
    size = min(flat.size, _EXPI_BLOCK)
    cos_buf, sin_buf, step_buf = np.empty(size), np.empty(size), np.empty(size, dtype=complex)
    for start in range(0, flat.size, _EXPI_BLOCK):
        x = flat[start:start + _EXPI_BLOCK]
        m = x * (512.0 / math.pi)
        m += _ROUNDING_SHIFT
        index = m.view(np.int64) & 1023
        m -= _ROUNDING_SHIFT
        r = x - m * _EXPI_HI
        m *= _EXPI_LO
        r -= m
        r2 = r * r
        cos_m1, sin_r, step = cos_buf[:x.size], sin_buf[:x.size], step_buf[:x.size]
        np.multiply(r2, 1.0 / 24.0, out=cos_m1)
        cos_m1 -= 0.5
        cos_m1 *= r2
        np.multiply(r2, 1.0 / 120.0, out=sin_r)
        sin_r -= 1.0 / 6.0
        sin_r *= r2
        sin_r *= r
        sin_r += r
        step.real = cos_m1  # exp(i r) - 1
        step.imag = sin_r
        head = _EXPI_TABLE.take(index)
        block = out[start:start + _EXPI_BLOCK]
        np.multiply(head, step, out=block)
        block += head
    return out.reshape(phase.shape)


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights of a Gauss-Legendre or Gauss-Kronrod rule on [-1, 1];
    arrays are read-only."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def on_interval(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights mapped to [a, b]; column arrays of ends (shape
        (m, 1)) give one row of nodes per interval."""
        half = 0.5 * (b - a)
        return a + half * (self.nodes + 1.0), half * self.weights

    def on_panels(self, a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights for `panels` equal subintervals of [a, b]."""
        edges = np.linspace(a, b, panels + 1)
        x, w = self.on_interval(edges[:-1, None], edges[1:, None])
        return x.ravel(), w.ravel()


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    if order < 1:
        raise DomainError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def _kronrod_recurrence(n: int) -> list[float]:
    """b_0 ... b_2n of the Jacobi-Kronrod matrix of the Legendre weight, by
    Laurie's algorithm (Math. Comp. 66, 1133 (1997)).  The first ceil(3n/2)+1
    are Legendre's own, b_k = k^2 / (4k^2 - 1) with b_0 = 2, the mass; the
    rest come from the mixed moments s and t.  The weight is even, so every
    diagonal entry a_k is 0 and only Laurie's b updates remain."""
    known = (3 * n + 1) // 2 + 1
    b = [2.0] + [k * k / (4.0 * k * k - 1.0) for k in range(1, known)]
    b += [0.0] * (2 * n + 1 - known)
    s, t = [0.0] * (n // 2 + 2), [0.0] * (n // 2 + 2)  # index i holds Laurie's i - 1
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            u += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - (m - k)
            u += b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
            s[j + 1] = u
        if m % 2:  # j is the inner loop's last
            b[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return b


@lru_cache(maxsize=None)
def gauss_kronrod(n: int) -> QuadratureRule:
    """The (2n+1)-point Kronrod extension of the n-point Gauss-Legendre rule:
    exact for polynomials of degree 3n+1 (Kronrod 1965), all weights positive.

    Its first n nodes are those of `gauss_legendre(n)`, bit for bit, and the
    n+1 Kronrod nodes follow in ascending order; `order` is the node count
    2n+1.  The Kronrod nodes are the eigenvalues (by `eigvalsh`) of Laurie's
    Jacobi-Kronrod matrix that interlace the Gauss nodes.  Every weight is the
    Christoffel sum 1 / sum_k p_k(x)^2 over that matrix's orthonormal
    recurrence, taken at the node it weighs."""
    if n < 1:
        raise DomainError(f"quadrature order must be >= 1, got {n}")
    b = np.array(_kronrod_recurrence(n))
    root = np.sqrt(b)
    x = np.linalg.eigvalsh(np.diag(root[1:], 1), UPLO="U")
    x = 0.5 * (x[::2] - x[::-2])  # the Kronrod nodes, exactly symmetric
    nodes = np.concatenate([gauss_legendre(n).nodes, x])
    p_prev, p = np.zeros_like(nodes), np.full_like(nodes, 1.0 / root[0])
    total = p * p
    for k in range(1, b.size):
        p_prev, p = p, (nodes * p - root[k - 1] * p_prev) / root[k]
        total += p * p
    weights = 1.0 / total
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=2 * n + 1)


# ---------------------------------------------------------------------------
# Chebyshev-Lobatto interpolation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def chebyshev_lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n >= 2 Chebyshev-Lobatto nodes, rising from -1 to 1, and the matrix
    that takes values at them to the coefficients of their Chebyshev
    interpolant; both read-only."""
    if n < 2:
        raise DomainError(f"Chebyshev-Lobatto interpolation needs n >= 2 nodes, got {n}")
    x = np.polynomial.chebyshev.chebpts2(n)
    to_coef = np.linalg.inv(np.polynomial.chebyshev.chebvander(x, n - 1))
    x.setflags(write=False)
    to_coef.setflags(write=False)
    return x, to_coef


def _log_term(x, k):
    """k d log(d) for d = (1 - x) / 2, and its derivative in x (0 where k = 0)."""
    d = 0.5 - 0.5 * x
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.log(d)
        return np.where(d > 0, k * d * log, 0.0), np.where(k > 0, -0.5 * k * (log + 1.0), 0.0)


def rising_roots(values, target, log_term=0.0) -> np.ndarray:
    """x in [-1, 1] where f(x) = target, per row of values of f at the
    Chebyshev-Lobatto nodes, rising along the row.  f is the interpolant of
    f - k d log(d), d = (1 - x) / 2, plus that term, for k = log_term per row:
    an end point where f has that logarithmic singularity leaves the
    interpolant smooth.  Newton steps start between the nodes around the
    target and stay in a bracket, bisecting where they would leave it; a row
    stops at a step of 1e-14, all rows after 12 steps.  A target outside the
    row's values gives the nearer end.  Each row's coefficients are summed on
    their own (no matrix product), so a root ignores the rows beside it."""
    values, target = np.asarray(values, dtype=float), np.asarray(target, dtype=float)
    x_nodes, to_coef = chebyshev_lobatto(values.shape[1])
    k = np.broadcast_to(log_term, target.shape)
    smooth = values - _log_term(x_nodes, k[:, None])[0]
    coef = np.array([(smooth * row).sum(axis=1) for row in to_coef])
    deriv = np.polynomial.chebyshev.chebder(coef)
    j = np.clip(np.count_nonzero(values <= target[:, None], axis=1), 1, x_nodes.size - 1)
    lo, hi = x_nodes[j - 1], x_nodes[j]
    f_lo, f_hi = np.take_along_axis(values, np.stack([j - 1, j], axis=1), axis=1).T
    x = lo + (hi - lo) * np.clip((target - f_lo) / (f_hi - f_lo), 0.0, 1.0)
    for _ in range(12):
        g, dg = _log_term(x, k)
        resid = np.polynomial.chebyshev.chebval(x, coef, tensor=False) + g - target
        lo, hi = np.where(resid < 0, x, lo), np.where(resid < 0, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - resid / (np.polynomial.chebyshev.chebval(x, deriv, tensor=False) + dg)
        done = np.abs(newton - x) <= 1e-14  # a converged row keeps its step, even onto an end
        x = np.where(done, np.clip(newton, lo, hi),
                     np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi)))
        if done.all():
            break
    return x
