"""Batch command-line interface.

Every subcommand writes CSV or JSON with deterministic 17-significant-digit
formatting, so identical invocations are byte-identical.  All quantities are
in hbar = omega = m = 1 units unless --omega/--hbar are given; energy axes
are always emitted as E over hbar*omega.

Exit codes: 0 success, 2 domain error (a value out of range or not finite,
or a level cache that cannot be read or belongs to another system),
3 accuracy error, 64 usage error.  A level enumeration that stops at a cap
or a barrier still exits 0 and prints its TruncationWarning, with the
reasons, to stderr.
The environment variable HOSHELL_OUTDIR, when set, prefixes relative output
paths.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .actionpoly import (
    SystemParams,
    action_coefficients,
    delta_s,
    sigma_alpha,
    verify_legendre_form,
)
from .dos import envelope_nodes, pert_dos, supershell_nodes
from .ebk import EbkLevel, ebk_dos, enumerate_levels
from .errors import AccuracyError, DomainError, UnsupportedMethodError
from .modfactor import modulation
from .oracle import (
    EllipseOrbit,
    PhaseState,
    angular_momentum,
    delta_s_oracle,
    integrate_orbit,
)

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only plain decimals such as -0.5 for negative values,
        # so -1.25e-3 or -5:5:11 would read as an unknown flag.  No flag here
        # starts with a digit, so anything that does is a value.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _parse_range(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise DomainError(f"range must look like a:b:n, got {text!r}") from None
    if n < 1 or hi <= lo:
        raise DomainError(f"range needs b > a and n >= 1, got {text!r}")
    return np.linspace(lo, hi, n)


def _scale(args, edge: float) -> float:
    """hbar omega, which must keep an energy of `edge` hbar omega a finite float."""
    scale = args.hbar * args.omega
    if not math.isfinite(edge * scale):
        raise DomainError(f"energy {edge:g} hbar omega leaves the float range "
                          f"at hbar omega={scale:g}")
    return scale


def _grid(args) -> tuple[np.ndarray, float]:
    """The --e-range grid in units of hbar omega, and hbar omega, which must
    keep both grid ends finite floats as energies."""
    shell = _parse_range(args.e_range)
    return shell, _scale(args, max(abs(float(shell[0])), abs(float(shell[-1]))))


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    out = Path(path)
    base = os.environ.get("HOSHELL_OUTDIR")
    if base and not out.is_absolute():
        out = Path(base) / out
    out.parent.mkdir(parents=True, exist_ok=True)
    return open(out, "w", newline="\n"), True


def _write_text(path: str | None, lines) -> None:
    """Write the strings of `lines` in order, one at a time, so a long CSV
    never exists as one string."""
    stream, close = _open_out(path)
    try:
        stream.writelines(lines)
    finally:
        if close:
            stream.close()


def _csv(header: list[str], row: str, rows):
    """CSV lines: the header, then `row % values` for each tuple of `rows`.
    `row` has %d for integer columns, exact for Python ints of any size, and
    %.17g for float columns; memoryviews of numpy columns yield Python floats."""
    return itertools.chain([",".join(header) + "\n"], (row % values for values in rows))


def _system_params(args, dim=None) -> SystemParams:
    return SystemParams(dim=dim or args.D, omega=args.omega, hbar=args.hbar,
                        terms=((args.epsilon, args.alpha),))


def _cmd_coeffs(args) -> int:
    if args.alpha_max < 1:
        raise DomainError(f"alpha_max must be >= 1, got {args.alpha_max}")
    columns, row = ((["numerator", "denominator"], "%d,%d,%d,%d\n") if args.exact
                    else (["value"], "%d,%d,%.17g\n"))
    rows = ((alpha, j, *((c.numerator, c.denominator) if args.exact else (float(c),)))
            for alpha in range(1, args.alpha_max + 1)
            for j, c in enumerate(action_coefficients(alpha).coeffs))
    _write_text(args.out, _csv(["alpha", "j", *columns], row, rows))
    return 0


def _cmd_verify(args) -> int:
    checks = verify_legendre_form(args.alpha_max)
    _write_text(args.out, _csv(["alpha", "matches_legendre_form"], "%d,%d\n",
                               ((c.alpha, c.matches) for c in checks)))
    return 0 if all(c.matches for c in checks) else 1


_METHOD = {"quad": "quadrature", "closed": "closed_form", "spa": "spa"}


def _cmd_modfactor(args) -> int:
    if args.k == 0:
        raise DomainError("repetition index k must be nonzero")
    poly = action_coefficients(args.alpha)
    xs = _parse_range(args.sigma_over_hbar_range)
    if args.method == "all":
        # the closed form only exists for two-coefficient polynomials
        methods = ["quad", "closed", "spa"] if args.alpha in (2, 3) else ["quad", "spa"]
    else:
        methods = [args.method]
    header = ["sigma_over_hbar", *(f"{part}_{m}" for m in methods
                                   for part in ("re", "im", "abs"))]
    # M_k(sigma) = M_1(k sigma); `modulation` rejects a product past the float range
    with np.errstate(over="ignore"):
        k_xs = args.k * xs
    columns = [modulation(poly, k_xs, args.D, 1, _METHOD[m])[:, 0] for m in methods]
    # abs per element: np.abs of the whole column can differ in the last bit
    rows = ((x, *(v for z in values for v in (z.real, z.imag, abs(z))))
            for x, *values in zip(memoryview(xs), *columns))
    _write_text(args.out, _csv(header, ",".join(["%.17g"] * len(header)) + "\n", rows))
    return 0


def _cmd_dos(args) -> int:
    params = _system_params(args)
    shell, scale = _grid(args)
    curve = pert_dos(params, shell * scale, k_max=args.k_max,
                     width=args.width * scale, method=_METHOD[args.method])
    _write_text(args.out, _csv(["E_over_hbar_omega", "smooth", "oscillating"],
                               "%.17g,%.17g,%.17g\n",
                               zip(*map(memoryview, (shell, curve.smooth, curve.oscillating)))))
    return 0


def _cmd_supershell(args) -> int:
    params = _system_params(args, dim=3)
    nodes = supershell_nodes(params, args.s_max)
    _write_text(args.out, _csv(["s", "n_s"], "%d,%.17g\n", enumerate(nodes, 1)))
    return 0


_LEVEL_HEADER = ["n_r", "l", "E_over_hbar_omega", "degeneracy"]


def _cmd_ebk(args) -> int:
    params = _system_params(args)
    # An e_max of inf enumerates up to the caps; nan is the library's to reject.
    scale = _scale(args, args.e_max if math.isfinite(args.e_max) else 1.0)
    levels = enumerate_levels(params, e_max=args.e_max * scale,
                              n_r_max=args.nr_max, l_max=args.l_max)
    levels.sort(key=lambda lev: (lev.energy, lev.l))
    text = "".join(_csv(_LEVEL_HEADER, "%d,%d,%.17g,%d\n", [
        (lev.n_r, lev.l, lev.energy / scale, lev.degeneracy) for lev in levels]))
    if args.levels_out:
        _write_text(args.levels_out, [text])
    _write_text(args.out, [text])
    return 0


def _read_levels_csv(path: str, scale: float) -> list[EbkLevel]:
    try:
        with open(path, errors="replace") as fh:  # bad bytes fail the checks below
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh]
    except OSError as exc:
        raise DomainError(f"{path}: cannot read level file: {exc.strerror}") from None
    if header != _LEVEL_HEADER:
        raise DomainError(f"{path}: unexpected level file header: {header}")
    try:
        return [EbkLevel(n_r=int(n_r), l=int(l), energy=float(e) * scale,
                         degeneracy=int(deg)) for n_r, l, e, deg in rows]
    except ValueError:
        raise DomainError(f"{path}: level rows must be n_r,l,E,degeneracy") from None


def _cmd_ebk_dos(args) -> int:
    params = _system_params(args)
    shell, scale = _grid(args)
    levels = _read_levels_csv(args.levels_in, scale) if args.levels_in else None
    try:
        g, smooth, _ = ebk_dos(params, shell * scale, width=args.width * scale,
                               n_r_max=args.nr_max, l_max=args.l_max, levels=levels)
    except DomainError as exc:
        if levels is None:
            raise
        raise DomainError(f"{args.levels_in}: {exc}") from exc
    _write_text(args.out, _csv(["E_over_hbar_omega", "g_ebk", "g_smooth", "dg_ebk"],
                               "%.17g,%.17g,%.17g,%.17g\n",
                               zip(*map(memoryview, (shell, g, smooth, g - smooth)))))
    return 0


def _oracle_delta_s(rng) -> dict:
    worst = 0.0
    for _ in range(100):
        alpha = int(rng.integers(1, 13))
        a = float(rng.uniform(0.3, 2.0))
        b = float(rng.uniform(0.0, a))
        omega = float(rng.uniform(0.5, 2.0))
        eps = float(rng.uniform(-0.5, 0.5))
        orbit = EllipseOrbit(a=a, b=b, omega=omega)
        got = delta_s_oracle(orbit, eps, alpha)
        want = delta_s(action_coefficients(alpha),
                       sigma_alpha(orbit.energy, eps, alpha, omega), orbit.ltilde)
        if want != 0.0:
            worst = max(worst, abs(got - want) / abs(want))
    return {"max_relative_deviation": worst, "pass": worst <= 1e-10}


def _oracle_conservation(rng) -> dict:
    period = 2.0 * math.pi
    worst_energy = worst_l = 0.0
    for dim in (2, 3, 4):
        params = SystemParams.single(dim, 0.02, 2)
        init = PhaseState(q=rng.normal(size=dim), p=rng.normal(size=dim))
        traj = integrate_orbit(params, init, 10.0 * period, period / 1500.0)
        e0 = traj.energies[0]
        worst_energy = max(worst_energy,
                           float(np.max(np.abs(traj.energies - e0)) / abs(e0)))
        l0, mag0 = angular_momentum(PhaseState(q=traj.positions[0], p=traj.momenta[0]))
        for i in range(0, len(traj.times), 250):
            li, _ = angular_momentum(PhaseState(q=traj.positions[i], p=traj.momenta[i]))
            worst_l = max(worst_l, float(np.max(np.abs(li - l0)) / max(mag0, 1e-300)))
    return {
        "max_energy_drift": worst_energy,
        "max_angular_momentum_drift": worst_l,
        "pass": worst_energy <= 1e-9 and worst_l <= 1e-9,
    }


def _cmd_oracle(args) -> int:
    if args.seed < 0:
        raise DomainError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    report = {"seed": args.seed}
    if args.check in ("all", "delta-s"):
        report["delta_s"] = _oracle_delta_s(rng)
    if args.check in ("all", "conservation"):
        report["conservation"] = _oracle_conservation(rng)
    ok = all(section["pass"] for key, section in report.items() if key != "seed")
    report["pass"] = ok
    _write_text(args.out, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return 0 if ok else 1


def _pair_nodes(pert, ebk) -> tuple[list[float], list[float], list[float]]:
    """Pair beat nodes that are each other's nearest neighbour.

    Returns the offsets ebk - pert of the pairs in perturbative-node order,
    then the perturbative and the torus-quantized nodes left unpaired.
    """
    pert = np.asarray(pert, dtype=float)
    ebk = np.asarray(ebk, dtype=float)
    pairs = []
    if pert.size and ebk.size:
        dist = np.abs(ebk[None, :] - pert[:, None])
        nearest_ebk = np.argmin(dist, axis=1)
        nearest_pert = np.argmin(dist, axis=0)
        pairs = [(i, j) for i, j in enumerate(nearest_ebk) if nearest_pert[j] == i]
    paired_pert = {i for i, _ in pairs}
    paired_ebk = {j for _, j in pairs}
    return ([float(ebk[j] - pert[i]) for i, j in sorted(pairs)],
            [float(v) for i, v in enumerate(pert) if i not in paired_pert],
            [float(v) for j, v in enumerate(ebk) if j not in paired_ebk])


def _cmd_compare(args) -> int:
    params = _system_params(args)
    shell, scale = _grid(args)
    energies = shell * scale
    curve = pert_dos(params, energies, k_max=args.k_max, width=args.width * scale,
                     method=_METHOD[args.method])
    g, smooth, _ = ebk_dos(params, energies, width=args.width * scale,
                           n_r_max=args.nr_max, l_max=args.l_max)
    dg_ebk = g - smooth
    rms = float(np.sqrt(np.mean((curve.oscillating - dg_ebk) ** 2)))
    pearson = float(np.corrcoef(curve.oscillating, dg_ebk)[0, 1])
    pert_nodes = envelope_nodes(energies, curve.oscillating, scale) / scale
    ebk_nodes = envelope_nodes(energies, dg_ebk, scale) / scale
    offsets, unmatched_pert, unmatched_ebk = _pair_nodes(pert_nodes, ebk_nodes)
    report = {
        "rms_difference": rms,
        "pearson": pearson,
        "pert_envelope_nodes": [float(v) for v in pert_nodes],
        "ebk_envelope_nodes": [float(v) for v in ebk_nodes],
        "node_offsets": offsets,
        "unmatched_pert_nodes": unmatched_pert,
        "unmatched_ebk_nodes": unmatched_ebk,
    }
    _write_text(args.out, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
    return 0


def _add_system(p: _Parser, with_dim=True) -> None:
    if with_dim:
        p.add_argument("--D", type=int, default=3, help="spatial dimension (default 3)")
    p.add_argument("--alpha", type=int, default=2,
                   help="monomial order of the perturbation (default 2)")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="perturbation strength (default 0)")
    p.add_argument("--omega", type=float, default=1.0, help="trap frequency (default 1)")
    p.add_argument("--hbar", type=float, default=1.0, help="Planck constant (default 1)")


def _add_grid(p: _Parser, e_range: str) -> None:
    p.add_argument("--width", type=float, default=0.1,
                   help="Gaussian width in units of hbar*omega (default 0.1)")
    p.add_argument("--e-range", default=e_range, metavar="A:B:N",
                   help=f"energy grid in units of hbar*omega (default {e_range})")


def _add_sum(p: _Parser) -> None:
    p.add_argument("--k-max", type=int, default=10, help="repetitions summed (default 10)")
    p.add_argument("--method", choices=["quad", "closed", "spa"], default="quad")


def _add_caps(p: _Parser) -> None:
    p.add_argument("--nr-max", type=int, default=200, help="n_r cap (default 200)")
    p.add_argument("--l-max", type=int, default=400, help="l cap (default 400)")


def _add_alpha_max(p: _Parser) -> None:
    p.add_argument("--alpha-max", type=int, required=True, help="highest order, >= 1")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hoshell",
        description="Semiclassical shell structure of radially perturbed "
                    "isotropic harmonic traps: action coefficients, modulation "
                    "factors, oscillating level densities, torus-quantized "
                    "reference spectra, and classical cross-checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *groups) -> _Parser:
        p = sub.add_parser(name, help=help)
        for add in groups:
            add(p)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.set_defaults(func=func)
        return p

    p = command("coeffs", _cmd_coeffs, "action polynomial coefficients per order",
                _add_alpha_max)
    p.add_argument("--exact", action="store_true",
                   help="emit exact numerator/denominator columns")
    command("verify-legendre", _cmd_verify,
            "check the Legendre closed form of the coefficients", _add_alpha_max)

    p = command("modfactor", _cmd_modfactor, "modulation factor sweeps")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--sigma-over-hbar-range", required=True, metavar="A:B:N")
    p.add_argument("--method", choices=["quad", "closed", "spa", "all"], default="all")

    command("dos", _cmd_dos, "oscillating density of states",
            _add_system, partial(_add_grid, e_range="1:70:3451"), _add_sum)

    p = command("supershell", _cmd_supershell, "super-shell node positions (D=3)",
                partial(_add_system, with_dim=False))
    p.add_argument("--s-max", type=int, required=True)

    p = command("ebk", _cmd_ebk, "torus-quantized levels", _add_system, _add_caps)
    p.add_argument("--e-max", type=float, default=30.0,
                   help="enumerate levels up to this E/hbar*omega (default 30)")
    p.add_argument("--levels-out", default=None,
                   help="also cache the level list to this CSV file")

    p = command("ebk-dos", _cmd_ebk_dos, "Gaussian-smoothed torus-quantized DOS",
                _add_system, partial(_add_grid, e_range="1:30:1451"), _add_caps)
    p.add_argument("--levels-in", default=None,
                   help="reuse a level list cached by `ebk --levels-out`")

    p = command("oracle", _cmd_oracle, "classical-mechanics cross checks")
    p.add_argument("--check", choices=["all", "delta-s", "conservation"], default="all")
    p.add_argument("--seed", type=int, default=0)

    command("compare", _cmd_compare, "perturbative vs torus-quantized oscillating DOS",
            _add_system, partial(_add_grid, e_range="5:50:2251"), _add_sum, _add_caps)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, UnsupportedMethodError) as exc:
        print(f"hoshell: domain error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"hoshell: accuracy error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
