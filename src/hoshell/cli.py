"""Batch command-line interface.

Every subcommand writes CSV or JSON with deterministic 17-significant-digit
formatting, so identical invocations are byte-identical.  All quantities are
in hbar = omega = m = 1 units unless --omega/--hbar are given; energy axes
are always emitted as E over hbar*omega.

Exit codes: 0 success, 2 domain error, 3 accuracy error, 64 usage error.
A level enumeration that stops at a cap or a barrier still exits 0 and
prints its TruncationWarning, with the reasons, to stderr.
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
from .ebk import angular_degeneracy, ebk_dos, enumerate_levels, radial_action
from .errors import (
    AccuracyError,
    DomainError,
    NoBoundStateError,
    UnsupportedMethodError,
)
from .modfactor import modulation
from .oracle import (
    EllipseOrbit,
    PhaseState,
    angular_momentum,
    delta_s_oracle,
    integrate_orbit,
)

USAGE_EXIT = 64


def _fmt(value: float) -> str:
    return f"{value:.17g}"


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


def _write_rows(args, header: list[str], rows) -> None:
    _write_text(args.out, (",".join(row) + "\n" for row in itertools.chain([header], rows)))


def _system_params(args, dim=None) -> SystemParams:
    return SystemParams(dim=dim if dim is not None else args.D,
                        omega=args.omega, hbar=args.hbar,
                        terms=((args.epsilon, args.alpha),))


def _cmd_coeffs(args) -> int:
    rows = []
    if args.exact:
        header = ["alpha", "j", "numerator", "denominator"]
        for alpha in range(1, args.alpha_max + 1):
            for j, c in enumerate(action_coefficients(alpha).coeffs):
                rows.append([str(alpha), str(j), str(c.numerator), str(c.denominator)])
    else:
        header = ["alpha", "j", "value"]
        for alpha in range(1, args.alpha_max + 1):
            for j, c in enumerate(action_coefficients(alpha).coeffs):
                rows.append([str(alpha), str(j), _fmt(float(c))])
    _write_rows(args, header, rows)
    return 0


def _cmd_verify(args) -> int:
    checks = verify_legendre_form(args.alpha_max)
    _write_rows(args, ["alpha", "matches_legendre_form"],
                ([str(c.alpha), str(int(c.matches))] for c in checks))
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
    header = ["sigma_over_hbar"]
    for m in methods:
        header += [f"re_{m}", f"im_{m}", f"abs_{m}"]
    # M_k(sigma) = M_1(k sigma)
    columns = [modulation(poly, args.k * xs, args.D, 1, _METHOD[m])[:, 0] for m in methods]
    rows = []
    for i, x in enumerate(xs):
        row = [_fmt(x)]
        for column in columns:
            value = column[i]
            row += [_fmt(value.real), _fmt(value.imag), _fmt(abs(value))]
        rows.append(row)
    _write_rows(args, header, rows)
    return 0


def _cmd_dos(args) -> int:
    params = _system_params(args)
    shell = _parse_range(args.e_range)
    scale = args.hbar * args.omega
    curve = pert_dos(params, shell * scale, k_max=args.k_max,
                     width=args.width * scale, method=_METHOD[args.method])
    rows = ([_fmt(e), _fmt(s), _fmt(o)] for e, s, o in
            zip(shell, curve.smooth, curve.oscillating))
    _write_rows(args, ["E_over_hbar_omega", "smooth", "oscillating"], rows)
    return 0


def _cmd_supershell(args) -> int:
    params = _system_params(args, dim=3)
    nodes = supershell_nodes(params, args.s_max)
    rows = ([str(s + 1), _fmt(n)] for s, n in enumerate(nodes))
    _write_rows(args, ["s", "n_s"], rows)
    return 0


_LEVEL_HEADER = ["n_r", "l", "E_over_hbar_omega", "degeneracy"]


def _cmd_ebk(args) -> int:
    params = _system_params(args)
    scale = args.hbar * args.omega
    levels = enumerate_levels(params, e_max=args.e_max * scale,
                              n_r_max=args.nr_max, l_max=args.l_max)
    levels.sort(key=lambda lev: (lev.energy, lev.l))
    text = "".join(
        [",".join(_LEVEL_HEADER) + "\n"]
        + [f"{lev.n_r},{lev.l},{_fmt(lev.energy / scale)},{lev.degeneracy}\n"
           for lev in levels])
    if args.levels_out:
        _write_text(args.levels_out, [text])
    _write_text(args.out, [text])
    return 0


def _read_levels_csv(path: str, params: SystemParams):
    from .ebk import EbkLevel
    scale = params.hbar * params.omega
    levels = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != _LEVEL_HEADER:
            raise DomainError(f"unexpected level file header: {header}")
        for line in fh:
            n_r, l, e, deg = line.strip().split(",")
            levels.append(EbkLevel(n_r=int(n_r), l=int(l),
                                   energy=float(e) * scale, degeneracy=int(deg)))
    _check_level_cache(params, levels, path)
    return levels


def _check_level_cache(params: SystemParams, levels, path: str) -> None:
    """A cache must hold levels of this system: each degeneracy matches its l
    in this dimension, and each energy quantizes this trap's radial action to
    1e-9 of its target (checked in one pass over all levels)."""
    for lev in levels:
        if lev.n_r < 0 or lev.degeneracy != angular_degeneracy(params.dim, lev.l):
            raise DomainError(f"{path}: level (n_r={lev.n_r}, l={lev.l}) with "
                              f"degeneracy {lev.degeneracy} is not a D={params.dim} level")
    n_r, l, e = (np.array([getattr(lev, k) for lev in levels], dtype=float)
                 for k in ("n_r", "l", "energy"))
    target = 2.0 * math.pi * params.hbar * (n_r + 0.5)
    try:
        action = radial_action(params, e, params.hbar * (l + 0.5 * (params.dim - 2)))
    except NoBoundStateError as exc:
        raise DomainError(f"{path}: a cached level lies outside this system's well: "
                          f"{exc}") from exc
    bad = np.flatnonzero(~(np.abs(action - target) <= 1e-9 * target))
    if bad.size:
        lev = levels[bad[0]]
        raise DomainError(f"{path}: level (n_r={lev.n_r}, l={lev.l}) at E={lev.energy} "
                          f"is not quantized in this system ({bad.size} of "
                          f"{len(levels)} levels do not match)")


def _cmd_ebk_dos(args) -> int:
    params = _system_params(args)
    scale = args.hbar * args.omega
    shell = _parse_range(args.e_range)
    levels = _read_levels_csv(args.levels_in, params) if args.levels_in else None
    g, smooth, _ = ebk_dos(params, shell * scale, width=args.width * scale,
                           n_r_max=args.nr_max, l_max=args.l_max, levels=levels)
    rows = ([_fmt(e), _fmt(gv), _fmt(sv), _fmt(gv - sv)]
            for e, gv, sv in zip(shell, g, smooth))
    _write_rows(args, ["E_over_hbar_omega", "g_ebk", "g_smooth", "dg_ebk"], rows)
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
    scale = args.hbar * args.omega
    shell = _parse_range(args.e_range)
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


def _add_units(p: _Parser) -> None:
    p.add_argument("--omega", type=float, default=1.0, help="trap frequency (default 1)")
    p.add_argument("--hbar", type=float, default=1.0, help="Planck constant (default 1)")


def _add_system(p: _Parser, with_dim=True) -> None:
    if with_dim:
        p.add_argument("--D", type=int, default=3, help="spatial dimension (default 3)")
    p.add_argument("--alpha", type=int, default=2,
                   help="monomial order of the perturbation (default 2)")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="perturbation strength (default 0)")
    _add_units(p)


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

    p = sub.add_parser("coeffs", help="action polynomial coefficients per order")
    p.add_argument("--alpha-max", type=int, required=True)
    p.add_argument("--exact", action="store_true",
                   help="emit exact numerator/denominator columns")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("verify-legendre",
                       help="check the Legendre closed form of the coefficients")
    p.add_argument("--alpha-max", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("modfactor", help="modulation factor sweeps")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--sigma-over-hbar-range", required=True, metavar="A:B:N")
    p.add_argument("--method", choices=["quad", "closed", "spa", "all"], default="all")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_modfactor)

    p = sub.add_parser("dos", help="oscillating density of states")
    _add_system(p)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--width", type=float, default=0.1,
                   help="Gaussian width in units of hbar*omega (default 0.1)")
    p.add_argument("--e-range", default="1:70:3451", metavar="A:B:N",
                   help="energy grid in units of hbar*omega")
    p.add_argument("--method", choices=["quad", "closed", "spa"], default="quad")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dos)

    p = sub.add_parser("supershell", help="super-shell node positions (D=3)")
    _add_system(p, with_dim=False)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_supershell)

    p = sub.add_parser("ebk", help="torus-quantized levels")
    _add_system(p)
    p.add_argument("--e-max", type=float, default=30.0,
                   help="enumerate levels up to this E/hbar*omega (default 30)")
    p.add_argument("--nr-max", type=int, default=200)
    p.add_argument("--l-max", type=int, default=400)
    p.add_argument("--levels-out", default=None,
                   help="also cache the level list to this CSV file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ebk)

    p = sub.add_parser("ebk-dos", help="Gaussian-smoothed torus-quantized DOS")
    _add_system(p)
    p.add_argument("--width", type=float, default=0.1)
    p.add_argument("--e-range", default="1:30:1451", metavar="A:B:N")
    p.add_argument("--nr-max", type=int, default=200)
    p.add_argument("--l-max", type=int, default=400)
    p.add_argument("--levels-in", default=None,
                   help="reuse a level list cached by `ebk --levels-out`")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ebk_dos)

    p = sub.add_parser("oracle", help="classical-mechanics cross checks")
    p.add_argument("--check", choices=["all", "delta-s", "conservation"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("compare",
                       help="perturbative vs torus-quantized oscillating DOS")
    _add_system(p)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--width", type=float, default=0.1)
    p.add_argument("--e-range", default="5:50:2251", metavar="A:B:N")
    p.add_argument("--method", choices=["quad", "closed", "spa"], default="quad")
    p.add_argument("--nr-max", type=int, default=200)
    p.add_argument("--l-max", type=int, default=400)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

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
