"""Output checks for benchmark jobs.

Two kinds, both untimed:

* golden files captured before any optimisation, for the seeds the benchmark
  ships (`goldens/seed<N>/<workload>.json`): row counts, the exact set of
  quantum numbers, and sampled rows compared within contract tolerances;
* seed-independent spot checks built from independent evaluators: the other
  modulation method at sampled energies, the quantization residual of sampled
  levels, level completeness at sampled l, and the smooth and level densities
  of ebk-dos recomputed from scratch at sampled grid points.

Every check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from hoshell import (
    NoBoundStateError,
    SystemParams,
    ebk_energy,
    modulation_closed_form,
    modulation_quadrature,
    polynomial_delta_s,
    radial_action,
)
from hoshell.specfun import gauss_legendre

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN_WORKDIR = "WORK"
GOLDEN_SAMPLES = 100

# Tolerances follow the package's accuracy contracts.
# modulation_quadrature: |fine - coarse| <= 1e-8 max(1, |M_k|) and |M_k| <= 1,
# so the oscillating DOS may move by 2 * smooth * k_max * 1e-8.
OSC_TOL_PER_K = 2e-8
SMOOTH_REL = 1e-12
# ebk_energy: residual <= 1e-11 target with a 1e-10 relative action quadrature.
LEVEL_REL = 1e-9
RESIDUAL_REL = 1e-11
# tf_smooth converges to 1e-11 relative; an independent adaptive quadrature
# and a differently summed Gaussian accumulation agree to well below this.
DENSITY_REL = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _sample_index(n: int, count: int) -> list[int]:
    if n == 0:
        return []
    return sorted({round(i * (n - 1) / max(count - 1, 1)) for i in range(count)})


def _level_keys(rows) -> str:
    keys = sorted(f"{r[0]},{r[1]},{r[3]}" for r in rows)
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------


def golden_record(job, workdir: Path) -> dict:
    record = {"argv": job.argv(GOLDEN_WORKDIR), "files": {}}
    for role, name in job.outputs.items():
        path = workdir / name
        header, rows = read_rows(path)
        idx = _sample_index(len(rows), GOLDEN_SAMPLES)
        entry = {"sha256": sha256(path), "header": header, "rows": len(rows),
                 "sample_index": idx, "sample": [rows[i] for i in idx]}
        if job.kind == "ebk":
            entry["level_keys"] = _level_keys(rows)
        record["files"][role] = entry
    return record


def golden_path(seed: int, workload: str) -> Path:
    return GOLDEN_DIR / f"seed{seed}" / f"{workload}.json"


def load_goldens(seed: int, workload: str) -> dict | None:
    path = golden_path(seed, workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["jobs"]


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def identical_to_golden(job, workdir: Path, goldens: dict) -> bool:
    golden = goldens.get(job.name)
    return golden is not None and all(
        sha256(workdir / name) == golden["files"][role]["sha256"]
        for role, name in job.outputs.items())


def check_golden(job, workdir: Path, goldens: dict) -> list[str]:
    """Failures against the job's golden record."""
    golden = goldens.get(job.name)
    if golden is None or golden["argv"] != job.argv(GOLDEN_WORKDIR):
        return [f"{job.name}: job differs from the golden job"]
    errors = []
    p = job.p
    for role, name in job.outputs.items():
        want = golden["files"][role]
        header, rows = read_rows(workdir / name)
        if header != want["header"] or len(rows) != want["rows"]:
            errors.append(f"{job.name}/{role}: header or row count differs "
                          f"({len(rows)} rows, golden {want['rows']})")
            continue
        if job.kind == "ebk":
            if _level_keys(rows) != want["level_keys"]:
                errors.append(f"{job.name}/{role}: set of (n_r, l, degeneracy) differs")
                continue
            got = {(r[0], r[1]): float(r[2]) for r in rows}
            for ref in want["sample"]:
                e = got[(ref[0], ref[1])]
                if not _close(e, float(ref[2]), LEVEL_REL * abs(float(ref[2]))):
                    errors.append(f"{job.name}/{role}: level ({ref[0]}, {ref[1]}) "
                                  f"E={e!r}, golden {ref[2]}")
            continue
        for i, ref in zip(want["sample_index"], want["sample"]):
            row = [float(v) for v in rows[i]]
            ref = [float(v) for v in ref]
            if not _close(row[0], ref[0], 1e-12 * abs(ref[0])):
                errors.append(f"{job.name}: grid point {i} differs")
            elif job.kind == "dos":
                tol = OSC_TOL_PER_K * p["k_max"] * ref[1]
                if not (_close(row[1], ref[1], SMOOTH_REL * ref[1])
                        and _close(row[2], ref[2], tol)):
                    errors.append(f"{job.name}: row {i} {rows[i]} vs golden {ref}")
            else:
                scale = max(abs(ref[1]), abs(ref[2]))
                if not all(_close(row[c], ref[c], DENSITY_REL * scale) for c in (1, 2, 3)):
                    errors.append(f"{job.name}: row {i} {rows[i]} vs golden {ref}")
    return errors


# ---------------------------------------------------------------------------
# Seed-independent spot checks
# ---------------------------------------------------------------------------

SPOT_ROWS = 8
SPOT_LEVELS = 16
SPOT_L = 4


def _params(p: dict) -> SystemParams:
    return SystemParams.single(p["D"], p["epsilon"], p["alpha"])


def _reference_osc(p: dict, energy: float, smooth: float) -> float:
    """Oscillating DOS at one energy from the modulation method the job did
    not use: the closed form checks quadrature jobs with alpha 2 and 3, the
    quadrature checks closed-form jobs, and a 320-point rule checks the
    default 200-point quadrature where no closed form exists."""
    params = _params(p)
    dim, width = p["D"], p["width"]
    poly, sigma = polynomial_delta_s(params, energy)
    acc = 0.0
    for k in range(1, p["k_max"] + 1):
        if p["method"] == "closed":
            mod = modulation_quadrature(poly, sigma, dim, k).value
        elif p["alpha"] in (2, 3):
            mod = modulation_closed_form(poly, sigma, dim, k).value
        else:
            mod = modulation_quadrature(poly, sigma, dim, k, gauss_legendre(320)).value
        damp = math.exp(-((width * k * math.pi) ** 2))
        acc += (-1.0) ** (dim * k) * damp * (mod * complex(math.cos(2 * math.pi * k * energy),
                                                           math.sin(2 * math.pi * k * energy))).real
    return 2.0 * smooth * acc


def _spot_dos(job, workdir: Path) -> list[str]:
    p = job.p
    lo, hi, n = p["e_range"]
    _, rows = read_rows(workdir / job.out)
    if len(rows) != n:
        return [f"{job.name}: {len(rows)} rows, expected {n}"]
    errors = []
    grid = np.linspace(lo, hi, n)
    for i in _sample_index(n, SPOT_ROWS):
        e, smooth, osc = (float(v) for v in rows[i])
        want_smooth = grid[i] ** (p["D"] - 1) / math.factorial(p["D"] - 1)
        if not (_close(e, grid[i], 1e-12 * grid[i])
                and _close(smooth, want_smooth, SMOOTH_REL * want_smooth)):
            errors.append(f"{job.name}: row {i} grid or smooth column wrong")
            continue
        want = _reference_osc(p, e, smooth)
        if not _close(osc, want, OSC_TOL_PER_K * p["k_max"] * smooth):
            errors.append(f"{job.name}: E={e} oscillating {osc!r}, independent {want!r}")
    return errors


def _angular_degeneracy(dim: int, l: int) -> int:
    return 1 if l == 0 else math.comb(l + dim - 2, dim - 2) + math.comb(l + dim - 3, dim - 2)


def spot_levels(job, path: Path) -> list[str]:
    """Structure, quantization residual and completeness of a level file."""
    name, p = job.name, job.p
    dim, e_max = p["D"], p["e_max"]
    params = _params(p)
    _, rows = read_rows(path)
    levels = [(int(r[0]), int(r[1]), float(r[2]), int(r[3])) for r in rows]
    if not levels:
        return [f"{name}: no levels"]
    errors = []
    if levels != sorted(levels, key=lambda lev: (lev[2], lev[1])):
        errors.append(f"{name}: levels not sorted by (E, l)")
    top: dict[int, int] = {}
    for n_r, l, e, deg in levels:
        top[l] = max(top.get(l, -1), n_r)
        if deg != _angular_degeneracy(dim, l) or not 0 < e <= e_max:
            errors.append(f"{name}: level ({n_r}, {l}) E={e} degeneracy {deg}")
    for l, n_top in top.items():
        if sum(1 for lev in levels if lev[1] == l) != n_top + 1:
            errors.append(f"{name}: n_r not contiguous at l={l}")
    if sorted(top) != list(range(len(top))):
        errors.append(f"{name}: l not contiguous")
    for i in _sample_index(len(levels), SPOT_LEVELS):
        n_r, l, e, _ = levels[i]
        target = 2.0 * math.pi * (n_r + 0.5)
        resid = abs(radial_action(params, e, l + 0.5 * (dim - 2)) - target)
        if resid > RESIDUAL_REL * target:
            errors.append(f"{name}: level ({n_r}, {l}) residual {resid:.3e}")
    # The next level up must lie above e_max or not exist (barrier).
    l_top = max(top)
    probes = [(top[l] + 1, l) for l in sorted({round(f * l_top) for f in
                                                np.linspace(0, 1, SPOT_L)})]
    probes.append((0, l_top + 1))
    for n_r, l in probes:
        try:
            e_next = ebk_energy(params, n_r, l).energy
        except NoBoundStateError:
            continue
        if e_next <= e_max:
            errors.append(f"{name}: level ({n_r}, {l}) at E={e_next} is missing")
    return errors


def _spot_ebk(job, workdir: Path) -> list[str]:
    out, levels = workdir / job.out, workdir / job.levels
    if out.read_bytes() != levels.read_bytes():
        return [f"{job.name}: --out and --levels-out differ"]
    return spot_levels(job, levels)


def tf_reference(p: dict, energy: float) -> float:
    """Smooth phase-space DOS by adaptive quadrature in r, with the outer
    turning point from a bracketing root solve on V(r) = E."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    dim, eps, alpha = p["D"], p["epsilon"], p["alpha"]

    def v(r):
        return 0.5 * r * r + eps * r ** (2 * alpha)

    r_hi = math.sqrt(2.0 * energy)
    if eps < 0:  # stay inside the barrier at dV/dr = 0
        r_hi = min(r_hi * 2.0, (1.0 / (2.0 * alpha * abs(eps))) ** (1.0 / (2 * alpha - 2)))
    r_max = brentq(lambda r: v(r) - energy, 0.0, r_hi, xtol=1e-15, rtol=8.9e-16)
    val, _ = quad(lambda r: max(energy - v(r), 0.0) ** (0.5 * dim - 1.0) * r ** (dim - 1),
                  0.0, r_max, epsabs=0.0, epsrel=1e-13, limit=200)
    pref = ((2.0 * math.pi) ** (-0.5 * dim) * 2.0 * math.pi ** (0.5 * dim)
            / math.gamma(0.5 * dim) ** 2)
    return pref * val


def _spot_ebk_dos(job, workdir: Path) -> list[str]:
    p = job.p
    lo, hi, n = p["e_range"]
    _, rows = read_rows(workdir / job.out)
    if len(rows) != n:
        return [f"{job.name}: {len(rows)} rows, expected {n}"]
    _, level_rows = read_rows(workdir / job.levels)
    lev_e = np.array([float(r[2]) for r in level_rows])
    lev_g = np.array([int(r[3]) for r in level_rows], dtype=float)
    width = p["width"]
    errors = []
    for i in _sample_index(n, SPOT_ROWS):
        e, g, s, dg = (float(v) for v in rows[i])
        g_want = float(np.sum(lev_g * np.exp(-((e - lev_e) / width) ** 2))
                       / (width * math.sqrt(math.pi)))
        s_want = tf_reference(p, e)
        scale = max(abs(g_want), abs(s_want))
        if not (_close(g, g_want, DENSITY_REL * scale)
                and _close(s, s_want, DENSITY_REL * scale)
                and _close(dg, g - s, 1e-15 * scale)):
            errors.append(f"{job.name}: E={e} (g, smooth, dg)=({g}, {s}, {dg}), "
                          f"independent ({g_want}, {s_want})")
    return errors


def spot_check(job, workdir: Path) -> list[str]:
    check = {"dos": _spot_dos, "ebk": _spot_ebk, "ebk-dos": _spot_ebk_dos}[job.kind]
    return check(job, workdir)
