"""Seeded job generation for the hoshell benchmark.

A job is one `hoshell` command line plus the parameters it was drawn from.
The seed picks the physical parameters inside the ranges below.  Energy grids
scale with the drawn beat position, so every seed asks the program for nearly
the same amount of work and run-to-run timing spread is not seed spread.

This module uses the standard library only: the set-up probe imports it
right after `hoshell.cli`, and its cost belongs to the measured set-up time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("pert_quad", "pert_closed", "ebk_enumerate", "ebk_dos_cached")

# Scaled action polynomial swing max P - min P on [0, 1] per order.  With
# eps = 1 / (swing * n1^alpha) (hbar = omega = 1) the k = 1 phase turns by
# 2 pi across the orbit family at shell n1, the first beat node.
SWING = {2: 0.5, 3: 1.5, 4: 3.375}

# Ranges the seed draws from; check_ranges() enforces them.
BEAT_SHELL = (20, 50)          # first beat node n1 of the drawn pert jobs
GRID_OVER_BEAT = 1.75          # grid end / n1, as in the README job (70 / 40)
QUAD_POINTS = 201              # alpha = 4 quadrature grid points
CLOSED_POINTS = 2001           # closed-form grid points
EBK_DIMS = (2, 3, 4)
EBK_POS_EPS = (2.8e-4, 3.5e-4)     # weak eps > 0 enumeration
EBK_POS_SHELLS = 110               # e_max = 110 + D/2: same shell count per D
EBK_NEG_EPS = -1.25e-3             # barrier at 1 / (16 |eps|) = 50
EBK_NEG_EMAX = 60.0
CACHE_POS_EPS = (1.0e-3, 1.5e-3)
CACHE_NEG_EPS = (-1.5e-3, -1.0e-3)  # barrier >= 41.7, above every cache end
CACHE_GRID_END = (34.0, 38.0)
CACHE_POINTS = 8001
CACHE_WIDE = (0.2, 0.4)             # second job width; the first uses 0.1


@dataclass(frozen=True)
class Job:
    """One program invocation.  `out` and `levels` are file names inside the
    run's work directory; `argv` refers to them by those names."""

    name: str
    kind: str                       # "dos", "ebk" or "ebk-dos"
    params: tuple                   # sorted (key, value) pairs
    out: str
    levels: str | None = None       # ebk: --levels-out, ebk-dos: --levels-in

    @property
    def p(self) -> dict:
        return dict(self.params)

    @property
    def outputs(self) -> dict[str, str]:
        """Files the job writes, by role."""
        if self.kind == "ebk":
            return {"out": self.out, "levels": self.levels}
        return {"out": self.out}

    def argv(self, workdir: str) -> list[str]:
        p = self.p
        args = [self.kind, "--D", str(p["D"]), "--alpha", str(p["alpha"]),
                f"--epsilon={p['epsilon']!r}"]
        if self.kind == "dos":
            lo, hi, n = p["e_range"]
            args += ["--width", repr(p["width"]), "--e-range", f"{lo!r}:{hi!r}:{n}",
                     "--k-max", str(p["k_max"]), "--method", p["method"]]
        elif self.kind == "ebk":
            args += ["--e-max", repr(p["e_max"]),
                     "--levels-out", f"{workdir}/{self.levels}"]
        else:
            lo, hi, n = p["e_range"]
            args += ["--width", repr(p["width"]), "--e-range", f"{lo!r}:{hi!r}:{n}",
                     "--levels-in", f"{workdir}/{self.levels}"]
        return args + ["--out", f"{workdir}/{self.out}"]


def _job(name, kind, levels=None, **params) -> Job:
    return Job(name=name, kind=kind, params=tuple(sorted(params.items())),
               out=f"{name}.csv", levels=levels)


def beat_epsilon(alpha: int, beat: float) -> float:
    return 1.0 / (SWING[alpha] * beat ** alpha)


def grid_end(beat: float) -> float:
    return round(GRID_OVER_BEAT * beat, 4)


def _pert(name, rng, dim, alpha, method, points) -> Job:
    beat = round(rng.uniform(*BEAT_SHELL), 3)
    return _job(name, "dos", D=dim, alpha=alpha, epsilon=beat_epsilon(alpha, beat),
                beat=beat, e_range=(1.0, grid_end(beat), points), width=0.1,
                k_max=10, method=method)


def make_jobs(workload: str, seed: int) -> tuple[list[Job], list[Job]]:
    """(preparation jobs, timed jobs) for a workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pert_quad":
        readme = _job("readme", "dos", D=3, alpha=2, epsilon=1.25e-3, beat=40,
                      e_range=(1.0, 70.0, 3451), width=0.1, k_max=10,
                      method="quad")
        return [], [readme] + [_pert(f"quad_a4_d{d}", rng, d, 4, "quad",
                                     QUAD_POINTS) for d in (2, 3, 4)]
    if workload == "pert_closed":
        return [], [_pert(f"closed_a{a}_d{d}", rng, d, a, "closed", CLOSED_POINTS)
                    for d in (2, 3, 4, 5) for a in (2, 3)]
    if workload == "ebk_enumerate":
        d_pos, d_neg = rng.choice(EBK_DIMS), rng.choice(EBK_DIMS)
        eps_pos = rng.uniform(*EBK_POS_EPS)
        return [], [
            _job("ebk_pos", "ebk", levels="ebk_pos_levels.csv", D=d_pos, alpha=2,
                 epsilon=eps_pos, e_max=EBK_POS_SHELLS + 0.5 * d_pos),
            _job("ebk_neg", "ebk", levels="ebk_neg_levels.csv", D=d_neg, alpha=2,
                 epsilon=EBK_NEG_EPS, e_max=EBK_NEG_EMAX),
        ]
    prep, timed = [], []
    for tag, eps_range in (("pos", CACHE_POS_EPS), ("neg", CACHE_NEG_EPS)):
        dim = rng.choice(EBK_DIMS)
        eps = rng.uniform(*eps_range)
        end = round(rng.uniform(*CACHE_GRID_END), 3)
        widths = (0.1, round(rng.uniform(*CACHE_WIDE), 3))
        cache = f"cache_{tag}.csv"
        # The cache must cover the grid end plus five widths of the widest job.
        prep.append(_job(f"cache_{tag}", "ebk", levels=cache, D=dim, alpha=2,
                         epsilon=eps, e_max=end + 5.0 * max(widths)))
        for i, width in enumerate(widths):
            timed.append(_job(f"dos_{tag}_w{i}", "ebk-dos", levels=cache, D=dim,
                              alpha=2, epsilon=eps, width=width,
                              e_range=(1.0, end, CACHE_POINTS)))
    return prep, timed


def check_ranges(workload: str, jobs: list[Job]) -> list[str]:
    """Violations of the stated parameter ranges (empty when all hold)."""
    bad = []
    for job in jobs:
        p = job.p
        if job.kind == "dos" and job.name != "readme":
            lo, hi = BEAT_SHELL
            if not (lo <= p["beat"] <= hi
                    and p["epsilon"] == beat_epsilon(p["alpha"], p["beat"])
                    and p["e_range"][1] == grid_end(p["beat"])):
                bad.append(f"{job.name}: beat/epsilon/grid out of range")
        elif job.kind == "ebk" and workload == "ebk_enumerate":
            if p["D"] not in EBK_DIMS:
                bad.append(f"{job.name}: D={p['D']}")
            if p["epsilon"] > 0 and not EBK_POS_EPS[0] <= p["epsilon"] <= EBK_POS_EPS[1]:
                bad.append(f"{job.name}: epsilon={p['epsilon']}")
        elif job.kind == "ebk-dos":
            eps_range = CACHE_POS_EPS if p["epsilon"] > 0 else CACHE_NEG_EPS
            barrier = 1.0 / (16.0 * abs(p["epsilon"])) if p["epsilon"] < 0 else float("inf")
            if not (eps_range[0] <= p["epsilon"] <= eps_range[1]
                    and CACHE_GRID_END[0] <= p["e_range"][1] <= CACHE_GRID_END[1]
                    and p["e_range"][1] + 5.0 * CACHE_WIDE[1] < barrier
                    and p["D"] in EBK_DIMS):
                bad.append(f"{job.name}: parameters out of range")
    return bad
