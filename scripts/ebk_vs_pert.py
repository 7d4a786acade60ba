#!/usr/bin/env python3
"""Perturbative trace formula against the torus-quantized reference.

Writes both Gaussian-averaged oscillating densities on a shared grid and a
summary of beat-node positions.  At the default strength the quantum beat
node sits visibly above the perturbative one; rerun with a smaller
--epsilon (the node moves to sqrt(2/eps)) to watch the two pipelines
converge.  For a negative --epsilon the grid ends below the barrier top;
a grid that would start above it exits 2.
"""

import argparse
from pathlib import Path

import numpy as np

from hoshell import SystemParams, ebk_dos, envelope_nodes, pert_dos


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=Path("out/ebk_vs_pert.csv"), type=Path)
    ap.add_argument("--epsilon", default=1.25e-3, type=float)
    ap.add_argument("--alpha", default=2, type=int)
    ap.add_argument("--width", default=0.1, type=float)
    ap.add_argument("--e-min", default=5.0, type=float)
    ap.add_argument("--e-max", default=60.0, type=float)
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)

    params = SystemParams.single(3, args.epsilon, args.alpha)
    e_max = args.e_max
    if args.epsilon < 0 and args.alpha > 1:
        # Bound motion ends at the l = 0 barrier top E_top = u / 2 + eps u^alpha,
        # at u = (1 / (2 alpha |eps|))^(1 / (alpha - 1)) (omega = 1).
        u_top = (1.0 / (2.0 * args.alpha * -args.epsilon)) ** (1.0 / (args.alpha - 1))
        e_max = min(e_max, 0.5 * u_top + args.epsilon * u_top ** args.alpha)
    if args.e_min >= e_max:
        end = "the barrier top" if e_max < args.e_max else "--e-max"
        ap.error(f"the grid is empty: --e-min {args.e_min:g} lies at or above "
                 f"{end} {e_max:.6g}")
    grid = np.arange(args.e_min, e_max, 0.02)
    method = "closed_form" if args.alpha in (2, 3) else "quadrature"
    pert = pert_dos(params, grid, k_max=10, width=args.width, method=method)
    g, smooth, levels = ebk_dos(params, grid, width=args.width)
    dg_ebk = g - smooth

    with open(args.out, "w", newline="\n") as fh:
        fh.write("E_over_hbar_omega,dg_pert,dg_ebk\n")
        for e, a, b in zip(grid, pert.oscillating, dg_ebk):
            fh.write(f"{e:.17g},{a:.17g},{b:.17g}\n")
    print(f"wrote {args.out} using {len(levels)} quantized levels")
    print("perturbative beat nodes:", envelope_nodes(grid, pert.oscillating, 1.0))
    print("torus-quantized beat nodes:", envelope_nodes(grid, dg_ebk, 1.0))
    print("pearson:", float(np.corrcoef(pert.oscillating, dg_ebk)[0, 1]))


if __name__ == "__main__":
    main()
