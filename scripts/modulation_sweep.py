#!/usr/bin/env python3
"""Sweep |M_1| against sigma/hbar for a 3x3 grid of (dimension, order) cases,
comparing the end-point asymptotics with direct quadrature.

Writes one CSV per case into the output directory (default ./out):
columns sigma_over_hbar, abs_quad, abs_spa.  For orders 2 and 3 the closed
form would coincide with quadrature to 1e-9, so it is omitted here.
"""

import argparse
from pathlib import Path

import numpy as np

from hoshell import action_coefficients, modulation


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out", type=Path)
    ap.add_argument("--x-max", default=30.0, type=float)
    ap.add_argument("--points", default=601, type=int)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    xs = np.linspace(0.0, args.x_max, args.points)
    for alpha in (2, 4, 10):
        poly = action_coefficients(alpha)
        for dim in (2, 3, 4):
            path = args.out_dir / f"modulation_D{dim}_alpha{alpha}.csv"
            with open(path, "w", newline="\n") as fh:
                fh.write("sigma_over_hbar,abs_quad,abs_spa\n")
                quad = np.abs(modulation(poly, xs, dim, 1, "quadrature")[:, 0])
                spa = np.abs(modulation(poly, xs, dim, 1, "spa")[:, 0])
                for x, q, a in zip(xs, quad, spa):
                    fh.write(f"{x:.17g},{q:.17g},{a:.17g}\n")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
