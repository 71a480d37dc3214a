"""Print an accuracy table for the Euler-MacLaurin partition function.

For each q and a log grid of mbar, compares the order-1 and order-2
closed forms against the converged direct sum and prints the relative
errors side by side.  Quick check() at the bottom asserts the order-2
column never loses to order-1 by more than noise on the sampled grid.
"""

import argparse
import itertools
import math

import numpy as np

from kgconfine import thermo


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", default="0.5,1.0,1.5")
    ap.add_argument("--mbar-min", type=float, default=0.5)
    ap.add_argument("--mbar-max", type=float, default=20.0)
    ap.add_argument("--steps", type=int, default=9)
    args = ap.parse_args()

    q_values = [float(tok) for tok in args.q.split(",")]
    grid = np.geomspace(args.mbar_min, args.mbar_max, args.steps)

    print(f"{'q':>5} {'mbar':>9} {'Z_direct':>16} {'rel_err_o1':>12} {'rel_err_o2':>12}")
    worse = 0
    # One batched direct sum over every (q, mbar) point, q-major.
    cols = thermo.sweep("both", grid, q_values, tol=1e-13)
    points = itertools.product(q_values, grid.tolist())
    for (q, mbar), z, err in zip(points, cols.Z_direct.tolist(), cols.errors):
        if math.isnan(z):
            raise err
        e1 = abs(thermo.partition_em(mbar, q, 1).Z - z) / z
        e2 = abs(thermo.partition_em(mbar, q, 2).Z - z) / z
        if e2 > e1 * 1.01:
            worse += 1
        print(f"{q:>5g} {mbar:>9.4g} {z:>16.10g} {e1:>12.3e} {e2:>12.3e}")

    def check(label, ok):
        print(("[PASS] " if ok else "[FAIL] ") + label)

    check("order-2 never loses to order-1 on the sampled grid", worse == 0)


if __name__ == "__main__":
    main()
