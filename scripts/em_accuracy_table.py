"""Print an accuracy table for the Euler-MacLaurin partition function.

For each q and a log grid of mbar, compares the order-1 and order-2
closed forms against the converged direct sum and prints the relative
errors side by side.  Quick check() at the bottom asserts the order-2
column never loses to order-1 by more than noise on the sampled grid.
"""

import argparse
import itertools

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
    # One batched direct sum and one closed-form column per order over every
    # (q, mbar) point, q-major.
    direct = thermo.sweep("both", grid, q_values, tol=1e-13)
    em1, em2 = (thermo.sweep("em", grid, q_values, order) for order in (1, 2))
    for cols in (direct, em1, em2):
        if cols.failures:
            raise cols.failures[min(cols.failures)]  # the first in row order
    points = itertools.product(q_values, grid.tolist())
    columns = (direct.Z_direct.tolist(), em1.Z_em.tolist(), em2.Z_em.tolist())
    for (q, mbar), z, z1, z2 in zip(points, *columns):
        e1 = abs(z1 - z) / z
        e2 = abs(z2 - z) / z
        if e2 > e1 * 1.01:
            worse += 1
        print(f"{q:>5g} {mbar:>9.4g} {z:>16.10g} {e1:>12.3e} {e2:>12.3e}")

    def check(label, ok):
        print(("[PASS] " if ok else "[FAIL] ") + label)

    check("order-2 never loses to order-1 on the sampled grid", worse == 0)


if __name__ == "__main__":
    main()
