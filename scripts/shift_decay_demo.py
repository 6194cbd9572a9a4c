#!/usr/bin/env python3
"""How far does one link's potential shift reach?

Adding a unit of electric flux to a single link changes the transverse
potential on every plaquette by that link's shift table.  This demo builds
the table for a central link on growing open-boundary lattices and prints
the largest shift magnitude at each Chebyshev distance from the link,
showing the rapid falloff that makes the dual description quasi-local.

With --exact the 3x3 table is printed as exact fractions.
"""

import argparse
import pathlib
import sys
from collections import defaultdict

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dualqed.helmholtz import link_shift_table
from dualqed.lattice import Lattice, cell_coordinates


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="3,5,7", help="comma-separated odd N values")
    ap.add_argument("--exact", action="store_true", help="also print the 3x3 table as fractions")
    args = ap.parse_args()

    for N in (int(s) for s in args.sizes.split(",")):
        lat = Lattice(2, N, "open")
        center = (N // 2, N // 2)
        table = link_shift_table(lat, center, 0)
        by_distance: dict[int, float] = defaultdict(float)
        _, corners = cell_coordinates(lat, "plaquette")
        for corner, shift in zip(corners.T.tolist(), table.shifts):
            d = max(abs(corner[0] - center[0]), abs(corner[1] - center[1]))
            by_distance[d] = max(by_distance[d], abs(float(shift)))
        print(f"\nN={N}, link at {center} direction 0 ({lat.n_plaqs} plaquettes)")
        for d in sorted(by_distance):
            print(f"  distance {d}: max |shift| = {by_distance[d]:.6f}")

    if args.exact:
        lat = Lattice(2, 3, "open")
        table = link_shift_table(lat, (1, 1), 0, exact=True)
        print("\nexact 3x3 table for link (1,1) direction 0 (rows y=2..0, columns x=0..2):")
        for y in (2, 1, 0):
            row = [str(table.exact_shifts[3 * x + y]) for x in (0, 1, 2)]
            print("  " + "  ".join(f"{v:>8}" for v in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
