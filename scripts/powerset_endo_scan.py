#!/usr/bin/env python3
"""Scan the finite power functor: natural endomorphism families on the small
cardinals, and escape witnesses showing it is not super-finitary.

Usage: python scripts/powerset_endo_scan.py [max_level]
"""

import sys

from finbench.cats import FINSET
from finbench.certs import FAIL, PASS
from finbench.superfin import escaping_element, power_functor, powfin_endo_probe


def main():
    max_level = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    for m in range(1, max_level + 1):
        fams = powfin_endo_probe(m)
        kinds = "identity" if all(
            k == v for fam in fams for level in fam.values() for k, v in level.items()
        ) else "nontrivial!"
        print(f"levels <= {m}: {len(fams)} natural famil{'y' if len(fams)==1 else 'ies'} ({kinds})")
    PW = power_functor()
    for n in range(1, max_level + 1):
        probe = FINSET.obj(range(n + 1))
        escaping = escaping_element(PW, n, [probe])
        if escaping is None:
            print(f"bound n = {n}: {PASS}, no escaping subset")
        else:
            print(f"bound n = {n}: {FAIL}, escaping subset: {sorted(escaping)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
