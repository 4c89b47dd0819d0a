#!/usr/bin/env python3
"""Run every demo suite and write one report per suite plus an aggregate.

Usage: python scripts/run_all_suites.py [outdir] [seed]
"""

import pathlib
import sys

from finbench.certs import canonical_dumps
from finbench.suites import SUITES, run_suite


def main():
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "reports")
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    outdir.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for name in sorted(SUITES):
        report, ok = run_suite(name, seed=seed)
        (outdir / f"{name}.json").write_text(canonical_dumps(report))
        status = "ok" if ok else "MISMATCH"
        print(f"{name:26s} {status}  ({len(report['checks'])} checks)")
        all_ok = all_ok and ok
    report, ok = run_suite("all", seed=seed)
    (outdir / "all.json").write_text(canonical_dumps(report))
    print("aggregate:", "ok" if ok else "MISMATCH")
    return 0 if all_ok and ok else 1


if __name__ == "__main__":
    sys.exit(main())
