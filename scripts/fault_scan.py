#!/usr/bin/env python3
"""Plant one-line faults in the kernels and see whether the certificates notice.

Each catalogue row names a file under src/, an exact text that occurs once
in it, the text that replaces it, and the kernel it breaks.  For each row
the script copies src/ into a temporary directory, plants the fault, and
runs run_suite("all", s) for s = 0 and 7 in a subprocess.  It classes each
fault by the worst outcome over the two seeds:

- crash: the run raised (or ran past the time limit)
- verdict mismatch: some check's verdict differs from its expectation
- bytes changed: every verdict holds, but all.json has other bytes
- silent: all.json is byte-identical to the unfaulted run

Usage: python scripts/fault_scan.py
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (file under src/, exact old text, new text, kernel: the planted fault)
FAULTS = [
    ("finbench/core.py",
     "                        elif c != b2:\n                            ok = False",
     "                        elif False:\n                            ok = False",
     "_search ignores a propagation conflict"),
    ("finbench/core.py",
     "                    ok = check(assign, new)",
     "                    ok = True",
     "_search skips relation_check"),
    ("finbench/core.py",
     "        assign, used = [None] * n, [False] * len(ys)  # used: positions taken, if injective\n",
     "        assign, used = [None] * n, [False] * len(ys)  # used: positions taken, if injective\n"
     "        injective = False\n",
     "_search skips the injectivity test"),
    ("finbench/core.py",
     "                for a in new:\n                    assign[a] = None",
     "                for a in new[:1]:\n                    assign[a] = None",
     "_search undoes only the branch element's own assignment on backtrack"),
    ("finbench/core.py",
     "    return all(b[0] <= a[0] and a[1] % b[1] == 0 for a, b in zip(sx, sy))",
     "    return all(b[0] <= a[0] and a[1] == b[1] for a, b in zip(sx, sy))",
     "_fits demands equal periods"),
    ("finbench/core.py",
     "    return all(b[0] <= a[0] and a[1] % b[1] == 0 for a, b in zip(sx, sy))",
     "    return all(b[0] <= a[0] and a[1] % b[1] == 0 for a, b in zip(sx, sy))"
     " and sy != ((0, 2),)",
     "_fits refuses 2-cycle targets (cycle-family homs skip q = 2)"),
    ("finbench/core.py",
     "                queue.extend(successors(a, b))",
     "                pass",
     "Partition.close skips successors"),
    ("finbench/core.py",
     "        return {x: members[0] for members in self.classes() for x in members}",
     "        return {x: members[-1] for members in self.classes() for x in members}",
     "Partition.reps takes the last member"),
    ("finbench/perms.py",
     "        frontier = new",
     "        frontier = []",
     "mulclose stops after one round"),
    ("finbench/perms.py",
     "    reps = [identity_perm(len(g))]\n    for r in reps:",
     "    reps = [identity_perm(len(g))]\n    for r in reps[:1]:",
     "perms._join walks one coset representative"),
    ("finbench/hausdorff.py",
     "        nb = (2 * self.den).bit_length() // 8 + 1",
     "        nb = ((2 * self.den).bit_length() + 7) // 8",
     "packed triangle field one bit too narrow"),
    ("finbench/colimits.py",
     "        if other[1] != base[1]:",
     "        if False:",
     "colimits._merged never disagrees"),
    ("finbench/strictness.py",
     "            if f not in passed:",
     "            if not passed:",
     "regularity's memo decides only the first draw"),
    ("finbench/hausdorff.py",
     "    kept = space.__dict__",
     "    kept = subset_space.__dict__",
     "subset_space keeps one slot for all spaces"),
    ("finbench/cats.py",
     "        kept = A.__dict__.setdefault(",
     "        kept = self.__dict__.setdefault(",
     "FinSetCat.retraction keeps one slot for all codomains"),
    ("finbench/cats.py",
     "        for g, f, h in self._laws:",
     "        for g, f, h in self._laws[:-1]:",
     "the G-set law check skips its last law"),
]

SEEDS = (0, 7)
LIMIT_S = 300

# prints {seed: [all verdicts as expected, sha256 of all.json]} as JSON
CHILD = """
import hashlib, json
from finbench.certs import canonical_dumps
from finbench.suites import run_suite
out = {}
for seed in %r:
    report, ok = run_suite("all", seed)
    out[seed] = [ok, hashlib.sha256(canonical_dumps(report).encode()).hexdigest()]
print(json.dumps(out))
""" % (SEEDS,)


def copy_src(tree):
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))


def planted(tree, fault):
    """A copy of src/ in tree, with the fault planted."""
    path, old, new, _ = fault
    copy_src(tree)
    target = tree / "src" / path
    text = target.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: the site of {fault[3]!r} does not occur exactly once")
    target.write_text(text.replace(old, new))


def run_suites(tree):
    """(result, seconds) of run_suite("all", s) on tree's src/: the result is
    {seed: [all verdicts as expected, sha256 of all.json]}, or the last
    line of the error when the run raised or ran too long."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        out = subprocess.run([sys.executable, "-c", CHILD], cwd=tree, env=env,
                             capture_output=True, text=True, timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        return f"over {LIMIT_S} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if out.returncode != 0:
        lines = out.stderr.strip().splitlines()
        return (lines[-1] if lines else f"exit code {out.returncode}"), seconds
    return json.loads(out.stdout), seconds


def classify(result, baseline):
    """(class, detail) of a faulted run against the unfaulted one."""
    if isinstance(result, str):
        return "crash", result
    flipped = [s for s in result if not result[s][0]]
    if flipped:
        return "verdict mismatch", "seeds " + ", ".join(flipped)
    moved = [s for s in result if result[s][1] != baseline[s][1]]
    if moved:
        return "bytes changed", "seeds " + ", ".join(moved)
    return "silent", ""


def main():
    with tempfile.TemporaryDirectory() as tmp:
        clean = pathlib.Path(tmp) / "clean"
        copy_src(clean)
        baseline, seconds = run_suites(clean)
        if isinstance(baseline, str) or not all(ok for ok, _ in baseline.values()):
            raise SystemExit(f"the unfaulted suite fails: {baseline}")
        print(f"unfaulted: {seconds:.2f} s, all.json sha256 "
              + ", ".join(f"seed {s} {digest[:8]}" for s, (_, digest) in baseline.items()))
        print("| planted fault | `all.json` | detail | s |")
        print("| --- | --- | --- | --- |")
        for i, fault in enumerate(FAULTS):
            tree = pathlib.Path(tmp) / f"fault{i}"
            planted(tree, fault)
            result, seconds = run_suites(tree)
            kind, detail = classify(result, baseline)
            print(f"| {fault[3]} | {kind} | {detail} | {seconds:.2f} |", flush=True)
            shutil.rmtree(tree)
    return 0


if __name__ == "__main__":
    sys.exit(main())
