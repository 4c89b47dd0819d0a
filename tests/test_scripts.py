"""Smoke tests: the experiment scripts in scripts/ run and print their
headline results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, line",
    [
        ("classify_orbits.py", "support size 3: 6 subgroups, 4 orbit classes"),
        ("powerset_endo_scan.py", "levels <= 3: 1 natural family (identity)"),
    ],
)
def test_script_runs(script, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "3"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert any(l.startswith(line) for l in out.stdout.splitlines()), out.stdout
