"""Smoke tests: the experiment scripts in scripts/ run and print their
headline results."""

import hashlib
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


# The north-star report bytes: `finbench run --suite all --json` for these
# seeds must not change while the code is refactored or sped up.
@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "f962ae129b2ceae6d6575faf30e2f17f24f2e28885f055c8b4d0fe064fa678a2"),
        (7, "ef8585f726d9de07b47a4e78ce01044f9462ed29c5ba8fefe4bc750bda190df6"),
    ],
)
def test_run_all_suites_reports_are_byte_stable(tmp_path, seed, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_suites.py"), str(tmp_path), str(seed)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert hashlib.sha256((tmp_path / "all.json").read_bytes()).hexdigest() == digest
