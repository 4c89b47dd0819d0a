"""The README's claims ledger names real checks and leaves none out."""

import re
from pathlib import Path

from finbench.suites import SUITES

README = Path(__file__).resolve().parent.parent / "README.md"


def _ledger_rows():
    """(claim, named checks) per row of the README's "Claims ledger" table;
    a row that names no check must say none."""
    section = README.read_text(encoding="utf-8").split("\n## Claims ledger\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    assert rows[1].startswith("| ---"), "the ledger table has no header"
    out = []
    for line in rows[2:]:
        claim, checks, _ = (cell.strip() for cell in line.strip("|").split("|"))
        names = re.findall(r"`([^`]+)`", checks)
        assert names or checks == "none", f"row {claim!r} names no check and does not say none"
        out.append((claim, names))
    return out


def test_the_ledger_names_only_checks_of_suite_all():
    checks = {f"{suite}/{c[0]}" for suite in SUITES for c in SUITES[suite]}
    rows = _ledger_rows()
    named = [name for _, names in rows for name in names]
    assert not set(named) - checks, f"no such check: {sorted(set(named) - checks)}"
    assert not checks - set(named), f"in no row: {sorted(checks - set(named))}"
    assert len(rows) >= 6  # the abstract's six claims at least
