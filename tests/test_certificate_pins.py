"""Every certificate that the reference table pins keeps its bytes.

perfbench/reference.json maps each check, keyed "suite/name", to the sha256
of its canonical certificate: one string when the bytes do not depend on the
seed, else a dict from seed to digest.  The whole-report digests in
test_scripts.py cannot tell a new check from a changed one; this test can.
A check that the table lacks is listed and does not fail the test.  The
table is only read here, never written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from finbench.certs import canonical_dumps
from finbench.suites import run_suite

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def _pinned(seed):
    """{check id: digest} for the seed, from the reference table."""
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))["certificates"]
    out = {}
    for check_id, value in table.items():
        digest = value if isinstance(value, str) else value.get(str(seed))
        if digest is not None:
            out[check_id] = digest
    return out


@pytest.mark.parametrize("seed", [0, 7])
def test_every_pinned_certificate_is_unchanged(seed):
    report, _ = run_suite("all", seed)
    fresh = {
        f"{check['suite']}/{check['name']}":
            hashlib.sha256(canonical_dumps(check["certificate"]).encode("utf-8")).hexdigest()
        for check in report["checks"]
    }
    pinned = _pinned(seed)
    unpinned = sorted(set(fresh) - set(pinned))
    if unpinned:
        print(f"checks without a pinned certificate at seed {seed}: {', '.join(unpinned)}")
    changed = sorted(c for c in pinned if fresh.get(c) != pinned[c])
    assert not changed, f"certificates missing or changed at seed {seed}: {changed}"
    # the 26 checks pinned when this test was written, so it cannot pass vacuously
    assert len(pinned) >= 26
