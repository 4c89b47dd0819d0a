"""Record the reference digests that the benchmark checks outputs against.

For each seed it stores the sha256 of the `suite-all` report bytes and of
every certificate in it.  Certificates whose bytes do not depend on the
seed are stored once.  The stored file was made at commit f91ece3.  Run
from the repository root at the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py 0 63 > perfbench/reference.json
"""

import json
import sys

from workloads import check_id, sha256


def main(first, last):
    from finbench.serialize import canonical_dumps
    from finbench.suites import run_suite

    reports = {}
    certs = {}
    for seed in range(first, last + 1):
        report, _ = run_suite("all", seed)
        reports[str(seed)] = sha256(canonical_dumps(report))
        for check in report["checks"]:
            digest = sha256(canonical_dumps(check["certificate"]))
            certs.setdefault(check_id(check), {})[str(seed)] = digest
    certificates = {
        cid: (next(iter(by_seed.values())) if len(set(by_seed.values())) == 1 else by_seed)
        for cid, by_seed in certs.items()
    }
    json.dump(
        {"seeds": [first, last], "report": reports, "certificates": certificates},
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
