"""Command line runner: execute demo suites, write machine-readable reports,
and replay previously saved certificates.

Exit codes: 0 when every check matches its expectation, 1 when a certified
check disagrees (counterexample suites expect their FAIL certificates unless
--no-expect-failures is given), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .certs import CertificateError, load_certificate, replay
from .serialize import canonical_dumps
from .suites import SUITES, run_suite


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finbench",
        description="witness and counterexample workbench for functor "
        "finiteness properties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a demo suite")
    runp.add_argument(
        "--suite",
        required=True,
        help="one of: %s, all" % ", ".join(sorted(SUITES)),
    )
    runp.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    runp.add_argument("--bound", type=int, default=8, help="search bound recorded in reports")
    runp.add_argument("--json", dest="json_path", default=None, help="write the report here")
    runp.add_argument("--verbose", action="store_true")
    runp.add_argument(
        "--expect-failures",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="treat certified counterexample failures as expected",
    )

    rep = sub.add_parser("replay", help="recompute a certificate and compare")
    rep.add_argument("certificate", help="path to a certificate JSON file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        if args.suite != "all" and args.suite not in SUITES:
            print(f"unknown suite: {args.suite}", file=sys.stderr)
            return 2
        report, ok = run_suite(
            args.suite,
            seed=args.seed,
            bound=args.bound,
            expect_failures=args.expect_failures,
            verbose=args.verbose,
        )
        text = canonical_dumps(report)
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        if args.verbose or not args.json_path:
            for check in report["checks"]:
                mark = "ok " if check["ok"] else "BAD"
                print(
                    f"{mark} [{check['suite']}] {check['name']}: {check['verdict']}"
                )
        print(("all checks matched" if ok else "mismatched checks present"))
        return 0 if ok else 1

    if args.command == "replay":
        try:
            cert = load_certificate(args.certificate)
        except (OSError, ValueError) as exc:
            print(f"cannot load certificate: {exc}", file=sys.stderr)
            return 2
        try:
            result = replay(cert)
        except CertificateError as exc:
            print(f"cannot replay certificate: {exc}", file=sys.stderr)
            return 2
        if result.match:
            print("replay: match")
            return 0
        print("replay: MISMATCH")
        for d in result.diffs:
            print("  " + d)
        return 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
