"""Command line runner: execute demo suites, write machine-readable reports,
and replay previously saved certificates.

Exit codes: 0 when every check matches its expectation, 1 when a certified
check disagrees (counterexample suites expect their FAIL certificates), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .certs import CertificateError, canonical_dumps, load_certificate, replay


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
        help="a suite name, or all; an unknown name lists the suites",
    )
    runp.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    runp.add_argument("--bound", type=int, default=8, help="search bound recorded in reports")
    runp.add_argument("--json", dest="json_path", default=None, help="write the report here")
    runp.add_argument("--metrics", dest="metrics_path", default=None,
                      help="write each check's wall time, the Python version and nproc "
                      "here as JSON; the report does not change")
    runp.add_argument("--verbose", action="store_true")

    rep = sub.add_parser("replay", help="recompute a certificate and compare")
    rep.add_argument("certificate", help="path to a certificate JSON file")
    return parser


def check_outputs(paths):
    """Open every output path before any work, so a bad path costs no run.
    Appending creates a missing file without truncating an existing one;
    when one path fails, the files created here are removed again."""
    created = []
    try:
        for path in paths:
            existed = os.path.exists(path)
            open(path, "a", encoding="utf-8").close()
            if not existed:
                created.append(path)
    except OSError:
        for path in created:
            os.remove(path)
        raise


def write_metrics(path, suite, seed, timings):
    """The sidecar of a run: per-check wall times and the machine they were
    measured on.  Times vary from run to run, so they stay out of the
    deterministic report."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    metrics = {
        "schema": "finbench-metrics/1",
        "suite": suite,
        "seed": seed,
        "python": ".".join(map(str, sys.version_info[:3])),
        "nproc": nproc,
        "checks": timings,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        # the suites import every layer; a replay needs only its recipe's
        from .suites import SUITES, run_suite

        if args.suite != "all" and args.suite not in SUITES:
            print(f"unknown suite: {args.suite} (one of: {', '.join(sorted(SUITES))}, all)",
                  file=sys.stderr)
            return 2
        try:
            check_outputs([p for p in (args.metrics_path, args.json_path) if p])
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return 2
        timings = [] if args.metrics_path else None
        report, ok = run_suite(args.suite, seed=args.seed, bound=args.bound, timings=timings)
        text = canonical_dumps(report)
        try:
            if args.metrics_path:
                write_metrics(args.metrics_path, args.suite, args.seed, timings)
            if args.json_path:
                with open(args.json_path, "w", encoding="utf-8") as fh:
                    fh.write(text)
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return 2
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
            diffs = replay(cert)
        except CertificateError as exc:
            print(f"cannot replay certificate: {exc}", file=sys.stderr)
            return 2
        if not diffs:
            print("replay: match")
            return 0
        print("replay: MISMATCH")
        for d in diffs:
            print("  " + d)
        return 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
