"""Command line runner: execute demo suites, write machine-readable reports,
and replay previously saved certificates.

    finbench run --suite NAME [--seed N] [--bound N] [--json PATH]
                 [--metrics PATH] [--verbose]
    finbench replay CERT

`parse` reads the two commands without argparse, whose import and parser
set-up cost each `finbench replay` process more than the parsing needs.  It
takes what argparse takes: `--opt value` and `--opt=value`, a unique prefix
of an option, the last of a repeated option, a negative integer as a value,
`--` before a path that starts with "-", and `-h`/`--help`, which prints
the help and exits 0.

Exit codes: 0 when every check matches its expectation, 1 when a certified
check disagrees (counterexample suites expect their FAIL certificates), 2 on
usage errors, which print the command's usage and one error line.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .certs import CertificateError, canonical_dumps, load_certificate, replay

# each command's options: name -> (key, default); a False default makes a
# flag, and an int default reads the value with int()
OPTIONS = {
    None: {},
    "run": {"--suite": ("suite", None), "--seed": ("seed", 0), "--bound": ("bound", 8),
            "--json": ("json_path", None), "--metrics": ("metrics_path", None),
            "--verbose": ("verbose", False)},
    "replay": {},
}
USAGE = {
    None: "usage: finbench [-h] {run,replay} ...\n",
    "run": "usage: finbench run [-h] --suite SUITE [--seed SEED] [--bound BOUND]\n"
           "                    [--json JSON_PATH] [--metrics METRICS_PATH] [--verbose]\n",
    "replay": "usage: finbench replay [-h] certificate\n",
}
HELP = {
    None: """
witness and counterexample workbench for functor finiteness properties

positional arguments:
  {run,replay}
    run         run a demo suite
    replay      recompute a certificate and compare

options:
  -h, --help    show this help message and exit
""",
    "run": """
options:
  -h, --help            show this help message and exit
  --suite SUITE         a suite name, or all; an unknown name lists the suites
  --seed SEED           seed for all sampling
  --bound BOUND         search bound recorded in reports
  --json JSON_PATH      write the report here
  --metrics METRICS_PATH
                        write each check's wall time, the Python version and
                        nproc here as JSON; the report does not change
  --verbose
""",
    "replay": """
positional arguments:
  certificate  path to a certificate JSON file

options:
  -h, --help   show this help message and exit
""",
}


class UsageError(Exception):
    """args: the command whose usage is printed (None before one is named)
    and the error line."""


def _is_value(arg):
    """Whether arg is a value rather than an option: a word that does not
    start with "-", a lone "-", or a negative integer."""
    return arg[:1] != "-" or arg == "-" or arg[1:].isdecimal()


def parse(argv):
    """The command line as attributes: command, help, and the command's
    options or certificate path; raises UsageError."""
    command = argv[0] if argv and argv[0] in ("run", "replay") else None
    options = OPTIONS[command]
    values = {"command": command, "help": False, **dict(options.values())}
    args, positional, unknown = argv[1:] if command else argv[:], [], []

    def fail(message):
        raise UsageError(command, message)

    while args:
        arg = args.pop(0)
        if arg == "--":
            positional += args
            break
        if _is_value(arg):
            if command is None:
                fail(f"argument command: invalid choice: {arg!r} (choose from 'run', 'replay')")
            positional.append(arg)
            continue
        name, eq, value = arg.partition("=")
        found = [o for o in ("--help", *options) if o.startswith(name)] if name[:2] == "--" else []
        if name == "-h" or name in options:
            found = [name]
        if not found:
            unknown.append(arg)  # reported at the end, so a later -h still helps
            continue
        if len(found) > 1:
            fail(f"ambiguous option: {name} could match {', '.join(found)}")
        opt = found[0]
        key, default = options.get(opt, (None, False))  # -h and --help: no key
        if default is False:
            if eq:
                fail(f"argument {opt}: ignored explicit argument {value!r}")
            if key is None:
                return SimpleNamespace(command=command, help=True)
            value = True
        elif not eq:
            if not args or not _is_value(args[0]):
                fail(f"argument {opt}: expected one argument")
            value = args.pop(0)
        if type(default) is int:
            try:
                value = int(value)
            except ValueError:
                fail(f"argument {opt}: invalid int value: {value!r}")
        values[key] = value
    if command is None:
        fail("the following arguments are required: command")
    if command == "run" and values["suite"] is None:
        fail("the following arguments are required: --suite")
    wanted = int(command == "replay")
    if len(positional) < wanted:
        fail("the following arguments are required: certificate")
    if unknown or len(positional) > wanted:
        fail(f"unrecognized arguments: {' '.join(unknown + positional[wanted:])}")
    if wanted:
        values["certificate"] = positional[0]
    return SimpleNamespace(**values)


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
    try:
        args = parse(list(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        command, message = exc.args
        prog = f"finbench {command}" if command else "finbench"
        print(f"{USAGE[command]}{prog}: error: {message}", file=sys.stderr)
        return 2
    if args.help:
        print(USAGE[args.command] + HELP[args.command], end="")
        return 0

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


if __name__ == "__main__":
    sys.exit(main())
