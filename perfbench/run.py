"""The finbench benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: the library is imported from the
checkout's src/.  Workloads (see README.md for why each was chosen):

  suite-all       run_suite("all", seed), the CLI's main path (26 checks)
  hom-search      a seeded batch of hom_set, find_iso and coequalizer queries
  orbit-classify  subgroups_of_Sn(n) and single_orbit_enumerate(n), n <= 4
  replay          `finbench replay <cert>`, one process per certificate

Each timed repetition runs in a fresh interpreter (child.py), because CLI
users pay cold caches on every run.  Every time is reported at the
reference machine speed: the wall time measured, times the machine speed
sampled while it ran (speed.py), so that load from outside the machine does
not show as a change of the program.  The table also gives the raw median.  Repetitions run while the next one,
expected to last as long as the last one did, ends within --seconds; at
least one runs.  With --trace 0 the last line of output is a JSON object with
the end-to-end metrics; with --trace 1 one more repetition runs traced and
the line holds the per-layer metrics instead.  The lines before it are a
table for people: every metric with its unit and sample count, the failure
ratio and the percentile that op_tail_ms reports.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
OUT = HERE / "_out"

WORKLOADS = ("suite-all", "hom-search", "orbit-classify", "replay")
# Import-only processes started in set-up; their times join setup_s.
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170


class Child:
    """A finished child process: exit code, wall time, max RSS and result."""

    def __init__(self, code, wall_s, rss_mb, result, stdout, stderr, spawned):
        self.code = code
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.result = result
        self.stdout = stdout
        self.stderr = stderr
        self.setup_s = None
        if result and "speed_setup" in result:
            self.setup_s = (result["ready"] - spawned) * result["speed_setup"]


class Run:
    """One benchmark run: its processes, samples and failures."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.count = 0
        self.setup = []
        self.walls = []  # at reference speed
        self.raw_walls = []
        self.speeds = []
        self.ops = []  # per repetition, each operation's latency in ms at reference speed
        self.rss = []
        self.attempted = 0
        self.failures = []  # (known defect?, description)
        self.digest = None
        self.traces = []
        reference = json.loads((HERE / "reference.json").read_text())
        self.ref_report = reference["report"].get(str(seed))
        self.ref_certs = {
            cid: value if isinstance(value, str) else value.get(str(seed))
            for cid, value in reference["certificates"].items()
        }

    def spawn(self, mode, arg, trace_id=None, timed=True):
        self.count += 1
        out = self.work / f"{self.count}.json"
        stdout, stderr = self.work / f"{self.count}.out", self.work / f"{self.count}.err"
        args = [sys.executable, str(HERE / "child.py"), mode, str(arg), str(out)]
        if trace_id:
            args += [trace_id, str(self.spans_path())]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        with open(stdout, "wb") as fo, open(stderr, "wb") as fe:
            spawned = time.monotonic()
            proc = subprocess.Popen(args, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            result = json.loads(out.read_text())
        except (OSError, ValueError):
            result = None
        child = Child(proc.returncode, ended - spawned, usage.ru_maxrss / 1024, result,
                      stdout.read_text(errors="replace"), stderr.read_text(errors="replace"),
                      spawned)
        if child.setup_s is not None:
            self.setup.append(child.setup_s)
        if timed:
            self.rss.append(child.rss_mb)
        if result and "trace" in result:
            self.traces.append(result["trace"])
        return child

    def spans_path(self):
        return OUT / f"spans-{self.workload}-seed{self.seed}.jsonl"

    def check(self, ok, what, known=False):
        self.attempted += 1
        if not ok:
            self.failures.append((known, what))

    def check_digest(self, digest, reference, what):
        """Compare with the recorded reference, else with this run's first value."""
        if reference is None:
            if self.digest is None:
                self.digest = digest
            reference = self.digest
        self.check(digest == reference, f"{what} bytes differ from the reference")


# ---------------------------------------------------------------------------
# workloads: each rep function runs one timed repetition and checks it


def child_rep(run, trace_id=None):
    child = run.spawn(run.workload, run.seed, trace_id)
    result = child.result
    if child.code != 0 or result is None or "wall_s" not in result:
        run.check(False, f"{run.workload} process exited {child.code}: {child.stderr[-300:]}")
        return None
    speed = result["speed"]
    run.ops.append(result["ops_ms"])
    run.raw_walls.append(result["wall_s"])
    run.speeds.append(speed)
    if run.workload == "suite-all":
        for c in result["checks"]:
            run.check(c["ok"], f"check {c['id']}: verdict differs from its expectation")
            ref = run.ref_certs.get(c["id"])
            run.check(ref is None or c["sha256"] == ref,
                      f"certificate {c['id']} bytes differ from the reference")
        run.check_digest(result["digest"], run.ref_report, "report")
    elif run.workload == "hom-search":
        run.attempted += result["attempted"]
        run.failures += [(False, f"query {q}") for q in result["failed"]]
        run.check_digest(result["digest"], None, "answers")
    else:
        counts = result["counts"]
        for n in range(workloads.ORBIT_MAX_N + 1):
            run.check(counts["subgroups"][n] == workloads.ORBIT_SUBGROUP_COUNTS[n],
                      f"subgroups of S_{n}: {counts['subgroups'][n]}")
            run.check(counts["classes"][n] == workloads.ORBIT_CLASS_COUNTS[n],
                      f"single-orbit classes for n={n}: {counts['classes'][n]}")
        run.check_digest(result["digest"], None, "counts")
    return result["wall_s"] * speed


def replay_setup(run):
    """Write the certificates of the seed's suite-all report, plus the
    mutated and malformed ones, and compare the valid ones with the reference."""
    child = run.spawn("report", run.seed, timed=False)
    if child.code != 0 or child.result is None:
        raise RuntimeError(f"report generation failed: {child.stderr[-300:]}")
    cases = []
    for i, (cid, kind, text) in enumerate(workloads.replay_cases(child.result["report"], run.seed)):
        path = run.work / f"cert-{i}.json"
        path.write_text(text, encoding="utf-8")
        changed = False
        if kind == "valid" and run.ref_certs.get(cid) is not None:
            changed = workloads.sha256(text) != run.ref_certs[cid]
        cases.append((cid, kind, path, changed))
    run.cases = cases


def replay_rep(run, trace_id=None):
    start = time.monotonic()
    ops, raw = [], []
    run.ops.append(ops)
    for i, (cid, kind, path, changed) in enumerate(run.cases):
        child = run.spawn("replay", path, trace_id and f"{trace_id}-{i}")
        speed = child.result.get("speed", 1.0) if child.result else 1.0
        ops.append(child.wall_s * speed * 1e3)
        raw.append(child.wall_s * 1e3)
        if kind == "valid":
            run.check(child.code == 0 and "replay: match" in child.stdout and not changed,
                      f"{cid}: exit {child.code}" + (", bytes differ from the reference"
                                                     if changed else ""))
        elif kind == "mutated":
            run.check(child.code == 1 and "MISMATCH" in child.stdout,
                      f"{cid}: exit {child.code}, expected 1 with MISMATCH")
        else:
            clean = child.code == 2 and "Traceback" not in child.stderr
            run.check(clean, f"{cid}: exit {child.code}"
                      + (" with a traceback" if "Traceback" in child.stderr else "")
                      + ", expected 2 without a traceback", known=True)
    elapsed = time.monotonic() - start
    run.raw_walls.append(elapsed)
    run.speeds.append(sum(ops) / sum(raw))
    return elapsed + (sum(ops) - sum(raw)) / 1e3


# ---------------------------------------------------------------------------
# metrics


def tail(samples):
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return 100.0, s[-1]
    return 100.0 * (n - 10) / n, s[n - 11]


def end_to_end(run):
    """Medians over repetitions.  The operation percentiles are taken within
    each repetition, so which operation sets the tail does not depend on how
    many repetitions fitted in the run."""
    ops = [rep for rep in run.ops if rep]
    samples = sum(map(len, ops))
    failed = len(run.failures)
    notes = {"pct": tail(ops[0])[0], "ops_per_rep": len(ops[0]),
             "raw_wall": statistics.median(run.raw_walls), "speed": statistics.median(run.speeds)}
    return {
        "wall_s": (statistics.median(run.walls), "s", len(run.walls)),
        "setup_s": (statistics.median(run.setup), "s", len(run.setup)),
        "peak_rss_mb": (max(run.rss), "MB", len(run.rss)),
        "ok_ratio": (1 - failed / run.attempted, "ratio", run.attempted),
        "op_p50_ms": (statistics.median(map(statistics.median, ops)), "ms", samples),
        "op_tail_ms": (statistics.median(tail(rep)[1] for rep in ops), "ms", samples),
    }, notes


def per_layer(traces, walls, traced_wall, traced_raw, speed):
    """Per-layer metrics from the traced processes' summaries, with the
    tracing overhead against the untraced repetitions' median wall time and
    the median machine speed of the run.  The shares divide span times,
    which are raw, by the raw traced wall time."""
    merged = tracer.merge(traces)
    values = tracer.layer_metrics(merged, traced_raw)
    absent = [name for name, (value, _) in values.items() if value is None]
    untraced = statistics.median(walls)
    values.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_s": (traced_wall - untraced, "s"),
        "trace.covered_share": (sum(values[f"share.{layer}"][0] for layer in tracer.LAYERS),
                                "ratio"),
        "trace.spans": (merged["spans"], "count"),
        "trace.spans_dropped": (merged["dropped"], "count"),
        "trace.absent_metrics": (len(absent), "count"),
        "machine.speed": (speed, "ratio"),
    })
    return {name: (0 if value is None else value, unit, None)
            for name, (value, unit) in values.items()}, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "finbench" / "__init__.py").is_file():
        print(f"no finbench sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    work = WORK / str(os.getpid())
    run = Run(args.workload, args.seed, work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for _ in range(SETUP_PROBES):
            run.spawn("setup", 0, timed=False)
        if args.workload == "replay":
            replay_setup(run)
            rep = replay_rep
        else:
            rep = child_rep
        start = last = time.monotonic()
        while True:
            wall = rep(run)
            if wall is not None:
                run.walls.append(wall)
            now = time.monotonic()
            if now + (now - last) > start + args.seconds:
                break
            last = now
        if not run.walls:
            print("no repetition completed:", *[w for _, w in run.failures[:5]],
                  sep="\n  ", file=sys.stderr)
            return 1
        metrics, notes = end_to_end(run)
        absent = []
        if args.trace:
            OUT.mkdir(exist_ok=True)
            run.spans_path().unlink(missing_ok=True)
            trace_id = f"{args.workload}-{args.seed}"
            traced_wall = rep(run, trace_id)
            if traced_wall is None:
                print("the traced repetition failed", file=sys.stderr)
                return 1
            layer, absent = per_layer(run.traces, run.walls, traced_wall, run.raw_walls[-1],
                                      notes["speed"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed = len(run.failures)
    print(f"workload {args.workload}  seed {args.seed}  python {sys.version.split()[0]}"
          f"  nproc {os.cpu_count()}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<14} {value:>12.4f} {unit:<6} n={samples}")
    print(f"  fail_ratio     {failed / run.attempted:>12.4f}        "
          f"{failed} of {run.attempted} operations")
    print(f"  op_tail_ms is the p{notes['pct']:.2f} of each repetition's "
          f"{notes['ops_per_rep']} operations")
    print(f"  times are at reference speed; the machine ran at {notes['speed']:.3f} of it,"
          f" and the raw median wall_s is {notes['raw_wall']:.4f} s")
    for known, what in run.failures[:10]:
        print(f"  FAILED{' (known defect)' if known else ''}: {what}")
    if args.trace:
        print(f"  spans written to {run.spans_path().relative_to(ROOT)}")
        for name in absent:
            print(f"  absent (target gone): {name}")
        metrics = layer
    print(json.dumps({
        "correct": not any(not known for known, _ in run.failures),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
