"""One process of a benchmark run, started by run.py in a fresh interpreter.

    python3 perfbench/child.py <mode> <arg> <result.json> [<run id> <spans.jsonl>]

Modes: "setup" (import only), "report" (write the suite-all report for seed
<arg>, untimed), "suite-all", "hom-search" and "orbit-classify" (one timed
repetition for seed <arg>), and "replay" (`finbench replay <arg>`, with the
CLI's own exit code and output).  A run id and a spans path turn tracing on.

The result file holds "ready", the CLOCK_MONOTONIC time at which `finbench`
is imported and its recipe registry built; run.py subtracts the time it
spawned this process to get the set-up time.  It also holds the machine
speed sampled up to then ("speed_setup") and over the timed section, or
over the whole process for replay ("speed"); see speed.py.  Operation
latencies ("ops_ms") are already at reference speed, each scaled by the
speed around its own interval.
"""

import json
import sys
import time

import speed

SAMPLER = speed.Sampler()
SAMPLER.start()

import finbench.cli  # noqa: E402  (imports finbench.suites, which registers every recipe)

READY = time.monotonic()
READY_PC = time.perf_counter()

import workloads  # noqa: E402  (after READY: not part of the library's set-up)


def write(path, result):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def scaled_ms(start, end):
    """Milliseconds from start to end, at reference machine speed."""
    return (end - start) * 1e3 * SAMPLER.speed(start, end)


def timed(fn, record):
    """fn, passing each call's args and (start, end) to record."""

    def call(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record(args, (start, time.perf_counter()))

    return call


def suite_all(seed, under):
    from finbench import certs
    from finbench.suites import run_suite

    calls = []
    for name, fn in list(certs.RECIPES.items()):
        certs.RECIPES[name] = timed(fn, lambda args, span: calls.append(span))
    t0 = time.perf_counter()
    report, _ = under(run_suite, "all", seed)
    t1 = time.perf_counter()
    checks = [{"id": workloads.check_id(c), "ok": c["ok"],
               "sha256": workloads.sha256(workloads.dumps(c["certificate"]))}
              for c in report["checks"]]
    return {"wall_s": t1 - t0, "speed": SAMPLER.speed(t0, t1),
            "ops_ms": [scaled_ms(*call) for call in calls],
            "checks": checks, "digest": workloads.sha256(workloads.dumps(report))}


def hom_search(seed, under):
    queries = workloads.hom_search_queries(seed)
    answers, calls = [], []

    def batch():
        for kind, spec in queries:
            start = time.perf_counter()
            answers.append(workloads.run_query(kind, spec))
            calls.append((start, time.perf_counter()))

    t0 = time.perf_counter()
    under(batch)
    t1 = time.perf_counter()
    failed = [f"{kind} {json.dumps(spec)} -> {json.dumps(answer)}"
              for (kind, spec), answer in zip(queries, answers)
              if not workloads.check_query(kind, spec, answer)]
    return {"wall_s": t1 - t0, "speed": SAMPLER.speed(t0, t1),
            "ops_ms": [scaled_ms(*call) for call in calls],
            "attempted": len(queries), "failed": failed,
            "digest": workloads.sha256(json.dumps(answers))}


def orbit_classify(seed, under):
    """An operation is the classification of one subgroup: every
    orbit_iso_map call that compares its orbit with the classes found so far."""
    from finbench import nominal

    per_orbit = {}
    nominal.orbit_iso_map = timed(
        nominal.orbit_iso_map, lambda args, span: per_orbit.setdefault(args[0], []).append(span))
    t0 = time.perf_counter()
    subgroups, classes = under(workloads.orbit_classify)
    t1 = time.perf_counter()
    counts = {"subgroups": subgroups, "classes": classes}
    ops = [sum(scaled_ms(*call) for call in calls) for calls in per_orbit.values()]
    return {"wall_s": t1 - t0, "speed": SAMPLER.speed(t0, t1), "ops_ms": ops,
            "counts": counts, "digest": workloads.sha256(json.dumps(counts))}


WORKLOADS = {"suite-all": suite_all, "hom-search": hom_search,
             "orbit-classify": orbit_classify}


def main(argv):
    mode, arg, out = argv[:3]
    result = {"ready": READY}
    tracer = None
    if len(argv) > 3:
        from tracer import Tracer

        tracer = Tracer(argv[3])
        tracer.install()

    def under(fn, *args):
        return tracer.run(fn, *args) if tracer else fn(*args)

    def finish():
        SAMPLER.stop()
        result["speed_setup"] = SAMPLER.speed(end=READY_PC)
        result.setdefault("speed", SAMPLER.speed())
        if tracer:
            result["trace"] = tracer.summary()
            tracer.write_spans(argv[4])
        write(out, result)

    if mode == "replay":
        # Written first so the set-up time survives a crash of the CLI.
        write(out, result)
        try:
            code = under(lambda: finbench.cli.main(["replay", arg]))
        finally:
            finish()
        return code
    if mode == "report":
        from finbench.suites import run_suite

        result["report"] = run_suite("all", int(arg))[0]
    elif mode != "setup":
        result.update(WORKLOADS[mode](int(arg), under))
    finish()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
