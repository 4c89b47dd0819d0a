"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q -p no:cacheprovider perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from finbench.cats import FINSET, UN  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))


def python(code):
    """Run code in a fresh interpreter, where the tracer may patch freely."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layer, _ = run.per_layer([], [1.0], 1.0, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit, _) in layer.items()]


def test_every_per_layer_metric_has_a_live_target():
    known = {t[0] for t in tracer.TARGETS}
    known |= {f"suites.recipe.{r}" for r in tracer.RECIPES}
    known |= {f"cache.{c[0]}" for c in tracer.CACHES}
    for name, (_, (needs, _)) in tracer.METRICS.items():
        assert set(needs) <= known, name
    absent = python("import json, tracer\n"
                    "t = tracer.Tracer('check'); t.install(); print(json.dumps(t.absent))")
    assert absent == []


def test_tracer_survives_refactors():
    got = python("""
import json, finbench.cats as cats, finbench.cli as cli, finbench.certs as certs
del cats._un_op_map          # a cache a later change removes
import tracer
t = tracer.Tracer('check'); t.install()
cats.VEC2.hom_set(cats.VEC2.obj(1), cats.VEC2.obj(1))   # an overriding method
rebound = cli.load_certificate is certs.load_certificate is not None
values = tracer.layer_metrics(tracer.merge([t.summary()]), 1.0)
print(json.dumps({"absent": t.absent, "rebound": rebound,
                  "vec_calls": t.stats["core.hom_set"][0],
                  "hit_ratio": values["cats.op_cache.hit_ratio"][0]}))
""")
    assert got == {"absent": ["cache.cats._un_op_map"], "rebound": True,
                   "vec_calls": 1, "hit_ratio": None}


def test_traced_run_gives_the_same_report_bytes():
    got = python("""
import json
from finbench.serialize import canonical_dumps
from finbench.suites import run_suite
import tracer
plain = canonical_dumps(run_suite("all", 1)[0])
t = tracer.Tracer('check'); t.install()
traced = canonical_dumps(t.run(run_suite, "all", 1)[0])
print(json.dumps({"same": plain == traced, "spans": t.summary()["spans"]}))
""")
    assert got["same"] and got["spans"] > 0


@pytest.mark.parametrize("ps,qs", [([1], [1]), ([6], [1, 2, 3]), ([4, 6], [2, 3]),
                                   ([5, 3], [1, 5]), ([2, 7], [3, 4])])
def test_cycle_sum_formula_agrees_with_hom_set(ps, qs):
    assert len(UN.hom_set(UN.cycles_sum(ps), UN.cycles_sum(qs))) == \
        workloads.cycle_sum_homs(ps, qs)


def test_cycle_table_total():
    total = sum(workloads.cycle_sum_homs([p], [q])
                for p in range(1, workloads.TABLE_MAX + 1)
                for q in range(1, workloads.TABLE_MAX + 1))
    assert total == 431


def test_relabelled_isomorphisms_are_found_and_checked():
    queries = [q for q in workloads.hom_search_queries(3) if q[0].endswith("iso")]
    kinds = {kind for kind, _ in queries}
    assert kinds == {"un-iso", "un-noniso", "gra-iso", "gra-noniso", "gset-iso"}
    for kind in kinds:
        kind_, spec = next(q for q in queries if q[0] == kind)
        answer = workloads.run_query(kind_, spec)
        assert workloads.check_query(kind_, spec, answer), kind
    # the relabelling check is not vacuous: a wrong bijection fails it
    op, perm = next(spec for kind, spec in queries if kind == "un-iso")
    answer = workloads.run_query("un-iso", (op, perm))
    swapped = [[x, answer[(i + 1) % len(answer)][1]] for i, (x, _) in enumerate(answer)]
    assert not workloads.check_query("un-iso", (op, perm), swapped)


@pytest.mark.parametrize("seed", range(5))
def test_union_find_agrees_with_coequalizer(seed):
    for kind, (n, m, fi, gi) in [q for q in workloads.hom_search_queries(seed)
                                 if q[0] == "coeq"][:10]:
        X, Y = FINSET.obj(range(n)), FINSET.obj(range(m))
        q = FINSET.coequalizer(FINSET.mor(X, Y, fi), FINSET.mor(X, Y, gi))
        assert q.cod.size == workloads.union_find_classes(m, fi, gi)


def test_replay_cases_mutate_and_malform():
    report = {"checks": [
        {"suite": s, "name": n, "certificate": {"inputs": {"params": {"subject": "ray"}},
                                                "witness": {"a": [1, "x"], "b": True}}}
        for s, n in [c.split("/") for c in workloads.MUTABLE_CHECKS]
        + [("un-counterexample", "prime-hom-table")]]}
    cases = workloads.replay_cases(report, 0)
    assert cases == workloads.replay_cases(report, 0)
    kinds = [kind for _, kind, _ in cases]
    assert kinds.count("mutated") == workloads.MUTATED_CERTS
    assert kinds.count("malformed") == 3
    originals = {cid: text for cid, kind, text in cases if kind == "valid"}
    for cid, kind, text in cases:
        if kind == "mutated":
            assert text != originals[cid.split("#")[0]]


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hom-search",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_is_the_mean_of_the_samples_in_the_interval():
    import speed

    sampler = speed.Sampler()
    assert sampler.speed() == 1.0
    sampler.samples = [(1.0, 0.5), (2.0, 1.0), (3.0, 0.9), (9.0, 0.2)]
    assert sampler.speed(1.5, 3.5) == pytest.approx(0.95)
    assert sampler.speed(5.0, 6.0) == 0.9  # no sample inside: the nearest one
    assert sampler.speed(end=2.0) == pytest.approx(0.75)


def test_sampler_records_while_running():
    got = python("""
import json, time, speed
s = speed.Sampler(); s.start()
end = time.perf_counter() + 0.3
while time.perf_counter() < end:
    pass
s.stop()
print(json.dumps({"n": len(s.samples), "speed": s.speed()}))
""")
    assert got["n"] >= 10 and got["speed"] > 0
