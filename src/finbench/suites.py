"""Demo suites behind the CLI: each check is produced by a registered recipe
so that its certificate can be replayed bit-exactly later.

The recipes live at the bottom of the layer modules that do their work;
importing this module imports those layers and so registers every recipe.
It also imports every module that certs.RECIPE_MODULES or
core.CATEGORY_MODULES names, so that no check of run_suite imports one.
All randomness flows from the seed recorded in the certificate parameters.
"""

from __future__ import annotations

import time

from .certs import FAIL, PARAMS, PASS, PASS_WITNESSED, RECIPES
from . import functors, hausdorff, nominal, strictness, superfin, symbolic, vec  # noqa: F401


SUITES = {
    "un-counterexample": [
        ("prime-hom-table", "no-finitary-endo", {"subject": "cycle_family"}, FAIL),
        ("boundedness-witnesses", "un-boundedness", {}, PASS_WITNESSED),
        ("reflect-prime-chain", "reflect-prime-chain", {"k": 3}, PASS),
        ("finitarity-chain", "finitarity-un", {"k": 3}, FAIL),
    ],
    "graph-counterexample": [
        ("finitarity-chain", "finitarity-graph", {"k": 3}, FAIL),
        ("ray-no-finitary-endo", "no-finitary-endo", {"subject": "ray"}, FAIL),
    ],
    "nom-counterexample": [
        ("rigidity", "nominal-rigidity", {"k": 3, "pool": 10}, PASS_WITNESSED),
        ("finitarity-chain", "finitarity-nom", {"k": 3}, FAIL),
    ],
    "strictness": [
        ("finset-exhaustive", "strictness-finset", {}, PASS_WITNESSED),
        ("presheaf-fold", "strictness-presheaf", {}, PASS_WITNESSED),
        ("vec-projection", "strictness-vec", {}, PASS_WITNESSED),
        ("regularity", "regularity", {}, PASS_WITNESSED),
    ],
    "atoms": [
        (f"atoms-{g}", "atoms", {"group": g}, PASS_WITNESSED)
        for g in ("triv", "z2", "z3", "s3")
    ],
    "superfin": [
        ("kan-evaluation", "superfin-evaluation", {}, PASS_WITNESSED),
        ("closure-ops", "superfin-closure", {}, PASS_WITNESSED),
        ("powerset-not-superfinitary", "superfin-powerset", {}, FAIL),
        ("powerset-endo-probe", "superfin-endos", {"m": 3}, PASS_WITNESSED),
    ],
    "nominal-classification": [
        ("subgroup-counts", "nominal-subgroups", {}, PASS_WITNESSED),
        ("subgroup-roundtrip", "nominal-roundtrip", {"n": 3}, PASS_WITNESSED),
        ("orbit-classes", "nominal-orbit-classes", {}, PASS_WITNESSED),
    ],
    "hausdorff": [
        ("metric-axioms", "hausdorff-axioms", {}, PASS_WITNESSED),
        ("functoriality", "hausdorff-functoriality", {}, PASS_WITNESSED),
        ("boundedness-witnesses", "hausdorff-bounded", {}, PASS_WITNESSED),
    ],
}

# A recipe gets the suite seed exactly when it has a seed parameter.
SEEDED_RECIPES = {name for name, params in PARAMS.items() if "seed" in params}


def run_suite(name: str, seed: int = 0, bound: int = 8, *, timings=None):
    """Execute a suite and return (report dict, all_ok).  With a list as
    timings, append {"suite", "name", "recipe", "wall_s"} for each check,
    its recipe call timed by perf_counter; the report does not change."""
    if name == "all":
        names = sorted(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(name)
    checks = []
    all_ok = True
    for suite in names:
        for check_name, recipe_name, params, expected in SUITES[suite]:
            params = dict(params)
            if recipe_name in SEEDED_RECIPES:
                params.setdefault("seed", seed)
            start = time.perf_counter()
            cert = RECIPES[recipe_name](**params)
            if timings is not None:
                timings.append({"suite": suite, "name": check_name, "recipe": recipe_name,
                                "wall_s": time.perf_counter() - start})
            ok = cert.verdict == expected
            all_ok = all_ok and ok
            checks.append(
                {
                    "suite": suite,
                    "name": check_name,
                    "expected": expected,
                    "verdict": cert.verdict,
                    "ok": ok,
                    "certificate": cert.to_payload(),
                }
            )
    report = {
        "schema": "finbench-report/1",
        "suite": name,
        "seed": seed,
        "bound": bound,
        "checks": checks,
        "ok": all_ok,
    }
    return report, all_ok
