"""`finbench replay` in fresh interpreters.

In-process tests import `finbench.suites` first, which registers every
recipe, so they never see the path a real replay takes: `certs.recompute`
imports only the layer module that its recipe table names.  These tests run
`finbench.cli` as a new process, the way `python -m finbench.cli replay`
does (through `runpy`), and print the `finbench` modules loaded at exit.
No layer loads another only to share a result record, so each replay also
leaves named layers unloaded, and a replay that decodes no rational leaves
`fractions` and `decimal` unloaded.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from finbench.cats import Z2_GPD, gset_cat, gset_free_orbit
from finbench.certs import RECIPE_MODULES, RECIPES, canonical_dumps, save_certificate
from finbench.core import CATEGORY_MODULES
from finbench.serialize import mor_from_json, mor_to_json
from finbench.suites import SUITES, run_suite  # registers all recipes
from finbench.vec import VEC2

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))

# the finbench modules that a strictness replay loads only when its recipe
# runs them, and the standard modules that only a rational needs
NOT_STRICTNESS = {"finbench.vec", "finbench.symbolic", "fractions", "decimal"}

# seed-0 suite checks replayed fresh: id -> (the recipe's module, suite,
# check, the other modules that the replay must load, the modules that it
# must not load)
REPLAY_CHECKS = {
    "functors": ("functors", "un-counterexample", "finitarity-chain", set(),
                 {"finbench.strictness", "finbench.vec"}),
    "prime-hom-table": ("symbolic", "un-counterexample", "prime-hom-table", set(),
                        {"finbench.strictness", "finbench.serialize", "finbench.vec",
                         "fractions"}),
    "nominal": ("nominal", "nominal-classification", "subgroup-counts", set(),
                {"finbench.symbolic", "finbench.serialize"}),
    "nominal-chain": ("nominal", "nom-counterexample", "finitarity-chain", set(),
                      {"finbench.functors", "finbench.symbolic"}),
    "strictness": ("strictness", "strictness", "finset-exhaustive", set(), NOT_STRICTNESS),
    "presheaf-fold": ("strictness", "strictness", "presheaf-fold", set(), NOT_STRICTNESS),
    "regularity": ("strictness", "strictness", "regularity", set(), NOT_STRICTNESS),
    "atoms": ("strictness", "atoms", "atoms-s3", set(), NOT_STRICTNESS),
    "vec-projection": ("strictness", "strictness", "vec-projection", {"finbench.vec"},
                       NOT_STRICTNESS - {"finbench.vec"}),
    "superfin": ("superfin", "superfin", "powerset-endo-probe", set(),
                 {"finbench.functors", "finbench.strictness", "finbench.colimits",
                  "finbench.serialize", "finbench.symbolic"}),
    "hausdorff": ("hausdorff", "hausdorff", "boundedness-witnesses", set(),
                  {"finbench.nominal", "finbench.superfin", "finbench.functors"}),
}


def _python(*args):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True,
                          text=True, timeout=60)


def _cli_replay(path):
    return _python("-m", "finbench.cli", "replay", str(path))


# Modules that no finbench process may load: importing dataclasses pulls in
# inspect, ast, dis and tokenize, which cost a replay more than its own layer,
# and argparse pulls in gettext, whose catalogue searches import locale.
SLOW_IMPORTS = ("dataclasses", "inspect", "argparse", "gettext", "locale")
# Modules that only a process that decodes or computes with rationals loads
RATIONALS = ("fractions", "decimal")

# `python -m finbench.cli`, then the loaded finbench modules, slow imports and
# rational modules as stderr's last line
LOADED_AT_EXIT = f"""
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(m for m in sys.modules if m.split(".")[0]
                                      in ("finbench", *{SLOW_IMPORTS + RATIONALS!r})),
                              file=sys.stderr))
runpy.run_module("finbench.cli", run_name="__main__", alter_sys=True)
"""


def test_recipe_table_names_each_recipes_module():
    assert {name: fn.__module__ for name, fn in RECIPES.items()} == \
        {name: f"finbench.{module}" for name, module in RECIPE_MODULES.items()}


@pytest.mark.parametrize("case", sorted(REPLAY_CHECKS))
def test_fresh_replay_imports_only_its_recipes_layer(tmp_path, case):
    module, suite, check, also_loaded, not_loaded = REPLAY_CHECKS[case]
    _, recipe, params, _ = next(c for c in SUITES[suite] if c[0] == check)
    assert RECIPE_MODULES[recipe] == module
    path = tmp_path / "cert.json"
    save_certificate(RECIPES[recipe](**params), path)  # seeded recipes default to seed 0
    out = _python("-c", LOADED_AT_EXIT, "replay", str(path))
    assert (out.returncode, out.stdout) == (0, "replay: match\n"), out.stderr
    loaded = set(out.stderr.splitlines()[-1].split())
    assert {f"finbench.{module}", *also_loaded} <= loaded
    assert "finbench.suites" not in loaded
    assert not loaded & not_loaded
    assert not loaded & set(SLOW_IMPORTS)


def test_fresh_cli_import_loads_no_layer():
    out = _python("-c", "import sys, finbench.cli\n"
                        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'finbench'))\n"
                        f"print(*sorted(set(sys.modules) & set({SLOW_IMPORTS + RATIONALS!r})))")
    assert out.returncode == 0, out.stderr
    finbench_modules, slow = out.stdout.split("\n")[:2]
    assert finbench_modules.split() == ["finbench", "finbench.cats", "finbench.certs",
                                        "finbench.cli", "finbench.core", "finbench.perms"]
    assert slow == ""


def test_suites_import_loads_every_module_a_check_needs():
    # run_suite is timed as the CLI's main path: no check may import a module
    out = _python("-c", "import sys\n"
                        "import finbench.suites\n"
                        "print(*sorted(m for m in sys.modules if m.startswith('finbench.')))\n"
                        "before = set(sys.modules)\n"
                        "finbench.suites.run_suite('all', 0)\n"
                        "print(*sorted(set(sys.modules) - before))")
    assert out.returncode == 0, out.stderr
    loaded, added = out.stdout.split("\n")[:2]
    needed = {*RECIPE_MODULES.values(), *CATEGORY_MODULES.values()}
    assert {f"finbench.{m}" for m in needed} <= set(loaded.split())
    assert added == ""


def test_no_library_module_imports_dataclasses_inspect_or_typing():
    for path in sorted((ROOT / "src" / "finbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not {n.split(".")[0] for n in names} & {*SLOW_IMPORTS, "typing"}, path.name


def test_presheaf_witness_reads_back_in_a_fresh_process():
    # the reader alone must know psh(z2): nothing in the fresh process builds it
    b = RECIPES["strictness-presheaf"]().witness["witness"]["b"]
    out = _python("-c", "import json, sys\n"
                        "from finbench.serialize import canonical_dumps, mor_from_json, mor_to_json\n"
                        "print(canonical_dumps(mor_to_json(mor_from_json(json.loads(sys.argv[1])))))",
                  canonical_dumps(b))
    assert out.returncode == 0, out.stderr
    assert out.stdout == canonical_dumps(b) + "\n"
    cat = gset_cat(Z2_GPD)
    _, injections = cat.coproduct([gset_free_orbit(cat, 0), gset_free_orbit(cat, 1)])
    assert mor_from_json(b) == injections[0]


def test_vec_morphism_reads_back_in_a_fresh_process():
    # the category table loads finbench.vec for the reader: nothing else does
    f = VEC2.from_matrix(VEC2.obj(2), VEC2.obj(3), [(1, 0, 1), (0, 1, 1)])
    text = canonical_dumps(mor_to_json(f))
    out = _python("-c", "import json, sys\n"
                        "from finbench.serialize import canonical_dumps, mor_from_json, mor_to_json\n"
                        "before = 'finbench.vec' in sys.modules\n"
                        "f = mor_from_json(json.loads(sys.argv[1]))\n"
                        "print(before, type(f).__name__)\n"
                        "print(canonical_dumps(mor_to_json(f)))",
                  text)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False Mor\n" + text + "\n"
    assert mor_from_json(json.loads(text)) == f


@pytest.mark.parametrize("name", ["suites", "vec", "../vec", "finbench.vec", "cli", "vec4"])
def test_unknown_category_name_imports_no_module(name):
    # a category name read from JSON never chooses a module to import
    j = {"category": name, "carrier": [], "structure": {"t": []}}
    out = _python("-c", "import json, sys\n"
                        "from finbench.serialize import mor_from_json, obj_from_json\n"
                        "j = json.loads(sys.argv[1])\n"
                        "before = set(sys.modules)\n"
                        "for read, arg in ((obj_from_json, j),\n"
                        "                  (mor_from_json, {'category': j['category'], 'dom': j,\n"
                        "                                   'cod': j, 'maps': []})):\n"
                        "    try:\n"
                        "        read(arg)\n"
                        "    except ValueError as exc:\n"
                        "        print(exc)\n"
                        "print(*sorted(set(sys.modules) - before))",
                  json.dumps(j))
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"unknown category {name!r}\n" * 2 + "\n"


def _workloads():
    """perfbench/workloads.py, loaded from its file: it makes the benchmark's
    mutated and malformed certificates."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 7])
def test_seeded_mutations_replay_as_mismatch_or_exit_2(tmp_path, seed):
    report, _ = run_suite("all", seed)
    cases = [c for c in _workloads().replay_cases(report, seed) if c[1] != "valid"]
    assert sorted(kind for _, kind, _ in cases) == ["malformed"] * 3 + ["mutated"] * 4
    for i, (cid, kind, text) in enumerate(cases):
        path = tmp_path / f"case-{i}.json"
        path.write_text(text, encoding="utf-8")
        out = _cli_replay(path)
        if kind == "mutated":
            lines = out.stdout.splitlines()
            assert out.returncode == 1 and lines[0] == "replay: MISMATCH", (cid, out)
            assert any(line.strip().startswith("witness.") for line in lines[1:]), cid
        else:
            assert (out.returncode, out.stdout) == (2, ""), (cid, out)
            assert out.stderr.count("\n") == 1 and out.stderr.endswith("\n"), cid
            assert "Traceback" not in out.stderr, cid
