"""Every public entry point of the library has a real caller.

Certificates reach users through `finbench run` and `finbench replay`, so a
public function, class or method that only tests call serves no one.  A name
counts as used when it appears as an identifier, an attribute or a component
of a dotted string (a tracer target such as "Category.hom_set") in a real
caller: the library outside the definition's own body, the experiment
scripts, or the benchmark.  Docstrings do not count; registered recipes do.
Names kept without a caller are listed in ALLOWED with the reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "finbench"
CALLERS = (ROOT / "scripts", ROOT / "perfbench")

ALLOWED = {
    # the JSON formats documented in the README, and the file replay reads
    "serialize.mor_from_json": "README 'JSON formats': reader for morphisms",
    "serialize.nomset_to_json": "README 'JSON formats': single orbits",
    "serialize.nomset_from_json": "README 'JSON formats': single orbits",
    "serialize.space_to_json": "README 'JSON formats': metric spaces",
    "serialize.space_from_json": "README 'JSON formats': metric spaces",
    "certs.save_certificate": "README 'CLI': writes the file that finbench replay reads",
}


def _docstrings(tree):
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                out.add(id(body[0].value))
    return out


def _params(node):
    args = node.args
    return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg) if a is not None}


def _names(tree):
    """How often each identifier, attribute, imported name and dotted-string
    component occurs in tree.  A name that refers to a parameter of an
    enclosing function or lambda is a local value, not a use of the
    module-level definition it may shadow."""
    docs = _docstrings(tree)
    out = Counter()

    def visit(node, params):
        if isinstance(node, ast.Name):
            if node.id not in params:
                out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs:
            out.update(part for part in node.value.split(".") if part.isidentifier())
        # decorators, defaults and annotations are evaluated outside the body
        body = ()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
        elif isinstance(node, ast.Lambda):
            body = [node.body]
        inner = params | _params(node) if body else params
        for child in ast.iter_child_nodes(node):
            visit(child, inner if any(child is b for b in body) else params)

    visit(tree, frozenset())
    return out


def _is_recipe(fn):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "recipe"
               for d in fn.decorator_list)


def _definitions(tree, module):
    """(qualified name, name, node) of each public module-level function and
    class, and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            if isinstance(node, ast.FunctionDef) and _is_recipe(node):
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def orphans():
    """Qualified names of the public definitions that no real caller uses."""
    library = {path.stem: _parse(path) for path in sorted(LIBRARY.glob("*.py"))}
    outside = set()
    for folder in CALLERS:
        for path in folder.rglob("*.py"):
            if "tests" not in path.relative_to(folder).parts:
                outside.update(_names(_parse(path)))
    inside = sum((_names(tree) for tree in library.values()), Counter())
    found = []
    for module, tree in library.items():
        for qualname, name, node in _definitions(tree, module):
            # uses inside the definition's own body do not count
            if name not in outside and inside[name] <= _names(node)[name]:
                found.append(qualname)
    return found


def test_every_public_entry_point_has_a_caller():
    found = orphans()
    missing = sorted(set(found) - set(ALLOWED))
    assert not missing, f"called by no certificate, script or benchmark: {missing}"
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"ALLOWED names that are gone or now have a caller: {stale}"


def test_allow_list_names_its_consumer():
    assert len(ALLOWED) <= 6
    for name, reason in ALLOWED.items():
        assert reason.startswith("README"), name


def _unused_imports(path):
    """(line, name) of each name that the module imports but never uses.
    A name listed in __all__ is exported, so used.  A line marked '# noqa' is
    exempt, for other re-exports and imports made for their side effects."""
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = _parse(path)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                found.append((node.lineno, name))
    return found


def test_every_import_is_used():
    # an unused import counts as a use in _names, so it can hide an orphan
    unused = {path.name: found for path in sorted(LIBRARY.glob("*.py"))
              if (found := _unused_imports(path))}
    assert not unused, f"imported but never used: {unused}"
