"""Every cache in the library has a stated bound."""

import ast
import importlib
import pkgutil
from pathlib import Path

import finbench


def test_every_module_cache_is_bounded():
    seen = []
    for info in pkgutil.iter_modules(finbench.__path__):
        mod = importlib.import_module(f"finbench.{info.name}")
        for name, value in vars(mod).items():
            params = getattr(value, "cache_parameters", None)
            if params is None or value.__module__ != mod.__name__:
                continue
            seen.append(f"{mod.__name__}.{name}")
            assert params()["maxsize"] is not None, f"{mod.__name__}.{name} is unbounded"
    # the caches this test is written against, so that it cannot pass vacuously
    assert {"finbench.cats._un_cycle", "finbench.perms.subgroups_of_sym"} <= set(seen)
    # an orbit keeps its own group and elements, so nominal has no cache
    assert not [name for name in seen if name.startswith("finbench.nominal.")]


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def test_no_cache_in_the_source_is_unbounded():
    # caches made inside a function, such as a functor handle's, are not
    # module names, so the source is read: lru_cache(maxsize=None) or
    # lru_cache(None), and a bare @lru_cache or @cache, which state no bound
    unbounded, bounded = [], []
    for path in sorted(Path(finbench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unbounded += [where for dec in node.decorator_list
                              if _name(dec) in ("lru_cache", "cache")]
            if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
                size = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
                (unbounded if not size or _is_none(size[0]) else bounded).append(where)
    assert not unbounded, f"caches without a stated bound: {unbounded}"
    # the power functor's handle cache in superfin and the module caches elsewhere
    assert sum(w.startswith("superfin.py:") for w in bounded) >= 1
    assert len(bounded) >= 3
