"""Every module-level cache in the library has a stated bound."""

import importlib
import pkgutil

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
    assert {"finbench.nominal._orbit_group", "finbench.nominal._orbit_elements",
            "finbench.perms.subgroups_of_sym"} <= set(seen)
