"""Every dataclass in the library is a data type, not a result record.

A function returns its result as a plain value, a tuple or None, and a
check returns (verdict, witness).  A dataclass is kept for the values that
the library computes with or serializes: objects, morphisms, presentations
and certificates.
"""

import ast
from pathlib import Path

import finbench

DATA_TYPES = {
    "core.py": {"Obj", "Mor", "FunctorHandle"},
    "cats.py": {"FiniteGroupoid"},
    "symbolic.py": {"SymbolicObject", "SymMor"},
    "colimits.py": {"Cocone"},
    "nominal.py": {"OrbitSpec", "NominalSetSpec", "NomMor"},
    "superfin.py": {"SuperFinPresentation", "KanEval"},
    "hausdorff.py": {"FinMetricSpace", "NonexpandingMap"},
    "certs.py": {"Certificate"},
}


def _is_dataclass(dec):
    target = dec.func if isinstance(dec, ast.Call) else dec
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def test_every_dataclass_is_a_named_data_type():
    found = {}
    for path in sorted(Path(finbench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                found.setdefault(path.name, set()).add(node.name)
    records = {f"{module}:{name}" for module, names in found.items()
               for name in names - DATA_TYPES.get(module, set())}
    assert not records, f"dataclasses that are not named data types: {sorted(records)}"
    # the list names only what exists, so that it cannot pass vacuously
    assert found == DATA_TYPES
