"""Every value class in the library is a data type, not a result record.

A function returns its result as a plain value, a tuple or None, and a
check returns (verdict, witness).  A `core.Value` subclass is kept for the
values that the library computes with or serializes: objects, morphisms,
presentations and certificates.  Each one keeps the semantics of a frozen
dataclass on the fields it compares: equality within its own class only, the
hash of those fields (none for a type with dict fields), and no assignment.
"""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import finbench
from finbench.core import Value

# module -> {data type: the fields that its equality, hash and repr read}
DATA_TYPES = {
    "core": {"Obj": ("cat", "carrier", "structure"), "Mor": ("dom", "cod", "mapping"),
             "SymbolicObject": ("kind", "cat"),
             "FunctorHandle": ("name", "source", "target", "on_obj", "on_mor")},
    "cats": {"FiniteGroupoid": ("name", "sorts", "mors", "comp", "ids")},
    "symbolic": {"SymMor": ("dom", "cod", "mapping")},
    "colimits": {"Cocone": ("objects", "links", "apex", "legs")},
    "nominal": {"OrbitSpec": ("n", "gens"), "NominalSetSpec": ("orbits",),
                "NomMor": ("dom", "cod", "images", "pool")},
    "superfin": {"SuperFinPresentation": ("n", "values", "action"),
                 "KanEval": ("pres", "X", "reps", "rep_of")},
    "hausdorff": {"FinMetricSpace": ("points", "den", "rows"),
                  "NonexpandingMap": ("dom", "cod", "mapping")},
    "certs": {"Certificate": ("kind", "inputs", "verdict", "witness", "bounds", "schema")},
}
UNHASHABLE = {"Certificate", "KanEval"}


def _value_classes():
    found = {}
    for info in pkgutil.iter_modules(finbench.__path__):
        module = importlib.import_module(f"finbench.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and issubclass(cls, Value) and cls is not Value
                    and cls.__module__ == module.__name__):
                found.setdefault(info.name, {})[cls.__name__] = cls
    return found


def test_every_value_class_is_a_named_data_type():
    found = {module: set(classes) for module, classes in _value_classes().items()}
    records = {f"{module}:{name}" for module, names in found.items()
               for name in names - set(DATA_TYPES.get(module, ()))}
    assert not records, f"value classes that are not named data types: {sorted(records)}"
    # the list names only what exists, so that it cannot pass vacuously
    assert found == {module: set(types) for module, types in DATA_TYPES.items()}


def _samples():
    """One instance of each data type, by name."""
    from finbench import colimits, functors, hausdorff, nominal, superfin, symbolic
    from finbench.cats import GRA, Z2_GPD
    from finbench.certs import PASS, Certificate

    path = GRA.obj([0, 1], [(0, 1)])
    space = hausdorff.metric_space([0, 1], lambda x, y: Fraction(1, 2))
    orbit = nominal.pn_orbit(2)
    pres = superfin.truncated_identity(1)
    chain = functors.path_chain(2)
    out = {
        "Obj": path, "Mor": GRA.identity(path), "FunctorHandle": functors.un_counterexample(),
        "FiniteGroupoid": Z2_GPD, "SymbolicObject": symbolic.RAY,
        "SymMor": symbolic.SymMor(path, symbolic.RAY, (3, 4)), "Cocone": chain,
        "OrbitSpec": orbit, "NominalSetSpec": nominal.p_prefix(2),
        "NomMor": nominal.all_equivariant_maps(nominal.ONE, nominal.ONE)[0],
        "SuperFinPresentation": pres, "KanEval": superfin.evaluate(pres, [0, 1]),
        "FinMetricSpace": space, "NonexpandingMap": hausdorff.NonexpandingMap(space, space, (1, 0)),
        "Certificate": Certificate("atoms", {"recipe": "atoms", "params": {}}, PASS, {}),
    }
    assert isinstance(chain, colimits.Cocone)
    return out


SAMPLES = _samples()


@pytest.mark.parametrize("module,name", sorted(
    (module, name) for module, types in DATA_TYPES.items() for name in types))
def test_data_type_has_frozen_value_semantics(module, name):
    fields = DATA_TYPES[module][name]
    value = SAMPLES[name]
    assert type(value) is _value_classes()[module][name]
    assert type(value)._fields == fields
    # equal to a copy of its own class, and to nothing of another class with
    # the same fields
    twin = object.__new__(type(value))
    twin.__dict__.update(value.__dict__)
    other = object.__new__(type("Other", (type(value),), {}))
    other.__dict__.update(value.__dict__)
    assert value == twin and not value != twin
    assert value.__eq__(other) is NotImplemented and value != other
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(tuple(getattr(value, f) for f in fields))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)


def test_repr_shows_the_compared_fields_only():
    assert repr(SAMPLES["FinMetricSpace"]) == \
        "FinMetricSpace(points=(0, 1), den=2, rows=((0, 1), (1, 0)))"
    assert repr(SAMPLES["SymMor"]) == \
        "SymMor(dom=Obj(gra, [0, 1]), cod=Symbolic(ray), mapping=(3, 4))"
    assert repr(SAMPLES["Mor"]) == "Mor(0>0, 1>1)"
    assert repr(SAMPLES["OrbitSpec"]) == "OrbitSpec(n=2, gens=((1, 0),))"
    assert repr(SAMPLES["Certificate"]) == (
        "Certificate(kind='atoms', inputs={'recipe': 'atoms', 'params': {}}, "
        "verdict='PASS(probe-limited)', witness={}, bounds={}, schema='finbench-cert/1')")


def test_each_certificate_gets_its_own_bounds():
    from finbench.certs import Certificate

    a, b = (Certificate("atoms", {}, "PASS", {}) for _ in range(2))
    assert a.bounds == {} and a.bounds is not b.bounds
