"""Canonical JSON encoding for objects, morphisms, and certificate payloads.

Carrier elements map to JSON as: ints and strings directly, tuples as
{"t": [...]}, frozensets as {"f": [...]} with sorted members, rationals as
{"q": "p/q"}.  Everything decodes back bit-exactly, which is what makes
certificates replayable.
"""

from __future__ import annotations

from fractions import Fraction

from .certs import canonical_dumps  # noqa: F401  (re-exported for callers of serialize)
from .core import Mor, elem_key, lookup_category
from .symbolic import CYCLE_FAMILY, RAY, SymMor, SymbolicObject


def enc_elem(x):
    if isinstance(x, bool):
        raise TypeError("booleans are not carrier elements")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return {"t": [enc_elem(v) for v in x]}
    if isinstance(x, frozenset):
        return {"f": [enc_elem(v) for v in sorted(x, key=elem_key)]}
    if isinstance(x, Fraction):
        return {"q": f"{x.numerator}/{x.denominator}"}
    if x is None:
        return None
    raise TypeError(f"cannot encode {x!r}")


def dec_elem(j):
    """The carrier element that j encodes; a ValueError when j has the shape
    of no encoding, as a JSON boolean or float has not."""
    if isinstance(j, bool):
        raise ValueError("booleans are not carrier elements")
    if isinstance(j, (int, str)) or j is None:
        return j
    if isinstance(j, dict):
        if "t" in j:
            return tuple(dec_elem(v) for v in j["t"])
        if "f" in j:
            return frozenset(dec_elem(v) for v in j["f"])
        if "q" in j:
            num, den = j["q"].split("/")
            return Fraction(int(num), int(den))
    raise ValueError(f"cannot decode {j!r}")


def obj_to_json(X):
    if isinstance(X, SymbolicObject):
        return {"category": X.cat, "symbolic": X.kind}
    return {
        "category": X.cat,
        "carrier": [enc_elem(x) for x in X.carrier],
        "structure": enc_elem(X.structure),
    }


def obj_from_json(j):
    """The object j presents, rebuilt by its category's obj(...) so that it is
    validated as every constructed object is; a ValueError when the rebuilt
    carrier or structure differs from j's, or the category or symbolic kind
    is unknown."""
    if "symbolic" in j:
        from .nominal import P_SUBSET_FAMILY

        kinds = {s.kind: s for s in (RAY, CYCLE_FAMILY, P_SUBSET_FAMILY)}
        if j["symbolic"] not in kinds:
            raise ValueError(f"unknown symbolic kind {j['symbolic']!r}")
        return kinds[j["symbolic"]]
    try:
        cat = lookup_category(j["category"])
    except KeyError:
        raise ValueError(f"unknown category {j['category']!r}") from None
    carrier = tuple(dec_elem(x) for x in j["carrier"])
    structure = dec_elem(j["structure"])
    try:
        X = cat.rebuild(carrier, structure)
    except (TypeError, IndexError, KeyError) as exc:
        raise ValueError(f"not a valid {cat.name} object: {exc!r}") from None
    if X.carrier != carrier or X.structure != structure:
        raise ValueError(f"not a valid {cat.name} object")
    return X


def mor_to_json(f):
    cod = obj_to_json(f.cod)
    return {
        "category": f.dom.cat,
        "dom": obj_to_json(f.dom),
        "cod": cod,
        "maps": [[enc_elem(x), enc_elem(y)] for x, y in zip(f.dom.carrier, f.mapping)],
    }


def mor_from_json(j):
    dom = obj_from_json(j["dom"])
    cod = obj_from_json(j["cod"])
    mapping = {dec_elem(x): dec_elem(y) for x, y in j["maps"]}
    images = tuple(mapping[x] for x in dom.carrier)
    return (SymMor if isinstance(cod, SymbolicObject) else Mor)(dom, cod, images)


def orbit_to_json(spec):
    return {"n": spec.n, "generators": [list(g) for g in spec.gens]}


def orbit_from_json(j):
    from .nominal import OrbitSpec

    return OrbitSpec(j["n"], tuple(tuple(g) for g in j["generators"]))


def nomset_to_json(spec):
    return {"orbits": [orbit_to_json(o) for o in spec.orbits]}


def nomset_from_json(j):
    from .nominal import NominalSetSpec

    return NominalSetSpec(tuple(orbit_from_json(o) for o in j["orbits"]))


def space_to_json(space):
    tri = []
    for i, row in enumerate(space.dist):
        tri.append([f"{d.numerator}/{d.denominator}" for d in row[:i]])
    return {"points": [enc_elem(p) for p in space.points], "d": tri}


def space_from_json(j):
    from .hausdorff import FinMetricSpace

    points = tuple(dec_elem(p) for p in j["points"])
    n = len(points)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(j["d"]):
        for k, entry in enumerate(row):
            num, den = entry.split("/")
            matrix[i][k] = matrix[k][i] = Fraction(int(num), int(den))
    return FinMetricSpace(points, tuple(tuple(r) for r in matrix))
