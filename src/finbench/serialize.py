"""Canonical JSON encoding for objects, morphisms, and certificate payloads.

Carrier elements map to JSON as: ints and strings directly, tuples as
{"t": [...]}, frozensets as {"f": [...]} with sorted members, rationals as
{"q": "p/q"}.  Everything decodes back bit-exactly, which is what makes
certificates replayable.

A writer needs no layer module.  The readers import the modules they decode
into only on the branch that needs them (finbench.symbolic and
finbench.nominal for symbolic objects, finbench.hausdorff for metric
spaces), and fractions only where they decode a rational, so a replay that
writes its witness loads none of them.
"""

from __future__ import annotations

from .certs import canonical_dumps  # noqa: F401  (re-exported for callers of serialize)
from .core import Mor, Obj, SymbolicObject, elem_key, lookup_category


def enc_elem(x):
    if isinstance(x, bool):
        raise TypeError("booleans are not carrier elements")
    if isinstance(x, (int, str)) or x is None:
        return x
    if isinstance(x, tuple):
        return {"t": [enc_elem(v) for v in x]}
    if isinstance(x, frozenset):
        return {"f": [enc_elem(v) for v in sorted(x, key=elem_key)]}
    import numbers

    if isinstance(x, numbers.Rational):
        return {"q": f"{x.numerator}/{x.denominator}"}
    raise TypeError(f"cannot encode {x!r}")


def dec_elem(j):
    """The carrier element that j encodes; a ValueError when j has the shape
    of no encoding, as a JSON boolean or float has not."""
    if isinstance(j, bool):
        raise ValueError("booleans are not carrier elements")
    if isinstance(j, (int, str)) or j is None:
        return j
    if isinstance(j, dict) and len(j) == 1:
        (tag, v), = j.items()
        if tag == "t" and isinstance(v, list):
            return tuple(map(dec_elem, v))
        if tag == "f" and isinstance(v, list):
            return frozenset(map(dec_elem, v))
        if tag == "q":
            return _rational(v)
    raise ValueError(f"cannot decode {j!r}")


def _rational(text):
    """The Fraction that a string "p/q" names, in the one form that
    enc_elem writes: lowest terms and q positive, with no spaces,
    underscores or plus sign; a ValueError for anything else."""
    from fractions import Fraction

    try:
        num, den = text.split("/")
        q = Fraction(int(num), int(den))
    except (AttributeError, ValueError, ZeroDivisionError):
        raise ValueError(f"cannot decode {text!r} as a rational \"p/q\"") from None
    if text != f"{q.numerator}/{q.denominator}":
        raise ValueError(f"{text!r} is not the canonical \"p/q\" of {q}")
    return q


def _field(j, key, kind):
    """j[key] for a JSON object j whose key holds a value of type kind (a
    JSON boolean is no int); a ValueError otherwise."""
    if not isinstance(j, dict):
        raise ValueError(f"expected a JSON object, not {j!r}")
    value = j.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be a {kind.__name__}, not {value!r}")
    return value


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
    validated as every constructed object is; a ValueError when j is not
    of that shape, the rebuilt carrier or structure differs from j's, the
    category or symbolic kind is unknown, or a symbolic kind comes with
    another category than its own."""
    name = _field(j, "category", str)
    if "symbolic" in j:
        from .nominal import P_SUBSET_FAMILY
        from .symbolic import CYCLE_FAMILY, RAY

        kinds = {s.kind: s for s in (RAY, CYCLE_FAMILY, P_SUBSET_FAMILY)}
        kind = _field(j, "symbolic", str)
        if kind not in kinds:
            raise ValueError(f"unknown symbolic kind {kind!r}")
        if name != kinds[kind].cat:
            raise ValueError(f"category {name!r} is not the {kind}'s, {kinds[kind].cat!r}")
        return kinds[kind]
    try:
        cat = lookup_category(name)
    except KeyError:
        raise ValueError(f"unknown category {name!r}") from None
    carrier = tuple(map(dec_elem, _field(j, "carrier", list)))
    structure = dec_elem(j.get("structure"))
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
    """The morphism j presents.  A ValueError unless its domain is a finite
    object of j's "category" and its "maps" is a list of [element, image]
    pairs that lists each domain element once and nothing else, or when the
    morphism's own checks fail."""
    dom = obj_from_json(_field(j, "dom", dict))
    cod = obj_from_json(_field(j, "cod", dict))
    if not isinstance(dom, Obj):
        raise ValueError("the domain of a morphism is a finite object")
    if j.get("category") != dom.cat:
        raise ValueError(f"category {j.get('category')!r} is not the domain's, {dom.cat!r}")
    maps = j.get("maps")
    if not isinstance(maps, list):
        raise ValueError("maps is not a list of [element, image] pairs")
    mapping = {}
    for entry in maps:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError(f"maps entry {entry!r} is not an [element, image] pair")
        x = dec_elem(entry[0])
        if x not in dom.carrier_set:
            raise ValueError(f"maps lists {x!r}, which is outside the domain")
        if x in mapping:
            raise ValueError(f"maps lists {x!r} twice")
        mapping[x] = dec_elem(entry[1])
    if len(mapping) != dom.size:
        x = next(x for x in dom.carrier if x not in mapping)
        raise ValueError(f"maps gives no image for {x!r}")
    images = tuple(map(mapping.__getitem__, dom.carrier))
    if isinstance(cod, SymbolicObject):
        from .symbolic import SymMor

        return SymMor(dom, cod, images)
    return Mor(dom, cod, images)


def orbit_to_json(spec):
    return {"n": spec.n, "generators": [list(g) for g in spec.gens]}


def orbit_from_json(j):
    from .nominal import OrbitSpec

    n, gens = _field(j, "n", int), _field(j, "generators", list)
    if n < 0 or not all(isinstance(g, list) for g in gens):
        raise ValueError("an orbit is a support size n >= 0 and a list of generators, "
                         "each a list")
    return OrbitSpec(n, tuple(map(tuple, gens)))


def nomset_to_json(spec):
    return {"orbits": [orbit_to_json(o) for o in spec.orbits]}


def nomset_from_json(j):
    from .nominal import NominalSetSpec

    return NominalSetSpec(tuple(map(orbit_from_json, _field(j, "orbits", list))))


def space_to_json(space):
    tri = []
    for i, row in enumerate(space.dist):
        tri.append([f"{d.numerator}/{d.denominator}" for d in row[:i]])
    return {"points": [enc_elem(p) for p in space.points], "d": tri}


def space_from_json(j):
    from fractions import Fraction

    from .hausdorff import FinMetricSpace

    points = tuple(map(dec_elem, _field(j, "points", list)))
    rows = _field(j, "d", list)
    n = len(points)
    if len(rows) != n or not all(isinstance(r, list) and len(r) == i for i, r in enumerate(rows)):
        raise ValueError("'d' must list each point's distances to the points before it")
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for k, entry in enumerate(row):
            matrix[i][k] = matrix[k][i] = _rational(entry)
    return FinMetricSpace(points, tuple(tuple(r) for r in matrix))
