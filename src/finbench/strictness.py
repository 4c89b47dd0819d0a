"""Strictness squares from each category's retraction, and the atoms of
presheaf categories with the decomposition round trip.

A witness function returns a plain value that it has checked, or None.
"""

from __future__ import annotations

import itertools
import random

from .certs import FAIL, PASS_WITNESSED, CertificateError, recipe
from .core import Mor, Obj, Partition, category_of, lookup_category
from .cats import (
    FINSET,
    S3_GPD,
    TRIVIAL_GPD,
    Z2_GPD,
    Z3_GPD,
    FiniteGroup,
    PresheafCat,
    gset_cat,
    gset_free_orbit,
    gset_sampler,
    random_finset_mor,
    random_un_surjection,
)
from .perms import subgroups_of_sym
from .serialize import mor_to_json, obj_to_json


# ---------------------------------------------------------------------------
# strictness witnesses


def strictness_witness(b: Mor):
    """(b_prime, f) from the category's ``Category.retraction`` when the
    strictness square b = b_prime . f . b commutes, else None."""
    cat = category_of(b.dom)
    b_prime, f = cat.retraction(b)
    if cat.compose(b_prime, cat.compose(f, b)) != b:
        return None
    return b_prime, f


# ---------------------------------------------------------------------------
# atoms of presheaf categories


def congruences(cat, X: Obj):
    """All op-compatible equivalences, via pair closure."""
    tables = cat.op_tables(X).values()

    def op_pairs(a, b):
        # what a congruence must also identify once it identifies a and b
        return [(t[a], t[b]) for t in tables]

    def close(partition, a, b):
        part = Partition(X.carrier)
        for cls in partition:
            first, *rest = cls
            for x in rest:
                part.union(first, x)
        part.close([(a, b)], op_pairs)
        return frozenset(frozenset(c) for c in part.classes())

    discrete = frozenset(frozenset([x]) for x in X.carrier)
    found = {discrete}
    queue = [discrete]
    while queue:
        part = queue.pop()
        lookup = {x: cls for cls in part for x in cls}
        for x, y in itertools.combinations(X.carrier, 2):
            if lookup[x] is lookup[y]:
                continue
            bigger = close(part, x, y)
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    # X.carrier is in elem_key order, so a position stands for its element
    pos = {x: i for i, x in enumerate(X.carrier)}
    return sorted(found, key=lambda p: (len(p), sorted(min(map(pos.__getitem__, c)) for c in p)))


def quotient_by_partition(cat, X: Obj, partition) -> Mor:
    """The quotient map onto the classes of partition, each sent to its
    first element in X.carrier, the elem_key-least one."""
    pos = {x: i for i, x in enumerate(X.carrier)}
    rep = {}
    for cls in partition:
        r = min(cls, key=pos.__getitem__)
        for x in cls:
            rep[x] = r
    Q = cat.quotient_obj(X, rep)
    return cat.mor(X, Q, rep)


def is_atom(cat, X: Obj) -> bool:
    """Nonempty and generated by each of its elements."""
    return X.size > 0 and all(
        cat.generated_subalgebra(X, x).size == X.size for x in X.carrier)


def atoms_of_presheaves(group: FiniteGroup):
    """All quotients of the representable, the free orbit, up to
    isomorphism, each atom verified to have no proper nonempty subalgebra."""
    cat = gset_cat(group)
    R = gset_free_orbit(cat)
    found = []
    for part in congruences(cat, R):
        Q = quotient_by_partition(cat, R, part).cod
        if not is_atom(cat, Q):
            raise AssertionError("quotient of a representable is not an atom")
        if not any(cat.is_isomorphic(Q, seen) for seen in found):
            found.append(Q)
    return found


def decomposition_roundtrip(cat: PresheafCat, X: Obj) -> bool:
    recombined, _ = cat.coproduct(cat.components(X))
    return cat.is_isomorphic(recombined, X)


# ---------------------------------------------------------------------------
# recipes: strictness, regularity and atoms


@recipe("strictness-finset", "strictness-witness", bounds=("max_dom", "max_cod"),
        limits={"max_dom": (0, 6), "max_cod": (0, 6)})
def r_strictness_finset(max_dom: int = 4, max_cod: int = 5):
    total = witnessed = 0
    sample = None
    for d in range(max_dom + 1):
        for c in range(1 if d else 0, max_cod + 1):
            D, C = FINSET.obj(range(d)), FINSET.obj(range(c))
            for images in itertools.product(range(c), repeat=d):
                b = Mor(D, C, images)
                total += 1
                wit = strictness_witness(b)
                if wit is not None:
                    witnessed += 1
                    if sample is None and d == 2 and c == 3:
                        sample = {"b": mor_to_json(b), "b_prime": mor_to_json(wit[0]),
                                  "f": mor_to_json(wit[1])}
    return PASS_WITNESSED if witnessed == total else FAIL, {
        "witnessed": witnessed, "total": total, "sample": sample}


@recipe("strictness-presheaf", "strictness-witness")
def r_strictness_presheaf():
    cat = gset_cat(Z2_GPD)
    both, injs = cat.coproduct([gset_free_orbit(cat, 0), gset_free_orbit(cat, 1)])
    wit = strictness_witness(injs[0])
    if wit is None:
        return FAIL, {"category": cat.name, "b_prime_size": None, "witness": None}
    b_prime, f = wit
    return PASS_WITNESSED, {
        "category": cat.name,
        "b_prime_size": b_prime.dom.size,
        "witness": {"b": mor_to_json(injs[0]), "b_prime": mor_to_json(b_prime),
                    "f": mor_to_json(f)},
    }


@recipe("strictness-vec", "strictness-witness",
        limits={"ambient_dim": (0, 8), "sub_dim": (0, 8)})
def r_strictness_vec(ambient_dim: int = 3, sub_dim: int = 1):
    if sub_dim > ambient_dim:
        raise CertificateError(f"parameter 'sub_dim' must be at most 'ambient_dim' = "
                               f"{ambient_dim}, not {sub_dim}")
    cat = lookup_category("vec2")
    cols = cat.basis_vectors(ambient_dim)[:sub_dim]
    b = cat.from_matrix(cat.obj(sub_dim), cat.obj(ambient_dim), cols)
    wit = strictness_witness(b)
    if wit is None:
        return FAIL, {"b_prime_dim": None}
    return PASS_WITNESSED, {"b_prime_dim": cat.dim(wit[0].dom)}


def _gset_surjection_sampler(rng, cat, subgroups):
    """A function that draws a random surjection of G-sets: the coequalizer
    of the action maps at two random elements of a random G-set, out of the
    free orbit, which is built once for the sampler."""
    draw = gset_sampler(rng, cat, subgroups, 6)
    free = gset_free_orbit(cat, "probe")

    def action_map(X, target):
        # free-orbit values are (tag, group element)
        tables = cat.op_tables(X)
        return cat.mor(free, X, {x: tables[x[1][1]][target] for x in free.carrier})

    def sample():
        X = draw()
        elems = list(X.carrier)
        a, b = rng.choice(elems), rng.choice(elems)
        return cat.coequalizer(action_map(X, a), action_map(X, b))

    return sample


def regularity_check(f: Mor) -> bool:
    """Coequalizer of the kernel pair reproduces a carrier-surjective map."""
    cat = category_of(f.dom)
    p1, p2 = cat.kernel_pair(f)
    q = cat.coequalizer(p1, p2)
    try:
        j = cat.mor(q.cod, f.cod, dict(zip(q.mapping, f.mapping)))
    except (ValueError, KeyError):
        return False
    return cat.is_iso(j) and cat.compose(j, q) == f


@recipe("regularity", "colimit-test", limits={"count": (0, 4000)})
def r_regularity(seed: int = 0, count: int = 100):
    rng = random.Random(seed)
    z2 = gset_cat(Z2_GPD)
    z2_subgroups = [tuple(h) for h in subgroups_of_sym(2)]
    samplers = (
        ("finset", lambda: random_finset_mor(rng, surjective=True)),
        ("un", lambda: random_un_surjection(rng)),
        ("z2-set", _gset_surjection_sampler(rng, z2, z2_subgroups)),
    )
    checked = {"finset": 0, "un": 0, "z2-set": 0}
    passed = set()  # a draw equal to an earlier one has its verdict
    for _ in range(count):
        for catname, sample in samplers:
            f = sample()
            if f not in passed:
                if not regularity_check(f):
                    return FAIL, {"category": catname, "morphism": mor_to_json(f)}
                passed.add(f)
            checked[catname] += 1
    return PASS_WITNESSED, {"mode": "coequalizer-of-kernel-pair", "checked": checked}


GROUPS = {"triv": TRIVIAL_GPD, "z2": Z2_GPD, "z3": Z3_GPD, "s3": S3_GPD}


@recipe("atoms", "atoms", limits={"samples": (0, 2500)})
def r_atoms(group: str = "z2", seed: int = 0, samples: int = 25):
    if group not in GROUPS:
        raise CertificateError(f"parameter 'group' must be one of "
                               f"{', '.join(GROUPS)}, not {group!r}")
    cat = gset_cat(GROUPS[group])
    atoms = atoms_of_presheaves(cat.group)
    rng = random.Random(seed)
    subgroups = [tuple(h) for h in subgroups_of_sym(len(cat.group.elements[0]))]
    draw = gset_sampler(rng, cat, subgroups, 8)
    verdicts = {}  # a draw equal to an earlier one has its verdict
    for _ in range(samples):
        X = draw()
        if X not in verdicts:
            verdicts[X] = decomposition_roundtrip(cat, X)
        if not verdicts[X]:
            return FAIL, {"group": group, "failed": obj_to_json(X)}
    return PASS_WITNESSED, {
        "group": group,
        "atom_count": len(atoms),
        "atom_sizes": sorted(a.size for a in atoms),
        "roundtrips": samples,
    }
