"""Strictness squares and atom decompositions of presheaf categories.

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
    FiniteGroupoid,
    PresheafCat,
    gset_cat,
    gset_free_orbit,
    gset_sampler,
    presheaf_cat,
    random_finset_mor,
    random_un_surjection,
)
from .perms import subgroups_of_sym
from .serialize import mor_to_json, obj_to_json


# ---------------------------------------------------------------------------
# strictness witnesses


def _retraction(b: Mor):
    """(b_prime, f): b_prime a mono from a finite subobject of cod(b) that
    holds the image of b, and f: cod(b) -> dom(b_prime) with f . b_prime = id.

    FinSet keeps the image, or one point when it is empty, and sends the
    rest to its least point; G-sets fold the other orbits onto isomorphic
    kept ones.  Any other category gives its own ``Category.retraction``:
    F_q projects onto the echelon image along a standard complement, and a
    category without one raises ValueError.
    """
    cat = category_of(b.dom)
    A = b.cod
    if cat is FINSET:
        keep = set(b.mapping) or set(A.carrier[:1])
        B = cat.subalgebra(A, keep)
        f = cat.mor(A, B, {a: a if a in keep else B.carrier[0] for a in A.carrier})
        return cat.sub_mono(A, B), f
    if isinstance(cat, PresheafCat):
        return _presheaf_fold(cat, A, set(b.mapping))
    return cat.retraction(b)


def _presheaf_fold(cat: PresheafCat, A: Obj, keep_elems: set):
    """Subalgebra on the components that meet keep_elems plus one component
    per other isomorphism class, and the fold of every other component onto
    the first kept one isomorphic to it; returns (b_prime, f)."""
    comps = decompose_into_atoms(cat, A)
    kept = [K for K in comps if set(K.carrier) & keep_elems]
    folds = []
    for K in comps:
        if set(K.carrier) & keep_elems:
            continue
        for J in kept:
            iso = cat.find_iso(K, J)
            if iso is not None:
                folds.append((K, iso))
                break
        else:
            kept.append(K)
    Bp = cat.subalgebra(A, {x for J in kept for x in J.carrier})
    mapping = {x: x for J in kept for x in J.carrier}
    for K, iso in folds:
        mapping.update((x, iso(x)) for x in K.carrier)
    return cat.sub_mono(A, Bp), cat.mor(A, Bp, mapping)


def strictness_witness(b: Mor):
    """(b_prime, f) from the category's retraction when the strictness
    square b = b_prime . f . b commutes, else None."""
    cat = category_of(b.dom)
    b_prime, f = _retraction(b)
    if cat.compose(b_prime, cat.compose(f, b)) != b:
        return None
    return b_prime, f


# ---------------------------------------------------------------------------
# atoms of presheaf categories


def congruences(cat, X: Obj):
    """All op-compatible, sort-respecting equivalences, via pair closure."""

    def op_pairs(a, b):
        # what a congruence must also identify once it identifies a and b
        return [(a2, cat.op_apply(X, op_id, b)) for op_id, a2 in cat.op_successors(X, a)]

    def close(partition, a, b):
        part = Partition(X.carrier)
        for cls in partition:
            first, *rest = cls
            for x in rest:
                part.union(first, x)
        part.close([(a, b)], op_pairs)
        return frozenset(frozenset(c) for c in part.classes())

    # only elements a hom could identify: a congruence respects sorts
    allowed = {x: frozenset(cat.candidate_targets(X, x, X)) for x in X.carrier}
    discrete = frozenset(frozenset([x]) for x in X.carrier)
    found = {discrete}
    queue = [discrete]
    while queue:
        part = queue.pop()
        lookup = {x: cls for cls in part for x in cls}
        for x, y in itertools.combinations(X.carrier, 2):
            if lookup[x] is lookup[y] or y not in allowed[x]:
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


def regular_presheaf(cat: PresheafCat, base_sort) -> Obj:
    """Representable algebra at a sort: morphisms out of it, with
    postcomposition as the action."""
    gpd = cat.gpd
    elems = [(c, m) for m, d, c in gpd.mors if d == base_sort]
    carriers = {}
    for c, m in elems:
        carriers.setdefault(c, []).append(m)
    ops = {}
    for g, gd, gc in gpd.mors:
        table = {}
        for c, m in elems:
            if c != gd:
                continue
            table[m] = gpd.compose_names(g, m)
        ops[g] = table
    return cat.obj(carriers, ops)


def is_atom(cat, X: Obj) -> bool:
    """Nonempty and generated by each of its elements."""
    if X.size == 0:
        return False
    full = set(X.carrier)
    return all(
        set(cat.generated_subalgebra(X, x).carrier) == full for x in X.carrier
    )


def atoms_of_presheaves(gpd: FiniteGroupoid):
    """All quotients of representables up to isomorphism, each atom verified
    to have no proper nonempty subalgebra."""
    cat = presheaf_cat(gpd)
    found = []
    for sort in gpd.sorts:
        R = regular_presheaf(cat, sort)
        for part in congruences(cat, R):
            q = quotient_by_partition(cat, R, part)
            Q = q.cod
            if not is_atom(cat, Q):
                raise AssertionError("quotient of a representable is not an atom")
            if not any(cat.is_isomorphic(Q, seen) for seen in found):
                found.append(Q)
    return found


def decompose_into_atoms(cat: PresheafCat, X: Obj):
    """One generated subalgebra per generation class; they partition the
    carrier and their coproduct is isomorphic to X."""
    comps = []
    seen = set()
    for x in X.carrier:
        if x in seen:
            continue
        sub = cat.generated_subalgebra(X, x)
        members = set(sub.carrier)
        if members & seen:
            # groupoid actions give disjoint or equal components
            raise AssertionError("components are not disjoint")
        seen |= members
        comps.append(sub)
    return comps


def decomposition_roundtrip(cat: PresheafCat, X: Obj) -> bool:
    parts = decompose_into_atoms(cat, X)
    if not parts:
        return X.size == 0
    recombined, _ = cat.coproduct(parts)
    return cat.is_isomorphic(recombined, X)


# ---------------------------------------------------------------------------
# recipes: strictness, regularity and atoms


@recipe("strictness-finset", "strictness-witness", bounds=("max_dom", "max_cod"),
        limits={"max_dom": (0, 6), "max_cod": (0, 6)})
def r_strictness_finset(max_dom: int = 4, max_cod: int = 5):
    total = witnessed = 0
    sample = None
    for d in range(max_dom + 1):
        for c in range(max_cod + 1):
            if d > 0 and c == 0:
                continue
            D, C = FINSET.obj(range(d)), FINSET.obj(range(c))
            for images in itertools.product(range(c), repeat=d):
                b = FINSET.mor(D, C, dict(enumerate(images)))
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
        mapping = {}
        for s, v in free.carrier:
            _, g = v  # free-orbit values are (tag, group element)
            mapping[(s, v)] = cat.op(X, g, target)
        return cat.mor(free, X, mapping)

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
        j = cat.mor(q.cod, f.cod, {q(x): f(x) for x in f.dom.carrier})
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
    for _ in range(count):
        for catname, sample in samplers:
            f = sample()
            if not regularity_check(f):
                return FAIL, {"category": catname, "morphism": mor_to_json(f)}
            checked[catname] += 1
    return PASS_WITNESSED, {"mode": "coequalizer-of-kernel-pair", "checked": checked}


GROUPS = {"triv": TRIVIAL_GPD, "z2": Z2_GPD, "z3": Z3_GPD, "s3": S3_GPD}


@recipe("atoms", "atoms", limits={"samples": (0, 2500)})
def r_atoms(group: str = "z2", seed: int = 0, samples: int = 25):
    if group not in GROUPS:
        raise CertificateError(f"parameter 'group' must be one of "
                               f"{', '.join(GROUPS)}, not {group!r}")
    gpd = GROUPS[group]
    cat = presheaf_cat(gpd)
    atoms = atoms_of_presheaves(gpd)
    rng = random.Random(seed)
    subgroups = [tuple(h) for h in subgroups_of_sym(len(gpd.mors[0][0]))]
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
