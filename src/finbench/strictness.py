"""Witness search for finitary morphisms and strictness squares, atom
decompositions of presheaf categories, and negative certificates for the
symbolic objects.

Negative certificates are lemma-schema checks: the universally quantified
structural facts are verified on all instances up to the stated bounds, and
the final inference (which quantifies over infinite objects) is recorded as a
documented implication, not machine checked.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .certs import FAIL, CertificateError, recipe
from .core import Mor, Obj, Partition, category_of, elem_key
from .cats import (
    FINSET,
    GRA,
    S3_GPD,
    TRIVIAL_GPD,
    UN,
    VEC2,
    Z2_GPD,
    Z3_GPD,
    FiniteGroupoid,
    PresheafCat,
    VecCat,
    gset_cat,
    gset_free_orbit,
    presheaf_cat,
    random_finset_mor,
    random_gset,
    random_un_surjection,
)
from .perms import subgroups_of_sym
from .serialize import mor_to_json, obj_to_json
from .symbolic import (
    CYCLE_FAMILY,
    LOOP_RAY,
    RAY,
    SymEndo,
    SymMor,
    SymbolicObject,
    homs_into,
    loop_ray_const0,
    primes_upto,
)


@dataclass
class FinitaryMorWitness:
    """u = w . v through a finite intermediate object."""

    u: Mor
    v: Mor
    w: Mor

    def __post_init__(self):
        cat = category_of(self.u.dom)
        if cat.compose(self.w, self.v) != self.u:
            raise ValueError("factorization does not compose to u")

    @property
    def mid(self):
        return self.v.cod


@dataclass
class StrictnessWitness:
    """b = b_prime . f . b with finitely presentable dom(b_prime)."""

    b: Mor
    b_prime: Mor
    f: Mor

    def __post_init__(self):
        cat = category_of(self.b.dom)
        through = cat.compose(self.b_prime, cat.compose(self.f, self.b))
        if through != self.b:
            raise ValueError("strictness square does not commute")


@dataclass
class Exhaustion:
    """No witness within the bound; a certificate, when given, shows that
    none exists at any bound."""

    bound: int
    detail: str
    certificate: object = None


@dataclass
class SymEndoWitness:
    """Factorization of a symbolic endomorphism through a finite object,
    verified pointwise on a window."""

    endo: SymEndo
    mid: Obj
    from_mid: SymMor
    window: int

    def __post_init__(self):
        if self.endo.kind != "const0":
            raise ValueError("only the constant endomorphism factorizes")
        img = self.from_mid(self.mid.carrier[0])
        for x in range(self.window):
            if self.endo.apply(x) != img:
                raise ValueError("window verification failed")


# ---------------------------------------------------------------------------
# finitary morphisms


def finitary_morphism_witness(u, bound: int = 8, window: int = 32):
    """Factor an endomorphism through an object within the size bound.

    For finite morphisms the image is the smallest possible intermediate
    object, so exhaustion there is certified.  Symbolic shifts on the ray get
    the structural certificate instead.
    """
    if isinstance(u, SymEndo):
        if u.obj.kind == "loop_ray" and u.kind == "const0":
            loop = GRA.loop()
            return SymEndoWitness(u, loop, SymMor(loop, LOOP_RAY, (0,)), window)
        if u.obj.kind == "ray":
            cert = no_finitary_endo_certificate(RAY, window=window)
            return Exhaustion(
                bound,
                "every hom from a finite path advances by one, so endomorphism "
                "images are infinite and cannot factor through a bounded object",
                certificate=cert,
            )
        raise ValueError(f"no witness procedure for {u}")
    cat = category_of(u.dom)
    e, m = cat.factorize(u)
    if m.dom.size <= bound:
        return FinitaryMorWitness(u, e, m)
    return Exhaustion(
        bound,
        f"any factorization needs at least {m.dom.size} elements "
        "(the image embeds in the intermediate object)",
    )


# ---------------------------------------------------------------------------
# strictness witnesses


def strictness_witness(b: Mor, bound: int = 8):
    """Constructive witness per category, generic search as fallback."""
    cat = category_of(b.dom)
    if cat is FINSET:
        wit = _finset_strictness(b)
    elif isinstance(cat, PresheafCat):
        wit = _presheaf_strictness(cat, b)
    elif isinstance(cat, VecCat):
        wit = _vec_strictness(cat, b)
    else:
        wit = _generic_strictness(cat, b, bound)
    if isinstance(wit, Exhaustion):
        return wit
    if wit.b_prime.dom.size > bound:
        return Exhaustion(bound, f"witness needs {wit.b_prime.dom.size} elements")
    return wit


def _finset_strictness(b: Mor):
    A = b.cod
    if b.dom.size == 0:
        if A.size == 0:
            ident = FINSET.identity(A)
            return StrictnessWitness(b, ident, ident)
        point = FINSET.obj([A.carrier[0]])
        bp = FINSET.mor(point, A, lambda x: x)
        f = FINSET.mor(A, point, lambda x: A.carrier[0])
        return StrictnessWitness(b, bp, f)
    e, m = FINSET.factorize(b)
    im = m.dom
    default = im.carrier[0]
    im_set = set(im.carrier)
    f = FINSET.mor(A, im, lambda a: a if a in im_set else default)
    return StrictnessWitness(b, m, f)


def _presheaf_fold(cat: PresheafCat, A: Obj, keep_elems: set):
    """Subalgebra on the kept components plus a fold of the rest onto
    isomorphic kept components; returns (b_prime, f)."""
    comps = decompose_into_atoms(cat, A)
    kept = [K for K in comps if set(K.carrier) & keep_elems]
    rest = [K for K in comps if not (set(K.carrier) & keep_elems)]
    # ensure every isomorphism class is represented among the kept components
    folds = {}
    for K in rest:
        target = next((J for J in kept if cat.is_isomorphic(K, J)), None)
        if target is None:
            kept.append(K)
            folds[K] = (K, cat.identity(K))
        else:
            folds[K] = (target, cat.find_iso(K, target))
    Bp = cat.subalgebra(A, {x for J in kept for x in J.carrier})
    bp = cat.sub_mono(A, Bp)
    mapping = {}
    for J in kept:
        for x in J.carrier:
            mapping[x] = x
    for K, (target, iso) in folds.items():
        if K in kept:
            continue
        for x in K.carrier:
            mapping[x] = iso(x)
    f = cat.mor(A, Bp, mapping)
    return bp, f


def _presheaf_strictness(cat: PresheafCat, b: Mor):
    bp, f = _presheaf_fold(cat, b.cod, set(b.mapping))
    return StrictnessWitness(b, bp, f)


def _vec_strictness(cat: VecCat, b: Mor):
    e, m = cat.factorize(b)
    f = cat.projection_onto(m)
    return StrictnessWitness(b, m, f)


def _generic_strictness(cat, b: Mor, bound: int):
    A = b.cod
    image = set(b.mapping)
    for m in cat.subobjects_fg(A, bound):
        if not image <= set(m.mapping):
            continue
        for f in cat.hom_set(A, m.dom):
            try:
                return StrictnessWitness(b, m, f)
            except ValueError:
                continue
    return Exhaustion(bound, "no subobject-inclusion witness within the bound")


# ---------------------------------------------------------------------------
# semi-strictness


def semistrictness_witness(A, bound: int = 8, window: int = 32):
    """A finitary endomorphism with its factorization, or exhaustion."""
    if isinstance(A, SymbolicObject):
        if A.kind == "loop_ray":
            return finitary_morphism_witness(loop_ray_const0(), bound, window)
        cert = no_finitary_endo_certificate(A, window=window)
        return Exhaustion(
            bound,
            f"no finitary endomorphism of {A.kind} within bound {bound}",
            certificate=cert,
        )
    cat = category_of(A)
    if A.size <= bound:
        ident = cat.identity(A)
        return FinitaryMorWitness(ident, ident, ident)
    endos = sorted(cat.hom_set(A, A), key=lambda u: len(set(u.mapping)))
    for u in endos:
        if len(set(u.mapping)) <= bound:
            return finitary_morphism_witness(u, bound)
    return Exhaustion(bound, "every endomorphism has image above the bound")


def fixed_subobject_witness(m: Mor, bound: int = 8):
    """Finitary endomorphism u with u . m = m."""
    cat = category_of(m.dom)
    if not cat.is_mono(m):
        raise ValueError("expected a mono")
    A = m.cod
    if cat is FINSET:
        if m.dom.size == 0:
            u = cat.identity(A) if A.size == 0 else cat.mor(A, A, lambda a: A.carrier[0])
        else:
            im = set(m.mapping)
            default = m.mapping[0]
            u = cat.mor(A, A, lambda a: a if a in im else default)
    elif isinstance(cat, VecCat):
        proj = cat.projection_onto(m)
        u = cat.compose(m, proj)
    elif isinstance(cat, PresheafCat):
        bp, f = _presheaf_fold(cat, A, set(m.mapping))
        u = cat.compose(bp, f)
    else:
        u = cat.identity(A)
    if cat.compose(u, m) != m:
        raise AssertionError("witness does not fix the subobject")
    return finitary_morphism_witness(u, bound)


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
    return sorted(found, key=lambda p: (len(p), sorted(sorted(c, key=elem_key)[0] for c in p)))


def quotient_by_partition(cat, X: Obj, partition) -> Mor:
    rep = {}
    for cls in partition:
        r = min(cls, key=elem_key)
        for x in cls:
            rep[x] = r
    Q = cat.quotient_obj(X, rep)
    return cat.mor(X, Q, rep)


def regular_presheaf(cat: PresheafCat, base_sort) -> Obj:
    """Representable algebra at a sort: morphisms out of it, with
    postcomposition as the action."""
    gpd = cat.gpd
    info = gpd.mor_info()
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
# negative certificates


@dataclass
class NoFinitaryEndoCertificate:
    subject: str
    checked: dict
    inference: str


class FinitaryEndoExists(ValueError):
    """Raised when a negative certificate is requested for an object that
    does have a finitary endomorphism."""


def no_finitary_endo_certificate(A: SymbolicObject, window: int = 32, path_bound: int = 8,
                                 prime_bound: int = 23) -> NoFinitaryEndoCertificate:
    if A.kind == "loop_ray":
        raise FinitaryEndoExists(
            "the constant self-map at the loop vertex is finitary"
        )
    if A.kind == "ray":
        tables = {}
        for k in range(1, path_bound + 1):
            wh = homs_into(RAY, GRA.path(k), window)
            for h in wh.homs:
                positions = [h(v) for v in sorted(h.dom.carrier)]
                if any(b != a + 1 for a, b in zip(positions, positions[1:])):
                    raise AssertionError("a path hom fails to advance by one")
            tables[k] = len(wh.homs)
        return NoFinitaryEndoCertificate(
            "ray",
            {"path_hom_counts": tables, "window": window, "path_bound": path_bound},
            "every hom from a finite path advances positions by exactly one, "
            "so every endomorphism is a forward shift with infinite image and "
            "cannot factor through a finitely presentable graph",
        )
    if A.kind == "cycle_family":
        ps = primes_upto(prime_bound)
        table = {}
        for p in ps:
            for q in ps:
                n_homs = len(UN.hom_set(UN.cycle(p), UN.cycle(q)))
                table[(p, q)] = n_homs
                if (n_homs > 0) != (p % q == 0):
                    raise AssertionError("divisibility law violated")
        return NoFinitaryEndoCertificate(
            "cycle_family",
            {"prime_hom_table": table, "prime_bound": prime_bound},
            "distinct prime cycles admit no homomorphisms between one another, "
            "so every endomorphism preserves each summand and its image meets "
            "all of them; the image is infinite and cannot factor through a "
            "finitely presentable algebra",
        )
    raise ValueError(f"no certificate procedure for {A.kind}")


# ---------------------------------------------------------------------------
# recipes: negative certificates, strictness, regularity and atoms


@recipe("no-finitary-endo", "no-finitary-endo",
        bounds=("window", "path_bound", "prime_bound"),
        limits={"window": (0, 512), "path_bound": (0, 64), "prime_bound": (0, 100)})
def r_no_finitary_endo(subject: str, window: int = 32, path_bound: int = 8,
                       prime_bound: int = 23):
    subjects = {"ray": RAY, "cycle_family": CYCLE_FAMILY}
    if subject not in subjects:
        raise CertificateError(f"unknown subject {subject!r}")
    cert = no_finitary_endo_certificate(
        subjects[subject], window=window, path_bound=path_bound, prime_bound=prime_bound
    )
    checked = dict(cert.checked)
    if "prime_hom_table" in checked:
        checked["prime_hom_table"] = sorted(
            [p, q, n] for (p, q), n in checked["prime_hom_table"].items()
        )
    if "path_hom_counts" in checked:
        checked["path_hom_counts"] = sorted(
            [k, n] for k, n in checked["path_hom_counts"].items()
        )
    return FAIL, {"checked": checked, "inference": cert.inference}


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
                wit = strictness_witness(b, bound=max_cod + 1)
                if isinstance(wit, StrictnessWitness):
                    witnessed += 1
                    if sample is None and d == 2 and c == 3:
                        sample = {
                            "b": mor_to_json(wit.b),
                            "b_prime": mor_to_json(wit.b_prime),
                            "f": mor_to_json(wit.f),
                        }
    return "PASS" if witnessed == total else FAIL, {
        "witnessed": witnessed, "total": total, "sample": sample}


@recipe("strictness-presheaf", "strictness-witness")
def r_strictness_presheaf():
    cat = gset_cat(Z2_GPD)
    both, injs = cat.coproduct([gset_free_orbit(cat, 0), gset_free_orbit(cat, 1)])
    wit = strictness_witness(injs[0])
    ok = isinstance(wit, StrictnessWitness)
    return "PASS" if ok else FAIL, {
        "category": cat.name,
        "b_prime_size": wit.b_prime.dom.size if ok else None,
        "witness": {
            "b": mor_to_json(wit.b),
            "b_prime": mor_to_json(wit.b_prime),
            "f": mor_to_json(wit.f),
        } if ok else None,
    }


@recipe("strictness-vec", "strictness-witness",
        limits={"ambient_dim": (0, 8), "sub_dim": (0, 8)})
def r_strictness_vec(ambient_dim: int = 3, sub_dim: int = 1):
    if sub_dim > ambient_dim:
        raise CertificateError(f"parameter 'sub_dim' must be at most 'ambient_dim' = "
                               f"{ambient_dim}, not {sub_dim}")
    cat = VEC2
    cols = cat.basis_vectors(ambient_dim)[:sub_dim]
    b = cat.from_matrix(cat.obj(sub_dim), cat.obj(ambient_dim), cols)
    # a witness may need the whole ambient space
    wit = strictness_witness(b, cat.q ** ambient_dim)
    ok = isinstance(wit, StrictnessWitness)
    return "PASS" if ok else FAIL, {"b_prime_dim": cat.dim(wit.b_prime.dom) if ok else None}


def _random_gset_surjection(rng, cat, subgroups):
    X = random_gset(rng, cat, subgroups, max_size=6)
    free = gset_free_orbit(cat, "probe")
    elems = list(X.carrier)
    a, b = rng.choice(elems), rng.choice(elems)

    def action_map(target):
        mapping = {}
        for s, v in free.carrier:
            _, g = v  # free-orbit values are (tag, group element)
            mapping[(s, v)] = cat.op(X, g, target)
        return cat.mor(free, X, mapping)

    return cat.coequalizer(action_map(a), action_map(b))


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
        ("z2-set", lambda: _random_gset_surjection(rng, z2, z2_subgroups)),
    )
    checked = {"finset": 0, "un": 0, "z2-set": 0}
    for _ in range(count):
        for catname, sample in samplers:
            f = sample()
            if not regularity_check(f):
                return FAIL, {"category": catname, "morphism": mor_to_json(f)}
            checked[catname] += 1
    return "PASS", {"mode": "coequalizer-of-kernel-pair", "checked": checked}


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
    for _ in range(samples):
        X = random_gset(rng, cat, subgroups, max_size=8)
        if not decomposition_roundtrip(cat, X):
            return FAIL, {"group": group, "failed": obj_to_json(X)}
    return "PASS", {
        "group": group,
        "atom_count": len(atoms),
        "atom_sizes": sorted(a.size for a in atoms),
        "roundtrips": samples,
    }
