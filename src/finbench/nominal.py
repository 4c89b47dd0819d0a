"""Orbit-finite nominal sets over a finite name pool.

A single orbit is presented as (support size n, subgroup S of the symmetric
group on n points): its elements are injective tuples t from n into the name
pool modulo t ~ t . sigma for sigma in S.  A nominal set is a finite list of
orbits.  All equivariance decisions run over a pool of size 2n+2, which is
the documented soundness boundary: any violation for elements of support at
most n is witnessed by a permutation moving at most 2n+2 names.

On top of this sit equivariant maps, the single-orbit classification, the
subset-orbit counterexample functor with its chain certificate, and support
rigidity.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property

from .certs import FAIL, PASS, PASS_WITNESSED, CertificateError, recipe
from .core import SymbolicObject, Value, elem_key
from .perms import (
    all_perms,
    closed_under,
    cycle_type,
    mulclose,
    subgroups_of_sym,
    sym_generators,
)

P_SUBSET_FAMILY = SymbolicObject("p_subset_family", "nom")


class OrbitSpec(Value):
    _fields = ("n", "gens")

    def __init__(self, n: int, gens: tuple = ()):
        self.__dict__.update(n=n, gens=gens)
        self.__post_init__()

    def __post_init__(self):
        points = list(range(self.n))
        for g in self.gens:
            if not all(type(i) is int for i in g) or sorted(g) != points:
                raise ValueError(f"generator {list(g)!r} is not a permutation of "
                                 f"0..{self.n - 1} in one-line notation")

    @cached_property
    def group(self):
        group = mulclose(self.gens, self.n)
        if not closed_under(group, self.gens, self.n):
            raise AssertionError("closure failed to produce a subgroup")
        return group

    @cached_property
    def invariant(self):
        """(n, |S|, sorted cycle types of S): equal for conjugate subgroups,
        so orbits that differ in it are not isomorphic."""
        return (self.n, len(self.group), tuple(sorted(cycle_type(g) for g in self.group)))

    @cached_property
    def getters(self):
        """One gather t -> t . s per group element s, run in C by canon_rep
        and _orbit_elements.  Below n = 2 the group is trivial and itemgetter
        would not return a tuple, so the one gather is tuple itself."""
        if self.n < 2:
            return [tuple]
        return [operator.itemgetter(*s) for s in self.group]

    def canon_rep(self, t):
        """The least tuple of the class of t, for a tuple or list t."""
        return min([g(t) for g in self.getters])

    @cached_property
    def _elements(self):
        return {}

    def elements(self, pool: int):
        """_orbit_elements over the pool, built once per pool and kept on
        the instance."""
        if pool not in self._elements:
            self._elements[pool] = _orbit_elements(self, pool)
        return self._elements[pool]

    def act(self, pi, rep):
        """pi: permutation of the pool as a tuple."""
        return self.canon_rep(tuple(map(pi.__getitem__, rep)))

    def default_pool(self):
        return 2 * self.n + 2


def _orbit_elements(spec: OrbitSpec, pool: int):
    """Canonical representatives, one per class, in elem_key order.

    Classes never mix name sets, so each n-subset is enumerated on its own:
    permutations of a sorted subset come in lexicographic order, so the first
    one not yet covered by an earlier class is the minimum of its class,
    i.e. its canonical representative.  The representatives are equal-length
    tuples of int names, for which plain tuple order is elem_key order."""
    if spec.n > pool:
        raise ValueError("pool too small for the support size")
    getters = spec.getters
    reps = []
    for names in itertools.combinations(range(pool), spec.n):
        seen = set()
        for t in itertools.permutations(names):
            if t in seen:
                continue
            reps.append(t)
            seen.update([g(t) for g in getters])
    return tuple(sorted(reps))


def pn_orbit(n: int) -> OrbitSpec:
    """The orbit of n-element name sets: full symmetric group on n points."""
    return OrbitSpec(n, tuple(sym_generators(n)))


class NominalSetSpec(Value):
    _fields = ("orbits",)

    def __init__(self, orbits: tuple):
        self.__dict__.update(orbits=orbits)

    def max_support(self):
        return max((o.n for o in self.orbits), default=0)

    def default_pool(self):
        return 2 * self.max_support() + 2

    def elements(self, pool: int):
        return [
            (i, rep) for i, o in enumerate(self.orbits) for rep in o.elements(pool)
        ]

    def act(self, pi, elem):
        i, rep = elem
        return (i, self.orbits[i].act(pi, rep))

    @property
    def orbit_count(self):
        return len(self.orbits)


ONE = NominalSetSpec((OrbitSpec(0),))


def support(elem) -> frozenset:
    """Names occurring in the representative tuple; representative choice
    does not matter since the subgroup only permutes positions."""
    _, rep = elem
    return frozenset(rep)


def p_prefix(k: int) -> NominalSetSpec:
    """P_1 + ... + P_k."""
    return NominalSetSpec(tuple(pn_orbit(n) for n in range(1, k + 1)))


def one_plus(X: NominalSetSpec) -> NominalSetSpec:
    return NominalSetSpec((OrbitSpec(0),) + X.orbits)


# ---------------------------------------------------------------------------
# equivariant maps


def _extend_to_pool_perm(src, dst, pool):
    mapping = dict(zip(src, dst))
    rest_src = sorted(set(range(pool)) - set(src))
    rest_dst = sorted(set(range(pool)) - set(dst))
    mapping.update(zip(rest_src, rest_dst))
    return tuple(mapping[i] for i in range(pool))


def _base_rep(spec: OrbitSpec):
    return spec.canon_rep(tuple(range(spec.n)))


def _stabilizer_pool_perms(spec: OrbitSpec, rep, pool):
    """Extensions of rep . sigma . rep^{-1} for sigma in the subgroup's
    generators.  With the permutations of the names away from rep they
    generate the stabilizer of the class [rep]; those fix every element with
    support inside rep, so such an element is fixed by the stabilizer iff it
    is fixed by each of these."""
    return [_extend_to_pool_perm(rep, tuple(rep[i] for i in sigma), pool) for sigma in spec.gens]


def orbit_map_candidates(dom_orbit: OrbitSpec, cod: NominalSetSpec, pool: int):
    """Elements of cod that can receive the base representative of the orbit:
    support contained in the base support and fixed by its stabilizer.  The
    base tuple is (0, ..., n-1), so the elements of a codomain orbit with
    support inside it are that orbit's elements over a pool of n names."""
    n = dom_orbit.n
    stab = _stabilizer_pool_perms(dom_orbit, _base_rep(dom_orbit), pool)
    return [
        (i, t)
        for i, o in enumerate(cod.orbits) if o.n <= n
        for t in o.elements(n)
        if all(o.act(pi, t) == t for pi in stab)
    ]


class NomMor(Value):
    _fields = ("dom", "cod", "images", "pool")

    def __init__(self, dom: NominalSetSpec, cod: NominalSetSpec, images: tuple, pool: int):
        # images: per dom orbit, the element of cod receiving the base rep
        self.__dict__.update(dom=dom, cod=cod, images=images, pool=pool)
        self.__post_init__()

    def __post_init__(self):
        if len(self.images) != len(self.dom.orbits):
            raise ValueError("one image per orbit required")
        for spec, img in zip(self.dom.orbits, self.images):
            rep = _base_rep(spec)
            if not support(img) <= set(rep):
                raise ValueError("image support escapes the domain support")
            stab = _stabilizer_pool_perms(spec, rep, self.pool)
            if not all(self.cod.act(pi, img) == img for pi in stab):
                raise ValueError("image not fixed by the base stabilizer")

    def apply(self, elem):
        i, rep = elem
        base = _base_rep(self.dom.orbits[i])
        pi = _extend_to_pool_perm(base, rep, self.pool)
        return self.cod.act(pi, self.images[i])


def all_equivariant_maps(dom: NominalSetSpec, cod: NominalSetSpec, pool=None):
    """Exhaustive enumeration: one candidate image per orbit, by the
    stabilizer criterion."""
    pool = pool or max(dom.default_pool(), cod.default_pool())
    per_orbit = [orbit_map_candidates(o, cod, pool) for o in dom.orbits]
    out = []
    for combo in itertools.product(*per_orbit):
        out.append(NomMor(dom, cod, tuple(combo), pool))
    return out


# ---------------------------------------------------------------------------
# classification: subgroups, orbit isomorphism, the quotient correspondence


def subgroups_of_Sn(n: int):
    """Every subgroup of the symmetric group, each as a sorted tuple."""
    # equal-length int tuples: plain tuple order is elem_key order
    return [tuple(sorted(h)) for h in subgroups_of_sym(n)]


def orbit_iso_map(a: OrbitSpec, b: OrbitSpec, pool=None):
    """Equivariant bijection between pool realizations, as a NomMor, or None.

    An equivariant map out of a single orbit is fixed by the image of the
    base tuple, and any image that orbit_map_candidates offers gives one.
    Such a map onto the single orbit b is onto; equal group orders give both
    orbits the same number of elements over the pool, so it is one-to-one."""
    if a.invariant != b.invariant:
        return None
    pool = pool or max(a.default_pool(), b.default_pool())
    found = orbit_map_candidates(a, NominalSetSpec((b,)), pool)
    if not found:
        return None
    return NomMor(NominalSetSpec((a,)), NominalSetSpec((b,)), (found[0],), pool)


def single_orbit_enumerate(n: int):
    """One OrbitSpec per isomorphism class, deduplicated by deciding
    equivariant bijection with orbit_iso_map (not by assuming conjugacy).
    Each orbit is built from the generating set that subgroups_of_sym gives
    its subgroup, in the order of subgroups_of_Sn."""
    out = []
    for gens in subgroups_of_sym(n).values():
        spec = OrbitSpec(n, gens)
        if not any(orbit_iso_map(spec, seen) is not None for seen in out):
            out.append(spec)
    return out


def equivalence_from_subgroup(S, n):
    """The quotient map of the equivariant equivalence t ~ t . sigma for
    sigma in the subgroup that S generates (S may list all of it): each
    injective tuple goes to the least tuple of its class."""
    return OrbitSpec(n, tuple(S)).canon_rep


def subgroup_from_quotient(quotient, n: int):
    """Recover the subgroup S from the quotient map t -> class label of an
    equivariant, support-preserving equivalence on the injective n-tuples
    over a pool of 2n+2 names; rejects input that is neither.

    Every class must lie inside one name set, and each of the two generators
    of the symmetric group on the pool (a transposition and the pool cycle)
    must map every class into one class; then every pool permutation maps
    classes onto classes.  Pool permutations act transitively on the tuples
    and commute with permuting positions, so the classes are exactly the
    orbits t . S, where S is read off the base tuple's class.
    """
    pool = 2 * n + 2
    label = {t: quotient(t) for t in itertools.permutations(range(pool), n)}
    names = {}
    for t, c in label.items():
        if names.setdefault(c, frozenset(t)) != frozenset(t):
            raise ValueError("equivalence does not preserve supports")
    for pi in sym_generators(pool):
        image = {}
        for t, c in label.items():
            c2 = label[tuple(map(pi.__getitem__, t))]
            if image.setdefault(c, c2) != c2:
                raise ValueError("equivalence is not equivariant")
    base = label[tuple(range(n))]
    S = [s for s in all_perms(n) if label[s] == base]
    if not closed_under(set(S), S, n):
        raise ValueError("recovered relation is not a subgroup")
    return tuple(sorted(S, key=elem_key))


# ---------------------------------------------------------------------------
# the counterexample functor on objects


def nom_counterexample(X):
    """(value, n): 1 + X and the least n >= 1 whose n-subset orbit P_n has no
    equivariant map into X, else the terminal nominal set and None.

    P_n maps into X exactly when X has a fixed point (an orbit of support 0)
    or an orbit (n, Sym(n)).  The setwise stabilizer of the base n-set acts
    transitively on it, so the image of the base element has empty support
    or the whole set as support, and in the second case every permutation
    of the set fixes the image, so its orbit is (n, Sym(n)); conversely a
    fixed point or a copy of P_n receives the base n-set.  So an orbit-finite
    X gives ONE exactly when it has a fixed point.  P_SUBSET_FAMILY receives
    every P_n (by the identity) and gives ONE."""
    if isinstance(X, SymbolicObject) or any(o.n == 0 for o in X.orbits):
        return ONE, None
    full = {o.n for o in X.orbits if len(o.group) == math.factorial(o.n)}
    return one_plus(X), next(n for n in itertools.count(1) if n not in full)


# ---------------------------------------------------------------------------
# support rigidity and the chain certificate


def support_rigidity_check(f: NomMor) -> tuple:
    """The elements Y over the pool with supp(f(Y)) != supp(Y), in order.

    Equivariance alone forces supp(f(Y)) to contain supp(Y) once it is
    nonempty (transposition argument); combined with the general inclusion
    the supports agree, so no endomorphism can shrink supports and factor
    through an orbit-finite set of bounded support sizes.
    """
    return tuple(e for e in f.dom.elements(f.pool) if support(f.apply(e)) != support(e))


def p_chain_certificate(k: int):
    """Counterexample functor on the chain of subset-orbit prefixes.

    Returns (verdict, witness) of a certified non-finitarity check: orbit
    counts of the functor on the prefix at k and k+1 against the value on the
    full family, in the witness shape of ``functors.finitarity_certificate``.
    The prefix P_1 + ... + P_j has no fixed point, so by the rule of
    nom_counterexample its value is 1 + the prefix (P_{j+1} has no map into
    it), while the full family, which receives every P_n, gives ONE.
    """
    sizes = {j: nom_counterexample(p_prefix(j))[0].orbit_count for j in (k, k + 1)}
    rhs = nom_counterexample(P_SUBSET_FAMILY)[0].orbit_count
    still = sizes[k + 1] != rhs
    return FAIL if sizes[k] != rhs and still else PASS, {
        "functor": "nom-counterexample",
        "chain": "p-subsets",
        "prefix_k": k,
        "lhs_size": sizes[k],
        "rhs_size": rhs,
        "persistence": {
            "prefix_k1": k + 1,
            "lhs_size_k1": sizes[k + 1],
            "rhs_size_k1": rhs,
            "still_failing": still,
        },
        "notes": ["sizes are orbit counts"],
    }


# ---------------------------------------------------------------------------
# recipes: the nominal counterexample and the single-orbit classification


@recipe("finitarity-nom", "finitarity", limits={"k": (1, 6)})
def r_finitarity_nom(k: int = 3):
    return p_chain_certificate(k)


@recipe("nominal-rigidity", "nominal", bounds=("pool",),
        limits={"k": (0, 5), "pool": (2, 20)})
def r_nominal_rigidity(k: int = 3, pool: int = 10):
    if pool < 2 * k + 2:
        raise CertificateError(f"parameter 'pool' must be at least 2k+2 = {2 * k + 2} "
                               f"for 'k' = {k}, not {pool}")
    X = p_prefix(k)
    endos = all_equivariant_maps(X, X, pool=pool)
    ok = not any(support_rigidity_check(f) for f in endos)
    return PASS_WITNESSED if ok else FAIL, {
        "endomorphisms": len(endos),
        "elements_checked": len(endos) * len(X.elements(pool)),
        "supports_preserved": ok,
        "note": "support-preserving endomorphisms rule out factorizations through "
                "orbit-finite sets with bounded support sizes",
    }


@recipe("nominal-subgroups", "nominal")
def r_nominal_subgroups():
    counts = {str(n): len(subgroups_of_Sn(n)) for n in range(5)}
    ok = counts == {"0": 1, "1": 1, "2": 2, "3": 6, "4": 30}
    return PASS_WITNESSED if ok else FAIL, {"subgroup_counts": counts}


@recipe("nominal-roundtrip", "nominal", limits={"n": (0, 4)})
def r_nominal_roundtrip(n: int = 3):
    failures = []
    subgroups = subgroups_of_sym(n)
    for group, gens in subgroups.items():
        H = tuple(sorted(group))
        if subgroup_from_quotient(equivalence_from_subgroup(gens, n), n) != H:
            failures.append([list(g) for g in H])
    return PASS_WITNESSED if not failures else FAIL, {
        "subgroups": len(subgroups), "failures": failures}


@recipe("nominal-orbit-classes", "nominal", limits={"n_max": (0, 4)})
def r_nominal_orbit_classes(n_max: int = 3):
    counts = {str(n): len(single_orbit_enumerate(n)) for n in range(n_max + 1)}
    expected = {"0": 1, "1": 1, "2": 2, "3": 4}
    ok = all(counts[k] == v for k, v in expected.items() if k in counts)
    return PASS_WITNESSED if ok else FAIL, {"class_counts": counts}
