"""Finite presentations of objects and morphisms, plus the shared category API.

Every concrete category subclasses :class:`Category` and registers itself
under a unique name.  Objects and morphisms are immutable value types carrying
that name, so generic machinery (hom search, lifts, factorization, quotients,
subobject enumeration) dispatches through the registry.  Carriers are plain
tuples of hashable elements; S-sorted categories tag elements with their sort.

Every ``Obj`` carrier is in ``elem_key`` order.  A carrier built outside the
library gets that order from ``canon`` in a category's public ``obj(...)``.
The unary-algebra constructions keep it by construction (a subalgebra, image
or quotient filters its parent's carrier, and coproducts and kernel pairs
list their tags in order), so they never sort; graphs and vector spaces,
off the hot paths, still build theirs through ``obj``.  Otherwise
``elem_key`` stays at the JSON boundary and for carriers from outside.

A category supplies these hooks:

- structure: ``preserves_structure``, ``op_successors``/``op_apply`` (unary
  operations), ``candidate_targets`` (sorts), ``relations_ok`` (edges) and
  ``iso_invariant``; one depth-first search kernel built on them serves
  ``hom_set``, ``lifts`` (the homs q with g . q = f, which factorization
  through a leg or a functor image needs) and ``find_iso``, and
  ``coequalizer`` is generic over ``quotient_obj``;
- constructions: ``image_obj``, ``initial``, ``terminal``, ``coproduct``,
  ``quotient_obj``, ``kernel_pair`` and ``subobjects_fg``.  A category
  overrides only the ones something calls; the others raise
  ``NotImplementedError``.

``cats.UnaryAlgebraCat`` writes the constructions once for finite sets, unary
algebras and presheaves, from ``op_successors``/``op_apply`` and four hooks
of its own: ``_build`` (the object on a carrier, already in ``elem_key``
order, with given operations), ``_tag`` (a coproduct element),
``_coproduct_order`` (the summands' elements in the order of their tags) and
``_pair`` (a kernel-pair element).

A :class:`FunctorHandle` is a functor between registered categories given by
its two maps; every layer that builds or probes functors shares it from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def elem_key(x):
    """Total order key for carrier elements (ints, strings, tuples, frozensets)."""
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        return (2, len(x), tuple(elem_key(y) for y in x))
    if isinstance(x, frozenset):
        return (3, len(x), tuple(sorted(elem_key(y) for y in x)))
    raise TypeError(f"unsupported carrier element: {x!r}")


def canon(elems):
    """Deduplicate and sort into a canonical carrier tuple, in elem_key
    order: the entry point for carriers built outside the library.
    Constructions on objects keep that order without calling it."""
    return tuple(sorted(set(elems), key=elem_key))


@dataclass(frozen=True)
class Obj:
    """A finite object: its category's name, a canonical carrier tuple and a
    structure tuple.  Derived data (hash, carrier set, the operation tables
    of unary algebras and presheaves) is built once and kept in the instance
    dict; it takes no part in equality."""

    cat: str
    carrier: tuple
    structure: tuple = ()

    def __post_init__(self):
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier has duplicate elements")

    def __hash__(self):
        # Objects and morphisms are set members and dict keys; hash the whole
        # presentation once, not per lookup.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.cat, self.carrier, self.structure))
        return h

    @property
    def carrier_set(self) -> frozenset:
        s = self.__dict__.get("_carrier_set")
        if s is None:
            s = self.__dict__["_carrier_set"] = frozenset(self.carrier)
        return s

    @property
    def size(self):
        return len(self.carrier)

    def __repr__(self):
        if self.size <= 6:
            return f"Obj({self.cat}, {list(self.carrier)})"
        return f"Obj({self.cat}, |{self.size}|)"


@dataclass(frozen=True)
class Mor:
    dom: Obj
    cod: Obj
    mapping: tuple  # images aligned with dom.carrier

    def __post_init__(self):
        if self.dom.cat != self.cod.cat:
            raise ValueError("morphism across categories")
        if len(self.mapping) != len(self.dom.carrier):
            raise ValueError("mapping length does not match domain carrier")
        cod_set = self.cod.carrier_set
        if not cod_set.issuperset(self.mapping):
            y = next(y for y in self.mapping if y not in cod_set)
            raise ValueError(f"image {y!r} outside codomain")
        if not category_of(self.dom).preserves_structure(self):
            raise ValueError("mapping does not preserve structure")

    @cached_property
    def _lookup(self):
        return dict(zip(self.dom.carrier, self.mapping))

    def __call__(self, x):
        return self._lookup[x]

    @property
    def cat(self):
        return self.dom.cat

    def is_injective(self):
        return len(set(self.mapping)) == len(self.mapping)

    def is_surjective(self):
        return set(self.mapping) == set(self.cod.carrier)

    def __repr__(self):
        if self.dom.size <= 5:
            pairs = ", ".join(f"{x!r}>{y!r}" for x, y in zip(self.dom.carrier, self.mapping))
            return f"Mor({pairs})"
        return f"Mor({self.dom!r} -> {self.cod!r})"


class Partition:
    """Union-find over a fixed finite element set."""

    def __init__(self, elems):
        self._parent = {x: x for x in elems}

    def find(self, a):
        parent = self._parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; False when they were one class."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[ra] = rb
        return True

    def close(self, pairs, successors):
        """Union every pair and, on each merge of a and b, the pairs
        successors(a, b): the least congruence containing the pairs when
        successors lists what an identification of a and b forces.
        Returns self."""
        queue = list(pairs)
        while queue:
            a, b = queue.pop()
            if self.union(a, b):
                queue.extend(successors(a, b))
        return self

    def classes(self) -> list[list]:
        """The classes in element order, each with its members in element
        order."""
        groups = {}
        for x in self._parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())

    def reps(self) -> dict:
        """Each element's class representative, the first member in element
        order: the elem_key-least one when the elements came in elem_key
        order, as an Obj carrier does."""
        return {x: members[0] for members in self.classes() for x in members}


_REGISTRY: dict[str, "Category"] = {}


def register_category(cat):
    existing = _REGISTRY.get(cat.name)
    if existing is not None:
        return existing
    _REGISTRY[cat.name] = cat
    return cat


def category_of(x):
    return _REGISTRY[x.cat]


def lookup_category(name):
    return _REGISTRY[name]


@dataclass(frozen=True)
class FunctorHandle:
    """Functor between the registered categories ``source`` and ``target``,
    given by its object and morphism maps.  A functor that evaluates
    symbolic objects does so in its own ``on_obj``."""

    name: str
    source: str
    target: str
    on_obj: object
    on_mor: object


def finite_obj(X, functor: str) -> Obj:
    """X, for a functor that only evaluates finite objects; a ValueError
    naming X when it is anything else, such as a symbolic object."""
    if not isinstance(X, Obj):
        raise ValueError(f"{functor} evaluates finite objects only, not {X!r}")
    return X


class Category:
    """Shared finite-category machinery; subclasses fill in structure hooks."""

    name: str

    # ---- structure hooks -------------------------------------------------

    def preserves_structure(self, f: Mor) -> bool:
        return True

    def op_successors(self, X: Obj, x):
        """Functional constraints: pairs (op_id, op(x)) for unary operations."""
        return ()

    def op_apply(self, X: Obj, op_id, x):
        """Apply op_id in X, or None when undefined; mirror of op_successors."""
        return None

    def candidate_targets(self, X: Obj, x, Y: Obj):
        """Codomain elements a hom may send x to (sort filtering etc.)."""
        return Y.carrier

    def relations_ok(self, X: Obj, Y: Obj, assign: dict) -> bool:
        """Relational constraints (edges) among currently assigned elements."""
        return True

    def iso_invariant(self, X: Obj):
        return X.size

    # ---- identities and composition --------------------------------------

    def identity(self, X: Obj) -> Mor:
        return Mor(X, X, tuple(X.carrier))

    def compose(self, g: Mor, f: Mor) -> Mor:
        if f.cod != g.dom:
            raise ValueError("morphisms not composable")
        return Mor(f.dom, g.cod, tuple(g(f(x)) for x in f.dom.carrier))

    def mor(self, dom: Obj, cod: Obj, mapping) -> Mor:
        if callable(mapping):
            return Mor(dom, cod, tuple(mapping(x) for x in dom.carrier))
        if isinstance(mapping, dict):
            return Mor(dom, cod, tuple(mapping[x] for x in dom.carrier))
        return Mor(dom, cod, tuple(mapping))

    # ---- hom enumeration ---------------------------------------------------

    def hom_set(self, X: Obj, Y: Obj) -> list[Mor]:
        """All structure-preserving maps X -> Y, duplicate free, in the
        lexicographic order of candidate_targets."""
        return list(self._search(X, Y, injective=False))

    def lifts(self, f, g):
        """Yield the homs q: dom f -> dom g with g . q = f, in hom_set order.

        f and g share a codomain, which may be a symbolic object.  The search
        chooses q(x) in the fiber of g over f(x); values that propagation
        fills in need no check, since f, g and q are homs.
        """
        if f.cod != g.cod:
            raise ValueError("lift of morphisms with different codomains")
        fiber = {}
        for y, z in zip(g.dom.carrier, g.mapping):
            fiber.setdefault(z, set()).add(y)
        over = {x: fiber.get(f(x), ()) for x in f.dom.carrier}
        return self._search(f.dom, g.dom, injective=False, over=over)

    def _search(self, X: Obj, Y: Obj, injective: bool, over=None):
        """Yield the structure-preserving maps X -> Y (only the injective ones
        when asked) depth first in candidate_targets order; with ``over``, a
        dict from each x to a set, only the maps choosing x's value in over[x].

        Backtracking with propagation along unary operations; relational
        constraints are rechecked on partial assignments.
        """
        xs = X.carrier

        def propagate(assign, queue):
            while queue:
                a, b = queue.pop()
                for op_id, a2 in self.op_successors(X, a):
                    b2 = self.op_apply(Y, op_id, b)
                    if b2 is None:
                        return False
                    if a2 in assign:
                        if assign[a2] != b2:
                            return False
                    else:
                        assign[a2] = b2
                        queue.append((a2, b2))
            return True

        def extend(assign, i):
            while i < len(xs) and xs[i] in assign:
                i += 1
            if i == len(xs):
                yield Mor(X, Y, tuple(assign[x] for x in xs))
                return
            x = xs[i]
            used = set(assign.values()) if injective else ()
            targets = self.candidate_targets(X, x, Y)
            if over is not None:
                targets = [y for y in targets if y in over[x]]
            for y in targets:
                if y in used:
                    continue
                trial = dict(assign)
                trial[x] = y
                if not propagate(trial, [(x, y)]):
                    continue
                if injective and len(set(trial.values())) < len(trial):
                    continue
                if self.relations_ok(X, Y, trial):
                    yield from extend(trial, i + 1)

        return extend({}, 0)

    # ---- mono / epi --------------------------------------------------------

    def is_mono(self, f: Mor) -> bool:
        return f.is_injective()

    def is_iso(self, f: Mor) -> bool:
        if not (f.is_injective() and f.is_surjective()):
            return False
        try:
            self.inverse(f)
        except ValueError:
            return False
        return True

    def inverse(self, f: Mor) -> Mor:
        back = {y: x for x, y in zip(f.dom.carrier, f.mapping)}
        return Mor(f.cod, f.dom, tuple(back[y] for y in f.cod.carrier))

    # ---- factorization -----------------------------------------------------

    def image_obj(self, f: Mor) -> Obj:
        """Intermediate object of the (strong epi, mono) factorization."""
        raise NotImplementedError

    def factorize(self, f: Mor):
        im = self.image_obj(f)
        e = Mor(f.dom, im, f.mapping)
        m = Mor(im, f.cod, tuple(im.carrier))
        return e, m

    # ---- colimits ------------------------------------------------------------

    def initial(self) -> Obj:
        raise NotImplementedError

    def terminal(self) -> Obj:
        raise NotImplementedError

    def coproduct(self, objs):
        raise NotImplementedError

    def quotient_obj(self, X: Obj, class_of: dict) -> Obj:
        """Object on canonical class representatives; class_of maps x -> rep."""
        raise NotImplementedError

    def coequalizer(self, f: Mor, g: Mor) -> Mor:
        """Quotient of cod(f) by the congruence generated by f(x) ~ g(x)."""
        if f.dom != g.dom or f.cod != g.cod:
            raise ValueError("not a parallel pair")
        Y = f.cod
        # op(f x) = f(op x) and likewise for g, so the seed pairs are closed
        # under every operation and their equivalence closure is already a
        # congruence: nothing needs propagating.
        part = Partition(Y.carrier)
        for x in f.dom.carrier:
            part.union(f(x), g(x))
        rep = part.reps()
        Q = self.quotient_obj(Y, rep)
        return Mor(Y, Q, tuple(rep[y] for y in Y.carrier))

    def kernel_pair(self, f: Mor):
        raise NotImplementedError

    # ---- subobjects ------------------------------------------------------------

    def subobjects_fg(self, X: Obj, bound=None) -> list[Mor]:
        """Monos into X, one per subobject; optionally size-bounded."""
        raise NotImplementedError

    def sub_mono(self, X: Obj, sub: Obj) -> Mor:
        return Mor(sub, X, tuple(sub.carrier))

    # ---- isomorphism search ------------------------------------------------------

    def find_iso(self, X: Obj, Y: Obj):
        """The first injective hom X -> Y in hom_set order that is an
        isomorphism, or None."""
        if X.size != Y.size or self.iso_invariant(X) != self.iso_invariant(Y):
            return None
        return next((f for f in self._search(X, Y, injective=True) if self.is_iso(f)), None)

    def is_isomorphic(self, X: Obj, Y: Obj) -> bool:
        return self.find_iso(X, Y) is not None
