"""Finite presentations of objects and morphisms, plus the shared category API.

Every concrete category subclasses :class:`Category` and registers itself
under a unique name.  Objects and morphisms are immutable value types carrying
that name, so generic machinery (hom search, lifts, factorization, quotients,
subobject enumeration) dispatches through the registry.  A category whose
module is loaded only on use, as the F_q spaces of ``finbench.vec`` are, is
named in ``CATEGORY_MODULES``, and ``lookup_category`` loads it by name.
Carriers are plain tuples of hashable elements.

Every ``Obj`` carrier is in ``elem_key`` order.  A carrier built outside the
library gets that order from ``canon`` in a category's public ``obj(...)``.
The unary-algebra constructions keep it by construction (a subalgebra, image
or quotient filters its parent's carrier, and coproducts and kernel pairs
list their tags in order), so they never sort, and the coset G-sets of
``cats`` sort their cosets once, by their members, without ``elem_key``;
graphs and vector spaces, off the hot paths, still build theirs through
``obj``.  Otherwise ``elem_key`` stays at the JSON boundary and for
carriers from outside.

A category supplies these hooks:

- structure: ``preserves_structure``, ``op_tables`` (the total unary
  operations as tables ``{op_id: {x: op(x)}}``, the one form in which they
  are read), ``generator_tables`` (the operations the others are composites
  of, which the search propagates along), ``relation_check`` (edges),
  ``iso_invariant`` and ``point_invariants`` (a key per point that every
  isomorphism keeps: the cycle signatures below by default, the degrees in
  graphs); one depth-first search kernel built on them serves ``hom_set``,
  ``lifts`` (the homs q with g . q = f, which factorization through a leg
  or a functor image needs) and ``find_iso``, which tries for each point
  only the targets with its key, and ``coequalizer`` is generic over
  ``quotient_obj``;
- constructions: ``image_obj``, ``coproduct``, ``quotient_obj``,
  ``kernel_pair`` and ``subobjects_fg``.  A category overrides only the
  ones something calls; the others raise ``NotImplementedError``;
- ``retraction(b)``: b_prime, a mono from a finite subobject holding the
  image of b, and f: cod(b) -> dom(b_prime) with f . b_prime = id, the
  strictness witness.  FinSet, presheaves (G-sets) and F_q override it in
  their own modules; the default raises ValueError, as Un and Gra do.

The search steps on carrier positions.  ``Category._index`` indexes an
object once and keeps the index on it: each element's position, each
generating operation as the list of its images' positions, and each
position's cycle signature.  Under one operation an element x's orbit has a
tail t and a period p, so op^(t + p)(x) = op^t(x), and a hom sends x only to
an element whose own tail is at most t and whose period divides p; the
search tests each target of a branch element against this rule before it
propagates, so a hom set that the rule empties at its first branch element
costs no propagation.  The kernel is one generator over an explicit stack
of branch frames, with no recursion and no nested function: a search's
depth is bounded by memory, not by the recursion limit, and a search that
ends or is dropped is freed by reference counting.

``cats.UnaryAlgebraCat`` writes the constructions once for finite sets, unary
algebras and G-sets, on ``op_tables`` and three hooks of its own: ``_build``
(the object on a carrier, already in ``elem_key`` order, from its operation
tables, one per entry of the category's ``op_ids``), ``_tag`` (a coproduct
element) and ``_pair`` (a kernel-pair element).

A :class:`FunctorHandle` is a functor between registered categories given by
its two maps; every layer that builds or probes functors shares it from here.

The library's data types, here and in the other modules, are :class:`Value`
subclasses: plain classes with an explicit ``__init__``.  Unlike a
dataclass, which execs the methods it generates, defining one compiles
nothing at import time.
"""

from __future__ import annotations

import importlib


def elem_key(x):
    """Total order key for carrier elements (ints, strings, tuples, frozensets);
    exact ints, tuples and strs are dispatched before the isinstance tests."""
    t = type(x)
    if t is int:
        return (0, x)
    if t is tuple:
        return (2, len(x), tuple(map(elem_key, x)))
    if t is str:
        return (1, x)
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


class Value:
    """An immutable value type.  Its ``__init__`` stores the fields in the
    instance dict and calls ``__post_init__``, where a type has checks.
    Equality, hash and repr read the fields named in ``_fields``, in order:
    two values are equal when their classes are the same and those fields
    are equal, and a value of another class compares as NotImplemented.
    Data kept in the instance dict under other names (derived data, indexes)
    takes no part in them.  Assigning or deleting an attribute raises
    AttributeError.

    Obj and Mor, built by the thousand, store each field with _setfield
    (object.__setattr__), which keeps an instance as small as a frozen
    dataclass's; the other types call self.__dict__.update."""

    _fields = ()

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


_setfield = object.__setattr__


class Obj(Value):
    """A finite object: its category's name, a canonical carrier tuple and a
    structure tuple.  Derived data (hash, carrier set, the operation tables
    of unary algebras and presheaves) is built once and kept in the instance
    dict; it takes no part in equality."""

    _fields = ("cat", "carrier", "structure")

    def __init__(self, cat: str, carrier: tuple, structure: tuple = ()):
        _setfield(self, "cat", cat)
        _setfield(self, "carrier", carrier)
        _setfield(self, "structure", structure)
        self.__post_init__()

    def __post_init__(self):
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier has duplicate elements")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cat, self.carrier, self.structure) == \
            (other.cat, other.carrier, other.structure)

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


class SymbolicObject(Value):
    """An infinite object given by name: its kind and its category's name.
    finbench.symbolic decides homs into the ray and the prime cycle family,
    and finbench.nominal has the subset-orbit family."""

    _fields = ("kind", "cat")

    def __init__(self, kind: str, cat: str):
        self.__dict__.update(kind=kind, cat=cat)

    def __repr__(self):
        return f"Symbolic({self.kind})"


class _MappingLookup:
    """Mor._lookup, the dict x -> f(x): built on the first read and stored in
    the instance dict, which every later read finds first.  A non-data
    descriptor like functools.cached_property, without the lock that one
    takes on each first read."""

    def __get__(self, f, owner=None):
        look = f.__dict__["_lookup"] = dict(zip(f.dom.carrier, f.mapping))
        return look


class Mor(Value):
    _fields = ("dom", "cod", "mapping")

    def __init__(self, dom: Obj, cod: Obj, mapping: tuple):
        _setfield(self, "dom", dom)
        _setfield(self, "cod", cod)
        _setfield(self, "mapping", mapping)  # images aligned with dom.carrier
        self.__post_init__()

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dom, self.cod, self.mapping) == (other.dom, other.cod, other.mapping)

    def __hash__(self):
        return hash((self.dom, self.cod, self.mapping))

    _lookup = _MappingLookup()

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


def _orbit_shapes(nxt) -> list:
    """The (tail, period) of each position's orbit under the operation
    given as the list of its images' positions; one walk of the functional
    graph, which enters each position once."""
    shape = [None] * len(nxt)
    at = [-1] * len(nxt)  # the step, counted over all walks, that entered it
    steps = 0
    for i in range(len(nxt)):
        if at[i] >= 0:
            continue
        path, j, first = [], i, steps
        while at[j] < 0:
            at[j] = steps
            steps += 1
            path.append(j)
            j = nxt[j]
        if at[j] >= first:  # this walk closed a new cycle at j
            k = at[j] - first
            end = (0, len(path) - k)
            for m in path[k:]:
                shape[m] = end
            del path[k:]
        else:
            end = shape[j]
        for m in reversed(path):
            end = (end[0] + 1, end[1])
            shape[m] = end
    return shape


def _fits(sx, sy) -> bool:
    """Whether an element with cycle signature sy satisfies every cycle
    equation op^(t + p) = op^t of signature sx: its own tail is at most t
    and its period divides p, for each operation."""
    return all(b[0] <= a[0] and a[1] % b[1] == 0 for a, b in zip(sx, sy))


_REGISTRY: dict[str, "Category"] = {}


def register_category(cat):
    existing = _REGISTRY.get(cat.name)
    if existing is not None:
        return existing
    _REGISTRY[cat.name] = cat
    return cat


# category name -> the finbench module that registers it, for the categories
# that no module of finbench.cli's start-up registers.  A closed table, as
# certs.RECIPE_MODULES is: a name read from JSON never chooses a module.
CATEGORY_MODULES = {"vec2": "vec", "vec3": "vec"}


def category_of(x):
    return _REGISTRY[x.cat]


def lookup_category(name):
    """The category registered as name, first importing the module that
    CATEGORY_MODULES names for it if it is not registered yet; a KeyError
    for any other name."""
    cat = _REGISTRY.get(name)
    if cat is None:
        importlib.import_module(f"finbench.{CATEGORY_MODULES[name]}")
        cat = _REGISTRY[name]
    return cat


class FunctorHandle(Value):
    """Functor between the registered categories ``source`` and ``target``,
    given by its object and morphism maps.  A functor that evaluates
    symbolic objects does so in its own ``on_obj``."""

    _fields = ("name", "source", "target", "on_obj", "on_mor")

    def __init__(self, name: str, source: str, target: str, on_obj, on_mor):
        self.__dict__.update(name=name, source=source, target=target,
                             on_obj=on_obj, on_mor=on_mor)


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

    def op_tables(self, X: Obj) -> dict:
        """{op_id: {x: op(x)}}, each table total on the carrier."""
        return {}

    def generator_tables(self, X: Obj) -> dict:
        """The op_tables, or those of them that the others are composites
        of, so that a map commuting with these commutes with all; the same
        ids for every object of a category."""
        return self.op_tables(X)

    def _index(self, X: Obj) -> tuple:
        """X's index (pos, gens, sigs), built on the first request and kept
        on X: pos maps each element to its position, gens lists each
        generating operation, in generator_tables order, as its images'
        positions, and sigs holds each position's cycle signature."""
        index = X.__dict__.get("_index")
        if index is None:
            xs = X.carrier
            pos = {x: i for i, x in enumerate(xs)}
            gens = [list(map(pos.__getitem__, map(t.__getitem__, xs)))
                    for t in self.generator_tables(X).values()]
            sigs = list(zip(*map(_orbit_shapes, gens))) if gens else [()] * len(xs)
            index = X.__dict__["_index"] = (pos, gens, sigs)
        return index

    def cycle_signatures(self, X: Obj) -> dict:
        """{x: signature} in carrier order, from X's index: for each operation
        in generator_tables order, the same for every object of a category,
        the (tail, period) of x's orbit, so op^(tail + period)(x) = op^tail(x)."""
        return dict(zip(X.carrier, self._index(X)[2]))

    def point_invariants(self, X: Obj) -> dict:
        """{x: key} in carrier order, for a key that every isomorphism
        keeps: find_iso sends x only to the points with x's key.  The cycle
        signatures by default."""
        return self.cycle_signatures(X)

    def relation_check(self, X: Obj, Y: Obj):
        """Relational constraints (edges), built once per search: None, or
        ok(assign, new) checking those among assigned positions that involve
        a position in the list new; assign lists each image position or None."""
        return None

    def iso_invariant(self, X: Obj):
        return X.size

    # ---- identities and composition --------------------------------------

    def identity(self, X: Obj) -> Mor:
        return Mor(X, X, tuple(X.carrier))

    def compose(self, g: Mor, f: Mor) -> Mor:
        """g . f, of g's class: a SymMor when g maps into a symbolic object."""
        if f.cod != g.dom:
            raise ValueError("morphisms not composable")
        return type(g)(f.dom, g.cod, tuple(map(g._lookup.__getitem__, f.mapping)))

    def mor(self, dom: Obj, cod: Obj, mapping) -> Mor:
        if callable(mapping):
            return Mor(dom, cod, tuple(mapping(x) for x in dom.carrier))
        if isinstance(mapping, dict):
            return Mor(dom, cod, tuple(mapping[x] for x in dom.carrier))
        return Mor(dom, cod, tuple(mapping))

    # ---- hom enumeration ---------------------------------------------------

    def hom_set(self, X: Obj, Y: Obj) -> list[Mor]:
        """All structure-preserving maps X -> Y, duplicate free, in the
        lexicographic order of Y's carrier."""
        return list(self._search(X, Y, injective=False))

    def lifts(self, f, g):
        """Yield the homs q: dom f -> dom g with g . q = f, in hom_set order.

        f and g share a codomain, which may be a symbolic object.  The search
        chooses q(x) in the fiber of g over f(x); values that propagation
        fills in need no check, since f, g and q are homs.
        """
        if f.cod != g.cod:
            raise ValueError("lift of morphisms with different codomains")
        fiber = {}  # each fiber's positions in carrier order
        for j, z in enumerate(g.mapping):
            fiber.setdefault(z, []).append(j)
        over = [fiber.get(z, ()) for z in f.mapping]
        return self._search(f.dom, g.dom, injective=False, over=over)

    def _search(self, X: Obj, Y: Obj, injective: bool, over=None):
        """Yield the structure-preserving maps X -> Y (only the injective ones
        when asked) depth first in carrier order; with ``over``, a list
        giving each position of X the positions of Y, in order, that may be
        its value.  assign lists each position's image position or None,
        and used marks the image positions taken.  A branch frame [position,
        target iterator, positions assigned] assigns x and what propagation
        along the generating operations forces (which reaches and checks
        what all of them would, by their composition laws); relations and
        injectivity are checked only for the positions a frame assigned, all
        of which are undone before its next target.  Each target must first
        pass the cycle rule (``_fits``), memoised per pair of signatures.
        Each hom is yielded as a validated Mor.
        """
        n, ys = X.size, Y.carrier
        (_, gens_x, sig_x), (_, gens_y, sig_y) = self._index(X), self._index(Y)
        pairs = list(zip(gens_x, gens_y))  # each operation's lists in X and Y
        fit = {}
        check = self.relation_check(X, Y)
        assign, used = [None] * n, [False] * len(ys)  # used: positions taken, if injective
        stack, i = [], 0
        while True:
            while i < n and assign[i] is not None:  # the next branch element
                i += 1
            if i == n:
                yield Mor(X, Y, tuple(map(ys.__getitem__, assign)))
            else:
                stack.append([i, iter(range(len(ys)) if over is None else over[i]), ()])
            while stack:  # undo the top frame's target, then try its next one
                frame = stack[-1]
                i, targets, new = frame
                if injective:
                    for a in new:
                        used[assign[a]] = False
                for a in new:
                    assign[a] = None
                sx = sig_x[i]
                for y in targets:
                    if used[y]:
                        continue
                    key = (sx, sig_y[y])
                    ok = fit.get(key)
                    if ok is None:
                        ok = fit[key] = _fits(sx, key[1])
                    if ok:
                        break
                else:
                    stack.pop()
                    continue
                # assign x -> y and what the operations force
                assign[i] = y
                frame[2] = new = [i]
                if injective:
                    used[y] = True
                ok = True
                for a in new:  # new grows while this runs
                    b = assign[a]
                    for xt, yt in pairs:
                        a2, b2 = xt[a], yt[b]
                        c = assign[a2]
                        if c is None:
                            if used[b2]:
                                ok = False
                                break
                            assign[a2] = b2
                            new.append(a2)
                            if injective:
                                used[b2] = True
                        elif c != b2:
                            ok = False
                            break
                    if not ok:
                        break
                if ok and check is not None:
                    ok = check(assign, new)
                if ok:
                    i += 1
                    break
            else:
                return

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

    def retraction(self, b: Mor):
        """(b_prime, f), as the module docstring says; a ValueError by default."""
        raise ValueError(f"no retraction procedure for {self.name}")

    # ---- isomorphism search ------------------------------------------------------

    def find_iso(self, X: Obj, Y: Obj):
        """The first injective hom X -> Y in hom_set order that is an
        isomorphism, or None.  The search tries for x only the points of Y
        with x's point_invariants key; every isomorphism is among the homs
        it still yields, in the same order."""
        if X.size != Y.size or self.iso_invariant(X) != self.iso_invariant(Y):
            return None
        alike = {}  # each key's positions in carrier order
        for j, key in enumerate(self.point_invariants(Y).values()):
            alike.setdefault(key, []).append(j)
        over = [alike.get(key, ()) for key in self.point_invariants(X).values()]
        found = self._search(X, Y, injective=True, over=over)
        return next((f for f in found if self.is_iso(f)), None)

    def is_isomorphic(self, X: Obj, Y: Obj) -> bool:
        return self.find_iso(X, Y) is not None
