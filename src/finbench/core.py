"""Finite presentations of objects and morphisms, plus the shared category API.

Every concrete category subclasses :class:`Category` and registers itself
under a unique name.  Objects and morphisms are immutable value types carrying
that name, so generic machinery (hom search, lifts, factorization, quotients,
subobject enumeration) dispatches through the registry.  A category whose
module is loaded only on use, as the F_q spaces of ``finbench.vec`` are, is
named in ``CATEGORY_MODULES``, and ``lookup_category`` loads it by name.  Carriers are plain
tuples of hashable elements; S-sorted categories tag elements with their sort.

Every ``Obj`` carrier is in ``elem_key`` order.  A carrier built outside the
library gets that order from ``canon`` in a category's public ``obj(...)``.
The unary-algebra constructions keep it by construction (a subalgebra, image
or quotient filters its parent's carrier, and coproducts and kernel pairs
list their tags in order), so they never sort; graphs and vector spaces,
off the hot paths, still build theirs through ``obj``.  Otherwise
``elem_key`` stays at the JSON boundary and for carriers from outside.

A category supplies these hooks:

- structure: ``preserves_structure``, ``op_successors``/``op_tables`` (unary
  operations, which ``op_apply`` reads), ``generator_tables`` (the
  operations the others are composites of, which the search propagates
  along), ``candidate_targets`` (sorts),
  ``relation_check`` (edges) and ``iso_invariant``; one depth-first search
  kernel built on them serves ``hom_set``, ``lifts`` (the homs q with
  g . q = f, which factorization through a leg or a functor image needs)
  and ``find_iso``, and ``coequalizer`` is generic over ``quotient_obj``;
- constructions: ``image_obj``, ``initial``, ``terminal``, ``coproduct``,
  ``quotient_obj``, ``kernel_pair`` and ``subobjects_fg``.  A category
  overrides only the ones something calls; the others raise
  ``NotImplementedError``.

The search prunes by cycle equations.  Under one operation, an element x's
orbit has a tail t and a period p, so op^(t + p)(x) = op^t(x), and a hom
sends x only to an element y whose own tail is at most t and whose period
divides p.  ``cycle_signatures`` keeps each element's (tail, period) per
generating operation on the object, from one walk of each operation's
functional graph; an orbit that leaves the operation's domain, as a
cross-sort presheaf operation does, gives no equation.  At a branch point the search
applies the rule only after one of x's targets has failed propagation, so a
search that never fails builds no signatures.  ``candidate_targets`` stays a
sort-level filter.

``cats.UnaryAlgebraCat`` writes the constructions once for finite sets, unary
algebras and presheaves, from ``op_successors``/``op_apply`` and four hooks
of its own: ``_build`` (the object on a carrier, already in ``elem_key``
order, with given operations), ``_tag`` (a coproduct element),
``_coproduct_order`` (the summands' elements in the order of their tags) and
``_pair`` (a kernel-pair element).

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


def _orbit_shapes(carrier, index, table) -> list:
    """The (tail, period) of each element's orbit under the operation
    table, in carrier order, or None when the orbit leaves the table's
    domain; one walk of the functional graph on carrier positions (index
    maps each element to its position), which enters each element once."""
    nxt = list(map(index.get, map(table.get, carrier)))  # None: undefined
    shape = [None] * len(nxt)
    at = [-1] * len(nxt)  # the step, counted over all walks, that entered it
    steps = 0
    for i in range(len(nxt)):
        if at[i] >= 0:
            continue
        path, j, first = [], i, steps
        while j is not None and at[j] < 0:
            at[j] = steps
            steps += 1
            path.append(j)
            j = nxt[j]
        if j is None:  # the orbit leaves the domain
            end = None
        elif at[j] >= first:  # this walk closed a new cycle at j
            k = at[j] - first
            end = (0, len(path) - k)
            for m in path[k:]:
                shape[m] = end
            del path[k:]
        else:
            end = shape[j]
        for m in reversed(path):
            if end is not None:
                end = (end[0] + 1, end[1])
            shape[m] = end
    return shape


def _fits(sx, sy) -> bool:
    """Whether an element with cycle signature sy satisfies every cycle
    equation op^(t + p) = op^t of signature sx: its own tail is at most t
    and its period divides p, for each operation that gives sx an
    equation."""
    return all(b is not None and b[0] <= a[0] and a[1] % b[1] == 0
               for a, b in zip(sx, sy) if a is not None)


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
        """{op_id: {x: op(x)}} over the elements where op is defined."""
        return {}

    def generator_tables(self, X: Obj) -> dict:
        """The op_tables, or those of them that the others are composites
        of, so that a map commuting with these commutes with all; the same
        ids for every object of a category."""
        return self.op_tables(X)

    def op_successors(self, X: Obj, x):
        """Functional constraints: pairs (op_id, op(x)) for unary operations."""
        return tuple((op_id, t[x]) for op_id, t in self.op_tables(X).items() if x in t)

    def op_apply(self, X: Obj, op_id, x):
        """Apply op_id in X, or None when undefined; mirror of op_successors."""
        return self.op_tables(X)[op_id].get(x)

    def cycle_signatures(self, X: Obj) -> dict:
        """{x: signature}, built once per object: for each operation in
        generator_tables order, which is the same for every object of a
        category, the (tail, period) of x's orbit under that operation
        alone, so op^(tail + period)(x) = op^tail(x), or None when the orbit
        leaves the operation's domain and gives no such equation."""
        sigs = X.__dict__.get("_cycle_sigs")
        if sigs is None:
            index = {x: i for i, x in enumerate(X.carrier)}
            cols = [_orbit_shapes(X.carrier, index, t)
                    for t in self.generator_tables(X).values()]
            sigs = X.__dict__["_cycle_sigs"] = (
                dict(zip(X.carrier, zip(*cols))) if cols else dict.fromkeys(X.carrier, ()))
        return sigs

    def candidate_targets(self, X: Obj, x, Y: Obj):
        """Codomain elements a hom may send x to (sort filtering etc.).  It
        stays a sort-level filter, never a structural one:
        ``strictness.congruences`` reads it as the pairs a congruence may
        identify."""
        return Y.carrier

    def relation_check(self, X: Obj, Y: Obj):
        """Relational constraints (edges), built once per search: None, or
        ok(assign, new) checking those among assigned elements that involve
        an element of the list new."""
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

        Backtracking on one assignment, with propagation along the
        generating unary operations, which reaches the same elements as
        propagation along all of them and, by their composition laws,
        checks the same equations; each step checks relations and
        injectivity only for the elements it assigned, and is undone on
        return.  Once a target of x
        has failed, the remaining targets y must also pass the cycle rule
        (``_fits`` on the cycle signatures of x and y), which every hom
        satisfies; its verdicts are memoised per pair of signatures.
        """
        xs = X.carrier
        tables = self.generator_tables(Y)
        # each x's successors, paired with the table of their operation in Y
        succ = {x: [] for x in xs}
        for op_id, table in self.generator_tables(X).items():
            for a, a2 in table.items():
                succ[a].append((tables[op_id], a2))
        check = self.relation_check(X, Y)
        assign, used = {}, set()  # used: the values taken, when injective
        prune = bool(tables)  # without operations there are no cycle equations
        sig_x = sig_y = None  # the cycle signatures, read once needed
        fit = {}

        def fits(x, y):
            nonlocal sig_x, sig_y
            if sig_x is None:
                sig_x, sig_y = self.cycle_signatures(X), self.cycle_signatures(Y)
            key = (sig_x[x], sig_y[y])
            ok = fit.get(key)
            if ok is None:
                ok = fit[key] = _fits(*key)
            return ok

        def step(x, y):
            # assign x -> y and what the operations force: (new elements, ok)
            assign[x] = y
            new = [x]
            if injective:
                used.add(y)
            for a in new:  # new grows while this runs
                b = assign[a]
                for table, a2 in succ[a]:
                    b2 = table.get(b)
                    c = assign.get(a2)
                    if c is None:
                        if b2 is None or injective and b2 in used:
                            return new, False
                        assign[a2] = b2
                        new.append(a2)
                        if injective:
                            used.add(b2)
                    elif c != b2:
                        return new, False
            return new, check is None or check(assign, new)

        def extend(i):
            while i < len(xs) and xs[i] in assign:
                i += 1
            if i == len(xs):
                yield Mor(X, Y, tuple(assign[x] for x in xs))
                return
            x = xs[i]
            targets = self.candidate_targets(X, x, Y)
            if over is not None:
                targets = [y for y in targets if y in over[x]]
            failed = False
            for y in targets:
                if y in used or failed and not fits(x, y):
                    continue
                new, ok = step(x, y)
                if ok:
                    yield from extend(i + 1)
                else:
                    failed = prune
                if injective:
                    used.difference_update([assign[a] for a in new])
                for a in new:
                    del assign[a]

        return extend(0)

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
        """(b_prime, f): b_prime a mono from a finite subobject holding the
        image of b, and f: cod(b) -> dom(b_prime) with f . b_prime = id; a
        ValueError in a category with no such procedure."""
        raise ValueError(f"no retraction procedure for {self.name}")

    # ---- isomorphism search ------------------------------------------------------

    def find_iso(self, X: Obj, Y: Obj):
        """The first injective hom X -> Y in hom_set order that is an
        isomorphism, or None."""
        if X.size != Y.size or self.iso_invariant(X) != self.iso_invariant(Y):
            return None
        return next((f for f in self._search(X, Y, injective=True) if self.is_iso(f)), None)

    def is_isomorphic(self, X: Obj, Y: Obj) -> bool:
        return self.find_iso(X, Y) is not None
