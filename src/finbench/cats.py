"""Concrete computable categories: finite sets, directed graphs, unary
algebras and the actions of a finite group (G-sets).  The F_q vector spaces
are in finbench.vec, which a process loads only when it uses them.

Objects are finite carrier presentations (see core.Obj); each category wires
its structure into the generic hom/factorization/colimit machinery.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .core import (
    Category,
    Mor,
    Obj,
    Partition,
    Value,
    canon,
    elem_key,
    lookup_category,
    register_category,
)
from .perms import closed_under, compose_perm, mulclose


# ---------------------------------------------------------------------------
# unary algebras: the shared construction layer


class UnaryAlgebraCat(Category):
    """Categories of unary algebras: finite sets, Un and the actions of a
    finite group.  Coproducts, kernel pairs, images, quotients and
    subalgebras are carrier constructions with the operations restricted,
    written once here on the operation tables {op_id: {x: op(x)}}, which
    go into _build and come out of op_tables, and two more hooks: _tag and
    _pair.  op_ids names the operations of every object of the category, so
    that an empty coproduct has them too.

    Each construction lists its carrier in elem_key order as it builds it,
    so nothing is re-sorted: a subalgebra, an image or a quotient keeps the
    parent's order, and coproducts and kernel pairs come out summand by
    summand and pair by pair, which is the elem_key order of the tags."""

    op_ids = ()

    def _build(self, carrier, tables) -> Obj:
        """The object on the carrier tuple, already in elem_key order, with
        the operation tables {op_id: {x: op(x)}}, one per op_ids entry and
        each keyed by the carrier in order; validated as obj does."""
        raise NotImplementedError

    def _tag(self, i, x):
        """Element x of the i-th summand of a coproduct."""
        return (i, x)

    def _pair(self, x, y):
        """Element of a kernel pair for x and y with equal images."""
        return (x, y)

    def subalgebra(self, X, elems) -> Obj:
        """The subalgebra of X on elems, a subset closed under every
        operation."""
        keep = set(elems)
        carrier = tuple(x for x in X.carrier if x in keep)
        if len(carrier) != len(keep):
            raise ValueError("subalgebra elements outside the carrier")
        return self._build(carrier, {m: {x: t[x] for x in carrier}
                                     for m, t in self.op_tables(X).items()})

    def image_obj(self, f):
        return self.subalgebra(f.cod, f.mapping)

    def coproduct(self, objs):
        # summand by summand: the elem_key order of the tags
        tags = [{x: self._tag(i, x) for x in X.carrier} for i, X in enumerate(objs)]
        tables = {m: {} for m in self.op_ids}
        for X, tag in zip(objs, tags):
            for m, t in self.op_tables(X).items():
                tables[m].update((e, tag[t[x]]) for x, e in tag.items())
        out = self._build(tuple(e for tag in tags for e in tag.values()), tables)
        injections = [Mor(X, out, tuple(tag.values())) for X, tag in zip(objs, tags)]
        return out, injections

    def quotient_obj(self, X, rep):
        reps = set(rep.values())
        if not X.carrier_set.issuperset(reps):
            raise ValueError("class representatives outside the carrier")
        carrier = tuple(x for x in X.carrier if x in reps)
        return self._build(carrier, {m: {r: rep[t[r]] for r in carrier}
                                     for m, t in self.op_tables(X).items()})

    def kernel_pair(self, f):
        # the nested loop lists the pairs in elem_key order
        X = f.dom
        images = list(zip(X.carrier, f.mapping))
        home = {self._pair(x, y): (x, y)
                for x, fx in images for y, fy in images if fx == fy}
        P = self._build(tuple(home), {
            m: {e: self._pair(t[x], t[y]) for e, (x, y) in home.items()}
            for m, t in self.op_tables(X).items()})
        p1 = Mor(P, X, tuple(x for x, _ in home.values()))
        p2 = Mor(P, X, tuple(y for _, y in home.values()))
        return p1, p2

    def subobjects_fg(self, X, bound=None):
        """Subalgebras: the subsets closed under every operation."""
        tables = self.op_tables(X).values()
        monos = []
        limit = X.size if bound is None else min(bound, X.size)
        for k in range(limit + 1):
            for sub in itertools.combinations(X.carrier, k):
                sset = set(sub)
                if all(t[x] in sset for x in sub for t in tables):
                    monos.append(self.sub_mono(X, self.subalgebra(X, sub)))
        return monos

    def generated_subalgebra(self, X, x):
        """Closure of {x} under every operation."""
        tables = self.op_tables(X).values()
        seen = {x}
        frontier = [x]
        while frontier:
            a = frontier.pop()
            for t in tables:
                b = t[a]
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return self.subalgebra(X, seen)


# ---------------------------------------------------------------------------
# finite sets


class FinSetCat(UnaryAlgebraCat):
    name = "finset"

    def obj(self, elems) -> Obj:
        return Obj(self.name, canon(elems))

    def rebuild(self, carrier, structure) -> Obj:
        """The object obj(...) builds from the arguments that the carrier
        and structure of an object of this category come from."""
        return self.obj(carrier)

    def _build(self, carrier, tables):
        return Obj(self.name, carrier)

    def retraction(self, b):
        """Keeps the image of b, or one point when it is empty, and sends
        the rest to its least point.  Not the orbit fold of psh(triv): that
        gives the same maps up to relabelling, about 10 times slower.

        The pair depends only on b's codomain and image.  It is built on the
        first call for them and kept in the codomain's instance dict under
        "_retractions", a dict keyed by the image as a frozenset, so later
        calls return the same pair.  The slot takes no part in equality; a
        kept pair refers back to its codomain, so the cycle collector frees
        the two together."""
        A = b.cod
        kept = A.__dict__.setdefault("_retractions", {})
        image = frozenset(b.mapping)
        pair = kept.get(image)
        if pair is None:
            keep = image or frozenset(A.carrier[:1])
            B = self.subalgebra(A, keep)
            f = Mor(A, B, tuple(a if a in keep else B.carrier[0] for a in A.carrier))
            pair = kept[image] = (self.sub_mono(A, B), f)
        return pair


FINSET = register_category(FinSetCat())


# ---------------------------------------------------------------------------
# directed graphs (vertex set with an edge relation; loops allowed)


class GraphCat(Category):
    name = "gra"

    def obj(self, vertices, edges) -> Obj:
        vs = canon(vertices)
        es = canon(tuple(e) for e in edges)
        vset = set(vs)
        for u, v in es:
            if u not in vset or v not in vset:
                raise ValueError(f"edge {(u, v)} outside vertex set")
        return Obj(self.name, vs, ("edges", es))

    def rebuild(self, carrier, structure) -> Obj:
        return self.obj(carrier, structure[1])

    def edges(self, X):
        return X.structure[1]

    def edge_set(self, X) -> frozenset:
        """The edges as a frozenset, built once per object and kept on it."""
        es = X.__dict__.get("_edge_set")
        if es is None:
            es = X.__dict__["_edge_set"] = frozenset(X.structure[1])
        return es

    def path(self, k: int) -> Obj:
        """Directed path on vertices 0..k with edges i -> i+1."""
        return self.obj(range(k + 1), [(i, i + 1) for i in range(k)])

    def loop(self) -> Obj:
        return self.obj([0], [(0, 0)])

    def preserves_structure(self, f):
        target, img = self.edge_set(f.cod), f._lookup
        return all((img[u], img[v]) in target for u, v in self.edges(f.dom))

    def relation_check(self, X, Y):
        """The edge check on vertex positions."""
        px, py = self._index(X)[0], self._index(Y)[0]
        target = {(py[u], py[v]) for u, v in self.edges(Y)}
        incident = [set() for _ in X.carrier]  # the edges at each position
        for u, v in self.edges(X):
            incident[px[u]].add((px[u], px[v]))
            incident[px[v]].add((px[u], px[v]))
        return lambda assign, new: all(
            assign[u] is None or assign[v] is None or (assign[u], assign[v]) in target
            for x in new for u, v in incident[x])

    def point_invariants(self, X):
        """{v: (out-degree, in-degree, whether v has a loop)}, built once per
        object and kept on it."""
        keys = X.__dict__.get("_degrees")
        if keys is None:
            outd, ind = dict.fromkeys(X.carrier, 0), dict.fromkeys(X.carrier, 0)
            for u, v in self.edges(X):
                outd[u] += 1
                ind[v] += 1
            edges = self.edge_set(X)
            keys = X.__dict__["_degrees"] = {
                v: (outd[v], ind[v], (v, v) in edges) for v in X.carrier}
        return keys

    def iso_invariant(self, X):
        degrees = sorted(key[:2] for key in self.point_invariants(X).values())
        return (X.size, len(self.edges(X)), tuple(degrees))

    def image_obj(self, f):
        # image edges are f-images of edges, not the induced relation
        return self.obj(f.mapping, [(f(u), f(v)) for u, v in self.edges(f.dom)])

    def coproduct(self, objs):
        vertices, edges = [], []
        for i, X in enumerate(objs):
            vertices.extend((i, v) for v in X.carrier)
            edges.extend(((i, u), (i, v)) for u, v in self.edges(X))
        out = self.obj(vertices, edges)
        injections = [
            Mor(X, out, tuple((i, v) for v in X.carrier)) for i, X in enumerate(objs)
        ]
        return out, injections

    def quotient_obj(self, X, rep):
        return self.obj(
            canon(rep.values()), [(rep[u], rep[v]) for u, v in self.edges(X)]
        )

    def subobjects_fg(self, X, bound=None):
        monos = []
        limit = X.size if bound is None else min(bound, X.size)
        all_edges = self.edges(X)
        for k in range(limit + 1):
            for vs in itertools.combinations(X.carrier, k):
                vset = set(vs)
                avail = [e for e in all_edges if e[0] in vset and e[1] in vset]
                for r in range(len(avail) + 1):
                    for es in itertools.combinations(avail, r):
                        monos.append(self.sub_mono(X, self.obj(vs, es)))
        return monos

    def has_cycle(self, X) -> bool:
        """Directed cycle detection; a finite graph has an infinite path iff
        it has a cycle, iff dropping the vertices with no edge into the rest
        until none is left to drop leaves a vertex."""
        rest = set(X.carrier)
        while True:
            keep = {u for u, v in self.edges(X) if u in rest and v in rest}
            if keep == rest:
                return bool(rest)
            rest = keep


GRA = register_category(GraphCat())


# ---------------------------------------------------------------------------
# unary algebras (one total unary operation)


class UnCat(UnaryAlgebraCat):
    name = "un"
    op_ids = ("op",)

    def obj(self, elems, op) -> Obj:
        """The algebra on elems whose operation is the callable or dict op."""
        carrier = canon(elems)
        op = op if callable(op) else op.get
        return self._build(carrier, {"op": {x: op(x) for x in carrier}})

    def rebuild(self, carrier, structure) -> Obj:
        return self.obj(carrier, dict(structure[1]))

    def _build(self, carrier, tables):
        """The algebra on a carrier in elem_key order with the table
        {"op": {x: op(x)}}, checking that the operation (None where
        undefined) stays in the carrier."""
        cset = frozenset(carrier)
        table = tables["op"]
        if not cset.issuperset(table.values()):
            raise ValueError("operation not total on carrier")
        # distinct first components in carrier order: already canon order
        X = Obj(self.name, carrier, ("op", tuple(table.items())))
        X.__dict__["_carrier_set"] = cset
        X.__dict__["_op_tables"] = tables
        return X

    def op_tables(self, X):
        return X.__dict__["_op_tables"]  # built by _build

    def cycle(self, p: int) -> Obj:
        """Algebra on p elements whose operation is a single p-cycle."""
        return _un_cycle(p)

    def cycles_sum(self, ps) -> Obj:
        """Disjoint union of cycles, kept flat so prefix inclusions are monos."""
        ps = list(ps)
        if len(set(ps)) != len(ps):
            raise ValueError("cycle lengths must be distinct")
        elems = [(p, i) for p in ps for i in range(p)]
        return self.obj(elems, lambda e: (e[0], (e[1] + 1) % e[0]))

    def preserves_structure(self, f):
        # f(op x) and op(f x) for each x in carrier order
        src, dst = self.op_tables(f.dom)["op"], self.op_tables(f.cod)["op"]
        img = f._lookup
        return (list(map(img.__getitem__, map(src.__getitem__, f.dom.carrier)))
                == list(map(dst.__getitem__, f.mapping)))

    def iso_invariant(self, X):
        """The size and the sorted multiset of (tail, period) pairs."""
        return (X.size, tuple(sorted(sig[0] for sig in self._index(X)[2])))

    def tail_period(self, X, x):
        """(tail, period): the steps from x until the operation enters its
        cycle, and that cycle's length (every finite orbit ends in one);
        read from X's index."""
        pos, _, sigs = self._index(X)
        return sigs[pos[x]][0]


UN = register_category(UnCat())


@lru_cache(maxsize=64)
def _un_cycle(p: int) -> Obj:
    return UN.obj([(p, i) for i in range(p)], lambda e: (e[0], (e[1] + 1) % p))


# ---------------------------------------------------------------------------
# actions of a finite permutation group, presented as unary algebras


class FiniteGroup(Value):
    """A finite group of permutations of range(n) in one-line notation: a
    name and its elements in elem_key order, the identity first.  A
    ValueError when the elements are not permutations of one degree or are
    not closed under composition; a finite set of permutations closed under
    composition holds the identity and every inverse, so it is a group.

    Its actions are the presheaves on its one-object groupoid (equivalent,
    since every element is invertible): a carrier plus one unary operation
    per element g, with op_g(op_f(x)) = op_(g o f)(x) and op_e(x) = x.
    """

    _fields = ("name", "elements")

    def __init__(self, name: str, elements):
        self.__dict__.update(name=name, elements=tuple(sorted(set(elements), key=elem_key)))
        self.__post_init__()

    def __post_init__(self):
        els = self.elements
        e = tuple(range(len(els[0]))) if els else ()
        if not els or any(tuple(sorted(g)) != e for g in els):
            raise ValueError(f"{self.name}: the elements are not permutations of one degree")
        if not closed_under(set(els), els, len(e)):
            raise ValueError(f"{self.name}: the elements are not closed under composition")


class PresheafCat(UnaryAlgebraCat):
    """Actions of a finite group: carrier elements are ("*", value), and
    the operations, op_ids, are the group's elements."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.name = f"psh({group.name})"
        self.op_ids = group.elements
        # Generators in element order: each element outside the subgroup that
        # the generators so far generate.  Every element is then a word in
        # the generators, so by associativity and the identity law the
        # composition laws with a generator on the left imply all the others,
        # by induction on the word: op_(g o a) op_f = op_g op_a op_f =
        # op_(g o (a o f)).
        self.generators = []
        for g in group.elements:
            if g not in mulclose(self.generators, len(g)):
                self.generators.append(g)
        # (g, f, g o f) for each generator g and each element f
        self._laws = [(g, f, compose_perm(g, f)) for g in self.generators for f in group.elements]

    def obj(self, values, ops: dict) -> Obj:
        """The action on values in which element g sends v to ops[g][v]."""
        carrier = canon(("*", v) for v in values)
        tables = {}
        for g in self.op_ids:
            try:
                op = ops[g]
                tables[g] = {x: ("*", op[x[1]]) for x in carrier}
            except KeyError:
                raise ValueError(f"operation {g} not total") from None
        return self._build(carrier, tables)

    def rebuild(self, carrier, structure) -> Obj:
        return self.obj([x[1] for x in carrier],
                        {g: {x[1]: y[1] for x, y in pairs} for g, pairs in structure[1]})

    def _build(self, carrier, tables):
        """The action on a carrier in elem_key order with the tables
        {g: {x: g x}}, in element order; checks that each image lies in the
        carrier and the group laws."""
        cset = frozenset(carrier)
        for g, table in tables.items():
            if not cset.issuperset(table.values()):
                raise ValueError(f"operation {g} leaves the carrier")
        # each operation's images, in carrier order
        images = {g: list(map(t.__getitem__, carrier)) for g, t in tables.items()}
        if images[self.group.elements[0]] != list(carrier):
            raise ValueError("identity operation is not the identity")
        for g, f, h in self._laws:
            if list(map(tables[g].__getitem__, images[f])) != images[h]:
                raise ValueError("composition equation fails")
        # each table lists the carrier in order: already canon order
        tagged = tuple((g, tuple(t.items())) for g, t in tables.items())
        X = Obj(self.name, carrier, ("ops", tagged))
        X.__dict__["_carrier_set"] = cset
        X.__dict__["_op_tables"] = tables
        return X

    def op_tables(self, X):
        return X.__dict__["_op_tables"]  # built by _build

    def generator_tables(self, X):
        tables = self.op_tables(X)
        return {g: tables[g] for g in self.generators}

    def preserves_structure(self, f):
        # Naturality on the generators gives it on every element, a word in
        # the generators, by the composition laws of f.dom and f.cod (see
        # __init__).
        # f(g x) and g(f x) for each x in carrier order
        img, dst, xs = f._lookup, self.op_tables(f.cod), f.dom.carrier
        for g, table in self.generator_tables(f.dom).items():
            if (list(map(img.__getitem__, map(table.__getitem__, xs)))
                    != list(map(dst[g].__getitem__, f.mapping))):
                return False
        return True

    def _tag(self, i, x):
        return ("*", (i, x[1]))

    def _pair(self, x, y):
        return ("*", (x[1], y[1]))

    def components(self, X):
        """One generated subalgebra per generation class; they partition the
        carrier and their coproduct is isomorphic to X."""
        comps, seen = [], set()
        for x in X.carrier:
            if x not in seen:
                sub = self.generated_subalgebra(X, x)
                if not seen.isdisjoint(sub.carrier):
                    # group actions give disjoint or equal components
                    raise AssertionError("components are not disjoint")
                seen.update(sub.carrier)
                comps.append(sub)
        return comps

    def retraction(self, b):
        """Keeps the components that meet the image of b and one component
        per other isomorphism class, and folds every other component onto
        the first kept one isomorphic to it."""
        A, image = b.cod, set(b.mapping)
        kept, rest = [], []
        for K in self.components(A):
            (rest if image.isdisjoint(K.carrier) else kept).append(K)
        mapping = {}
        for K in rest:
            for J in kept:
                iso = self.find_iso(K, J)
                if iso is not None:
                    mapping.update((x, iso(x)) for x in K.carrier)
                    break
            else:
                kept.append(K)
        mapping.update((x, x) for J in kept for x in J.carrier)
        Bp = self.subalgebra(A, {x for J in kept for x in J.carrier})
        return self.sub_mono(A, Bp), self.mor(A, Bp, mapping)


def gset_cat(group: FiniteGroup) -> PresheafCat:
    """The registered category of actions of group, built on first request."""
    try:
        return lookup_category(f"psh({group.name})")
    except KeyError:
        return register_category(PresheafCat(group))


# standard acting groups (named for their one-object groupoids)

TRIVIAL_GPD = FiniteGroup("triv", [(0,)])
Z2_GPD = FiniteGroup("z2", [(0, 1), (1, 0)])
Z3_GPD = FiniteGroup("z3", [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
S3_GPD = FiniteGroup("s3", itertools.permutations(range(3)))

# registered on import, so that their objects read back from JSON in a
# process that has not built them yet
for _group in (TRIVIAL_GPD, Z2_GPD, Z3_GPD, S3_GPD):
    gset_cat(_group)


def gset_free_orbit(cat: PresheafCat, tag=0) -> Obj:
    """Regular action of the group on itself."""
    # the elements in elem_key order, all with one tag: a carrier in order
    els = cat.group.elements
    point = {h: ("*", (tag, h)) for h in els}
    return cat._build(tuple(point.values()), {
        g: {x: point[compose_perm(g, h)] for h, x in point.items()} for g in els})


def gset_fixed_point(cat: PresheafCat) -> Obj:
    return cat.obj([(0, "pt")], {g: {(0, "pt"): (0, "pt")} for g in cat.group.elements})


def gset_from_cosets(cat: PresheafCat, subgroup, tag=0) -> Obj:
    """Left translation action on left cosets of the given subgroup: g
    sends xH to (g o x)H, the set of the g o y for y in xH."""
    sub = set(subgroup)
    coset_of, rep = {}, {}  # each element's coset, and a member of each coset
    for x in cat.group.elements:
        c = coset_of[x] = frozenset(compose_perm(x, h) for h in sub)
        rep.setdefault(c, x)
    # The cosets are sets of |H| permutations of one degree, so their
    # elem_key order is the order of their sorted member tuples.
    point = {c: ("*", (tag, c)) for c in sorted(rep, key=sorted)}
    return cat._build(tuple(point.values()), {
        g: {x: point[coset_of[compose_perm(g, rep[c])]] for c, x in point.items()}
        for g in cat.group.elements})


# ---------------------------------------------------------------------------
# samplers


def random_finset_mor(rng, max_dom=4, max_cod=4, surjective=False):
    n = rng.randint(1, max_dom)
    m = rng.randint(1, max_cod)
    X, Y = FINSET.obj(range(n)), FINSET.obj(range(m))
    if surjective:
        if m > n:
            m = n
            Y = FINSET.obj(range(m))
        images = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
        rng.shuffle(images)
        return FINSET.mor(X, Y, dict(enumerate(images)))
    return FINSET.mor(X, Y, {i: rng.randrange(m) for i in range(n)})


def random_un_obj(rng, max_size=5):
    n = rng.randint(1, max_size)
    return UN.obj(range(n), {i: rng.randrange(n) for i in range(n)})


def random_un_surjection(rng):
    """Random surjective unary-algebra hom: the quotient by the least
    congruence that identifies two sampled elements."""
    X = random_un_obj(rng)
    if X.size >= 2:
        a, b = rng.sample(list(X.carrier), 2)
        op = UN.op_tables(X)["op"]
        rep = Partition(X.carrier).close([(a, b)], lambda x, y: [(op[x], op[y])]).reps()
        return UN.mor(X, UN.quotient_obj(X, rep), rep)
    return UN.identity(X)


def gset_sampler(rng, cat: PresheafCat, subgroups, max_size):
    """A function that draws a random disjoint union of coset actions with
    carrier at most max_size.  A draw picks subgroups with rng until the next
    orbit would overflow, the carrier is full or a 0.3 coin stops it.  The
    orbit of each (subgroup, tag) pair is built once and kept by the sampler,
    so the orbits live as long as the sampler does."""
    orbits = {}

    def orbit(i, tag):
        if (i, tag) not in orbits:
            orbits[(i, tag)] = gset_from_cosets(cat, subgroups[i], tag)
        return orbits[(i, tag)]

    def draw():
        parts = []
        total = 0
        while True:
            X = orbit(rng.randrange(len(subgroups)), len(parts))
            if total + X.size > max_size:
                break
            parts.append(X)
            total += X.size
            if total == max_size or rng.random() < 0.3:
                break
        if not parts:
            return gset_fixed_point(cat)
        out, _ = cat.coproduct(parts)
        return out

    return draw
