"""Concrete computable categories: finite sets, directed graphs, unary
algebras and presheaves on a finite groupoid.  The F_q vector spaces are in
finbench.vec, which a process loads only when it uses them.

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
    register_category,
)
from .perms import compose_perm, identity_perm


# ---------------------------------------------------------------------------
# many-sorted unary algebras: the shared construction layer


class UnaryAlgebraCat(Category):
    """Categories of (many-sorted) unary algebras: finite sets, Un and
    presheaves on a finite groupoid.  Coproducts, kernel pairs, images,
    quotients and subalgebras are carrier constructions with the operations
    restricted, written once here through op_successors/op_apply and four
    hooks: _build, _tag, _coproduct_order and _pair.

    Each construction lists its carrier in elem_key order as it builds it,
    so nothing is re-sorted: a subalgebra, an image or a quotient keeps the
    parent's order, and coproducts and kernel pairs come out summand by
    summand and pair by pair, which is the elem_key order of the tags."""

    def _build(self, carrier, op_of) -> Obj:
        """The object on the carrier tuple, already in elem_key order, whose
        operation op_id sends x to op_of(op_id, x); validated as obj does."""
        raise NotImplementedError

    def _tag(self, i, x):
        """Element x of the i-th summand of a coproduct."""
        return (i, x)

    def _coproduct_order(self, objs):
        """The pairs (i, x), x in the i-th summand, in elem_key order of
        their tags: summand by summand."""
        return [(i, x) for i, X in enumerate(objs) for x in X.carrier]

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
        return self._build(carrier, lambda op_id, x: self.op_apply(X, op_id, x))

    def image_obj(self, f):
        return self.subalgebra(f.cod, f.mapping)

    def coproduct(self, objs):
        home = {self._tag(i, x): (objs[i], i, x) for i, x in self._coproduct_order(objs)}

        def op_of(op_id, e):
            X, i, x = home[e]
            return self._tag(i, self.op_apply(X, op_id, x))

        out = self._build(tuple(home), op_of)
        injections = [
            Mor(X, out, tuple(self._tag(i, x) for x in X.carrier))
            for i, X in enumerate(objs)
        ]
        return out, injections

    def quotient_obj(self, X, rep):
        reps = set(rep.values())
        if not X.carrier_set.issuperset(reps):
            raise ValueError("class representatives outside the carrier")
        return self._build(tuple(x for x in X.carrier if x in reps),
                           lambda op_id, r: rep[self.op_apply(X, op_id, r)])

    def kernel_pair(self, f):
        # homs preserve sorts, so f(x) == f(y) already puts x and y in one
        # sort; the nested loop lists the pairs in elem_key order
        X = f.dom
        home = {self._pair(x, y): (x, y) for x in X.carrier for y in X.carrier if f(x) == f(y)}

        def op_of(op_id, e):
            x, y = home[e]
            return self._pair(self.op_apply(X, op_id, x), self.op_apply(X, op_id, y))

        P = self._build(tuple(home), op_of)
        p1 = Mor(P, X, tuple(x for x, _ in home.values()))
        p2 = Mor(P, X, tuple(y for _, y in home.values()))
        return p1, p2

    def subobjects_fg(self, X, bound=None):
        """Subalgebras: the subsets closed under every operation."""
        monos = []
        limit = X.size if bound is None else min(bound, X.size)
        for k in range(limit + 1):
            for sub in itertools.combinations(X.carrier, k):
                sset = set(sub)
                if all(y in sset for x in sub for _, y in self.op_successors(X, x)):
                    monos.append(self.sub_mono(X, self.subalgebra(X, sub)))
        return monos

    def generated_subalgebra(self, X, x):
        """Closure of {x} under every operation."""
        seen = {x}
        frontier = [x]
        while frontier:
            for _, b in self.op_successors(X, frontier.pop()):
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

    def _build(self, carrier, op_of):
        return Obj(self.name, carrier)


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
        target, incident = self.edge_set(Y), {x: set() for x in X.carrier}
        for e in self.edges(X):  # the edges at each vertex, loops included
            incident[e[0]].add(e)
            incident[e[1]].add(e)
        return lambda assign, new: all(
            u not in assign or v not in assign or (assign[u], assign[v]) in target
            for x in new for u, v in incident[x])

    def iso_invariant(self, X):
        es = self.edges(X)
        outd = {v: 0 for v in X.carrier}
        ind = {v: 0 for v in X.carrier}
        for u, v in es:
            outd[u] += 1
            ind[v] += 1
        return (X.size, len(es), tuple(sorted((outd[v], ind[v]) for v in X.carrier)))

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

    def obj(self, elems, op) -> Obj:
        """The algebra on elems whose operation is the callable or dict op."""
        return self._algebra(canon(elems), op if callable(op) else op.get)

    def rebuild(self, carrier, structure) -> Obj:
        return self.obj(carrier, dict(structure[1]))

    def _build(self, carrier, op_of):
        return self._algebra(carrier, lambda x: op_of("op", x))

    def _algebra(self, carrier, op):
        """The algebra on a carrier in elem_key order, checking that op (None
        where undefined) is total on it and stays in it."""
        cset = frozenset(carrier)
        table = {}
        for x in carrier:
            y = op(x)
            if y not in cset:
                raise ValueError("operation not total on carrier")
            table[x] = y
        # distinct first components in carrier order: already canon order
        X = Obj(self.name, carrier, ("op", tuple(table.items())))
        X.__dict__["_carrier_set"] = cset
        X.__dict__["_op_tables"] = {"op": table}
        return X

    def op_tables(self, X):
        return X.__dict__["_op_tables"]  # built by _algebra

    def op(self, X, x):
        return self.op_tables(X)["op"][x]

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
        src, dst = self.op_tables(f.dom)["op"], self.op_tables(f.cod)["op"]
        img = f._lookup
        return all(img[src[x]] == dst[y] for x, y in img.items())

    def iso_invariant(self, X):
        """The size and the sorted multiset of (tail, period) pairs."""
        return (X.size, tuple(sorted(sig[0] for sig in self.cycle_signatures(X).values())))

    def tail_period(self, X, x):
        """(tail, period): the steps from x until the operation enters its
        cycle, and that cycle's length (every finite orbit ends in one);
        read from cycle_signatures."""
        return self.cycle_signatures(X)[x][0]


UN = register_category(UnCat())


@lru_cache(maxsize=64)
def _un_cycle(p: int) -> Obj:
    return UN.obj([(p, i) for i in range(p)], lambda e: (e[0], (e[1] + 1) % p))


# ---------------------------------------------------------------------------
# presheaves on a finite groupoid, presented as S-sorted unary algebras


class FiniteGroupoid(Value):
    """Finite groupoid: sorts, morphisms (name, dom, cod), composition table.
    The table is checked to be typed, unital, associative and invertible on
    every composable pair.

    Presheaves are encoded as covariant functors on the groupoid (equivalent
    to presheaves, since every morphism is invertible): one carrier per sort
    plus one unary operation per groupoid morphism satisfying
    op_g(op_f(x)) = op_{g o f}(x) and op_id(x) = x.
    """

    _fields = ("name", "sorts", "mors", "comp", "ids")

    def __init__(self, name: str, sorts: tuple, mors: tuple, comp: tuple, ids: tuple):
        # mors: (mor_name, dom_sort, cod_sort); comp: ((g_name, f_name), h_name)
        # with h = g o f; ids: (sort, mor_name)
        self.__dict__.update(name=name, sorts=sorts, mors=mors, comp=comp, ids=ids)
        self.__post_init__()

    def __post_init__(self):
        comp = self.__dict__["_comp"] = dict(self.comp)
        info = {m: (d, c) for m, d, c in self.mors}
        if len(info) != len(self.mors):
            raise ValueError("duplicate morphism name")
        idm = dict(self.ids)
        if any(info.get(idm.get(s)) != (s, s) for s in self.sorts):
            raise ValueError("every sort needs an identity morphism on it")
        for g, gd, gc in self.mors:
            for f, fd, fc in self.mors:
                if fc != gd:
                    continue
                h = comp.get((g, f))
                if h not in info:
                    raise ValueError(f"composite of {g} and {f} is not a morphism")
                if info[h] != (fd, gc):
                    raise ValueError("composition types broken")
        for m, d, c in self.mors:
            if comp[(m, idm[d])] != m or comp[(idm[c], m)] != m:
                raise ValueError("identity law fails")
        for h, hd, _ in self.mors:
            for g, gd, gc in self.mors:
                if gc != hd:
                    continue
                hg = comp[(h, g)]
                for f, _, fc in self.mors:
                    if fc == gd and comp[(hg, f)] != comp[(h, comp[(g, f)])]:
                        raise ValueError("composition is not associative")
        for m, d, c in self.mors:
            if not any(
                info[n] == (c, d) and comp[(n, m)] == idm[d] and comp[(m, n)] == idm[c]
                for n, _, _ in self.mors
            ):
                raise ValueError(f"no inverse for {m}")

    def compose_names(self, g, f):
        return self._comp[(g, f)]


def group_groupoid(name, elements) -> FiniteGroupoid:
    """One-sorted groupoid from a permutation group; a ValueError when the
    elements are not closed under composition."""
    els = sorted(set(elements), key=elem_key)
    n = len(els[0])
    mors = tuple((g, "*", "*") for g in els)
    comp = tuple((((g, f), compose_perm(g, f))) for g in els for f in els)
    return FiniteGroupoid(name, ("*",), mors, comp, (("*", identity_perm(n)),))


class PresheafCat(UnaryAlgebraCat):
    """Presheaves on a finite groupoid; carrier elements are (sort, value)."""

    def __init__(self, gpd: FiniteGroupoid):
        self.gpd = gpd
        self.name = f"psh({gpd.name})"
        self._ids = dict(gpd.ids)
        # operation names in elem_key order, the order of the structure tuple
        self._names = sorted((m for m, _, _ in gpd.mors), key=elem_key)
        self._sorts = sorted(gpd.sorts, key=elem_key)
        self._dom = {m: d for m, d, _ in gpd.mors}
        self._cod = {m: c for m, _, c in gpd.mors}
        # Generators in gpd.mors order: each morphism that the identities,
        # closed under left composition with the generators so far, miss.
        # Every morphism is then a word in the generators after an identity,
        # so by associativity and the identity laws the composition laws
        # with a generator on the left imply all the others, by induction on
        # the word: op_(g o a) op_f = op_g op_a op_f = op_(g o (a o f)).
        self.generators = []
        reached = set(self._ids.values())
        for m, _, _ in gpd.mors:
            if m in reached:
                continue
            self.generators.append(m)
            frontier = list(reached)
            while frontier:
                f = frontier.pop()
                for g in self.generators:
                    if self._cod[f] != self._dom[g]:
                        continue
                    h = gpd.compose_names(g, f)
                    if h not in reached:
                        reached.add(h)
                        frontier.append(h)
        # (g, f, g o f, dom f) for each generator g and each f composable with it
        self._laws = [
            (g, f, gpd.compose_names(g, f), fd)
            for g in self.generators
            for f, fd, fc in gpd.mors
            if fc == self._dom[g]
        ]

    def obj(self, carriers: dict, ops: dict) -> Obj:
        """carriers: sort -> values; ops: mor_name -> {value: value}."""
        def image(m, x):
            given = ops.get(m, {})
            return (self._cod[m], given[x[1]]) if x[1] in given else None

        return self._presheaf(canon((s, v) for s, vs in carriers.items() for v in vs), image)

    def rebuild(self, carrier, structure) -> Obj:
        carriers = {}
        for s, v in carrier:
            carriers.setdefault(s, []).append(v)
        return self.obj(carriers, {m: {x[1]: y[1] for x, y in pairs} for m, pairs in structure[1]})

    def _build(self, carrier, op_of):
        return self._presheaf(carrier, op_of)

    def _presheaf(self, carrier, image):
        """The presheaf on a carrier in elem_key order whose operation m
        sends x to image(m, x), None where undefined; checks totality, that
        each image lies in the carrier at m's codomain sort, and the
        groupoid laws."""
        cset = frozenset(carrier)
        by_sort = {}
        for x in carrier:
            by_sort.setdefault(x[0], []).append(x)
        tables = {}
        for m, d, c in self.gpd.mors:
            table = tables[m] = {}
            for x in by_sort.get(d, ()):
                y = image(m, x)
                if y is None:
                    raise ValueError(f"operation {m} not total")
                if y not in cset or y[0] != c:
                    raise ValueError(f"operation {m} leaves the carrier")
                table[x] = y
        self._check_laws(by_sort, tables)
        # in _names order, as op_tables reads them back from the structure;
        # each table lists the carrier in order: already canon order
        tables = {m: tables[m] for m in self._names}
        tagged = tuple((m, tuple(t.items())) for m, t in tables.items())
        X = Obj(self.name, carrier, ("ops", tagged))
        X.__dict__["_carrier_set"] = cset
        X.__dict__["_op_tables"] = tables
        return X

    def _check_laws(self, by_sort, tables):
        for s, xs in by_sort.items():
            ident = tables[self._ids[s]]
            if any(ident[x] != x for x in xs):
                raise ValueError("identity operation is not the identity")
        for g, f, h, fd in self._laws:
            tg, tf, th = tables[g], tables[f], tables[h]
            if any(tg[tf[x]] != th[x] for x in by_sort.get(fd, ())):
                raise ValueError("composition equation fails")

    def op_tables(self, X):
        return X.__dict__["_op_tables"]  # built by _presheaf

    def op(self, X, mor_name, x):
        return self.op_tables(X)[mor_name].get(x)

    def generator_tables(self, X):
        tables = self.op_tables(X)
        return {m: tables[m] for m in self.generators}

    def preserves_structure(self, f):
        # Naturality on the generators gives it on every composite of them,
        # by the composition laws of f.dom and f.cod, and on the identities
        # because f keeps sorts: every morphism is a word in the generators
        # after an identity (see __init__).
        img = f._lookup
        if any(x[0] != y[0] for x, y in img.items()):
            return False
        dst = self.op_tables(f.cod)
        for m, table in self.generator_tables(f.dom).items():
            target = dst[m]
            if any(img[y] != target.get(img[x]) for x, y in table.items()):
                return False
        return True

    def candidate_targets(self, X, x, Y):
        return [y for y in Y.carrier if y[0] == x[0]]

    def iso_invariant(self, X):
        per_sort = {s: 0 for s in self.gpd.sorts}
        for s, _ in X.carrier:
            per_sort[s] += 1
        return (X.size, tuple(sorted(per_sort.items())))

    def _tag(self, i, x):
        return (x[0], (i, x[1]))

    def _coproduct_order(self, objs):
        # tags (sort, (i, value)): sort by sort, then summand, then value
        return [(i, x) for s in self._sorts for i, X in enumerate(objs)
                for x in X.carrier if x[0] == s]

    def _pair(self, x, y):
        return (x[0], (x[1], y[1]))

def presheaf_cat(gpd: FiniteGroupoid) -> PresheafCat:
    """The registered presheaf category on gpd, built on first request."""
    return register_category(PresheafCat(gpd))


# standard acting groups

TRIVIAL_GPD = group_groupoid("triv", [(0,)])
Z2_GPD = group_groupoid("z2", [(0, 1), (1, 0)])
Z3_GPD = group_groupoid("z3", [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
S3_GPD = group_groupoid("s3", list(itertools.permutations(range(3))))

# registered on import, so that their objects read back from JSON in a
# process that has not built them yet
for _gpd in (TRIVIAL_GPD, Z2_GPD, Z3_GPD, S3_GPD):
    presheaf_cat(_gpd)


def gset_cat(gpd) -> PresheafCat:
    return presheaf_cat(gpd)


def group_elements(gpd: FiniteGroupoid):
    return [m for m, _, _ in gpd.mors]


def gset_free_orbit(cat: PresheafCat, tag=0) -> Obj:
    """Regular action of a one-sorted groupoid on itself."""
    els = group_elements(cat.gpd)
    ops = {g: {(tag, h): (tag, compose_perm(g, h)) for h in els} for g in els}
    return cat.obj({"*": [(tag, h) for h in els]}, ops)


def gset_fixed_point(cat: PresheafCat) -> Obj:
    els = group_elements(cat.gpd)
    ops = {g: {(0, "pt"): (0, "pt")} for g in els}
    return cat.obj({"*": [(0, "pt")]}, ops)


def gset_from_cosets(cat: PresheafCat, subgroup, tag=0) -> Obj:
    """Left translation action on left cosets of the given subgroup."""
    els = group_elements(cat.gpd)
    sub = set(subgroup)
    cosets = {frozenset(compose_perm(x, h) for h in sub) for x in els}
    ops = {
        g: {
            (tag, c): (tag, frozenset(compose_perm(g, x) for x in c)) for c in cosets
        }
        for g in els
    }
    return cat.obj({"*": [(tag, c) for c in cosets]}, ops)


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
        rep = Partition(X.carrier).close(
            [(a, b)], lambda x, y: [(UN.op(X, x), UN.op(X, y))]).reps()
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
