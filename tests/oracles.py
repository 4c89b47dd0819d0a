"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's search machinery: homs come from
filtering the full function space, factorizations through a morphism from
filtering the product of its fibers, subgroups from filtering inverse-closed
subsets, congruences from filtering all set partitions, the endomorphism
scan from a depth-first assignment over all map families, an orbit's tail
and period from applying its operation until an element repeats, a unary
algebra's quotient by one identification from coequalizing a pair of homs
out of a chain, and F_q linear algebra from enumeration: spans by closing
under scaled sums, coordinates by trying every coefficient tuple, and
subspaces by spanning every combination of carrier vectors.  Presheaf laws
are checked on every composable pair, naturality of a map of unary
algebras or presheaves on every operation table read from the structure
tuples, the triangle law of an integer distance matrix by a maximum per
pair of rows, the subset space of a metric space by a fresh build on
every call, a finite set's retraction the same way, the regularity
recipe by a check of every draw, a repeated one too, random G-sets are
drawn by rebuilding each coset orbit on every draw, and the maps of a
subset orbit into a nominal set come from the stabilizer criterion at
the base support, the single-orbit classes from orbits generated by
whole subgroups, and the homs into the prime cycle family from anchor
offsets per component.  Carrier elements
are ordered by one chain of isinstance tests.  The module also holds
test inputs for the live kernels: probe objects, identity and hom functors, the
functor-law check, constant presentations and the maps that evaluations
induce.
"""

import itertools
import math
import random
from operator import sub

from finbench.cats import (
    FINSET,
    UN,
    Z2_GPD,
    gset_cat,
    gset_fixed_point,
    gset_from_cosets,
    random_finset_mor,
    random_un_surjection,
)
from finbench.certs import FAIL, PASS_WITNESSED
from finbench.core import (
    FunctorHandle,
    Mor,
    Partition,
    SymbolicObject,
    canon,
    category_of,
    lookup_category,
)
from finbench.hausdorff import FinMetricSpace, _fold_members
from finbench.nominal import (
    NomMor,
    OrbitSpec,
    orbit_iso_map,
    orbit_map_candidates,
    pn_orbit,
    subgroups_of_Sn,
)
from finbench.perms import (
    all_perms,
    compose_perm,
    identity_perm,
    subgroups_of_sym,
    transposition,
)
from finbench.serialize import mor_to_json
from finbench.strictness import _gset_surjection_sampler, regularity_check
from finbench.superfin import evaluate, presentation
from finbench.symbolic import CYCLE_FAMILY, SymMor, primes_upto


def elem_key_by_isinstance(x):
    """core.elem_key as one chain of isinstance tests, without its dispatch
    on exact types: the order that the library's key must reproduce."""
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        return (2, len(x), tuple(elem_key_by_isinstance(y) for y in x))
    if isinstance(x, frozenset):
        return (3, len(x), tuple(sorted(elem_key_by_isinstance(y) for y in x)))
    raise TypeError(f"unsupported carrier element: {x!r}")


def brute_homs(X, Y):
    """Every function on carriers, kept when the Mor constructor accepts it."""
    out = []
    for images in itertools.product(Y.carrier, repeat=X.size):
        try:
            out.append(Mor(X, Y, images))
        except ValueError:
            continue
    return out


def factorizations_by_fibers(f, g):
    """Every q with g . q = f: each combination of per-element fibers of g
    over f, in product order, kept when the Mor constructor accepts it.  g
    may land in a symbolic object."""
    look = dict(zip(g.dom.carrier, g.mapping))
    fibers = [[d for d in g.dom.carrier if look[d] == f(x)] for x in f.dom.carrier]
    out = []
    for combo in itertools.product(*fibers):
        try:
            out.append(Mor(f.dom, g.dom, combo))
        except ValueError:
            continue
    return out


def orbit_by_iteration(table, x):
    """(tail, period) of x under the operation table {x: op(x)}, by applying
    it until an element repeats."""
    seen = []
    while x not in seen:
        seen.append(x)
        x = table[x]
    return seen.index(x), len(seen) - seen.index(x)


def pair_through_chain(X, a, b):
    """Parallel pair u, v from one chain algebra with u(0) = a, v(0) = b.

    A chain with tail t and period p admits a hom picking out any element
    whose own tail is at most t and whose cycle length divides p.
    """
    op = UN.op_tables(X)["op"]
    ta, pa = orbit_by_iteration(op, a)
    tb, pb = orbit_by_iteration(op, b)
    t = max(ta, tb)
    p = pa * pb // math.gcd(pa, pb)
    total = t + p
    chain = UN.obj(
        range(total), {i: (i + 1 if i + 1 < total else t) for i in range(total)}
    )

    def walk(start):
        images = {}
        cur = start
        for i in range(total):
            images[i] = cur
            cur = op[cur]
        return images

    return UN.mor(chain, X, walk(a)), UN.mor(chain, X, walk(b))


def brute_subgroups(n):
    """Inverse-closed, identity-containing, Lagrange-sized subsets that are
    closed under composition."""
    perms = all_perms(n)
    order = len(perms)
    ident = identity_perm(n)
    involutions = [p for p in perms if p != ident and inverse_perm(p) == p]
    proper_pairs = []
    seen = set()
    for p in perms:
        if p == ident or p in seen or inverse_perm(p) == p:
            continue
        seen.add(p)
        seen.add(inverse_perm(p))
        proper_pairs.append((p, inverse_perm(p)))
    divisors = {d for d in range(1, order + 1) if order % d == 0}
    found = []
    for r in range(len(involutions) + 1):
        for invs in itertools.combinations(involutions, r):
            base = 1 + len(invs)
            for s in range(len(proper_pairs) + 1):
                if base + 2 * s not in divisors:
                    continue
                for pairs in itertools.combinations(proper_pairs, s):
                    members = {ident, *invs}
                    for a, b in pairs:
                        members.add(a)
                        members.add(b)
                    if _closed(members):
                        found.append(frozenset(members))
    return found


def _closed(members):
    for a in members:
        for b in members:
            if compose_perm(a, b) not in members:
                return False
    return True


def inverse_perm(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def is_subgroup(els, n):
    els = set(els)
    if identity_perm(n) not in els:
        return False
    for a in els:
        if inverse_perm(a) not in els:
            return False
        for b in els:
            if compose_perm(a, b) not in els:
                return False
    return True


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, cls in enumerate(smaller):
            yield smaller[:i] + [[head] + cls] + smaller[i + 1:]
        yield [[head]] + smaller


def brute_congruences(cat, X):
    """All partitions compatible with the unary operations."""
    tables = cat.op_tables(X).values()
    out = []
    for part in set_partitions(list(X.carrier)):
        lookup = {}
        for i, cls in enumerate(part):
            for x in cls:
                lookup[x] = i
        ok = True
        for cls in part:
            for x in cls:
                for t in tables:
                    if lookup[t[x]] != lookup[t[cls[0]]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(frozenset(c) for c in part))
    return out


def subgroups_conjugacy_classes(n):
    """Subgroup count up to conjugation, using the subset oracle."""
    subs = brute_subgroups(n)
    perms = all_perms(n)
    classes = []
    for H in subs:
        if any(
            frozenset(compose_perm(compose_perm(g, h), inverse_perm(g)) for h in H) == K
            for K in classes
            for g in perms
        ):
            continue
        classes.append(H)
    return classes


def single_orbit_enumerate_whole(n):
    """The single-orbit classification with every element of each subgroup
    as the orbit's generators (the first formulation of
    nominal.single_orbit_enumerate): one OrbitSpec per class, in the order
    of subgroups_of_Sn, deduplicated by orbit_iso_map."""
    out = []
    for H in subgroups_of_Sn(n):
        spec = OrbitSpec(n, tuple(H))
        if not any(orbit_iso_map(spec, seen) is not None for seen in out):
            out.append(spec)
    return out


def class_min(spec, t):
    """Least tuple t . s over the spec's group, indexing position by
    position (independent of OrbitSpec.canon_rep)."""
    return min(tuple(t[i] for i in s) for s in spec.group)


def orbit_elements_brute(spec, pool):
    """Class minimum of every injective tuple, in elem_key order."""
    reps = {class_min(spec, t) for t in itertools.permutations(range(pool), spec.n)}
    return tuple(sorted(reps, key=elem_key_by_isinstance))


def transpositions(n):
    return [transposition(n, a, b) for a in range(n) for b in range(a + 1, n)]


def orbit_iso_map_transpositions(a, b, pool=None):
    """Equivariant bijection between single orbits, or None: the seed image
    propagated along every pool transposition over brute element sets,
    acting by class minima."""
    if a.n != b.n or len(a.group) != len(b.group):
        return None
    pool = pool or max(a.default_pool(), b.default_pool())
    els_a = orbit_elements_brute(a, pool)
    els_b = orbit_elements_brute(b, pool)
    if len(els_a) != len(els_b):
        return None

    def act(spec, tau, e):
        return class_min(spec, tuple(tau[x] for x in e))

    e0 = els_a[0]
    taus = transpositions(pool)
    for cand in els_b:
        if frozenset(cand) != frozenset(e0):
            continue
        mapping = {e0: cand}
        stack = [e0]
        ok = True
        while stack and ok:
            e = stack.pop()
            for tau in taus:
                e2 = act(a, tau, e)
                img2 = act(b, tau, mapping[e])
                if e2 in mapping:
                    if mapping[e2] != img2:
                        ok = False
                        break
                else:
                    mapping[e2] = img2
                    stack.append(e2)
        if ok and len(mapping) == len(els_a) and len(set(mapping.values())) == len(els_b):
            return mapping
    return None


def triangle_by_pairs(rows):
    """Whether the integer distance matrix rows satisfies the triangle law,
    one pair of rows at a time: d(i, j) <= d(i, k) + d(k, j) for every j
    exactly when max_j (d(i, j) - d(k, j)) <= d(i, k)."""
    for row_i in rows:
        for d_ik, row_k in zip(row_i, rows):
            if max(map(sub, row_i, row_k)) > d_ik:
                return False
    return True


def hausdorff_by_definition(space, M, N):
    """Literal max of the two directed point-to-set infima."""
    d = space.d
    forward = max(min(d(x, y) for y in N) for x in M)
    backward = max(min(d(y, x) for x in M) for y in N)
    return max(forward, backward)


def subset_space_unkept(space):
    """hausdorff.subset_space as a fresh build on every call, kept nowhere:
    the subsets as index tuples in combinations order, their distances to
    each point folded by min, and the directed distances by max."""
    subs = [
        c for r in range(1, space.size + 1)
        for c in itertools.combinations(range(space.size), r)
    ]
    near = _fold_members(min, subs, space.rows)
    far = _fold_members(max, subs, list(zip(*near)))
    table = [list(map(max, row, col)) for row, col in zip(far, zip(*far))]
    points = tuple(frozenset(map(space.points.__getitem__, c)) for c in subs)
    return FinMetricSpace.from_ints(points, space.den, table)


def retraction_unkept(b):
    """FinSetCat.retraction as a fresh build on every call, kept nowhere:
    the subset on b's image, or on the least point when the image is
    empty, and the map that sends the rest to the subset's least point."""
    A = b.cod
    keep = set(b.mapping) or set(A.carrier[:1])
    B = FINSET.subalgebra(A, keep)
    f = FINSET.mor(A, B, {a: a if a in keep else B.carrier[0] for a in A.carrier})
    return FINSET.sub_mono(A, B), f


def regularity_every_draw(seed, count, check=regularity_check):
    """The regularity recipe's (verdict, witness) with check run on every
    draw, a repeated one too: the first draw that check refuses fails."""
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
            if not check(f):
                return FAIL, {"category": catname, "morphism": mor_to_json(f)}
            checked[catname] += 1
    return PASS_WITNESSED, {"mode": "coequalizer-of-kernel-pair", "checked": checked}


def powfin_endo_dfs(m):
    """Complete depth-first scan over all families of self-maps of the
    nonempty-subset functor values, pruned by naturality squares whose
    entries are already assigned."""
    carriers = {}
    for k in range(m + 1):
        subs = []
        for r in range(1, k + 1):
            subs.extend(frozenset(c) for c in itertools.combinations(range(k), r))
        carriers[k] = subs
    maps = {
        (i, j): [tuple(g) for g in itertools.product(range(j), repeat=i)]
        for i in range(m + 1)
        for j in range(m + 1)
    }
    slots = [(k, s) for k in range(m + 1) for s in carriers[k]]
    results = []

    def img(g, s):
        return frozenset(g[i] for i in s)

    def consistent(assign, k, s):
        for (i, j), gs in maps.items():
            for g in gs:
                # square at argument t: alpha_j(img(g, t)) == img(g, alpha_i(t))
                for t in carriers[i]:
                    lhs_key = (j, img(g, t))
                    rhs_key = (i, t)
                    if lhs_key in assign and rhs_key in assign:
                        if assign[lhs_key] != img(g, assign[rhs_key]):
                            return False
        return True

    def extend(pos, assign):
        if pos == len(slots):
            results.append(dict(assign))
            return
        k, s = slots[pos]
        for choice in carriers[k]:
            assign[(k, s)] = choice
            if consistent(assign, k, s):
                extend(pos + 1, assign)
            del assign[(k, s)]

    extend(0, {})
    out = []
    for assign in results:
        fam = {}
        for k in range(m + 1):
            fam[k] = {s: assign[(k, s)] for s in carriers[k]}
        out.append(fam)
    return out


def presheaf_structure_by_canon(cat, values, ops):
    """A G-set's structure as first built: each operation's pairs through
    canon, then the tagged operations sorted by elem_key over
    (element, pairs)."""
    tagged = [(g, canon((("*", v), ("*", ops[g][v])) for v in values))
              for g in cat.group.elements]
    return ("ops", tuple(sorted(tagged, key=elem_key_by_isinstance)))


def unary_structure_by_canon(elems, op):
    """A unary algebra's structure as first built, through canon."""
    return ("op", canon((x, op[x]) for x in canon(elems)))


def equivalence_from_subgroup_by_index(S, n):
    """t ~ u iff t . sigma = u for some sigma in S, indexing t position by
    position (the first formulation of nominal.equivalence_from_subgroup)."""
    S = set(S)

    def eq(t, u):
        return any(tuple(t[s[i]] for i in range(n)) == tuple(u) for s in S)

    return eq


def presheaf_laws_broken(group, values, ops):
    """The action laws that total operation tables break: ("id", e) when
    the identity e moves a value, and (g, f) for every pair of elements
    with op_g(op_f(x)) != op_(g o f)(x) for some x.  ops maps a group
    element to {value: value}, as PresheafCat.obj takes it."""
    e = identity_perm(len(group.elements[0]))
    broken = [("id", e)] if any(ops[e][x] != x for x in values) else []
    for g in group.elements:
        for f in group.elements:
            if any(ops[g][ops[f][x]] != ops[compose_perm(g, f)][x] for x in values):
                broken.append((g, f))
    return broken


def _structure_tables(X):
    """{op: {x: op(x)}} read from X's structure tuple: ("op", pairs) for a
    unary algebra, ("ops", ((g, pairs), ...)) for a G-set."""
    kind, body = X.structure
    if kind == "op":
        return {"op": dict(body)}
    return {m: dict(pairs) for m, pairs in body}


def natural_on_all_tables(X, Y, mapping):
    """Whether mapping, aligned with X's carrier, commutes with every
    operation of the unary algebras or G-sets X and Y, each table read
    from the objects' structure tuples."""
    look = dict(zip(X.carrier, mapping))
    target = _structure_tables(Y)
    return all(look[ox] == target[m].get(look[x])
               for m, table in _structure_tables(X).items() for x, ox in table.items())


def random_gset(rng, cat, subgroups, max_size=8):
    """Random disjoint union of coset actions with carrier at most max_size,
    each orbit built afresh: the reference for cats.gset_sampler's draws and
    rng use."""
    parts = []
    total = 0
    tag = 0
    while True:
        H = subgroups[rng.randrange(len(subgroups))]
        orbit = gset_from_cosets(cat, H, tag)
        if total + orbit.size > max_size:
            break
        parts.append(orbit)
        total += orbit.size
        tag += 1
        if total == max_size or rng.random() < 0.3:
            break
    if not parts:
        return gset_fixed_point(cat)
    out, _ = cat.coproduct(parts)
    return out


def finset_probes(max_size):
    """The finite sets 0, 1, ..., max_size, as probes for universal
    properties and cancellation."""
    return [FINSET.obj(range(k)) for k in range(max_size + 1)]


def presheaf_terminal(cat):
    """One point, fixed by every operation."""
    return cat.obj([0], {g: {0: 0} for g in cat.group.elements})


def un_has_fixed_point(X):
    op = UN.op_tables(X)["op"]
    return any(op[x] == x for x in X.carrier)


def homs_into_cycle_family_by_offsets(A, window):
    """(homs, complete) for A into the prime cycle family without the hom
    search: per weak component, the offsets of its elements from an anchor
    along the operation, and one hom per choice of a target point (q, r) for
    each anchor, q a prime in the window dividing the component's cycle
    length.  Complete unless a prime outside the window divides a cycle
    length of a component met before one with no target."""
    comps = _un_components(A)
    per_comp = []
    complete = True
    for elems, cycle_len in comps:
        targets = []
        for q in primes_upto(window):
            if cycle_len % q == 0:
                targets.extend((q, r) for r in range(q))
        if any(p > window for p in _prime_divisors(cycle_len)):
            complete = False
        if not targets:
            return [], complete
        per_comp.append((_offsets_to_cycle(A, elems), targets))
    homs = []
    for combo in itertools.product(*(t for _, t in per_comp)):
        mapping = {}
        for (offsets, _), (q, r) in zip(per_comp, combo):
            for v, off in offsets.items():
                mapping[v] = (q, (r + off) % q)
        homs.append(SymMor(A, CYCLE_FAMILY, tuple(mapping[v] for v in A.carrier)))
    return homs, complete


def _prime_divisors(n):
    return [p for p in primes_upto(n) if n % p == 0]


def _un_components(A):
    """Weak components of a unary algebra with their unique cycle length."""
    op = UN.op_tables(A)["op"]
    part = Partition(A.carrier)
    for x in A.carrier:
        part.union(x, op[x])
    return [(sorted(elems, key=elem_key_by_isinstance), UN.tail_period(A, elems[0])[1])
            for elems in part.classes()]


def _offsets_to_cycle(A, component):
    """Offsets o(v) with f(v) = rotate(f(anchor), o(v)) for any hom into a
    cycle; well defined since the target operation is invertible."""
    op = UN.op_tables(A)["op"]
    anchor = component[0]
    members = set(component)
    offsets = {anchor: 0}
    frontier = [anchor]
    while frontier:
        a = frontier.pop()
        b = op[a]
        if b not in offsets:
            offsets[b] = offsets[a] + 1
            frontier.append(b)
        # backward edges
        for c in component:
            if op[c] == a and c not in offsets:
                offsets[c] = offsets[a] - 1
                frontier.append(c)
    if set(offsets) != members:
        raise ValueError("offsets requested across components")
    return offsets


def identity_functor(cat_name):
    return FunctorHandle(f"identity:{cat_name}", cat_name, cat_name, lambda X: X, lambda f: f)


def hom_functor(cat_name, A):
    """The covariant hom functor from a finite object, into finite sets,
    acting on maps by postcomposition."""
    src = lookup_category(cat_name)

    def on_obj(X):
        return FINSET.obj(h.mapping for h in src.hom_set(A, X))

    def on_mor(f):
        return FINSET.mor(on_obj(f.dom), on_obj(f.cod),
                          lambda h: src.compose(f, Mor(A, f.dom, h)).mapping)

    return FunctorHandle(f"hom({cat_name},{A.size})", cat_name, FINSET.name, on_obj, on_mor)


def functor_laws_hold(F, composable_pairs):
    """F(id) = id and F(g . f) = F(g) . F(f) on the given pairs (g, f)."""
    src, tgt = lookup_category(F.source), lookup_category(F.target)
    for g, f in composable_pairs:
        for X in (f.dom, f.cod, g.cod):
            if F.on_mor(src.identity(X)) != tgt.identity(F.on_obj(X)):
                return False
        if F.on_mor(src.compose(g, f)) != tgt.compose(F.on_mor(g), F.on_mor(f)):
            return False
    return True


def constant_presentation(n, elems):
    """The constant set functor on elems, presented up to level n."""
    elems = tuple(elems)
    return presentation(n, [elems] * (n + 1), lambda g, k, k2, q: q)


def induced_map(ev_x, ev_y, h):
    """The map of evaluations that a map h: X -> Y (a dict) induces, by
    postcomposing the f component of each class representative (k, q, f)."""
    return FINSET.mor(FINSET.obj(ev_x.reps), FINSET.obj(ev_y.reps),
                      lambda rep: ev_y.class_of(rep[0], rep[1], tuple(h[v] for v in rep[2])))


def kan_functor(pres):
    """The finite-set endofunctor that evaluates a presentation."""

    def on_mor(f):
        return induced_map(evaluate(pres, f.dom.carrier), evaluate(pres, f.cod.carrier),
                           dict(zip(f.dom.carrier, f.mapping)))

    return FunctorHandle("kan-extension", FINSET.name, FINSET.name,
                         lambda X: FINSET.obj(evaluate(pres, X.carrier).reps), on_mor)


def hom_exists_Pn(n: int, X) -> bool:
    """An equivariant map from the n-subset orbit into X exists iff some
    element can receive the base n-subset: support inside it and fixed by
    its setwise stabilizer (the search that nominal.nom_counterexample's
    rule replaces)."""
    if isinstance(X, SymbolicObject):
        if X.kind == "p_subset_family":
            return True  # the n-subset orbit itself receives the identity
        raise ValueError(f"no hom procedure for {X.kind}")
    return bool(orbit_map_candidates(pn_orbit(n), X, max(2 * n + 2, X.default_pool())))


def nom_identity(X, pool):
    """The identity of a nominal set: each orbit's base representative goes
    to itself."""
    return NomMor(X, X, tuple((i, o.canon_rep(tuple(range(o.n))))
                              for i, o in enumerate(X.orbits)), pool)


# ---------------------------------------------------------------------------
# unary-algebra constructions by definition: sets, unary algebras and
# presheaves, each built through its category's public constructor.  That
# constructor sorts the carrier with canon, so these are also the
# canon-through-obj path that the library's constructions replace by keeping
# the elem_key order of their inputs.


def _is_presheaf(cat):
    return hasattr(cat, "group")


def algebra_by_definition(cat, elems, op):
    """The object of cat on elems whose operation m sends x to op(m, x)."""
    elems = list(elems)
    if _is_presheaf(cat):
        return cat.obj([x[1] for x in elems],
                       {g: {x[1]: op(g, x)[1] for x in elems} for g in cat.group.elements})
    if cat.name == "un":
        return cat.obj(elems, {x: op("op", x) for x in elems})
    return cat.obj(elems)


def restrict_by_definition(cat, X, elems):
    """The subalgebra of X on the closed subset elems."""
    tables = cat.op_tables(X)
    return algebra_by_definition(cat, elems, lambda m, x: tables[m][x])


def closed_by_definition(cat, X, sub):
    """sub contains the image of each of its elements under every operation."""
    return all(t[x] in sub for x in sub for t in cat.op_tables(X).values())


def coproduct_by_definition(cat, objs):
    """(object, injection mappings): summand i tagged by i, with the "*" of
    a G-set element kept outside the tag."""
    def tag(i, x):
        return (x[0], (i, x[1])) if _is_presheaf(cat) else (i, x)

    home = {tag(i, x): (X, i, x) for i, X in enumerate(objs) for x in X.carrier}

    def op(m, e):
        X, i, x = home[e]
        return tag(i, cat.op_tables(X)[m][x])

    return algebra_by_definition(cat, home, op), [
        tuple(tag(i, x) for x in X.carrier) for i, X in enumerate(objs)
    ]


def kernel_pair_by_definition(cat, f):
    """(object, first and second projection mappings) on the pairs that f
    identifies; a G-set pair keeps its "*" outside."""
    def pair(x, y):
        return (x[0], (x[1], y[1])) if _is_presheaf(cat) else (x, y)

    X = f.dom
    home = {pair(x, y): (x, y) for x in X.carrier for y in X.carrier if f(x) == f(y)}

    def op(m, e):
        x, y = home[e]
        t = cat.op_tables(X)[m]
        return pair(t[x], t[y])

    P = algebra_by_definition(cat, home, op)
    return (P, tuple(home[e][0] for e in P.carrier),
            tuple(home[e][1] for e in P.carrier))


def image_by_definition(cat, f):
    """The subalgebra of cod f on the values of f."""
    return restrict_by_definition(cat, f.cod, set(f.mapping))


def coequalizer_by_definition(cat, f, g):
    """(quotient object, class representative of each element of cod f):
    the classes of the equivalence generated by f(x) ~ g(x), merged as sets
    pair by pair; that equivalence is already a congruence, since f and g
    commute with every operation."""
    classes = [{y} for y in f.cod.carrier]
    for x in f.dom.carrier:
        a = next(c for c in classes if f(x) in c)
        b = next(c for c in classes if g(x) in c)
        if a is not b:
            a |= b
            classes.remove(b)
    rep = {y: min(cls, key=elem_key_by_isinstance) for cls in classes for y in cls}
    return quotient_by_definition(cat, f.cod, classes), rep


def quotient_by_definition(cat, Y, classes):
    """Quotient of Y on the elem_key-least member of each class."""
    rep = {x: min(cls, key=elem_key_by_isinstance) for cls in classes for x in cls}
    return algebra_by_definition(
        cat, set(rep.values()), lambda m, r: rep[cat.op_tables(Y)[m][r]])


def subalgebras_by_definition(cat, X, bound=None):
    """Inclusions of the closed subsets, by size and then in combinations
    order of the carrier."""
    limit = X.size if bound is None else min(bound, X.size)
    return [
        Mor(restrict_by_definition(cat, X, sub), X, sub)
        for k in range(limit + 1)
        for sub in itertools.combinations(X.carrier, k)
        if closed_by_definition(cat, X, set(sub))
    ]


def generated_by_definition(cat, X, x):
    """The least closed subset containing x, among all closed subsets."""
    closed = [
        set(sub)
        for k in range(1, X.size + 1)
        for sub in itertools.combinations(X.carrier, k)
        if x in sub and closed_by_definition(cat, X, set(sub))
    ]
    return restrict_by_definition(cat, X, min(closed, key=len))


# ---------------------------------------------------------------------------
# F_q vector spaces: linearity by definition, and spans, coordinates and
# subspaces by enumeration, with maps built vector by vector


def linear_by_definition(cat, X, Y, images):
    """The map sending X.carrier[i] to images[i] is additive and homogeneous."""
    f = dict(zip(X.carrier, images))
    return all(
        f[cat.add(u, v)] == cat.add(f[u], f[v]) for u in X.carrier for v in X.carrier
    ) and all(
        f[cat.scale(c, u)] == cat.scale(c, f[u]) for c in range(cat.q) for u in X.carrier
    )


def vec_combination(cat, coeffs, vectors, dim):
    """sum_i coeffs[i] * vectors[i], added up one scaled vector at a time."""
    out = cat.zero(dim)
    for c, v in zip(coeffs, vectors):
        out = cat.add(out, cat.scale(c, v))
    return out


def vec_span(cat, vectors, dim):
    """All vectors in the span: zero, closed in turn under adding each
    multiple of each vector."""
    out = {cat.zero(dim)}
    for v in vectors:
        out = {cat.add(u, cat.scale(c, v)) for u in out for c in range(cat.q)}
    return canon(out)


def vec_coords(cat, basis, v, dim):
    """Coordinates of v in an independent basis: the coefficient tuple, out
    of all q^k of them, whose combination is v."""
    for coeffs in itertools.product(range(cat.q), repeat=len(basis)):
        if vec_combination(cat, coeffs, basis, dim) == v:
            return coeffs
    raise ValueError("vector outside span")


def vec_greedy_basis(cat, vectors, dim, basis=()):
    """Extend basis by each of vectors, in turn, outside the span so far."""
    out = list(basis)
    for v in vectors:
        if v not in vec_span(cat, out, dim):
            out.append(v)
    return out


def vec_rref_basis(W):
    """The reduced echelon basis of the subspace with elements W: the pivots
    are the leading positions of nonzero vectors of W, and the row at pivot p
    is the one vector of W with a 1 at p and a 0 at every other pivot."""
    pivots = sorted({next(i for i, a in enumerate(w) if a) for w in W if any(w)})
    return [
        next(w for w in W if w[p] == 1 and all(w[o] == 0 for o in pivots if o != p))
        for p in pivots
    ]


def vec_subspace_mono(cat, W, X):
    """The embedding of F_q^r onto the subspace W of X by its reduced
    echelon basis."""
    rows = vec_rref_basis(W)
    dim = cat.dim(X)
    return cat.mor(cat.obj(len(rows)), X, lambda u: vec_combination(cat, u, rows, dim))


def vec_subspaces_by_combinations(cat, X):
    """subobjects_fg of X: the span of every combination of at most dim(X)
    carrier vectors, once per subspace, in elem_key order of the spans."""
    dim = cat.dim(X)
    spans = {
        vec_span(cat, vecs, dim)
        for r in range(dim + 1)
        for vecs in itertools.combinations(X.carrier, r)
    }
    return [vec_subspace_mono(cat, W, X) for W in sorted(spans, key=elem_key_by_isinstance)]


def vec_standard(dim):
    """The standard basis vectors of F_q^dim."""
    return [tuple(int(j == i) for j in range(dim)) for i in range(dim)]


def vec_projection_pointwise(cat, sub_mono):
    """projection_onto: each vector's coordinates, found by search, in the
    subspace basis extended greedily by standard vectors."""
    X = sub_mono.cod
    dim = cat.dim(X)
    basis = [sub_mono(e) for e in vec_standard(cat.dim(sub_mono.dom))]
    full = vec_greedy_basis(cat, vec_standard(dim), dim, basis)
    return cat.mor(X, sub_mono.dom, lambda v: vec_coords(cat, full, v, dim)[: len(basis)])


def vec_coequalizer_pointwise(cat, f, g):
    """coequalizer: each vector's coordinates, found by search, along the
    standard vectors that greedily extend a basis of the span of the
    differences f(u) - g(u)."""
    dimc = cat.dim(f.cod)
    diffs = [cat.add(f(u), cat.scale(cat.q - 1, g(u))) for u in f.dom.carrier]
    wbasis = vec_greedy_basis(cat, diffs, dimc)
    full = vec_greedy_basis(cat, vec_standard(dimc), dimc, wbasis)
    return cat.mor(
        f.cod, cat.obj(len(full) - len(wbasis)),
        lambda v: vec_coords(cat, full, v, dimc)[len(wbasis):],
    )


def vec_factorize_pointwise(cat, f):
    """factorize: the image embedded by its reduced echelon basis, and each
    image vector's coordinates in that basis found by search."""
    dimc = cat.dim(f.cod)
    m = vec_subspace_mono(cat, vec_span(cat, f.mapping, dimc), f.cod)
    basis = [m(e) for e in vec_standard(cat.dim(m.dom))]
    return cat.mor(f.dom, m.dom, lambda u: vec_coords(cat, basis, f(u), dimc)), m
