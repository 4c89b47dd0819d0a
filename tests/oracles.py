"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's search machinery: homs come from
filtering the full function space, factorizations through a morphism from
filtering the product of its fibers, subgroups from filtering inverse-closed
subsets, congruences from filtering all set partitions, the endomorphism
scan from a depth-first assignment over all map families, a unary
algebra's quotient by one identification from coequalizing a pair of homs
out of a chain, and F_q linear algebra from enumeration: spans by closing
under scaled sums, coordinates by trying every coefficient tuple, and
subspaces by spanning every combination of carrier vectors.  The module also
holds fixtures that only tests build, such as a two-sorted groupoid.
"""

import itertools
import math

from finbench.cats import UN, FiniteGroupoid
from finbench.core import Mor, canon, category_of, elem_key
from finbench.perms import (
    all_perms,
    compose_perm,
    identity_perm,
    inverse_perm,
    transpositions,
)


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


def pair_through_chain(X, a, b):
    """Parallel pair u, v from one chain algebra with u(0) = a, v(0) = b.

    A chain with tail t and period p admits a hom picking out any element
    whose own tail is at most t and whose cycle length divides p.
    """
    ta, pa = UN.tail_period(X, a)
    tb, pb = UN.tail_period(X, b)
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
            cur = UN.op(X, cur)
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
    """All partitions compatible with the unary operations (and sorts)."""
    out = []
    for part in set_partitions(list(X.carrier)):
        lookup = {}
        for i, cls in enumerate(part):
            for x in cls:
                lookup[x] = i
        ok = True
        for cls in part:
            sorts = {x[0] for x in cls if isinstance(x, tuple) and len(x) == 2}
            if hasattr(cat, "gpd") and len(sorts) > 1:
                ok = False
                break
            for x in cls:
                for op_id, x2 in cat.op_successors(X, x):
                    y2 = cat.op_apply(X, op_id, cls[0])
                    if lookup[x2] != lookup[y2]:
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


def class_min(spec, t):
    """Least tuple t . s over the spec's group, indexing position by
    position (independent of OrbitSpec.canon_rep)."""
    return min(tuple(t[i] for i in s) for s in spec.group)


def orbit_elements_brute(spec, pool):
    """Class minimum of every injective tuple, in elem_key order."""
    reps = {class_min(spec, t) for t in itertools.permutations(range(pool), spec.n)}
    return tuple(sorted(reps, key=elem_key))


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


def hausdorff_by_definition(space, M, N):
    """Literal max of the two directed point-to-set infima."""
    d = space.d
    forward = max(min(d(x, y) for y in N) for x in M)
    backward = max(min(d(y, x) for x in M) for y in N)
    return max(forward, backward)


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


def presheaf_structure_by_canon(cat, carriers, ops):
    """A presheaf's structure as first built: each operation's pairs through
    canon, then the tagged operations sorted by elem_key over
    (name, pairs)."""
    carrier = canon((s, v) for s, vs in carriers.items() for v in vs)
    tagged = []
    for m, d, c in cat.gpd.mors:
        pairs = [((d, v), (c, ops[m][v])) for s, v in carrier if s == d]
        tagged.append((m, canon(pairs)))
    return ("ops", tuple(sorted(tagged, key=elem_key)))


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


def two_object_iso_groupoid() -> FiniteGroupoid:
    """Connected groupoid on two sorts with trivial vertex groups."""
    mors = (("ia", "a", "a"), ("ib", "b", "b"), ("u", "a", "b"), ("v", "b", "a"))
    comp = (
        (("ia", "ia"), "ia"),
        (("ib", "ib"), "ib"),
        (("u", "ia"), "u"),
        (("ib", "u"), "u"),
        (("v", "ib"), "v"),
        (("ia", "v"), "v"),
        (("v", "u"), "ia"),
        (("u", "v"), "ib"),
    )
    return FiniteGroupoid("pairgpd", ("a", "b"), mors, comp, (("a", "ia"), ("b", "ib")))


# ---------------------------------------------------------------------------
# unary-algebra constructions by definition: sets, unary algebras and
# presheaves, each built through its category's public constructor.  That
# constructor sorts the carrier with canon, so these are also the
# canon-through-obj path that the library's constructions replace by keeping
# the elem_key order of their inputs.


def _is_presheaf(cat):
    return hasattr(cat, "gpd")


def algebra_by_definition(cat, elems, op):
    """The object of cat on elems whose operation m sends x to op(m, x)."""
    elems = list(elems)
    if _is_presheaf(cat):
        carriers = {s: [v for t, v in elems if t == s] for s in cat.gpd.sorts}
        ops = {m: {x[1]: op(m, x)[1] for x in elems if x[0] == d}
               for m, d, _ in cat.gpd.mors}
        return cat.obj(carriers, ops)
    if cat.name == "un":
        return cat.obj(elems, {x: op("op", x) for x in elems})
    return cat.obj(elems)


def restrict_by_definition(cat, X, elems):
    """The subalgebra of X on the closed subset elems."""
    return algebra_by_definition(cat, elems, lambda m, x: cat.op_apply(X, m, x))


def closed_by_definition(cat, X, sub):
    """sub contains the image of each of its elements under every operation."""
    return all(y in sub for x in sub for _, y in cat.op_successors(X, x))


def coproduct_by_definition(cat, objs):
    """(object, injection mappings): summand i tagged by i, with the sort of
    a presheaf element kept outside the tag."""
    def tag(i, x):
        return (x[0], (i, x[1])) if _is_presheaf(cat) else (i, x)

    home = {tag(i, x): (X, i, x) for i, X in enumerate(objs) for x in X.carrier}

    def op(m, e):
        X, i, x = home[e]
        return tag(i, cat.op_apply(X, m, x))

    return algebra_by_definition(cat, home, op), [
        tuple(tag(i, x) for x in X.carrier) for i, X in enumerate(objs)
    ]


def kernel_pair_by_definition(cat, f):
    """(object, first and second projection mappings) on the pairs that f
    identifies; a presheaf pair keeps its common sort outside."""
    def pair(x, y):
        return (x[0], (x[1], y[1])) if _is_presheaf(cat) else (x, y)

    X = f.dom
    home = {pair(x, y): (x, y) for x in X.carrier for y in X.carrier if f(x) == f(y)}

    def op(m, e):
        x, y = home[e]
        return pair(cat.op_apply(X, m, x), cat.op_apply(X, m, y))

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
    rep = {y: min(cls, key=elem_key) for cls in classes for y in cls}
    return quotient_by_definition(cat, f.cod, classes), rep


def quotient_by_definition(cat, Y, classes):
    """Quotient of Y on the elem_key-least member of each class."""
    rep = {x: min(cls, key=elem_key) for cls in classes for x in cls}
    return algebra_by_definition(
        cat, set(rep.values()), lambda m, r: rep[cat.op_apply(Y, m, r)])


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
    return [vec_subspace_mono(cat, W, X) for W in sorted(spans, key=elem_key)]


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
