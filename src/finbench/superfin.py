"""Finitely presented set functors on small cardinals and their evaluation.

A presentation stores the functor's values on the cardinals 0..n together
with its action on every function between them.  Evaluation at an arbitrary
finite set is the colimit formula for the extension to a finitary functor:
elements are triples (level k, value q, map f: k -> X) modulo the zig-zag
closure of (k, q, f o g) ~ (k2, action(g)(q), f) for g: k -> k2.

A functor with such a presentation is super-finitary: the level-n values
cover every evaluation through the canonical surjection (q, f) -> [n, q, f].
The finite power functor has no such bound, which `escaping_element`
certifies with an explicit element that no level-n image reaches.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .certs import FAIL, PASS, PASS_WITNESSED, recipe
from .core import FunctorHandle, Mor, Obj, Partition, Value, elem_key, finite_obj
from .cats import FINSET


def small_maps(k: int, k2: int):
    """All functions k -> k2 as tuples; exactly one empty map when k = 0."""
    return [tuple(m) for m in itertools.product(range(k2), repeat=k)]


class PresentationError(ValueError):
    pass


class SuperFinPresentation(Value):
    _fields = ("n", "values", "action")

    def __init__(self, n: int, values: tuple, action: tuple, table: dict, position: tuple):
        # values[k]: carrier tuple of the level-k value; action: sorted
        # (((k, k2, g), images aligned with values[k]), ...); the same data
        # indexed, built once by presentation(), outside equality: table
        # (k, k2, g) -> images, and position[k]: value -> index in values[k]
        self.__dict__.update(n=n, values=values, action=action, table=table,
                             position=position)

    def __repr__(self):
        sizes = ",".join(str(len(v)) for v in self.values)
        return f"SuperFinPresentation(n={self.n}, sizes=[{sizes}])"


def presentation(n: int, values, act) -> SuperFinPresentation:
    """Build and law-check a presentation.

    ``values``: sequence of carriers for levels 0..n.  ``act``: callable
    (g, k, k2, q) -> image, defined for every g: k -> k2 and q in values[k].
    """
    values = tuple(tuple(v) for v in values)
    if len(values) != n + 1:
        raise PresentationError("need one value carrier per level 0..n")
    position = tuple({q: i for i, q in enumerate(v)} for v in values)
    tables = {}
    for k in range(n + 1):
        for k2 in range(n + 1):
            for g in small_maps(k, k2):
                imgs = tuple(act(g, k, k2, q) for q in values[k])
                if any(y not in position[k2] for y in imgs):
                    raise PresentationError("action leaves the carrier")
                tables[(k, k2, g)] = imgs
    pres = SuperFinPresentation(
        n, values, tuple(sorted(tables.items(), key=lambda kv: elem_key(kv[0]))),
        tables, position,
    )
    _check_laws(pres)
    return pres


def _check_laws(pres: SuperFinPresentation):
    for k in range(pres.n + 1):
        ident = tuple(range(k))
        if pres.table[(k, k, ident)] != pres.values[k]:
            raise PresentationError("identity law fails")
    for k in range(pres.n + 1):
        for k2 in range(pres.n + 1):
            for k3 in range(pres.n + 1):
                for g in small_maps(k, k2):
                    for h in small_maps(k2, k3):
                        hg = tuple(h[g[i]] for i in range(k))
                        for q, img in zip(pres.values[k], pres.table[(k, k2, g)]):
                            via = _apply(pres, k2, k3, h, img)
                            direct = _apply(pres, k, k3, hg, q)
                            if via != direct:
                                raise PresentationError("composition law fails")


def _apply(pres, k, k2, g, q):
    return pres.table[(k, k2, g)][pres.position[k][q]]


# ---------------------------------------------------------------------------
# standard presentations


def truncated_hom(n: int, arity: int) -> SuperFinPresentation:
    """Restriction of the covariant hom functor Set(arity, -) to levels <= n."""
    values = [small_maps(arity, k) for k in range(n + 1)]
    return presentation(
        n, values, lambda g, k, k2, q: tuple(g[q[i]] for i in range(arity))
    )


def truncated_identity(n: int) -> SuperFinPresentation:
    values = [tuple(range(k)) for k in range(n + 1)]
    return presentation(n, values, lambda g, k, k2, q: g[q])


# ---------------------------------------------------------------------------
# evaluation by the colimit formula


class KanEval(Value):
    _fields = ("pres", "X", "reps", "rep_of")
    __hash__ = None  # rep_of is a dict

    def __init__(self, pres: SuperFinPresentation, X: tuple, reps: tuple, rep_of: dict):
        # reps: canonical class representatives (k, q, f); rep_of: every
        # element triple -> its representative
        self.__dict__.update(pres=pres, X=X, reps=reps, rep_of=rep_of)

    def class_of(self, k, q, f):
        return self.rep_of[(k, q, tuple(f))]

    @property
    def size(self):
        return len(self.reps)


def evaluate(pres: SuperFinPresentation, X) -> KanEval:
    """Zig-zag classes of triples (k, q, f: k -> X)."""
    X = tuple(X)
    # listed in elem_key order (k, then q, then f lexicographically over
    # the sorted points), so each class's first member is its least
    xs = sorted(X, key=elem_key)
    elems = []
    for k in range(pres.n + 1):
        for q in sorted(pres.values[k], key=elem_key):
            for f in itertools.product(xs, repeat=k):
                elems.append((k, q, f))
    part = Partition(elems)
    for k in range(pres.n + 1):
        for k2 in range(pres.n + 1):
            for g in small_maps(k, k2):
                for f in itertools.product(X, repeat=k2):
                    fg = tuple(f[g[i]] for i in range(k))
                    for q in pres.values[k]:
                        part.union((k, q, fg), (k2, _apply(pres, k, k2, g, q), f))
    rep_of = part.reps()
    return KanEval(pres, X, tuple(dict.fromkeys(rep_of.values())), rep_of)


def canonical_epsilon(ev: KanEval) -> tuple:
    """The canonical map values[n] x X^n -> ev, for the evaluation ev of a
    presentation at X, as the pairs ((q, f), class rep); raises
    PresentationError unless it is surjective.

    Empty X with positive level bound has no tuples to map; presentations
    whose genuine bound is 0 handle it, anything else is rejected.
    """
    pres, X = ev.pres, ev.X
    if not X and pres.n > 0 and ev.size:
        raise PresentationError("empty set needs a level-0 presentation")
    pairs = []
    hit = set()
    for q in pres.values[pres.n]:
        for f in itertools.product(X, repeat=pres.n):
            rep = ev.class_of(pres.n, q, f)
            pairs.append(((q, f), rep))
            hit.add(rep)
    if hit != set(ev.reps):
        raise PresentationError("canonical surjection misses classes")
    return tuple(pairs)


# ---------------------------------------------------------------------------
# closure operations


def product(p1: SuperFinPresentation, p2: SuperFinPresentation) -> SuperFinPresentation:
    """Pointwise product presented at level n1 + n2."""
    n = p1.n + p2.n
    evs1 = [evaluate(p1, range(k)) for k in range(n + 1)]
    evs2 = [evaluate(p2, range(k)) for k in range(n + 1)]
    values = [
        [(a, b) for a in evs1[k].reps for b in evs2[k].reps] for k in range(n + 1)
    ]

    def act(g, k, k2, q):
        a, b = q
        (ka, qa, fa) = a
        (kb, qb, fb) = b
        ga = tuple(g[v] for v in fa)
        gb = tuple(g[v] for v in fb)
        return (evs1[k2].class_of(ka, qa, ga), evs2[k2].class_of(kb, qb, gb))

    return presentation(n, values, act)


def coproduct(p1: SuperFinPresentation, p2: SuperFinPresentation) -> SuperFinPresentation:
    """Pointwise disjoint union presented at level max(n1, n2)."""
    n = max(p1.n, p2.n)
    evs1 = [evaluate(p1, range(k)) for k in range(n + 1)]
    evs2 = [evaluate(p2, range(k)) for k in range(n + 1)]
    values = [
        [(0, a) for a in evs1[k].reps] + [(1, b) for b in evs2[k].reps]
        for k in range(n + 1)
    ]

    def act(g, k, k2, q):
        side, (kk, qq, ff) = q
        gf = tuple(g[v] for v in ff)
        ev = evs1 if side == 0 else evs2
        return (side, ev[k2].class_of(kk, qq, gf))

    return presentation(n, values, act)


class SubfunctorError(ValueError):
    pass


def subfunctor_pullback(pres: SuperFinPresentation, preds) -> SuperFinPresentation:
    """Restrict a presentation to an action-closed family of level subsets.

    ``preds``: level -> iterable of kept values.  Raises SubfunctorError when
    some action map leaves the family (the subfunctor condition).
    """
    keep = {k: set(preds.get(k, ())) for k in range(pres.n + 1)}
    for k in range(pres.n + 1):
        if not keep[k] <= set(pres.values[k]):
            raise SubfunctorError("predicate outside the presentation values")
    for k in range(pres.n + 1):
        for k2 in range(pres.n + 1):
            for g in small_maps(k, k2):
                for q in keep[k]:
                    if _apply(pres, k, k2, g, q) not in keep[k2]:
                        raise SubfunctorError(
                            f"predicate not closed under the action at {g}: {q}"
                        )
    values = [tuple(v for v in pres.values[k] if v in keep[k]) for k in range(pres.n + 1)]
    return presentation(pres.n, values, lambda g, k, k2, q: _apply(pres, k, k2, g, q))


# ---------------------------------------------------------------------------
# super-finitarity tests on black-box functors


def escaping_element(F: FunctorHandle, n: int, probes):
    """The first element of some F(X), X a probe, that no F(f) for f: n -> X
    reaches, or None when FX is the union of the images Ff[Fn] on every
    probe."""
    Nobj = FINSET.obj(range(n))
    for X in probes:
        FX = F.on_obj(X)
        covered = set()
        for f in itertools.product(X.carrier, repeat=n):
            mor = FINSET.mor(Nobj, X, dict(zip(range(n), f)))
            covered.update(F.on_mor(mor).mapping)
        missing = [x for x in FX.carrier if x not in covered]
        if missing:
            return missing[0]
    return None


# ---------------------------------------------------------------------------
# the finite power functor and its endomorphism scan


# carriers whose values a functor handle keeps
_HANDLE_CACHE_SIZE = 64


def power_functor() -> FunctorHandle:
    """Nonempty finite subsets with direct images."""

    @lru_cache(maxsize=_HANDLE_CACHE_SIZE)
    def power_obj(carrier):
        return Obj(FINSET.name, nonempty_subsets(carrier))

    def on_obj(X: Obj):
        return power_obj(finite_obj(X, "power-finite").carrier)

    def on_mor(f: Mor):
        FX, FY = on_obj(f.dom), on_obj(f.cod)
        return FINSET.mor(FX, FY, lambda s: frozenset(f(x) for x in s))

    return FunctorHandle("power-finite", "finset", "finset", on_obj, on_mor)


def nonempty_subsets(carrier):
    """The nonempty subsets of a canonical carrier as a canonical carrier.

    They are emitted size by size, each size in combinations order.  That is
    elem_key order without a sort: elem_key ranks a frozenset by its size and
    then by its members' keys in ascending order, and combinations of a
    carrier sorted by elem_key come in lexicographic order of those keys.
    The list is sized exactly; a tuple grown from a generator can keep its
    over-allocation, and carriers live as long as their objects."""
    return tuple([
        frozenset(c)
        for r in range(1, len(carrier) + 1)
        for c in itertools.combinations(carrier, r)
    ])


def powfin_endo_probe(m: int):
    """All families (alpha_k : P(k) -> P(k)) for k <= m natural with respect
    to every function between cardinals <= m.

    Naturality along injections k-1 into k forces alpha_k on proper subsets,
    leaving only the full set free; each level's trial is kept only if every
    square between cardinals up to k commutes, so the last level's check
    covers every square and the search stays exhaustive.
    """
    if m > 4:
        raise ValueError("endomorphism probe supported for m <= 4")
    carriers = {k: nonempty_subsets(range(k)) for k in range(m + 1)}

    def direct_image(g, s):
        return frozenset(g[i] for i in s)

    families = [dict()]
    for k in range(m + 1):
        new = []
        for fam in families:
            for cand in _level_candidates(fam, k, carriers, direct_image):
                trial = dict(fam)
                trial[k] = cand
                if _squares_ok(trial, k, carriers, direct_image):
                    new.append(trial)
        families = new
    return [{k: dict(zip(carriers[k], fam[k])) for k in range(m + 1)} for fam in families]


def _level_candidates(fam, k, carriers, direct_image):
    """Candidate tuples for alpha_k: forced on proper subsets via an
    injection from k-1, free on the full set.  A forced value is the direct
    image of a nonempty subset, so it lies in the carrier."""
    carrier = carriers[k]
    if k == 0:
        yield ()
        return
    full = frozenset(range(k))
    prev = dict(zip(carriers[k - 1], fam[k - 1]))
    forced = {}
    for s in carrier:
        if s == full:
            continue
        inj = (tuple(sorted(s)) + tuple(i for i in range(k) if i not in s))[: k - 1]
        pre = frozenset(range(len(s)))
        if direct_image(inj, pre) != s:
            raise AssertionError("injection construction broken")
        forced[s] = direct_image(inj, prev[pre])
    for choice in carrier:
        yield tuple(choice if s == full else forced[s] for s in carrier)


def _squares_ok(fam, upto, carriers, direct_image):
    """Check alpha natural for every g: i -> j with i, j <= upto."""
    for i in range(upto + 1):
        for j in range(upto + 1):
            ai = dict(zip(carriers[i], fam[i]))
            aj = dict(zip(carriers[j], fam[j]))
            for g in small_maps(i, j):
                for s in carriers[i]:
                    lhs = aj[direct_image(g, s)]
                    rhs = direct_image(g, ai[s])
                    if lhs != rhs:
                        return False
    return True


# ---------------------------------------------------------------------------
# recipes: the super-finitary calculus


@recipe("superfin-evaluation", "superfin", limits={"max_size": (0, 32)})
def r_superfin_evaluation(max_size: int = 4):
    P = truncated_hom(2, 2)
    sizes = {}
    for k in range(max_size + 1):
        ev = evaluate(P, range(k))
        sizes[str(k)] = ev.size
        if sizes[str(k)] != k * k:
            return FAIL, {"sizes": sizes, "expected": "k^2"}
        if k:
            canonical_epsilon(ev)  # raises unless surjective
    return PASS_WITNESSED, {"sizes": sizes,
                            "law": "evaluation of truncated Set(2,-) has k^2 classes"}


@recipe("superfin-closure", "superfin", limits={"max_probe": (0, 24)})
def r_superfin_closure(max_probe: int = 3):
    hom2 = truncated_hom(2, 2)
    ident = truncated_identity(1)
    results = {}
    for k in range(max_probe + 1):
        X = range(k)
        results[f"product@{k}"] = [
            evaluate(product(ident, ident), X).size,
            evaluate(ident, X).size ** 2,
        ]
        results[f"coproduct@{k}"] = [
            evaluate(coproduct(ident, ident), X).size,
            2 * evaluate(ident, X).size,
        ]
    constants = {
        0: [],
        1: list(hom2.values[1]),
        2: [q for q in hom2.values[2] if q[0] == q[1]],
    }
    sub = subfunctor_pullback(hom2, constants)
    for k in range(max_probe + 1):
        results[f"subfunctor@{k}"] = [evaluate(sub, range(k)).size, k]
    try:
        subfunctor_pullback(
            hom2, {2: [q for q in hom2.values[2] if q[0] != q[1]]}
        )
        rejected = False
    except SubfunctorError:
        rejected = True
    ok = rejected and all(a == b for a, b in results.values())
    return PASS_WITNESSED if ok else FAIL, {"pointwise": results,
                                            "non_closed_predicate_rejected": rejected}


@recipe("superfin-powerset", "superfin", limits={"n_max": (0, 5)})
def r_superfin_powerset(n_max: int = 4):
    PW = power_functor()
    witnesses = {}
    for n in range(1, n_max + 1):
        probe = FINSET.obj(range(n + 1))
        escaping = escaping_element(PW, n, [probe])
        if escaping is None:
            return PASS, {"unexpected_pass_at": n}
        witnesses[str(n)] = sorted(escaping)
    return FAIL, {
        "witnesses": witnesses,
        "statement": "the full subset of an (n+1)-set escapes every image "
        "from level n",
    }


@recipe("superfin-endos", "superfin", limits={"m": (0, 4)})
def r_superfin_endos(m: int = 3):
    fams = powfin_endo_probe(m)
    only_identity = len(fams) == 1 and all(
        all(k == v for k, v in level.items()) for level in fams[0].values()
    )
    return PASS_WITNESSED if only_identity else FAIL, {
        "families": len(fams), "identity_only": only_identity, "levels": m}
