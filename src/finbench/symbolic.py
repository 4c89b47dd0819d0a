"""Finitely described infinite objects with decision procedures, and the
negative certificates about them.

Registered kinds, as ``core.SymbolicObject`` values:

* ``ray``: graph on the naturals with edges n -> n+1 and nothing else.
* ``cycle_family``: unary algebra given by the disjoint union of one cycle
  per prime; hom existence from a cycle is decided by divisibility.

These objects expose bounded substructure enumeration and hom enumeration
in a window instead of carriers.

Negative certificates are lemma-schema checks: the universally quantified
structural facts are verified on all instances up to the stated bounds, and
the final inference (which quantifies over infinite objects) is recorded as a
documented implication, not machine checked.
"""

from __future__ import annotations

import itertools

from .certs import FAIL, CertificateError, recipe
from .core import Mor, Obj, SymbolicObject, Value
from .cats import GRA, UN

WINDOW_DEFAULT = 32


RAY = SymbolicObject("ray", "gra")
CYCLE_FAMILY = SymbolicObject("cycle_family", "un")


class SymMor(Mor):
    """A Mor from a finite object into a symbolic object, which has no
    carrier: each image must be a point of the symbolic object, a
    non-negative int on the ray and a pair (q, i) with q prime and
    0 <= i < q in the cycle family, and the map must preserve structure."""

    def __post_init__(self):
        if self.dom.cat != self.cod.cat:
            raise ValueError("morphism across categories")
        if len(self.mapping) != len(self.dom.carrier):
            raise ValueError("mapping length does not match domain carrier")
        if not _preserves(self):
            raise ValueError("mapping does not preserve structure")

    __repr__ = Value.__repr__


def _preserves(sm: SymMor) -> bool:
    """Whether every image is a point of sm.cod and sm preserves structure."""
    look, images = sm._lookup, sm.mapping
    if sm.cod.kind == "ray":
        return (all(type(n) is int and n >= 0 for n in images)
                and all(look[v] == look[u] + 1 for u, v in GRA.edges(sm.dom)))
    if sm.cod.kind == "cycle_family":
        if not all(type(y) is tuple and len(y) == 2 and type(y[0]) is int
                   and type(y[1]) is int and 0 <= y[1] < y[0] for y in images):
            return False
        op = UN.op_tables(sm.dom)["op"]
        return (all(map(_is_prime, {q for q, _ in images}))
                and all(look[op[x]] == (q, (i + 1) % q) for x, (q, i) in look.items()))
    raise ValueError(sm.cod.kind)


def _is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def primes_upto(n):
    return [p for p in range(2, n + 1) if _is_prime(p)]


def first_primes(k):
    return list(itertools.islice(filter(_is_prime, itertools.count(2)), k))


# ---------------------------------------------------------------------------
# hom enumeration into symbolic objects


def homs_into(sym: SymbolicObject, A: Obj, window: int = WINDOW_DEFAULT):
    """(homs, complete): the homs A -> sym inside the window, and whether
    they are all of them (False when shifts outside the window exist)."""
    if sym.kind == "ray":
        return _homs_into_ray(A, window)
    if sym.kind == "cycle_family":
        return _homs_into_cycle_family(A, window)
    raise ValueError(sym.kind)


def _graph_levels(A: Obj):
    """Per weak component: (levels dict, gradable flag).  A component maps
    into the ray iff edges admit a consistent +1 level function."""
    adj = {v: [] for v in A.carrier}
    for u, v in GRA.edges(A):
        adj[u].append((v, 1))
        adj[v].append((u, -1))
    seen = set()
    components = []
    for v in A.carrier:
        if v in seen:
            continue
        levels = {v: 0}
        stack = [v]
        ok = True
        while stack:
            a = stack.pop()
            for b, d in adj[a]:
                lv = levels[a] + d
                if b in levels:
                    if levels[b] != lv:
                        ok = False
                else:
                    levels[b] = lv
                    stack.append(b)
        seen.update(levels)
        components.append((levels, ok))
    return components


def _homs_into_ray(A: Obj, window):
    comps = _graph_levels(A)
    if any(not ok for _, ok in comps):
        return [], True
    per_comp = []
    for levels, _ in comps:
        lo = min(levels.values())
        hi = max(levels.values())
        options = [{v: l + s for v, l in levels.items()} for s in range(-lo, window - hi)]
        if not options:
            return [], False
        per_comp.append(options)
    homs = []
    for combo in itertools.product(*per_comp):
        mapping = {}
        for part in combo:
            mapping.update(part)
        homs.append(SymMor(A, RAY, tuple(map(mapping.__getitem__, A.carrier))))
    # shifts beyond the window always exist for nonempty graphs
    return homs, A.size == 0


def _homs_into_cycle_family(A: Obj, window):
    """The homs into the finite truncation UN.cycles_sum(ps), ps the primes
    in the window that divide a cycle length of A: a hom sends each
    component into one prime cycle whose prime divides the component's cycle
    length.  Complete when A has a fixed point, which maps into no prime
    cycle, or when no prime outside the window divides a cycle length."""
    lengths = {UN.tail_period(A, x)[1] for x in A.carrier}
    divisors = {p for n in lengths for p in _prime_divisors(n)}
    ps = sorted(p for p in divisors if p <= window)
    homs = [SymMor(A, CYCLE_FAMILY, h.mapping) for h in UN.hom_set(A, UN.cycles_sum(ps))]
    return homs, 1 in lengths or all(p <= window for p in divisors)


def _prime_divisors(n):
    return [p for p in primes_upto(n) if n % p == 0]


# ---------------------------------------------------------------------------
# bounded substructure enumeration


def fg_subobjects(sym: SymbolicObject, bound: int, window: int = WINDOW_DEFAULT):
    """Monos into sym, one per finitely generated substructure up to the size
    bound, as subobjects_fg gives them; windowed for translated copies."""
    if sym.kind == "ray":
        out = [SymMor(GRA.obj((), ()), sym, ())]
        for length in range(bound):
            seg = GRA.path(length)
            out.extend(SymMor(seg, sym, tuple(range(start, start + length + 1)))
                       for start in range(window - length))
        return out
    if sym.kind == "cycle_family":
        prims = primes_upto(window)
        out = []
        for r in range(len(prims) + 1):
            for ps in itertools.combinations(prims, r):
                if sum(ps) <= bound:
                    sub = UN.cycles_sum(ps)
                    out.append(SymMor(sub, sym, sub.carrier))
        return out
    raise ValueError(sym.kind)


# ---------------------------------------------------------------------------
# negative certificates


def no_finitary_endo_certificate(A: SymbolicObject, window: int = 32, path_bound: int = 8,
                                 prime_bound: int = 23) -> dict:
    """The lemma-schema certificate {"checked", "inference"} that A has no
    finitary endomorphism: the hom tables checked up to the bounds, as sorted
    [k, count] and [p, q, count] rows, and the documented inference."""
    if A.kind == "ray":
        table = []
        for k in range(1, path_bound + 1):
            homs, _ = homs_into(RAY, GRA.path(k), window)
            for h in homs:
                positions = [h(v) for v in sorted(h.dom.carrier)]
                if any(b != a + 1 for a, b in zip(positions, positions[1:])):
                    raise AssertionError("a path hom fails to advance by one")
            table.append([k, len(homs)])
        return {
            "checked": {"path_hom_counts": table, "window": window, "path_bound": path_bound},
            "inference": "every hom from a finite path advances positions by exactly one, "
            "so every endomorphism is a forward shift with infinite image and "
            "cannot factor through a finitely presentable graph",
        }
    if A.kind == "cycle_family":
        ps = primes_upto(prime_bound)
        table = []
        for p in ps:
            for q in ps:
                n_homs = len(UN.hom_set(UN.cycle(p), UN.cycle(q)))
                table.append([p, q, n_homs])
                if (n_homs > 0) != (p % q == 0):
                    raise AssertionError("divisibility law violated")
        return {
            "checked": {"prime_hom_table": table, "prime_bound": prime_bound},
            "inference": "distinct prime cycles admit no homomorphisms between one another, "
            "so every endomorphism preserves each summand and its image meets "
            "all of them; the image is infinite and cannot factor through a "
            "finitely presentable algebra",
        }
    raise ValueError(f"no certificate procedure for {A.kind}")


# ---------------------------------------------------------------------------
# recipe


@recipe("no-finitary-endo", "no-finitary-endo",
        bounds=("window", "path_bound", "prime_bound"),
        limits={"window": (0, 512), "path_bound": (0, 64), "prime_bound": (0, 100)})
def r_no_finitary_endo(subject: str, window: int = 32, path_bound: int = 8,
                       prime_bound: int = 23):
    subjects = {"ray": RAY, "cycle_family": CYCLE_FAMILY}
    if subject not in subjects:
        raise CertificateError(f"unknown subject {subject!r}")
    return FAIL, no_finitary_endo_certificate(
        subjects[subject], window=window, path_bound=path_bound, prime_bound=prime_bound
    )
