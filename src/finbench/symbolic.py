"""Finitely described infinite objects with decision procedures.

Registered kinds:

* ``ray``: graph on the naturals with edges n -> n+1 and nothing else.
* ``cycle_family``: unary algebra given by the disjoint union of one cycle
  per prime; hom existence from a cycle is decided by divisibility.

These objects expose bounded substructure enumeration and hom enumeration
in a window instead of carriers.
"""

from __future__ import annotations

import itertools

from .core import Mor, Obj, Value
from .cats import GRA, UN

WINDOW_DEFAULT = 32


class SymbolicObject(Value):
    _fields = ("kind", "cat")

    def __init__(self, kind: str, cat: str):
        self.__dict__.update(kind=kind, cat=cat)

    def __repr__(self):
        return f"Symbolic({self.kind})"


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
