"""Finitely described infinite objects with decision procedures.

Registered kinds:

* ``ray``: graph on the naturals with edges n -> n+1 and nothing else.
* ``loop_ray``: the ray plus an isolated loop vertex 0 (edges n -> n+1 start
  at vertex 1); the constant-0 self-map is its only finitary endomorphism.
* ``cycle_family``: unary algebra given by the disjoint union of one cycle
  per prime; hom existence from a cycle is decided by divisibility.

These objects expose bounded substructure enumeration instead of carriers,
and the ray and the cycle family also hom enumeration in a window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .core import Mor, Obj, Partition, elem_key
from .cats import GRA, UN

WINDOW_DEFAULT = 32


@dataclass(frozen=True)
class SymbolicObject:
    kind: str
    cat: str

    def __repr__(self):
        return f"Symbolic({self.kind})"


RAY = SymbolicObject("ray", "gra")
LOOP_RAY = SymbolicObject("loop_ray", "gra")
CYCLE_FAMILY = SymbolicObject("cycle_family", "un")


@dataclass(frozen=True)
class SymMor:
    """Morphism from a finite object into a symbolic object.

    Symbolic elements: ints for ray/loop_ray vertices, (prime, index) pairs
    for cycle family points.
    """

    dom: Obj
    cod: SymbolicObject
    mapping: tuple

    def __post_init__(self):
        if len(self.mapping) != len(self.dom.carrier):
            raise ValueError("mapping length mismatch")
        if not _preserves(self):
            raise ValueError("mapping does not preserve structure")

    @cached_property
    def _lookup(self):
        return dict(zip(self.dom.carrier, self.mapping))

    def __call__(self, x):
        return self._lookup[x]

    def precompose(self, f: Mor) -> "SymMor":
        if f.cod != self.dom:
            raise ValueError("not composable")
        return SymMor(f.dom, self.cod, tuple(self(f(x)) for x in f.dom.carrier))


def _preserves(sm: SymMor) -> bool:
    look = sm._lookup
    if sm.cod.kind in ("ray", "loop_ray"):
        for u, v in GRA.edges(sm.dom):
            a, b = look[u], look[v]
            if sm.cod.kind == "loop_ray" and a == 0:
                if b != 0:
                    return False
            elif b != a + 1:
                return False
            if sm.cod.kind == "ray" and (a < 0 or b < 0):
                return False
        return True
    if sm.cod.kind == "cycle_family":
        for x in sm.dom.carrier:
            q, i = look[x]
            if not _is_prime(q):
                return False
            q2, i2 = look[UN.op(sm.dom, x)]
            if (q2, i2) != (q, (i + 1) % q):
                return False
        return True
    raise ValueError(sm.cod.kind)


def _is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def primes_upto(n):
    return [p for p in range(2, n + 1) if _is_prime(p)]


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
        homs.append(SymMor(A, RAY, tuple(mapping[v] for v in A.carrier)))
    # shifts beyond the window always exist for nonempty graphs
    return homs, A.size == 0


def _homs_into_cycle_family(A: Obj, window):
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


def _un_components(A: Obj):
    """Weak components of a unary algebra with their unique cycle length."""
    part = Partition(A.carrier)
    for x in A.carrier:
        part.union(x, UN.op(A, x))
    return [(sorted(elems, key=elem_key), UN.tail_period(A, elems[0])[1])
            for elems in part.classes()]


def _offsets_to_cycle(A: Obj, component):
    """Offsets o(v) with f(v) = rotate(f(anchor), o(v)) for any hom into a
    cycle; well defined since the target operation is invertible."""
    anchor = component[0]
    members = set(component)
    offsets = {anchor: 0}
    frontier = [anchor]
    while frontier:
        a = frontier.pop()
        b = UN.op(A, a)
        if b not in offsets:
            offsets[b] = offsets[a] + 1
            frontier.append(b)
        # backward edges
        for c in component:
            if UN.op(A, c) == a and c not in offsets:
                offsets[c] = offsets[a] - 1
                frontier.append(c)
    if set(offsets) != members:
        raise ValueError("offsets requested across components")
    return offsets


# ---------------------------------------------------------------------------
# bounded substructure enumeration


def fg_subobjects(sym: SymbolicObject, bound: int, window: int = WINDOW_DEFAULT):
    """Finitely generated substructures up to the size bound, as pairs
    (object, embedding); enumeration is windowed for translated copies."""
    out = []
    if sym.kind in ("ray", "loop_ray"):
        base = 0 if sym.kind == "ray" else 1
        empty = GRA.obj((), ())
        out.append((empty, SymMor(empty, sym, ())))
        if sym.kind == "loop_ray":
            loop = GRA.loop()
            out.append((loop, SymMor(loop, sym, (0,))))
        for length in range(0, bound):
            for start in range(base, window - length):
                seg = GRA.path(length)
                out.append(
                    (seg, SymMor(seg, sym, tuple(start + i for i in range(length + 1))))
                )
        return out
    if sym.kind == "cycle_family":
        prims = primes_upto(window)
        empty = UN.obj((), {})
        out.append((empty, SymMor(empty, sym, ())))
        for r in range(1, len(prims) + 1):
            for ps in itertools.combinations(prims, r):
                if sum(ps) > bound:
                    continue
                sub = UN.cycles_sum(ps)
                out.append((sub, SymMor(sub, sym, tuple(sub.carrier))))
        return out
    raise ValueError(sym.kind)

