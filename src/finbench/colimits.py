"""Executable colimit tests for chains: chain cocones and hom-reflection
probing.

A PASS verdict over a finite probe family never proves colimit-hood in
general, so verdicts are labelled ``PASS(probe-limited)``; a FAIL exhibits a
concrete offending morphism or pair and is certified for the presented
diagram data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certs import FAIL, PASS
from .core import Mor, category_of
from .symbolic import SymMor, SymbolicObject, WindowedHoms, homs_into


@dataclass(frozen=True)
class Cocone:
    """A finite chain with a cocone over it; apex may be symbolic."""

    objects: tuple
    links: tuple  # links[i]: objects[i] -> objects[i+1]
    apex: object  # Obj or SymbolicObject
    legs: tuple  # legs[i]: objects[i] -> apex

    def __post_init__(self):
        if len(self.links) != len(self.objects) - 1:
            raise ValueError("chain shape mismatch")
        if len(self.legs) != len(self.objects):
            raise ValueError("one leg per chain object required")
        for i, ln in enumerate(self.links):
            if ln.dom != self.objects[i] or ln.cod != self.objects[i + 1]:
                raise ValueError("link endpoints mismatch")
        for i, leg in enumerate(self.legs):
            if leg.dom != self.objects[i]:
                raise ValueError("leg domain mismatch")
        for i, ln in enumerate(self.links):
            nxt = self.legs[i + 1]
            composed = (
                nxt.precompose(ln) if isinstance(nxt, SymMor) else
                category_of(ln.dom).compose(nxt, ln)
            )
            if composed != self.legs[i]:
                raise ValueError("legs do not commute with links")

    @property
    def last(self):
        return self.objects[-1]

    def link_composite(self, i, j) -> Mor:
        """Forward composite objects[i] -> objects[j]."""
        cat = category_of(self.objects[i])
        f = cat.identity(self.objects[i])
        for k in range(i, j):
            f = cat.compose(self.links[k], f)
        return f


def chain_colimit(links, objects=None, apex=None, legs=None) -> Cocone:
    """Cocone of a finite chain of monos.

    Without an explicit apex the colimit of a finite prefix is its last
    object, with legs the forward composites.  A symbolic apex turns the
    prefix into a formal colimit presentation with the supplied legs.
    """
    if objects is None:
        if not links:
            raise ValueError("need objects for an empty chain")
        objects = tuple([links[0].dom] + [ln.cod for ln in links])
    objects = tuple(objects)
    links = tuple(links)
    cat = category_of(objects[0])
    for ln in links:
        if not cat.is_mono(ln):
            raise ValueError("chain links must be monos")
    if apex is None:
        apex = objects[-1]
        legs = []
        for i in range(len(objects)):
            f = cat.identity(objects[i])
            for k in range(i, len(links)):
                f = cat.compose(links[k], f)
            legs.append(f)
        legs = tuple(legs)
    else:
        if legs is None:
            raise ValueError("symbolic apex needs explicit legs")
        legs = tuple(legs)
    return Cocone(objects, links, apex, legs)


@dataclass
class ColimitVerdict:
    status: str
    failure: dict | None = None
    notes: tuple = ()


def _factorizations(f, leg):
    """Every q with leg . q = f, in the order of the per-element fiber
    products that are homs."""
    import itertools

    A, D = f.dom, leg.dom
    look = dict(zip(D.carrier, leg.mapping))
    fibers = []
    for x in A.carrier:
        want = f(x)
        fibers.append([d for d in D.carrier if look[d] == want])
        if not fibers[-1]:
            return
    for combo in itertools.product(*fibers):
        try:
            yield Mor(A, D, tuple(combo))
        except ValueError:
            continue


def reflect_colimit_test(cocone: Cocone, probes) -> ColimitVerdict:
    """Check the two reflection conditions over a probe family.

    For every probe A and every f: A -> apex, (1) f must factorize through a
    leg, and (2) any two factorizations must be merged by forward link
    composites.  Symbolic apexes enumerate homs in the default window;
    exhaustion is noted and keeps the verdict probe-limited.
    """
    notes = []
    symbolic = isinstance(cocone.apex, SymbolicObject)
    for A in probes:
        if symbolic:
            wh: WindowedHoms = homs_into(cocone.apex, A)
            homs = wh.homs
            if not wh.complete:
                notes.append(f"window exhaustion on probe of size {A.size}")
        else:
            homs = category_of(A).hom_set(A, cocone.apex)
        for f in homs:
            factored = []
            for i, leg in enumerate(cocone.legs):
                factored.extend((i, q) for q in _factorizations(f, leg))
            if not factored:
                return ColimitVerdict(
                    FAIL,
                    failure={
                        "reason": "unfactorizable morphism",
                        "probe": A,
                        "morphism": f,
                    },
                    notes=tuple(notes),
                )
            merged = _merged(cocone, factored)
            if merged is not None:
                return ColimitVerdict(
                    FAIL,
                    failure={
                        "reason": "factorizations not merged by links",
                        "probe": A,
                        "pair": merged,
                    },
                    notes=tuple(notes),
                )
    return ColimitVerdict(PASS, notes=tuple(notes))


def _merged(cocone, factored):
    """None when all factorizations agree after pushing forward; else a pair."""
    cat = category_of(cocone.objects[0])
    last = len(cocone.objects) - 1
    pushed = []
    for i, q in factored:
        fwd = cocone.link_composite(i, last)
        pushed.append(((i, q), cat.compose(fwd, q)))
    base = pushed[0]
    for other in pushed[1:]:
        if other[1] != base[1]:
            return (base[0], other[0])
    return None
