"""Executable colimit tests for chains: chain cocones and hom-reflection
probing.

A PASS verdict over a finite probe family never proves colimit-hood in
general, so verdicts are labelled ``PASS(probe-limited)``; a FAIL exhibits a
concrete offending morphism or pair and is certified for the presented
diagram data.  The test returns (verdict, witness), with the obstruction of
a FAIL written in the JSON formats of ``serialize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .certs import FAIL, PASS
from .core import category_of
from .serialize import mor_to_json, obj_to_json
from .symbolic import SymbolicObject, homs_into


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
            if category_of(ln.dom).compose(self.legs[i + 1], ln) != self.legs[i]:
                raise ValueError("legs do not commute with links")

    @property
    def last(self):
        return self.objects[-1]

    @cached_property
    def to_last(self) -> tuple:
        """The forward composites objects[i] -> last, one per chain object."""
        return _composites_to_last(self.objects, self.links)


def _composites_to_last(objects, links):
    cat = category_of(objects[-1])
    f = cat.identity(objects[-1])
    out = [f]
    for ln in reversed(links):
        f = cat.compose(f, ln)
        out.append(f)
    return tuple(reversed(out))


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
    if apex is not None:
        if legs is None:
            raise ValueError("symbolic apex needs explicit legs")
        return Cocone(objects, links, apex, tuple(legs))
    legs = _composites_to_last(objects, links)
    cocone = Cocone(objects, links, objects[-1], legs)
    cocone.__dict__["to_last"] = legs
    return cocone


def reflect_colimit_test(cocone: Cocone, probes):
    """Check the two reflection conditions over a probe family.

    For every probe A and every f: A -> apex, (1) f must factorize through a
    leg, and (2) any two factorizations must be merged by forward link
    composites.  Symbolic apexes enumerate homs in the default window;
    exhaustion is noted and keeps the verdict probe-limited.

    Returns (verdict, witness).  The witness holds the notes; a FAIL adds the
    reason, the probe and the obstruction in the JSON formats: the
    unfactorizable "morphism", or the "pair" [[leg index, morphism], [leg
    index, morphism]] of factorizations that the links do not merge.
    """
    notes, found = reflection_obstruction(cocone, probes)
    if found is None:
        return PASS, {"notes": notes}
    A, _, obstruction = found
    return FAIL, {"notes": notes, "probe": obj_to_json(A), **obstruction}


def reflection_obstruction(cocone: Cocone, probes):
    """(notes, found): found is None when every probe morphism into the apex
    passes both reflection conditions, else (probe, f, obstruction_of(f))
    for the first f that does not."""
    notes = []
    cat = category_of(cocone.last)
    symbolic = isinstance(cocone.apex, SymbolicObject)
    for A in probes:
        if symbolic:
            homs, complete = homs_into(cocone.apex, A)
            if not complete:
                notes.append(f"window exhaustion on probe of size {A.size}")
        else:
            homs = cat.hom_set(A, cocone.apex)
        for f in homs:
            obstruction = obstruction_of(cocone, f)
            if obstruction is not None:
                return notes, (A, f, obstruction)
    return notes, None


def obstruction_of(cocone: Cocone, f):
    """None when f: A -> apex factors through a leg and the links merge all
    its factorizations; else the reason and the unfactorizable "morphism" or
    the unmerged "pair", in the JSON formats."""
    cat = category_of(cocone.last)
    factored = []
    for i, leg in enumerate(cocone.legs):
        factored.extend((i, q) for q in cat.lifts(f, leg))
    if not factored:
        return {"reason": "unfactorizable morphism", "morphism": mor_to_json(f)}
    merged = _merged(cocone, factored)
    if merged is not None:
        return {"reason": "factorizations not merged by links",
                "pair": [[i, mor_to_json(q)] for i, q in merged]}
    return None


def _merged(cocone, factored):
    """None when all factorizations agree after pushing forward; else a pair."""
    cat = category_of(cocone.last)
    pushed = [((i, q), cat.compose(cocone.to_last[i], q)) for i, q in factored]
    base = pushed[0]
    for other in pushed[1:]:
        if other[1] != base[1]:
            return (base[0], other[0])
    return None
