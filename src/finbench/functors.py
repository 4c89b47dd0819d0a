"""The counterexample endofunctors, boundedness witness search, and
finitarity certificates on chains.

Functors are ``core.FunctorHandle`` values: a name, two registered categories
and the object and morphism maps.

The two graph/unary counterexamples share one shape: send X to 1 + X when a
family of test objects admits no morphism into X, and to the terminal object
otherwise.  Both are finitely bounded yet fail to preserve the colimit of an
explicit chain, which the certificate pins down by comparing carrier sizes of
the finite prefix colimit against the value on the formal colimit.  A
certificate is the pair (verdict, witness) that its recipe returns.
"""

from __future__ import annotations

from .certs import FAIL, PASS, PASS_WITNESSED, recipe
from .core import FunctorHandle, Mor, Obj, SymbolicObject, category_of
from .cats import GRA, UN
from .colimits import (
    Cocone,
    chain_colimit,
    obstruction_of,
    reflect_colimit_test,
    reflection_obstruction,
)
from .serialize import mor_to_json, obj_to_json
from .symbolic import (
    CYCLE_FAMILY,
    RAY,
    SymMor,
    fg_subobjects,
    first_primes,
    primes_upto,
)


# ---------------------------------------------------------------------------
# the case-split counterexamples


def _case_split(name, cat, unit, adds_unit, kinds) -> FunctorHandle:
    """X maps to unit + X when adds_unit(X), and to unit otherwise; on_obj
    sends a symbolic object whose kind is in kinds to unit and raises
    ValueError on any other.  A morphism into the first case maps summandwise
    (a hom X -> Y puts X in the first case as well); any other morphism, a
    SymMor into a symbolic object included, is the constant map onto the one
    element of unit."""

    def on_obj(X):
        if isinstance(X, SymbolicObject):
            if X.kind not in kinds:
                raise ValueError(f"{name} does not evaluate {X!r}")
            return unit
        return cat.coproduct([unit, X])[0] if adds_unit(X) else unit

    def on_mor(f):
        FY = on_obj(f.cod)
        FX = on_obj(f.dom)
        if FY != unit:
            return cat.mor(FX, FY, lambda x: x if x[0] == 0 else (1, f(x[1])))
        return cat.mor(FX, FY, lambda x: unit.carrier[0])

    return FunctorHandle(name, cat.name, cat.name, on_obj, on_mor)


def _un_missing_prime(X: Obj):
    """Least prime p with no hom from the p-cycle into X, or None.

    A cycle of length q maps into X iff X has a cycle of length dividing q,
    so for prime p only fixed points and p-cycles matter.  The search is
    bounded: only cycle lengths occurring in X can absorb primes.
    """
    lengths = {UN.tail_period(X, x)[1] for x in X.carrier}
    if 1 in lengths:
        return None
    for p in primes_upto(2 * max(lengths | {2}) + 3):
        if p not in lengths:
            return p
    raise AssertionError("prime search bound too small")


def un_counterexample() -> FunctorHandle:
    """Endofunctor of unary algebras: X maps to C1 + X when some prime cycle
    admits no hom into X, and to C1 otherwise; every prime cycle admits a hom
    into the cycle family, so it maps to C1.  Finitely bounded, not
    finitary."""
    return _case_split("un-counterexample", UN, UN.cycle(1),
                       lambda X: _un_missing_prime(X) is not None, {"cycle_family"})


def graph_counterexample() -> FunctorHandle:
    """Endofunctor of graphs: X maps to 1 + X when X has no cycle and no
    infinite path (for finite X both reduce to acyclicity), else to the
    terminal loop graph; the ray has an infinite path, so it maps to the loop."""
    return _case_split("graph-counterexample", GRA, GRA.loop(),
                       lambda X: not GRA.has_cycle(X), {"ray"})


# ---------------------------------------------------------------------------
# boundedness witnesses


def finitely_bounded_witness(F: FunctorHandle, A, m0: Mor, bound: int):
    """Search an fg subobject m of A whose F-image absorbs m0.

    Returns (m, mediating), m a mono into A (a Mor or SymMor) and
    mediating: dom(m0) -> dom(F(m)) with F(m) . mediating = m0, the triangle
    verified on carriers; or None when no fg subobject of size at most bound
    absorbs m0.
    """
    FA = F.on_obj(A)
    if m0.cod != FA:
        raise ValueError("m0 must land in F(A)")
    monos = (fg_subobjects(A, bound) if isinstance(A, SymbolicObject)
             else category_of(A).subobjects_fg(A, bound))
    cat = category_of(m0.dom)
    for m in sorted(monos, key=lambda m: m.dom.size):
        Fm = F.on_mor(m)
        mediating = next(cat.lifts(m0, Fm), None)
        if mediating is not None:
            if cat.compose(Fm, mediating) != m0:
                raise AssertionError("witness triangle failed verification")
            return m, mediating
    return None


# ---------------------------------------------------------------------------
# finitarity certificates on chains with a formal colimit


def finitarity_certificate(
    F: FunctorHandle,
    cocone_k: Cocone,
    cocone_k1: Cocone,
    chain_name: str = "chain",
):
    """Compare the colimit of the F-image prefix with F of the formal colimit.

    The prefix colimit of a finite chain is its last object, so the
    comparison morphism is F of the last leg.  A certified FAIL requires the
    obstruction (non-invertible comparison) to persist when the prefix grows
    by one.  A symbolic F-value downgrades the check to a probe-limited
    reflection test of the F-image of the prefix, with the same rule: the
    obstruction f it finds must still be one for the F-image of the longer
    prefix (f factors through none of its legs, or the links do not merge
    its factorizations).  Returns (verdict, witness): the witness holds both
    sides' sizes at the prefix (rhs_size -1 for a symbolic value), the
    persistence data of the longer prefix when it was needed, and notes; a
    symbolic value adds the reflection test's obstruction on FAIL.
    """
    F_apex = F.on_obj(cocone_k.apex)
    lhs = F.on_obj(cocone_k.last)
    witness = {"functor": F.name, "chain": chain_name, "prefix_k": len(cocone_k.objects),
               "lhs_size": lhs.size, "rhs_size": -1, "persistence": {}, "notes": []}

    if isinstance(F_apex, SymbolicObject):
        image = _image_cocone(F, cocone_k)
        notes, found = reflection_obstruction(image, list(image.objects))
        notes.append("symbolic functor value: reflection probe only")
        witness["notes"] = notes
        if found is None:
            return PASS, witness
        probe, f, obstruction = found
        image1 = _image_cocone(F, cocone_k1)
        still_failing = obstruction_of(image1, f) is not None
        witness["persistence"] = {"prefix_k1": len(cocone_k1.objects),
                                  "lhs_size_k1": image1.last.size, "rhs_size_k1": -1,
                                  "still_failing": still_failing}
        if not still_failing:
            notes.append("obstruction vanished at the longer prefix")
            return PASS, witness
        witness.update(probe=obj_to_json(probe), **obstruction)
        return FAIL, witness

    witness["rhs_size"] = F_apex.size
    if category_of(lhs).is_iso(F.on_mor(cocone_k.legs[-1])):
        witness["notes"] = ["comparison invertible at this prefix"]
        return PASS, witness
    lhs1 = F.on_obj(cocone_k1.last)
    invertible1 = category_of(lhs1).is_iso(F.on_mor(cocone_k1.legs[-1]))
    witness["persistence"] = {
        "prefix_k1": len(cocone_k1.objects),
        "lhs_size_k1": lhs1.size,
        "rhs_size_k1": F.on_obj(cocone_k1.apex).size,
        "still_failing": not invertible1,
    }
    if invertible1:
        witness["notes"] = ["obstruction vanished at the longer prefix"]
        return PASS, witness
    return FAIL, witness


def _image_cocone(F: FunctorHandle, cocone: Cocone) -> Cocone:
    """F applied to a chain cocone: objects, links, apex and legs."""
    return Cocone(
        tuple(F.on_obj(D) for D in cocone.objects),
        tuple(F.on_mor(ln) for ln in cocone.links),
        F.on_obj(cocone.apex),
        tuple(F.on_mor(leg) for leg in cocone.legs),
    )


# ---------------------------------------------------------------------------
# standard chains


def prime_cycle_chain(k: int) -> Cocone:
    """C_2 into C_2+C_3 into ... (k objects) with the cycle family as formal
    colimit."""
    ps = first_primes(k)
    objects = [UN.cycles_sum(ps[: i + 1]) for i in range(k)]
    links = [
        UN.mor(objects[i], objects[i + 1], lambda x: x) for i in range(k - 1)
    ]
    legs = [SymMor(D, CYCLE_FAMILY, tuple(D.carrier)) for D in objects]
    return chain_colimit(links, objects=objects, apex=CYCLE_FAMILY, legs=legs)


def path_chain(k: int) -> Cocone:
    """P_1 into P_2 into ... (k objects) with the ray as formal colimit."""
    objects = [GRA.path(i + 1) for i in range(k)]
    links = [
        GRA.mor(objects[i], objects[i + 1], lambda v: v) for i in range(k - 1)
    ]
    legs = [SymMor(D, RAY, tuple(D.carrier)) for D in objects]
    return chain_colimit(links, objects=objects, apex=RAY, legs=legs)


# ---------------------------------------------------------------------------
# recipes: the unary and graph counterexamples


@recipe("un-boundedness", "finitarity", bounds=("bound",),
        limits={"bound": (0, 512), "max_m0": (0, 64)})
def r_un_boundedness(bound: int = 8, max_m0: int = 4):
    F = un_counterexample()
    found, searched = [], 0
    for label, A in (("c2+c3", UN.cycles_sum([2, 3])), ("cycle-family", CYCLE_FAMILY)):
        FA = F.on_obj(A)
        for m0 in UN.subobjects_fg(FA, max_m0):
            searched += 1
            wit = finitely_bounded_witness(F, A, m0, bound)
            if wit is None:
                return FAIL, {"unwitnessed": mor_to_json(m0), "input": label}
            found.append([label, m0.dom.size, wit[0].dom.size])
    return PASS_WITNESSED, {"mode": "boundedness-witness", "witnessed": sorted(found),
                            "searched": searched}


@recipe("finitarity-un", "finitarity", limits={"k": (1, 24)})
def r_finitarity_un(k: int = 3):
    return finitarity_certificate(
        un_counterexample(), prime_cycle_chain(k), prime_cycle_chain(k + 1),
        "prime-cycles",
    )


@recipe("reflect-prime-chain", "colimit-test", limits={"k": (1, 20)})
def r_reflect_prime_chain(k: int = 3):
    chain = prime_cycle_chain(k)
    # the chain's last object is the sum of the first k prime cycles
    probes = [UN.cycle(q) for q in dict.fromkeys(q for q, _ in chain.last.carrier)]
    verdict, witness = reflect_colimit_test(chain, probes)
    return verdict, {"chain": "prime-cycles", "prefix_k": k,
                     "probes": [p.size for p in probes], **witness}


@recipe("finitarity-graph", "finitarity", limits={"k": (1, 256)})
def r_finitarity_graph(k: int = 3):
    return finitarity_certificate(
        graph_counterexample(), path_chain(k), path_chain(k + 1), "paths"
    )
