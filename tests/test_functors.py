"""Counterexample functors, boundedness witnesses, finitarity certificates."""

import random

import pytest

from finbench.cats import FINSET, GRA, UN, random_un_obj
from finbench.core import category_of
from finbench.colimits import FAIL, PASS
from finbench.functors import (
    finitarity_certificate,
    finitely_bounded_witness,
    graph_counterexample,
    path_chain,
    prime_cycle_chain,
    un_counterexample,
)
from finbench import symbolic as sy

from oracles import functor_laws_hold, hom_functor, identity_functor, un_has_fixed_point


# ---------------------------------------------------------------------------
# object values of the counterexample functors


def test_un_cx_on_two_cycle():
    F = un_counterexample()
    FX = F.on_obj(UN.cycle(2))
    assert FX.size == 3  # one added fixed point plus the cycle
    assert sorted(UN.tail_period(FX, x) for x in FX.carrier) == [(0, 1), (0, 2), (0, 2)]


def test_un_cx_on_cycle_family_is_terminal():
    F = un_counterexample()
    assert F.on_obj(sy.CYCLE_FAMILY) == UN.cycle(1)


def test_un_cx_on_terminal():
    F = un_counterexample()
    assert F.on_obj(UN.cycle(1)) == UN.cycle(1)


def test_un_cx_case_detection_is_exact():
    # any algebra with a fixed point admits homs from every prime cycle
    F = un_counterexample()
    rng = random.Random(0)
    for _ in range(30):
        X = random_un_obj(rng, 5)
        added = F.on_obj(X).size > 1
        assert added == (not un_has_fixed_point(X))


def test_graph_cx_values():
    G = graph_counterexample()
    assert G.on_obj(GRA.loop()).size == 1
    FP2 = G.on_obj(GRA.path(2))
    assert FP2.size == 4  # terminal loop vertex plus the three path vertices
    assert G.on_obj(sy.RAY).size == 1
    cycle3 = GRA.obj(range(3), [(0, 1), (1, 2), (2, 0)])
    assert G.on_obj(cycle3).size == 1


def test_functor_laws_on_probes():
    F = un_counterexample()
    objs = [UN.cycle(1), UN.cycle(2), UN.cycles_sum([2, 3])]
    pairs = []
    for X in objs:
        for Y in objs:
            for f in UN.hom_set(X, Y)[:3]:
                for Z in objs:
                    for g in UN.hom_set(Y, Z)[:3]:
                        pairs.append((g, f))
    assert functor_laws_hold(F, pairs)


def test_graph_functor_laws_on_probes():
    G = graph_counterexample()
    objs = [GRA.path(1), GRA.path(2), GRA.loop()]
    pairs = []
    for X in objs:
        for Y in objs:
            for f in GRA.hom_set(X, Y)[:3]:
                for Z in objs:
                    for g in GRA.hom_set(Y, Z)[:3]:
                        pairs.append((g, f))
    assert functor_laws_hold(G, pairs)


# ---------------------------------------------------------------------------
# morphism values on monos into symbolic objects


def _monos_into_symbolic(chain, subobjects):
    """The chain's legs and the subobject monos, checked through the shared
    Mor API: each is a mono, and each link composes with the next leg to
    the leg before it, a SymMor."""
    cat = category_of(chain.last)
    for i, ln in enumerate(chain.links):
        composed = cat.compose(chain.legs[i + 1], ln)
        assert type(composed) is sy.SymMor and composed == chain.legs[i]
    monos = list(chain.legs) + subobjects
    assert all(category_of(m.dom).is_mono(m) for m in monos)
    return monos


def test_un_cx_on_mono_into_cycle_family_is_constant():
    F = un_counterexample()
    c1 = UN.cycle(1)
    subobjects = sy.fg_subobjects(sy.CYCLE_FAMILY, 8)
    for m in _monos_into_symbolic(prime_cycle_chain(3), subobjects):
        assert F.on_mor(m) == UN.mor(F.on_obj(m.dom), c1, lambda x: c1.carrier[0])


def test_graph_cx_on_mono_into_ray_is_constant():
    G = graph_counterexample()
    one = GRA.loop()
    subobjects = sy.fg_subobjects(sy.RAY, 3, window=6)
    for m in _monos_into_symbolic(path_chain(3), subobjects):
        assert G.on_mor(m) == GRA.mor(G.on_obj(m.dom), one, lambda v: one.carrier[0])


def test_mono_into_an_unevaluated_kind_is_rejected():
    into_ray, into_family = path_chain(2).legs[0], prime_cycle_chain(2).legs[0]
    for F, m in ((un_counterexample(), into_ray), (graph_counterexample(), into_family)):
        with pytest.raises(ValueError):
            F.on_obj(m.cod)
        with pytest.raises(ValueError):
            F.on_mor(m)


# ---------------------------------------------------------------------------
# boundedness witnesses


def test_witness_for_identity_functor():
    I = identity_functor("un")
    A = UN.cycles_sum([2, 3])
    for m0 in UN.subobjects_fg(A):
        m, _ = finitely_bounded_witness(I, A, m0, bound=6)
        assert m.dom.size <= m0.dom.size or m.dom.size <= 6


def test_witness_for_identity_functor_on_cycle_family():
    I = identity_functor("un")
    for m0 in sy.fg_subobjects(sy.CYCLE_FAMILY, 5):
        m, mediating = finitely_bounded_witness(I, sy.CYCLE_FAMILY, m0, bound=5)
        assert m == m0 and mediating == UN.identity(m0.dom)


def test_witness_un_cx_finite_input():
    F = un_counterexample()
    A = UN.cycles_sum([2, 3])
    FA = F.on_obj(A)
    for m0 in UN.subobjects_fg(FA, 4):
        m, mediating = finitely_bounded_witness(F, A, m0, bound=6)
        assert UN.compose(F.on_mor(m), mediating) == m0


def test_witness_un_cx_cycle_family():
    F = un_counterexample()
    FA = F.on_obj(sy.CYCLE_FAMILY)
    assert FA.size == 1
    for m0 in UN.subobjects_fg(FA):
        m, _ = finitely_bounded_witness(F, sy.CYCLE_FAMILY, m0, bound=8)
        assert m.dom.size == 0  # the empty subalgebra absorbs everything


def test_witness_hom_functor():
    # hom functors of finite objects are finitely bounded
    H = hom_functor("un", UN.cycle(4))
    A = UN.cycles_sum([2, 4])
    HA = H.on_obj(A)
    for m0 in FINSET.subobjects_fg(HA, 2):
        m, mediating = finitely_bounded_witness(H, A, m0, bound=8)
        assert FINSET.compose(H.on_mor(m), mediating) == m0


def test_witness_exhaustion_reports_bound():
    F = un_counterexample()
    A = UN.cycles_sum([2, 3])
    FA = F.on_obj(A)
    big = [m for m in UN.subobjects_fg(FA) if m.dom.size == FA.size]
    wit = finitely_bounded_witness(F, A, big[0], bound=0)
    assert wit is None


# ---------------------------------------------------------------------------
# finitarity certificates


def test_identity_functor_passes_prime_chain():
    verdict, _ = finitarity_certificate(
        identity_functor("un"), prime_cycle_chain(3), prime_cycle_chain(4),
        "prime-cycles",
    )
    assert verdict == PASS


def test_symbolic_value_obstruction_that_vanishes_at_the_longer_prefix_passes():
    # the identity keeps the ray symbolic, and a hom of the 1-edge path into
    # the ray at vertices 2, 3 escapes the 2-stage prefix but factors
    # through the 3-stage one: the identity is finitary, and no FAIL is
    # certified
    verdict, witness = finitarity_certificate(
        identity_functor("gra"), path_chain(2), path_chain(3), "paths"
    )
    assert verdict == PASS
    assert witness["persistence"] == {"prefix_k1": 3, "lhs_size_k1": 4,
                                      "rhs_size_k1": -1, "still_failing": False}
    assert witness["notes"][-1] == "obstruction vanished at the longer prefix"
    assert "reason" not in witness


def test_symbolic_value_fail_carries_the_reflection_obstruction():
    # the same escaping hom, with a "longer" prefix that does not grow: the
    # obstruction persists, and the FAIL carries it
    from finbench.serialize import mor_from_json

    verdict, witness = finitarity_certificate(
        identity_functor("gra"), path_chain(2), path_chain(2), "paths"
    )
    assert verdict == FAIL
    assert witness["rhs_size"] == -1
    assert witness["persistence"]["still_failing"]
    assert witness["notes"][-1] == "symbolic functor value: reflection probe only"
    assert witness["reason"] == "unfactorizable morphism"
    f = mor_from_json(witness["morphism"])
    assert f.dom == GRA.path(1) and f.cod == sy.RAY and f.mapping == (2, 3)


def test_un_cx_fails_prime_chain():
    verdict, witness = finitarity_certificate(
        un_counterexample(), prime_cycle_chain(3), prime_cycle_chain(4),
        "prime-cycles",
    )
    assert verdict == FAIL
    assert witness["prefix_k"] == 3
    assert witness["lhs_size"] == 1 + (2 + 3 + 5)
    assert witness["rhs_size"] == 1
    assert witness["persistence"]["still_failing"]
    assert witness["persistence"]["lhs_size_k1"] == 1 + (2 + 3 + 5 + 7)


def test_graph_cx_fails_path_chain():
    verdict, witness = finitarity_certificate(
        graph_counterexample(), path_chain(3), path_chain(4), "paths"
    )
    assert verdict == FAIL
    assert witness["lhs_size"] == 5  # loop vertex plus the four path vertices
    assert witness["rhs_size"] == 1
    assert witness["persistence"]["still_failing"]


def test_chain_builders_have_symbolic_legs():
    cocone = prime_cycle_chain(2)
    assert cocone.apex is sy.CYCLE_FAMILY
    assert all(leg.cod is sy.CYCLE_FAMILY for leg in cocone.legs)
    pcone = path_chain(2)
    assert pcone.apex is sy.RAY
