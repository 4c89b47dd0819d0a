"""Chain cocones and their hom-reflection tests."""

import random

import pytest

from finbench.cats import FINSET, UN
from finbench.colimits import FAIL, PASS, chain_colimit, reflect_colimit_test
from finbench.core import Mor
from finbench.serialize import mor_from_json, obj_to_json
from finbench import symbolic as sy


def _prefix_cocone(k):
    from finbench.functors import prime_cycle_chain

    return prime_cycle_chain(k)


def test_reflect_finite_chain_passes():
    c2, c23 = UN.cycles_sum([2]), UN.cycles_sum([2, 3])
    cocone = chain_colimit([UN.mor(c2, c23, lambda x: x)])
    assert reflect_colimit_test(cocone, [c2, c23]) == (PASS, {"notes": []})


def test_reflect_fails_with_extra_point():
    # apex = colimit plus an isolated extra element
    X = FINSET.obj(range(2))
    bigger = FINSET.obj(range(3))
    cocone = chain_colimit(
        [], objects=[X], apex=bigger, legs=[FINSET.mor(X, bigger, lambda x: x)]
    )
    verdict, witness = reflect_colimit_test(cocone, [FINSET.obj(range(1))])
    assert verdict == FAIL
    assert witness["reason"] == "unfactorizable morphism"


def test_reflect_prime_chain_with_cycle_family_apex():
    cocone = _prefix_cocone(3)
    probes = [UN.cycle(2), UN.cycle(3), UN.cycle(5)]
    verdict, _ = reflect_colimit_test(cocone, probes)
    assert verdict == PASS


def test_reflect_prime_chain_refuted_by_escaping_probe():
    # a 7-cycle maps into the family but not through the 3-stage prefix
    cocone = _prefix_cocone(3)
    verdict, _ = reflect_colimit_test(cocone, [UN.cycle(7)])
    assert verdict == FAIL


def test_reflect_merging_condition():
    # two points collapsing later: factorizations through the first leg must
    # be merged by the link (built directly; the link is not mono)
    from finbench.colimits import Cocone

    two = FINSET.obj(range(2))
    one = FINSET.obj(range(1))
    link = FINSET.mor(two, one, lambda x: 0)
    cocone = Cocone((two, one), (link,), one, (link, FINSET.identity(one)))
    verdict, _ = reflect_colimit_test(cocone, [FINSET.obj(range(1))])
    assert verdict == PASS


def test_reflect_unmerged_factorizations_fail():
    # constant cocone out of a discrete-ish chain: the identity chain cannot
    # merge two distinct factorizations
    from finbench.colimits import Cocone

    two = FINSET.obj(range(2))
    one = FINSET.obj(range(1))
    collapse = FINSET.mor(two, one, lambda x: 0)
    cocone = Cocone((two,), (), one, (collapse,))
    verdict, witness = reflect_colimit_test(cocone, [FINSET.obj(range(1))])
    assert verdict == FAIL
    assert witness["reason"] == "factorizations not merged by links"


def _finset_chain(rng, length):
    sizes = sorted(rng.randint(1, 5) for _ in range(length))
    objs = [FINSET.obj(range(s)) for s in sizes]
    links = [
        FINSET.mor(objs[i], objs[i + 1], lambda x: x) for i in range(length - 1)
    ]
    return chain_colimit(links, objects=objs)


def test_reflect_passes_on_random_finite_chains():
    # finite chains with apex the last object pass for every small probe family
    rng = random.Random(13)
    probes = [FINSET.obj(range(k)) for k in range(3)]
    for _ in range(15):
        cocone = _finset_chain(rng, rng.randint(1, 4))
        assert reflect_colimit_test(cocone, probes)[0] == PASS


def test_unfactorizable_witness_reads_back_to_the_offending_map():
    # the 7-cycle's homs into the cycle family land on the 7-cycle, which the
    # 3-stage prefix does not contain
    cocone = _prefix_cocone(3)
    probe = UN.cycle(7)
    verdict, witness = reflect_colimit_test(cocone, [probe])
    assert verdict == FAIL
    assert witness["reason"] == "unfactorizable morphism"
    assert witness["probe"] == obj_to_json(probe)
    f = mor_from_json(witness["morphism"])
    assert isinstance(f, sy.SymMor)
    assert f == sy.homs_into(sy.CYCLE_FAMILY, probe)[0][0]
    assert not any(next(UN.lifts(f, leg), None) for leg in cocone.legs)


def test_unmerged_pair_witness_reads_back_to_the_offending_maps():
    from finbench.colimits import Cocone

    two = FINSET.obj(range(2))
    one = FINSET.obj(range(1))
    collapse = FINSET.mor(two, one, lambda x: 0)
    cocone = Cocone((two,), (), one, (collapse,))
    verdict, witness = reflect_colimit_test(cocone, [one])
    assert verdict == FAIL
    assert witness["reason"] == "factorizations not merged by links"
    assert witness["probe"] == obj_to_json(one)
    (i, q0), (j, q1) = [(i, mor_from_json(m)) for i, m in witness["pair"]]
    assert (i, j) == (0, 0)
    # two factorizations of the identity of the point that the chain keeps apart
    assert q0 == FINSET.mor(one, two, lambda x: 0)
    assert q1 == FINSET.mor(one, two, lambda x: 1)
    assert FINSET.compose(collapse, q0) == FINSET.compose(collapse, q1)
