"""Chain cocones and their hom-reflection tests."""

import random

import pytest

from finbench.cats import FINSET, UN, random_un_obj
from finbench.colimits import FAIL, PASS, chain_colimit, reflect_colimit_test
from finbench.core import Mor
from finbench.serialize import mor_from_json, obj_to_json
from finbench import symbolic as sy

from oracles import homs_into_cycle_family_by_offsets, un_has_fixed_point


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
    # value equality compares classes too, so f is a SymMor
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


# ---------------------------------------------------------------------------
# homs into the cycle family from the hom search on its finite truncation


def _cycles_with_tails(rng):
    """Up to three cycles, of length 1 (a fixed point) or with prime factors
    inside and outside the small windows, and up to three tail elements, each
    sent to an element built before it."""
    op, n = {}, 0
    for _ in range(rng.randint(0, 3)):
        length = rng.choice([1, 2, 3, 4, 5, 6, 9, 10, 11, 13])
        op.update({n + i: n + (i + 1) % length for i in range(length)})
        n += length
    for _ in range(rng.randint(0, 3) if n else 0):
        op[n] = rng.randrange(n)
        n += 1
    return UN.obj(range(n), op)


def test_homs_into_cycle_family_match_the_offset_oracle():
    rng = random.Random(0)
    algebras = [UN.obj((), {})]
    algebras += [_cycles_with_tails(rng) for _ in range(150)]
    algebras += [random_un_obj(rng, 8) for _ in range(50)]
    kinds = {"tail": 0, "components": 0, "fixed point": 0}
    for A in algebras:
        tails = {x: UN.tail_period(A, x)[0] for x in A.carrier}
        kinds["tail"] += any(tails.values())
        # a cycle point generates its own cycle, one per component
        cycles = {UN.generated_subalgebra(A, x) for x, t in tails.items() if t == 0}
        kinds["components"] += len(cycles) > 1
        kinds["fixed point"] += un_has_fixed_point(A)
        for window in (2, 3, 5, 7, 12):
            homs, complete = sy.homs_into(sy.CYCLE_FAMILY, A, window)
            want, want_complete = homs_into_cycle_family_by_offsets(A, window)
            assert [h.mapping for h in homs] == [h.mapping for h in want], (A, window)
            if un_has_fixed_point(A):
                assert homs == [] and complete
            else:
                assert complete == want_complete, (A, window)
    assert min(kinds.values()) >= 20, kinds
