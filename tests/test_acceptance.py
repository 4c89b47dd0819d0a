"""Acceptance gate: every criterion at its stated scope and tolerance, one
printed pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import itertools
import random
import time

import pytest

from finbench.cats import (
    FINSET,
    GRA,
    S3_GPD,
    TRIVIAL_GPD,
    UN,
    Z2_GPD,
    Z3_GPD,
    gset_cat,
    gset_sampler,
    random_finset_mor,
    random_un_surjection,
)
from finbench.colimits import FAIL, PASS
from finbench.functors import (
    finitarity_certificate,
    finitely_bounded_witness,
    graph_counterexample,
    path_chain,
    prime_cycle_chain,
    un_counterexample,
)
from finbench.hausdorff import (
    boundedness_witness,
    nonexpanding,
    random_metric_space,
    subset_map,
    subset_space,
)
from finbench.nominal import (
    all_equivariant_maps,
    equivalence_from_subgroup,
    p_chain_certificate,
    p_prefix,
    single_orbit_enumerate,
    subgroup_from_quotient,
    subgroups_of_Sn,
    support,
    support_rigidity_check,
)
from finbench.perms import subgroups_of_sym
from finbench.strictness import (
    atoms_of_presheaves,
    congruences,
    decomposition_roundtrip,
    quotient_by_partition,
    regular_presheaf,
    strictness_witness,
)
from finbench.strictness import regularity_check, _gset_surjection_sampler
from finbench.superfin import (
    coproduct as pres_coproduct,
    escaping_element,
    evaluate,
    power_functor,
    powfin_endo_probe,
    product as pres_product,
    subfunctor_pullback,
    truncated_hom,
    truncated_identity,
)
from finbench import symbolic as sy
from finbench.symbolic import no_finitary_endo_certificate

from oracles import brute_congruences, brute_homs, brute_subgroups


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} [FAIL] {desc}")
                raise
            print(f"\nACCEPTANCE {num:02d} [PASS] {desc}")

        return wrapper

    return deco


@criterion(1, "unary counterexample: boundedness witnesses and certified "
              "non-finitarity at prefix 3 (lhs 11 vs rhs 1), under 1 s")
def test_criterion_01_un_counterexample():
    start = time.monotonic()
    F = un_counterexample()
    for A in (UN.cycles_sum([2, 3]), sy.CYCLE_FAMILY):
        FA = F.on_obj(A)
        m0s = UN.subobjects_fg(FA, 4)
        assert m0s, "no subobjects to witness"
        for m0 in m0s:
            m, mediating = finitely_bounded_witness(F, A, m0, bound=8)
            assert m.dom.size <= 8
    verdict, witness = finitarity_certificate(
        F, prime_cycle_chain(3), prime_cycle_chain(4), "prime-cycles"
    )
    assert verdict == FAIL
    assert witness["prefix_k"] == 3
    assert witness["lhs_size"] == 1 + (2 + 3 + 5) == 11
    assert witness["rhs_size"] == 1
    assert witness["persistence"]["still_failing"]
    assert time.monotonic() - start < 1.0


@criterion(2, "graph counterexample: certified non-finitarity on the path "
              "chain and the ray advance-by-one certificate up to length 8")
def test_criterion_02_graph_counterexample():
    verdict, witness = finitarity_certificate(
        graph_counterexample(), path_chain(3), path_chain(4), "paths"
    )
    assert verdict == FAIL
    assert witness["lhs_size"] == 5 and witness["rhs_size"] == 1
    assert witness["persistence"]["still_failing"]
    ray_cert = no_finitary_endo_certificate(sy.RAY, window=32, path_bound=8)
    counts = {k: n for k, n in ray_cert["checked"]["path_hom_counts"]}
    assert set(counts) == set(range(1, 9))
    # the certificate constructor re-verifies every hom advances by one;
    # cross-check the counts: one hom per admissible start position
    for k, n in counts.items():
        assert n == 32 - k


@criterion(3, "prime cycle hom table: nonempty iff target length divides "
              "source length, all lengths up to 23, under 1 s")
def test_criterion_03_hom_table():
    start = time.monotonic()
    for p in range(1, 24):
        for q in range(1, 24):
            assert bool(UN.hom_set(UN.cycle(p), UN.cycle(q))) == (p % q == 0)
    # the enumerator itself against the raw function space at small sizes
    for p in range(1, 7):
        for q in range(1, 6):
            assert len(UN.hom_set(UN.cycle(p), UN.cycle(q))) == len(
                brute_homs(UN.cycle(p), UN.cycle(q))
            )
    assert time.monotonic() - start < 1.0


@criterion(4, "finite-set strictness witnesses for every morphism with "
              "domain up to 4 and codomain up to 5, exhaustively")
def test_criterion_04_finset_strictness():
    total = witnessed = 0
    for d in range(5):
        for c in range(6):
            if d > 0 and c == 0:
                continue
            D, C = FINSET.obj(range(d)), FINSET.obj(range(c))
            for images in itertools.product(range(c), repeat=d):
                total += 1
                b = FINSET.mor(D, C, dict(enumerate(images)))
                b_prime, f = strictness_witness(b)
                assert FINSET.compose(b_prime, FINSET.compose(f, b)) == b
                assert b_prime.dom.size <= 6
                witnessed += 1
    assert total == 1280
    assert witnessed == total


@criterion(5, "atoms: decompose-then-recombine is the identity up to iso on "
              "100 random actions per group, atom lists match the partition oracle")
def test_criterion_05_atoms():
    rng = random.Random(0)
    for gpd, expected_atoms in (
        (TRIVIAL_GPD, 1), (Z2_GPD, 2), (Z3_GPD, 2), (S3_GPD, 4),
    ):
        cat = gset_cat(gpd)
        subs = [tuple(h) for h in subgroups_of_sym(len(gpd.mors[0][0]))]
        draw = gset_sampler(rng, cat, subs, 8)
        for _ in range(100):
            X = draw()
            assert X.size <= 8
            assert decomposition_roundtrip(cat, X)
        atoms = atoms_of_presheaves(gpd)
        assert len(atoms) == expected_atoms
        # oracle: all partitions of the regular algebra, filtered and
        # quotiented independently of the pair-closure enumeration
        R = regular_presheaf(cat, gpd.sorts[0])
        oracle_atoms = []
        for part in brute_congruences(cat, R):
            Q = quotient_by_partition(cat, R, part).cod
            if not any(cat.is_isomorphic(Q, seen) for seen in oracle_atoms):
                oracle_atoms.append(Q)
        assert len(oracle_atoms) == len(atoms)
        for a in atoms:
            assert sum(cat.is_isomorphic(a, b) for b in oracle_atoms) == 1


@criterion(6, "classification: subgroup counts match the subset oracle, the "
              "subgroup/quotient roundtrip is the identity, orbit class "
              "counts match the bijection search")
def test_criterion_06_classification():
    for n in (2, 3, 4):
        assert len(subgroups_of_Sn(n)) == len(brute_subgroups(n))
    for H in subgroups_of_Sn(3):
        assert subgroup_from_quotient(equivalence_from_subgroup(H, 3), 3) == H
    assert [len(single_orbit_enumerate(n)) for n in range(4)] == [1, 1, 2, 4]


@criterion(7, "nominal rigidity: every equivariant endomorphism of the "
              "3-stage subset prefix preserves supports exactly; the chain "
              "certificate fails certified at prefix 3")
def test_criterion_07_nominal():
    X = p_prefix(3)
    endos = all_equivariant_maps(X, X, pool=10)
    assert endos, "enumeration found no endomorphisms"
    for f in endos:
        assert support_rigidity_check(f) == ()
        for e in X.elements(10):
            assert support(f.apply(e)) == support(e)
    verdict, witness = p_chain_certificate(3)
    assert verdict == FAIL
    assert witness["lhs_size"] == 4 and witness["rhs_size"] == 1
    assert witness["persistence"]["still_failing"]


@criterion(8, "presented functors: square law for the evaluation, pointwise "
              "closure agreement, power functor escape witnesses, identity-"
              "only endomorphism scan, under 30 s")
def test_criterion_08_superfin():
    start = time.monotonic()
    hom2 = truncated_hom(2, 2)
    for size in range(5):
        assert evaluate(hom2, range(size)).size == size * size
    ident = truncated_identity(1)
    for size in range(4):
        X = range(size)
        assert evaluate(pres_product(ident, ident), X).size == size * size
        assert evaluate(pres_coproduct(ident, ident), X).size == 2 * size
    constants = {1: list(hom2.values[1]),
                 2: [q for q in hom2.values[2] if q[0] == q[1]]}
    sub = subfunctor_pullback(hom2, constants)
    for size in range(4):
        assert evaluate(sub, range(size)).size == size
    PW = power_functor()
    for n in range(1, 5):
        assert escaping_element(PW, n, [FINSET.obj(range(n + 1))]) == frozenset(range(n + 1))
    fams = powfin_endo_probe(3)
    assert len(fams) == 1
    assert all(k == v for level in fams[0].values() for k, v in level.items())
    assert time.monotonic() - start < 30.0


@criterion(9, "hausdorff: exact metric axioms on 100 random subset spaces, "
              "functoriality and mono preservation on probes, boundedness "
              "witnesses on sampled subspaces")
def test_criterion_09_hausdorff():
    rng = random.Random(0)
    for _ in range(100):
        X = random_metric_space(rng, rng.randint(1, 5))
        subset_space(X)  # constructor asserts the axioms with equality
    for _ in range(10):
        X = random_metric_space(rng, rng.randint(1, 4))
        idX = nonexpanding(X, X, lambda x: x)
        assert subset_map(idX).mapping == subset_space(X).points
        c = nonexpanding(X, X, lambda x: X.points[0])
        HXc = subset_map(c)
        composed = tuple(HXc(HXc(s)) for s in HXc.dom.points)
        assert composed == subset_map(c).mapping  # constants are idempotent
        from finbench.hausdorff import metric_space
        from fractions import Fraction

        Y = metric_space(
            tuple(X.points) + ("far",),
            lambda a, b: Fraction(1) if "far" in (a, b) else X.d(a, b),
        )
        emb = nonexpanding(X, Y, lambda x: x)
        assert emb.is_isometric_embedding()
        Hemb = subset_map(emb)
        assert len(set(Hemb.mapping)) == len(Hemb.mapping)
        members = [
            frozenset(rng.sample(X.points, rng.randint(1, X.size)))
            for _ in range(rng.randint(1, 3))
        ]
        union = set(boundedness_witness(X, members))
        assert all(m <= union for m in members)


@criterion(10, "regularity: the coequalizer of the kernel pair reproduces "
               "100 random surjections in each of the three categories")
def test_criterion_10_regularity():
    rng = random.Random(1)
    z2 = gset_cat(Z2_GPD)
    subs = [tuple(h) for h in subgroups_of_sym(2)]
    gset_surjection = _gset_surjection_sampler(rng, z2, subs)
    for _ in range(100):
        assert regularity_check(random_finset_mor(rng, surjective=True))
        assert regularity_check(random_un_surjection(rng))
        assert regularity_check(gset_surjection())
