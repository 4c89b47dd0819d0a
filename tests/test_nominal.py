"""Single-orbit classification, equivariance decisions, the subset-orbit
counterexample functor, and the strictness construction for nominal sets."""

import itertools
import random

import pytest

from finbench.nominal import (
    ONE,
    NomMor,
    NominalSetSpec,
    OrbitSpec,
    all_equivariant_maps,
    countable_strictness_witness,
    equivalence_from_subgroup,
    hom_exists_Pn,
    nom_compose,
    nom_counterexample,
    nom_counterexample_mor,
    nom_identity,
    one_plus,
    orbit_iso_map,
    orbit_map_candidates,
    p_chain_certificate,
    p_prefix,
    pn_orbit,
    single_orbit_enumerate,
    subgroup_from_quotient,
    subgroups_of_Sn,
    support,
    support_rigidity_check,
    P_SUBSET_FAMILY,
)
import finbench.nominal as nominal
from finbench.core import elem_key
from finbench.perms import (
    all_perms,
    compose_perm,
    inverse_perm,
    is_subgroup,
    mulclose,
    subgroups_of_sym,
    sym_generators,
    transposition,
)
from finbench.colimits import FAIL

from oracles import (
    brute_subgroups,
    class_min,
    equivalence_from_subgroup_by_index,
    orbit_elements_brute,
    orbit_iso_map_transpositions,
    subgroups_conjugacy_classes,
)


# ---------------------------------------------------------------------------
# subgroup enumeration


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 6), (4, 30)])
def test_subgroup_counts_against_oracle(n, count):
    ours = subgroups_of_Sn(n)
    oracle = brute_subgroups(n)
    assert len(ours) == len(oracle) == count
    assert {frozenset(h) for h in ours} == set(oracle)


def _conjugates(H, n):
    return {
        frozenset(compose_perm(compose_perm(g, h), inverse_perm(g)) for h in H)
        for g in all_perms(n)
    }


def test_s5_has_156_subgroups_in_19_conjugacy_classes():
    subs = subgroups_of_sym(5)
    assert len(subs) == len(set(subs)) == 156
    assert all(is_subgroup(h, 5) for h in subs)
    found = set(subs)
    classes = set()
    for H in subs:
        conjugates = _conjugates(H, 5)
        assert found.issuperset(conjugates)
        classes.add(min(tuple(sorted(K)) for K in conjugates))
    assert len(classes) == 19


def test_subgroup_enumeration_rejects_large_n():
    with pytest.raises(ValueError):
        subgroups_of_Sn(6)


# ---------------------------------------------------------------------------
# orbits and supports


def test_orbit_elements_ordered_pairs():
    v2 = OrbitSpec(2)
    els = v2.elements(4)
    assert len(els) == 12  # all injective pairs from a 4-name pool


def test_orbit_elements_unordered_pairs():
    p2 = pn_orbit(2)
    els = p2.elements(4)
    assert len(els) == 6
    assert all(rep == tuple(sorted(rep)) for rep in els)


def test_support_is_tuple_image():
    p2 = pn_orbit(2)
    X = NominalSetSpec((p2,))
    for e in X.elements(6):
        assert support(e) == frozenset(e[1])


def test_support_of_triple():
    v3 = OrbitSpec(3)
    X = NominalSetSpec((v3,))
    elem = (0, (0, 1, 2))
    assert support(elem) == frozenset({0, 1, 2})


def test_support_equivariance_sampled():
    rng = random.Random(4)
    X = NominalSetSpec((pn_orbit(2), OrbitSpec(2)))
    pool = 6
    perms = all_perms(pool)
    for _ in range(40):
        pi = perms[rng.randrange(len(perms))]
        e = rng.choice(X.elements(pool))
        assert support(X.act(pi, e)) == frozenset(pi[v] for v in support(e))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_orbit_elements_match_brute_canonicalisation(n):
    pool = 2 * n + 2
    for H in subgroups_of_Sn(n):
        spec = OrbitSpec(n, tuple(H))
        assert spec.elements(pool) == orbit_elements_brute(spec, pool)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_canon_rep_is_the_class_minimum(n):
    tuples = list(itertools.permutations(range(2 * n + 2), n))
    for H in subgroups_of_Sn(n):
        spec = OrbitSpec(n, tuple(H))
        for t in tuples:
            expected = class_min(spec, t)
            assert spec.canon_rep(t) == expected, (H, t)
            assert spec.canon_rep(list(t)) == expected, (H, t)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_orbit_elements_plain_order_is_elem_key_order(n):
    # elements are sorted as plain tuples; for equal-length tuples of int
    # names that must be the carrier order elem_key defines
    pool = 2 * n + 2
    for H in subgroups_of_Sn(n):
        elems = OrbitSpec(n, tuple(H)).elements(pool)
        assert list(elems) == sorted(elems, key=elem_key) == sorted(elems)


def test_orbit_support_size_constant():
    # every element of an orbit built from a subgroup keeps full support
    for n in range(4):
        for H in subgroups_of_Sn(n):
            spec = OrbitSpec(n, tuple(H))
            for e in spec.elements(2 * n + 2):
                assert len(set(e)) == n


# ---------------------------------------------------------------------------
# quotient correspondence roundtrips


@pytest.mark.parametrize("n", [2, 3, 4])
def test_subgroup_equivalence_roundtrip(n):
    for H in subgroups_of_Sn(n):
        assert subgroup_from_quotient(equivalence_from_subgroup(H, n), n) == H


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subgroup_equivalence_agrees_with_indexed_formula(n):
    tuples = list(itertools.permutations(range(n + 2), n))
    for H in subgroups_of_Sn(n):
        q = equivalence_from_subgroup(H, n)
        ref = equivalence_from_subgroup_by_index(H, n)
        for t in tuples:
            for u in tuples:
                assert (q(t) == q(u)) == ref(t, u), (H, t, u)
            # a list argument is mapped as the tuple it lists
            assert q(list(t)) == q(t)


def test_identity_equivalence_gives_trivial_subgroup():
    S = subgroup_from_quotient(tuple, 2)
    assert S == ((0, 1),)


def test_same_image_equivalence_gives_full_group():
    S = subgroup_from_quotient(frozenset, 2)
    assert len(S) == 2


def test_non_equivariant_equivalence_rejected():
    # merging one specific pair only cannot be equivariant
    def q(t):
        return frozenset(t) if set(t) == {0, 1} else tuple(t)

    with pytest.raises(ValueError, match="not equivariant"):
        subgroup_from_quotient(q, 2)


def test_cross_support_pair_away_from_representatives_rejected():
    # two tuples on different name sets, neither the least of its name set
    merged = {(1, 0, 2), (6, 5, 7)}

    def q(t):
        return "merged" if tuple(t) in merged else tuple(t)

    with pytest.raises(ValueError, match="preserve supports"):
        subgroup_from_quotient(q, 3)


# ---------------------------------------------------------------------------
# single-orbit classification


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 4)])
def test_single_orbit_class_counts(n, count):
    assert len(single_orbit_enumerate(n)) == count
    # independent oracle: conjugacy classes of subgroups
    assert len(subgroups_conjugacy_classes(n)) == count


def test_single_orbit_enumerate_decides_through_orbit_iso_map(monkeypatch):
    # the benchmark times each classification by rebinding this module global
    calls = []
    search = nominal.orbit_iso_map

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(nominal, "orbit_iso_map", counted)
    assert len(single_orbit_enumerate(3)) == 4
    # every subgroup after the first is compared with a class found before it
    assert len(calls) >= len(subgroups_of_Sn(3)) - 1


def test_conjugate_subgroups_give_isomorphic_orbits():
    a = OrbitSpec(3, (transposition(3, 0, 1),))
    b = OrbitSpec(3, (transposition(3, 1, 2),))
    assert orbit_iso_map(a, b) is not None


def test_non_conjugate_subgroups_distinct_orbits():
    ordered = OrbitSpec(2)
    unordered = pn_orbit(2)
    assert orbit_iso_map(ordered, unordered) is None


def _iso_element_map(a, f):
    """The map f between single orbits, element by element over its pool."""
    if f is None:
        return None
    return {t: f.apply((0, t))[1] for t in a.elements(f.pool)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_iso_map_agrees_with_transposition_oracle(n):
    specs = [OrbitSpec(n, tuple(H)) for H in subgroups_of_Sn(n)]
    for a in specs:
        for b in specs:
            found = _iso_element_map(a, orbit_iso_map(a, b))
            assert found == orbit_iso_map_transpositions(a, b)


def test_orbit_iso_map_agrees_with_oracle_on_s4_dihedral_class():
    # the three dihedral subgroups of order 8 in S4 are mutually conjugate
    specs = [OrbitSpec(4, tuple(H)) for H in subgroups_of_Sn(4) if len(H) == 8]
    assert len(specs) == 3
    a = specs[0]
    for b in specs:
        found = orbit_iso_map(a, b)
        assert found is not None
        assert _iso_element_map(a, found) == orbit_iso_map_transpositions(a, b)


def test_orbit_iso_exists_iff_subgroups_conjugate_n4():
    subs = [frozenset(H) for H in subgroups_of_Sn(4)]
    specs = [OrbitSpec(4, tuple(sorted(H))) for H in subs]
    for H, a in zip(subs, specs):
        conj = _conjugates(H, 4)
        for K, b in zip(subs, specs):
            assert (orbit_iso_map(a, b) is not None) == (K in conj)


def test_single_orbit_classes_n5_are_the_19_conjugacy_classes():
    classes = [spec.group for spec in single_orbit_enumerate(5)]
    assert len(classes) == 19
    # brute conjugation: the classes found are pairwise non-conjugate and
    # every subgroup of S5 is conjugate to one of them
    covered = [_conjugates(H, 5) for H in classes]
    assert sum(len(c) for c in covered) == len(set().union(*covered)) == 156
    assert set().union(*covered) == set(subgroups_of_sym(5))


def _candidates_by_filter(dom_orbit, cod, pool):
    """Every element of cod over the pool with support inside the base
    support and fixed by generators of the base stabilizer in Sym(pool):
    the subgroup's generators on the base names, and two generators of the
    symmetric group on the other names."""
    n = dom_orbit.n
    stab = [tuple(sigma) + tuple(range(n, pool)) for sigma in dom_orbit.gens]
    stab += sym_generators(pool, range(n, pool))
    return [
        e for e in cod.elements(pool)
        if support(e) <= set(range(n)) and all(cod.act(pi, e) == e for pi in stab)
    ]


def test_orbit_map_candidates_agree_with_filtering_every_element():
    rng = random.Random(8)
    orbits = [OrbitSpec(n, tuple(H)) for n in range(4) for H in subgroups_of_Sn(n)]
    cods = [p_prefix(k) for k in range(1, 4)]
    cods += [one_plus(X) for X in cods]
    cods += [NominalSetSpec(tuple(rng.sample(orbits, rng.randint(1, 3)))) for _ in range(60)]
    for _ in range(300):
        dom_orbit = rng.choice(orbits)
        cod = rng.choice(cods)
        pool = max(dom_orbit.default_pool(), cod.default_pool())
        assert orbit_map_candidates(dom_orbit, cod, pool) == _candidates_by_filter(dom_orbit, cod, pool)


def test_sym_generators_generate_the_symmetric_group():
    for n in range(5):
        assert len(mulclose(sym_generators(n), n)) == len(all_perms(n))
    pool, names = 6, [1, 3, 4, 5]
    group = mulclose(sym_generators(pool, names), pool)
    assert len(group) == 24
    assert all(g[0] == 0 and g[2] == 2 for g in group)


# ---------------------------------------------------------------------------
# hom existence and the counterexample functor


def test_hom_exists_examples():
    V = NominalSetSpec((OrbitSpec(1),))
    assert hom_exists_Pn(1, V)
    assert hom_exists_Pn(2, ONE)
    assert not hom_exists_Pn(2, NominalSetSpec((pn_orbit(1),)))


def test_hom_exists_Pn_family():
    assert hom_exists_Pn(3, P_SUBSET_FAMILY)


def test_nom_cx_on_p1():
    r = nom_counterexample(NominalSetSpec((pn_orbit(1),)))
    assert r.added_unit and r.witness_n == 2
    assert r.value.orbit_count == 2


def test_nom_cx_on_terminal():
    r = nom_counterexample(ONE)
    assert not r.added_unit and r.value == ONE


def test_nom_cx_on_prefix():
    r = nom_counterexample(p_prefix(3))
    assert r.added_unit and r.witness_n == 4
    assert r.value.orbit_count == 4


def test_nom_cx_on_family():
    r = nom_counterexample(P_SUBSET_FAMILY)
    assert r.value == ONE


def test_nom_cx_morphism_action():
    X, Y = p_prefix(1), p_prefix(2)
    inc = NomMor(X, Y, ((0, (0,)),), 10)
    Ff = nom_counterexample_mor(inc, n_bound=3)
    assert Ff.dom.orbit_count == 2 and Ff.cod.orbit_count == 3
    assert Ff.images[0] == (0, ())  # the added unit maps to the added unit


# ---------------------------------------------------------------------------
# rigidity and the chain certificate


def test_only_endo_of_prefix_is_identity():
    X = p_prefix(3)
    endos = all_equivariant_maps(X, X, pool=10)
    assert len(endos) == 1
    ident = nom_identity(X, pool=10)
    assert endos[0].images == ident.images


def test_rigidity_report():
    X = p_prefix(3)
    for f in all_equivariant_maps(X, X, pool=10):
        report = support_rigidity_check(f)
        assert report.preserved
        assert report.checked == len(X.elements(10))


def test_p_chain_certificate():
    verdict, witness = p_chain_certificate(3)
    assert verdict == FAIL
    assert witness["lhs_size"] == 4 and witness["rhs_size"] == 1
    assert witness["persistence"]["still_failing"]
    assert witness["persistence"]["lhs_size_k1"] == 5


# ---------------------------------------------------------------------------
# strictness construction


def test_strictness_identity():
    X = p_prefix(2)
    b = nom_identity(X, pool=10)
    wit = countable_strictness_witness(b)
    assert wit.b_prime.dom.orbit_count == X.orbit_count


def test_strictness_duplicate_orbit_folds():
    A = NominalSetSpec((pn_orbit(1), pn_orbit(1)))
    b = NomMor(NominalSetSpec((pn_orbit(1),)), A, ((0, (0,)),), 10)
    wit = countable_strictness_witness(b)
    assert wit.b_prime.dom.orbit_count == 2
    # the fold sends the duplicate orbit onto its isomorphic representative
    assert wit.f.images[1][0] in (0, 1)


def test_strictness_triple_duplicate_folds_to_two():
    A = NominalSetSpec((pn_orbit(1), pn_orbit(1), pn_orbit(1)))
    b = NomMor(NominalSetSpec((pn_orbit(1),)), A, ((0, (0,)),), 10)
    wit = countable_strictness_witness(b)
    assert wit.b_prime.dom.orbit_count == 2  # image orbit plus one class rep


def test_strictness_mixed_orbits():
    A = NominalSetSpec((pn_orbit(1), pn_orbit(2)))
    b = NomMor(NominalSetSpec((pn_orbit(1),)), A, ((0, (0,)),), 10)
    wit = countable_strictness_witness(b)
    assert wit.b_prime.dom.orbit_count == 2  # non-isomorphic orbits both kept


def test_single_orbit_classes_n4_against_conjugacy_oracle():
    assert len(single_orbit_enumerate(4)) == len(subgroups_conjugacy_classes(4)) == 11
