"""Single-orbit classification, equivariance decisions and the subset-orbit
counterexample functor for nominal sets."""

import hashlib
import itertools
import json
import random

import pytest

from finbench.nominal import (
    ONE,
    NominalSetSpec,
    OrbitSpec,
    all_equivariant_maps,
    equivalence_from_subgroup,
    nom_counterexample,
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
import finbench.perms as perms
from finbench.core import elem_key
from finbench.perms import (
    _join,
    _normaliser,
    all_perms,
    compose_perm,
    inverse_perm,
    is_subgroup,
    mulclose,
    subgroups_of_sym,
    sym_generators,
    transposition,
)
from finbench.certs import RECIPES
from finbench.colimits import FAIL
from finbench.serialize import orbit_from_json

from oracles import (
    brute_subgroups,
    class_min,
    equivalence_from_subgroup_by_index,
    hom_exists_Pn,
    nom_identity,
    orbit_elements_brute,
    orbit_iso_map_transpositions,
    single_orbit_enumerate_whole,
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


def _classes_by_generators(subs, n):
    """The number of conjugacy classes among subs, conjugating by the two
    generators of the symmetric group; every conjugate must be in subs."""
    conjugators = [(s, inverse_perm(s)) for s in sym_generators(n)]
    seen, classes = set(), 0
    for H in subs:
        if H in seen:
            continue
        classes += 1
        seen.add(H)
        todo = [H]
        for K in todo:
            for s, s_inv in conjugators:
                L = frozenset(compose_perm(compose_perm(s, x), s_inv) for x in K)
                assert L in subs
                if L not in seen:
                    seen.add(L)
                    todo.append(L)
    return classes


def test_s6_has_1455_subgroups_in_56_conjugacy_classes():
    # OEIS A005432 and A000638; that each is a subgroup is checked below
    subs = subgroups_of_sym(6)
    assert len(subs) == len(set(subs)) == 1455
    assert _classes_by_generators(subs, 6) == 56


@pytest.mark.parametrize("n", range(7))
def test_generating_sets_generate_their_subgroups(n):
    for H, gens in subgroups_of_sym(n).items():
        assert mulclose(gens, n) == H
        # each member at least doubles the subgroup the earlier ones generate
        assert 2 ** len(gens) <= len(H)


def _normaliser_by_definition(H, n):
    return {s for s in all_perms(n)
            if frozenset(compose_perm(compose_perm(s, x), inverse_perm(s)) for x in H) == H}


@pytest.mark.parametrize("n,sample", [(4, None), (5, 40)])
def test_normaliser_matches_its_definition(n, sample):
    everything = [(s, inverse_perm(s)) for s in all_perms(n)]
    items = list(subgroups_of_sym(n).items())
    if sample:
        items = random.Random(28).sample(items, sample)
    for H, gens in items:
        assert {s for s, _ in _normaliser(H, gens, everything)} == _normaliser_by_definition(H, n)


# sha256 of json.dumps(subgroups_of_Sn(n)), fixed when the enumeration moved
# to coset joins: the recipes and samplers read this list in this order.  The
# n = 6 list matched that enumeration, run with its n <= 5 guard lifted.
SUBGROUP_LIST_SHA256 = {
    0: "33ea8a78f520f45513d314e76cf1b97ee8354c1d6317ec35e7c54cad0c9694f7",
    1: "7ae717c9aac47e3aed392515ac52ae17e50da8555c618e0ace9ee7b86985afea",
    2: "7d3f7d5d7c27c5df43888ac69c81af7fbc74f3f2f2cdea4545a15edab0fd8aec",
    3: "dc1ed16355cc5d7ba632c6e68e1b7c9124f1af62c5b6dd067a3a4031229802d8",
    4: "51781ecbeaa74cd38c83642907cbd667466d76f82dda2af8cb9a80e0697c6507",
    5: "02b0dd4710eb8677fcd0561880b7deee759e2f0e77ccbe1c37dd0ede632ef5f4",
    6: "7b2aa922d0d3b5e54dd9c4b16ca119b60a7b87d298a0d4d29a12e5b8abbf0fbf",
}


@pytest.mark.parametrize("n", sorted(SUBGROUP_LIST_SHA256))
def test_subgroup_list_bytes_are_pinned(n):
    text = json.dumps(subgroups_of_Sn(n))
    assert hashlib.sha256(text.encode()).hexdigest() == SUBGROUP_LIST_SHA256[n]


def _join_pairs(n):
    """(subgroup, generators of it, cyclic generator) for every subgroup of
    S_n and one generator of each cyclic subgroup."""
    cyclic = {}
    for g in all_perms(n):
        cyclic.setdefault(mulclose((g,), n), g)
    return [(h, gens, g) for h, gens in subgroups_of_sym(n).items() for g in cyclic.values()]


def test_coset_join_matches_closure_on_every_s4_pair():
    pairs = _join_pairs(4)
    assert len(pairs) == 30 * 17
    for h, gens, g in pairs:
        assert _join(h, gens, g) == mulclose(gens + (g,), 4)


def test_coset_join_matches_closure_on_sampled_s5_pairs():
    pairs = random.Random(0).sample(_join_pairs(5), 200)
    for h, gens, g in pairs:
        assert _join(h, gens, g) == mulclose(gens + (g,), 5)


def _join_first_coset_only(h, gens, g):
    """_join with a fault: it walks only the first coset representative."""
    els = set(h)
    r = tuple(range(len(g)))
    for a in gens + (g,):
        c = compose_perm(a, r)
        if c not in els:
            els.update(compose_perm(c, x) for x in h)
    return frozenset(els)


def test_faulty_join_raises_instead_of_running_away(monkeypatch):
    subgroups_of_sym.cache_clear()
    monkeypatch.setattr(perms, "_join", _join_first_coset_only)
    try:
        with pytest.raises(AssertionError, match="not closed"):
            subgroups_of_sym(4)
    finally:
        subgroups_of_sym.cache_clear()


def _normaliser_without_inverse(h, gens, conjugators):
    """_normaliser with a fault: it tests s*x in h in place of s*x*s^-1."""
    for x in gens:
        conjugators = [(s, s_inv) for s, s_inv in conjugators if compose_perm(s, x) in h]
    return conjugators


def test_faulty_normaliser_raises_instead_of_passing_silently(monkeypatch):
    # the faulty test gives h itself, a subgroup of N(h); pruning by it would
    # still list every subgroup, so only the class-size check can see it
    subgroups_of_sym.cache_clear()
    monkeypatch.setattr(perms, "_normaliser", _normaliser_without_inverse)
    try:
        with pytest.raises(AssertionError, match="normaliser"):
            subgroups_of_sym(4)
    finally:
        subgroups_of_sym.cache_clear()


# ---------------------------------------------------------------------------
# orbit groups: closure under generators against the |G|^2 subgroup test


@pytest.mark.parametrize("n", range(6))
def test_orbit_group_is_the_subgroup_it_is_given(n):
    for H in subgroups_of_Sn(n):
        group = OrbitSpec(n, H).group
        assert group == frozenset(H)
        assert is_subgroup(group, n)


@pytest.mark.parametrize("n", range(7))
def test_pn_orbit_group_is_the_symmetric_group(n):
    assert pn_orbit(n).group == frozenset(all_perms(n))


def _mulclose_one_round(gens, n):
    """mulclose stopped after its first round: the identity, the generators
    and their pairwise products."""
    first = {tuple(range(n)), *gens}
    return frozenset(first | {compose_perm(a, b) for a in gens for b in gens})


def test_orbit_group_raises_when_closure_stops_early(monkeypatch):
    monkeypatch.setattr(nominal, "mulclose", _mulclose_one_round)
    with pytest.raises(AssertionError, match="closure failed"):
        pn_orbit(4).group


@pytest.mark.parametrize("gen", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [0, 1, 3], [0, 1, -1],
                                 [0, 1, "2"], [0, 1, 2.0], [True, 0, 2]])
def test_orbit_from_json_rejects_a_generator_that_is_not_a_permutation(gen):
    with pytest.raises(ValueError, match="not a permutation"):
        orbit_from_json({"n": 3, "generators": [[1, 0, 2], gen]})


def test_subgroup_enumeration_rejects_large_n():
    with pytest.raises(ValueError):
        subgroups_of_Sn(7)


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


def test_roundtrip_recipe_builds_from_generating_sets(monkeypatch):
    seen = []
    build = nominal.equivalence_from_subgroup

    def recorded(S, n):
        seen.append(S)
        return build(S, n)

    monkeypatch.setattr(nominal, "equivalence_from_subgroup", recorded)
    assert RECIPES["nominal-roundtrip"](n=4).witness == {"subgroups": 30, "failures": []}
    assert seen == list(subgroups_of_sym(4).values())
    # a failure records the subgroup's elements, not its generators
    monkeypatch.setattr(nominal, "subgroup_from_quotient", lambda quotient, n: ())
    failures = RECIPES["nominal-roundtrip"](n=2).witness["failures"]
    assert failures == [[[0, 1]], [[0, 1], [1, 0]]]


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


@pytest.mark.parametrize("n", range(6))
def test_single_orbit_classes_match_whole_subgroup_orbits(n):
    ours = single_orbit_enumerate(n)
    assert [spec.group for spec in ours] == [spec.group for spec in single_orbit_enumerate_whole(n)]
    assert [spec.gens for spec in ours] == [subgroups_of_sym(n)[spec.group] for spec in ours]


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
    value, n = nom_counterexample(NominalSetSpec((pn_orbit(1),)))
    assert n == 2
    assert value.orbit_count == 2


def test_nom_cx_on_terminal():
    assert nom_counterexample(ONE) == (ONE, None)


def test_nom_cx_on_prefix():
    value, n = nom_counterexample(p_prefix(3))
    assert n == 4
    assert value.orbit_count == 4


def test_nom_cx_on_family():
    assert nom_counterexample(P_SUBSET_FAMILY) == (ONE, None)


def test_nom_cx_on_prefix_4_needs_support_5():
    X = p_prefix(4)
    assert nom_counterexample(X) == (one_plus(X), 5)


def _cx_by_search(X, n_max=5):
    """nom_counterexample by the hom search over n = 1..n_max: exact on
    orbits of support below n_max, which no P_{n_max} maps into unless one
    of them is a fixed point."""
    for n in range(1, n_max + 1):
        if not hom_exists_Pn(n, X):
            return one_plus(X), n
    return ONE, None


_SINGLE_ORBITS = [OrbitSpec(n, tuple(H)) for n in range(5) for H in subgroups_of_Sn(n)]


def test_rule_agrees_with_hom_search_on_every_single_orbit():
    assert len(_SINGLE_ORBITS) == 40
    for o in _SINGLE_ORBITS:
        X = NominalSetSpec((o,))
        for n in range(1, 6):
            full = o.n == 0 or (o.n == n and len(o.group) == len(all_perms(n)))
            assert hom_exists_Pn(n, X) == full, (o, n)
        assert nom_counterexample(X) == _cx_by_search(X), o


def test_rule_agrees_with_hom_search_on_sums_of_orbits():
    rng = random.Random(26)
    for _ in range(60):
        X = NominalSetSpec(tuple(rng.choice(_SINGLE_ORBITS) for _ in range(rng.randint(2, 3))))
        assert nom_counterexample(X) == _cx_by_search(X), X


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
        assert support_rigidity_check(f) == ()


def test_p_chain_certificate():
    verdict, witness = p_chain_certificate(3)
    assert verdict == FAIL
    assert witness["lhs_size"] == 4 and witness["rhs_size"] == 1
    assert witness["persistence"]["still_failing"]
    assert witness["persistence"]["lhs_size_k1"] == 5


def test_single_orbit_classes_n4_against_conjugacy_oracle():
    assert len(single_orbit_enumerate(4)) == len(subgroups_conjugacy_classes(4)) == 11
