"""Presheaf and unary-algebra objects: what their constructors reject, and
that the stored structure and the operation tables agree with the original
construction and with objects rebuilt from JSON."""

import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from finbench.cats import (
    S3_GPD,
    TRIVIAL_GPD,
    UN,
    Z2_GPD,
    Z3_GPD,
    FiniteGroup,
    gset_cat,
    gset_free_orbit,
    presheaf_cat,
)
from finbench.core import Mor, Obj
from finbench.perms import closed_under, compose_perm
from finbench.certs import canonical_dumps
from finbench.serialize import obj_from_json, obj_to_json

from oracles import (
    brute_homs,
    natural_on_all_tables,
    presheaf_laws_broken,
    presheaf_structure_by_canon,
    presheaf_terminal,
    random_gset,
    unary_structure_by_canon,
)

Z2 = gset_cat(Z2_GPD)
E2, S2 = (0, 1), (1, 0)


# ---------------------------------------------------------------------------
# rejections


def test_presheaf_rejects_partial_operation():
    with pytest.raises(ValueError, match="not total"):
        Z2.obj([0, 1], {E2: {0: 0, 1: 1}, S2: {0: 1}})


def test_presheaf_rejects_missing_operation():
    with pytest.raises(ValueError, match="not total"):
        Z2.obj([0, 1], {E2: {0: 0, 1: 1}})


def test_presheaf_rejects_image_outside_carrier():
    with pytest.raises(ValueError, match="leaves the carrier"):
        Z2.obj([0, 1], {E2: {0: 0, 1: 1}, S2: {0: 1, 1: 2}})


def test_presheaf_rejects_image_of_the_wrong_sort():
    # a payload whose swap sends ("*", 0) to ("a", 1): every element of a
    # G-set is ("*", value), so the reader refuses it
    wrong = Obj(Z2.name, (("*", 0), ("*", 1)), ("ops", (
        (E2, ((("*", 0), ("*", 0)), (("*", 1), ("*", 1)))),
        (S2, ((("*", 0), ("a", 1)), (("*", 1), ("*", 0)))),
    )))
    with pytest.raises(ValueError, match="not a valid psh"):
        obj_from_json(obj_to_json(wrong))


def test_presheaf_rejects_non_identity_identity():
    with pytest.raises(ValueError, match="identity operation is not the identity"):
        Z2.obj([0, 1], {E2: {0: 1, 1: 0}, S2: {0: 1, 1: 0}})


def test_presheaf_rejects_failed_composition_law():
    # the swap of Z2 acting as a 3-cycle: s(s(x)) != x = id(x)
    with pytest.raises(ValueError, match="composition equation fails"):
        Z2.obj([0, 1, 2], {E2: {0: 0, 1: 1, 2: 2}, S2: {0: 1, 1: 2, 2: 0}})


def test_groupoid_rejects_composites_outside_and_missing_identities():
    # (1,2,0) o (1,2,0) = (2,0,1) is not among the elements
    with pytest.raises(ValueError, match="not closed under composition"):
        FiniteGroup("bad", [(0, 1, 2), (1, 2, 0)])
    # (1,2,0) o (2,0,1) is the identity, which is missing
    with pytest.raises(ValueError, match="not closed under composition"):
        FiniteGroup("noid", [(1, 2, 0), (2, 0, 1)])
    # closed under composition and holding the identity (0, 1), but (0, 0)
    # is no permutation, so this is no group
    assert closed_under({(0, 0), (0, 1)}, [(0, 0), (0, 1)], 2)
    with pytest.raises(ValueError, match="not permutations of one degree"):
        FiniteGroup("nogroup", [(0, 0), (0, 1)])
    with pytest.raises(ValueError, match="not permutations of one degree"):
        FiniteGroup("mixed", [(0,), (0, 1)])


def test_unary_rejects_partial_and_escaping_operations():
    with pytest.raises(ValueError, match="not total"):
        UN.obj([0, 1], {0: 1})
    with pytest.raises(ValueError, match="not total"):
        UN.obj([0, 1], {0: 1, 1: 2})


# ---------------------------------------------------------------------------
# differential: structure against the original construction, tables against
# objects rebuilt from JSON


GROUPS = {
    "triv": TRIVIAL_GPD,
    "z2": Z2_GPD,
    "z3": Z3_GPD,
    "s3": S3_GPD,
}

# labels of mixed types, so that carrier order is not insertion order
LABELS = st.one_of(
    st.integers(-5, 40),
    st.text("abcxyz", min_size=1, max_size=2),
    st.tuples(st.integers(0, 3), st.text("ab", max_size=1)),
)


def _subgroups(els):
    """Every subset of the group closed under composition (hence a subgroup)."""
    out = []
    for r in range(1, len(els) + 1):
        for sub in itertools.combinations(els, r):
            s = set(sub)
            if all(compose_perm(a, b) in s for a in s for b in s):
                out.append(s)
    return out


SUBGROUPS = {name: _subgroups(g.elements) for name, g in GROUPS.items()}


@st.composite
def gsets(draw):
    """(cat, values, ops): a disjoint union of coset actions, relabelled."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    gpd = GROUPS[name]
    els = gpd.elements
    orbits = draw(st.lists(st.sampled_from(SUBGROUPS[name]), min_size=1, max_size=3))
    points = []
    for i, H in enumerate(orbits):
        for c in {frozenset(compose_perm(x, h) for h in H) for x in els}:
            points.append((i, c))
    labels = draw(st.lists(LABELS, min_size=len(points), max_size=len(points), unique=True))
    label = dict(zip(points, labels))
    ops = {
        g: {label[(i, c)]: label[(i, frozenset(compose_perm(g, x) for x in c))]
            for i, c in points}
        for g in els
    }
    return gset_cat(gpd), labels, ops


def _rebuilt(X):
    Y = obj_from_json(json.loads(canonical_dumps(obj_to_json(X))))
    assert Y == X and hash(Y) == hash(X)
    assert "_op_tables" in Y.__dict__  # the reader rebuilds through cat.obj
    return Y


def _check_presheaf(cat, values, ops):
    X = cat.obj(values, ops)
    assert X.structure == presheaf_structure_by_canon(cat, values, ops)
    Y = _rebuilt(X)
    for g in cat.group.elements:
        for x in X.carrier:
            assert cat.op_apply(Y, g, x) == cat.op_apply(X, g, x)
            assert cat.op_apply(X, g, x)[1] == ops[g][x[1]]
    for x in X.carrier:
        assert cat.op_successors(Y, x) == cat.op_successors(X, x)
    T = presheaf_terminal(cat)
    assert len(cat.hom_set(Y, Y)) == len(cat.hom_set(X, X))
    assert len(cat.hom_set(Y, T)) == len(cat.hom_set(X, T)) == 1
    assert cat.is_isomorphic(Y, X)
    return X


@settings(max_examples=60, deadline=None)
@given(gsets())
def test_gset_structure_matches_canonical_construction(case):
    cat, values, ops = case
    X = _check_presheaf(cat, values, ops)
    if len(cat.group.elements) > 1:
        free = gset_free_orbit(cat, "probe")
        assert len(cat.hom_set(free, _rebuilt(X))) == len(cat.hom_set(free, X))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unary_structure_matches_canonical_construction(data):
    labels = data.draw(st.lists(LABELS, min_size=1, max_size=7, unique=True))
    op = {x: data.draw(st.sampled_from(labels)) for x in labels}
    X = UN.obj(labels, op)
    assert X.structure == unary_structure_by_canon(labels, op)
    Y = _rebuilt(X)
    assert [UN.op(Y, x) for x in X.carrier] == [op[x] for x in X.carrier]
    assert len(UN.hom_set(Y, Y)) == len(UN.hom_set(X, X))
    assert len(UN.hom_set(UN.cycle(2), Y)) == len(UN.hom_set(UN.cycle(2), X))


# ---------------------------------------------------------------------------
# composition laws checked on generators, against every composable pair


LAW_GROUPS = {"z2": Z2_GPD, "z3": Z3_GPD, "s3": S3_GPD}


@pytest.mark.parametrize("gpd, laws", [(TRIVIAL_GPD, 0), (Z2_GPD, 2), (Z3_GPD, 3), (S3_GPD, 12)])
def test_generators_reach_every_morphism(gpd, laws):
    cat = presheaf_cat(gpd)
    assert len(cat._laws) == laws
    reached = {tuple(range(len(gpd.elements[0])))}
    frontier = list(reached)
    while frontier:
        f = frontier.pop()
        for g in cat.generators:
            h = compose_perm(g, f)
            if h not in reached:
                reached.add(h)
                frontier.append(h)
    assert reached == set(gpd.elements)


def _lawful_tables(rng, gpd):
    """(values, ops) of an action of gpd: a random union of coset actions."""
    cat = gset_cat(gpd)
    subs = [tuple(h) for h in _subgroups(gpd.elements)]
    X = random_gset(rng, cat, subs, max_size=6)
    ops = {g: {x[1]: cat.op_apply(X, g, x)[1] for x in X.carrier} for g in gpd.elements}
    return [x[1] for x in X.carrier], ops


def _accepts(cat, values, ops):
    try:
        cat.obj(values, ops)
    except ValueError as exc:
        assert "composition equation fails" in str(exc) or "identity" in str(exc)
        return False
    return True


@pytest.mark.parametrize("name", sorted(LAW_GROUPS))
def test_generator_laws_accept_exactly_the_lawful_tables(name):
    """Random total tables of three kinds: lawful ones; lawful ones with one
    entry of one non-generator operation changed; and identities with every
    other operation random.  The constructor, which checks the laws with a
    generator on the left, accepts exactly what the all-pairs oracle
    accepts.  A table that breaks a law breaks one with a generator on the
    left or an identity law: the reduction's claim, seen by the oracle."""
    gpd = LAW_GROUPS[name]
    cat = presheaf_cat(gpd)
    non_generators = [g for g in gpd.elements if g not in cat.generators]
    rng = random.Random(name)
    outcomes = Counter()
    for trial in range(300):
        values, ops = _lawful_tables(rng, gpd)
        kind = trial % 3
        if kind == 1:
            m = rng.choice(non_generators)
            if len(values) < 2:
                continue
            x = rng.choice(list(ops[m]))
            ops[m][x] = rng.choice([y for y in values if y != ops[m][x]])
        elif kind == 2:
            e = gpd.elements[0]
            ops = {m: table if m == e else {x: rng.choice(values) for x in table}
                   for m, table in ops.items()}
        broken = presheaf_laws_broken(gpd, values, ops)
        assert _accepts(cat, values, ops) == (not broken)
        if broken:
            assert any(g == "id" or g in cat.generators for g, _ in broken)
        outcomes[(kind, not broken)] += 1
    # lawful tables pass, one changed entry always breaks a law, and random
    # operations are seen both accepted and rejected
    assert outcomes[(1, True)] == 0 and outcomes[(1, False)] > 0
    assert outcomes[(0, True)] > 0 and outcomes[(0, False)] == 0
    assert outcomes[(2, True)] > 0 and outcomes[(2, False)] > 0


# ---------------------------------------------------------------------------
# naturality checked on the generators, and the hom search that propagates
# along them only


def _unchecked_mor(X, Y, mapping):
    """The Mor X -> Y with this mapping, built without the constructor's
    checks."""
    f = object.__new__(Mor)
    for name, value in (("dom", X), ("cod", Y), ("mapping", tuple(mapping))):
        object.__setattr__(f, name, value)
    return f


@pytest.mark.parametrize("name", ["z3", "s3"])
def test_naturality_on_generators_agrees_with_every_table(name):
    """Random maps between random G-sets: homs, homs with one image moved,
    and arbitrary maps."""
    gpd = LAW_GROUPS[name]
    cat = presheaf_cat(gpd)
    rng = random.Random(f"natural/{name}")
    verdicts = Counter()
    for _ in range(40):
        X, Y = (cat.obj(*_lawful_tables(rng, gpd)) for _ in range(2))
        maps = [h.mapping for h in cat.hom_set(X, Y)[:3]]
        for mapping in maps[:]:
            moved = list(mapping)
            i = rng.randrange(len(moved))
            moved[i] = rng.choice(Y.carrier)
            maps.append(moved)
        maps += [[rng.choice(Y.carrier) for _ in X.carrier] for _ in range(4)]
        for mapping in maps:
            expected = natural_on_all_tables(X, Y, mapping)
            assert cat.preserves_structure(_unchecked_mor(X, Y, mapping)) == expected
            verdicts[expected] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


@pytest.mark.parametrize("name", ["z3", "s3"])
def test_search_on_generators_gives_the_brute_homs_in_order(name):
    gpd = LAW_GROUPS[name]
    cat = gset_cat(gpd)
    assert len(cat.generator_tables(gset_free_orbit(cat))) < len(gpd.elements) - 1
    subs = [tuple(h) for h in _subgroups(gpd.elements)]
    rng = random.Random(f"homs/{name}")
    for _ in range(15):
        X = random_gset(rng, cat, subs, max_size=5)
        Y = random_gset(rng, cat, subs, max_size=4)
        assert cat.hom_set(X, Y) == brute_homs(X, Y)
        bijections = [h for h in brute_homs(Y, Y) if h.is_injective()]
        assert cat.find_iso(Y, Y) == bijections[0]
