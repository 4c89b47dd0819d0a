"""Presheaf and unary-algebra objects: what their constructors reject, and
that the stored structure and the operation tables agree with the original
construction and with objects rebuilt from JSON."""

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from finbench.cats import (
    S3_GPD,
    TRIVIAL_GPD,
    UN,
    Z2_GPD,
    Z3_GPD,
    FiniteGroupoid,
    gset_cat,
    gset_free_orbit,
    presheaf_cat,
)
from finbench.perms import compose_perm
from finbench.serialize import canonical_dumps, obj_from_json, obj_to_json

from oracles import (
    presheaf_structure_by_canon,
    two_object_iso_groupoid,
    unary_structure_by_canon,
)

Z2 = gset_cat(Z2_GPD)
E2, S2 = (0, 1), (1, 0)


# ---------------------------------------------------------------------------
# rejections


def test_presheaf_rejects_partial_operation():
    with pytest.raises(ValueError, match="not total"):
        Z2.obj({"*": [0, 1]}, {E2: {0: 0, 1: 1}, S2: {0: 1}})


def test_presheaf_rejects_missing_operation():
    with pytest.raises(ValueError, match="not total"):
        Z2.obj({"*": [0, 1]}, {E2: {0: 0, 1: 1}})


def test_presheaf_rejects_image_outside_carrier():
    with pytest.raises(ValueError, match="leaves the carrier"):
        Z2.obj({"*": [0, 1]}, {E2: {0: 0, 1: 1}, S2: {0: 1, 1: 2}})


def test_presheaf_rejects_image_of_the_wrong_sort():
    cat = presheaf_cat(two_object_iso_groupoid())
    # u: a -> b sends 0 to ("b", 0), which is not in the carrier
    with pytest.raises(ValueError, match="operation u leaves the carrier"):
        cat.obj({"a": [0], "b": [1]}, {"ia": {0: 0}, "ib": {1: 1}, "u": {0: 0}, "v": {1: 0}})


def test_presheaf_rejects_non_identity_identity():
    with pytest.raises(ValueError, match="identity operation is not the identity"):
        Z2.obj({"*": [0, 1]}, {E2: {0: 1, 1: 0}, S2: {0: 1, 1: 0}})


def test_presheaf_rejects_failed_composition_law():
    # the swap of Z2 acting as a 3-cycle: s(s(x)) != x = id(x)
    with pytest.raises(ValueError, match="composition equation fails"):
        Z2.obj({"*": [0, 1, 2]}, {E2: {0: 0, 1: 1, 2: 2}, S2: {0: 1, 1: 2, 2: 0}})


def test_presheaf_rejects_failed_composition_across_sorts():
    cat = presheaf_cat(two_object_iso_groupoid())
    # u and v are not mutually inverse: v(u(0)) = 1 but ia(0) = 0
    with pytest.raises(ValueError, match="composition equation fails"):
        cat.obj(
            {"a": [0, 1], "b": [0, 1]},
            {"ia": {0: 0, 1: 1}, "ib": {0: 0, 1: 1}, "u": {0: 0, 1: 1}, "v": {0: 1, 1: 0}},
        )


def test_groupoid_rejects_duplicate_morphism_names():
    with pytest.raises(ValueError, match="duplicate morphism name"):
        FiniteGroupoid(
            "dup", ("*",), (("e", "*", "*"), ("e", "*", "*")), ((("e", "e"), "e"),),
            (("*", "e"),),
        )


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


SUBGROUPS = {name: _subgroups([m for m, _, _ in g.mors]) for name, g in GROUPS.items()}


@st.composite
def gsets(draw):
    """(cat, carriers, ops): a disjoint union of coset actions, relabelled."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    gpd = GROUPS[name]
    els = [m for m, _, _ in gpd.mors]
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
    return gset_cat(gpd), {"*": list(labels)}, ops


_PAIR = two_object_iso_groupoid()
# the same groupoid with its morphisms listed out of name order
_PAIR_REVERSED = FiniteGroupoid(
    "pairgpd-reversed", _PAIR.sorts, _PAIR.mors[::-1], _PAIR.comp, _PAIR.ids
)


@st.composite
def pair_groupoid_objects(draw):
    """(cat, carriers, ops) on a two-object groupoid: u is a bijection."""
    cat = presheaf_cat(draw(st.sampled_from([_PAIR, _PAIR_REVERSED])))
    k = draw(st.integers(0, 5))
    a = draw(st.lists(LABELS, min_size=k, max_size=k, unique=True))
    b = draw(st.permutations(draw(st.lists(LABELS, min_size=k, max_size=k, unique=True))))
    ops = {
        "ia": {x: x for x in a},
        "ib": {y: y for y in b},
        "u": dict(zip(a, b)),
        "v": dict(zip(b, a)),
    }
    return cat, {"a": a, "b": b}, ops


def _rebuilt(X):
    Y = obj_from_json(json.loads(canonical_dumps(obj_to_json(X))))
    assert Y == X and hash(Y) == hash(X)
    assert "_op_tables" not in Y.__dict__  # the tables are built on first use
    return Y


def _check_presheaf(cat, carriers, ops):
    X = cat.obj(carriers, ops)
    assert X.structure == presheaf_structure_by_canon(cat, carriers, ops)
    Y = _rebuilt(X)
    for m, d, _ in cat.gpd.mors:
        for x in X.carrier:
            if x[0] == d:
                assert cat.op(Y, m, x) == cat.op(X, m, x)
                assert cat.op(X, m, x)[1] == ops[m][x[1]]
    for x in X.carrier:
        assert cat.op_successors(Y, x) == cat.op_successors(X, x)
    T = cat.terminal()
    assert len(cat.hom_set(Y, Y)) == len(cat.hom_set(X, X))
    assert len(cat.hom_set(Y, T)) == len(cat.hom_set(X, T)) == 1
    assert cat.is_isomorphic(Y, X)
    return X


@settings(max_examples=60, deadline=None)
@given(gsets())
def test_gset_structure_matches_canonical_construction(case):
    cat, carriers, ops = case
    X = _check_presheaf(cat, carriers, ops)
    if cat.gpd.sorts == ("*",) and len(cat.gpd.mors) > 1:
        free = gset_free_orbit(cat, "probe")
        assert len(cat.hom_set(free, _rebuilt(X))) == len(cat.hom_set(free, X))


@settings(max_examples=40, deadline=None)
@given(pair_groupoid_objects())
def test_pair_groupoid_structure_matches_canonical_construction(case):
    _check_presheaf(*case)


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
