"""Exact-arithmetic metric spaces and the subset-space functor."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from finbench.hausdorff import (
    FinMetricSpace,
    NonexpandingMap,
    boundedness_witness,
    hausdorff_dist,
    metric_space,
    nonexpanding,
    random_metric_space,
    subset_map,
    subset_space,
)
from finbench.certs import canonical_dumps
from finbench.serialize import space_from_json, space_to_json

from oracles import hausdorff_by_definition, triangle_by_pairs


def _half_space():
    return metric_space([0, 1], lambda x, y: Fraction(1, 2))


def test_hausdorff_identity_symmetry():
    X = _half_space()
    assert hausdorff_dist(X, [0, 1], [0, 1]) == 0
    assert hausdorff_dist(X, [0], [1]) == hausdorff_dist(X, [1], [0]) == Fraction(1, 2)


def test_hausdorff_one_sided_sup():
    X = _half_space()
    assert hausdorff_dist(X, [0], [0, 1]) == X.d(1, 0)


def test_subset_space_sizes():
    for size in (1, 2, 3):
        X = random_metric_space(random.Random(size), size)
        assert subset_space(X).size == 2**size - 1


def test_subset_space_table_matches_definition():
    X = random_metric_space(random.Random(3), 3)
    H = subset_space(X)
    for a in H.points:
        for b in H.points:
            expected = 0 if a == b else hausdorff_by_definition(X, a, b)
            assert H.d(a, b) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_subset_space_metric_axioms(seed, size):
    # the FinMetricSpace constructor checks all axioms with exact equality
    X = random_metric_space(random.Random(seed), size)
    subset_space(X)


def test_subset_map_identity_and_constant():
    X = random_metric_space(random.Random(5), 3)
    idX = nonexpanding(X, X, lambda x: x)
    assert subset_map(idX).mapping == subset_space(X).points
    c = nonexpanding(X, X, lambda x: X.points[0])
    Hc = subset_map(c)
    assert all(img == frozenset({X.points[0]}) for img in Hc.mapping)


def test_subset_map_of_embedding_is_injective():
    X = random_metric_space(random.Random(6), 3)
    points = tuple(X.points) + ("far",)
    Y = metric_space(
        points, lambda a, b: Fraction(1) if "far" in (a, b) else X.d(a, b)
    )
    emb = nonexpanding(X, Y, lambda x: x)
    assert emb.is_isometric_embedding()
    Hemb = subset_map(emb)
    assert len(set(Hemb.mapping)) == len(Hemb.mapping)


def test_expanding_map_rejected():
    X = metric_space([0, 1], lambda a, b: Fraction(1, 4))
    Y = metric_space([0, 1], lambda a, b: Fraction(1, 2))
    with pytest.raises(ValueError):
        nonexpanding(X, Y, lambda x: x)


def test_boundedness_witness_singleton():
    X = random_metric_space(random.Random(7), 4)
    assert boundedness_witness(X, [frozenset([X.points[0]])]) == (X.points[0],)


def test_boundedness_witness_all_singletons():
    X = random_metric_space(random.Random(8), 4)
    assert boundedness_witness(X, [frozenset([p]) for p in X.points]) == X.points


def test_boundedness_witness_random_members():
    rng = random.Random(9)
    X = random_metric_space(rng, 5)
    members = [frozenset(rng.sample(X.points, rng.randint(1, 5))) for _ in range(3)]
    assert set(boundedness_witness(X, members)) == set().union(*members)


# ---------------------------------------------------------------------------
# every rejection path of the constructors, with mixed denominators

F = Fraction


def _matrix(n, entries):
    """Symmetric matrix with zero diagonal from {(i, j): Fraction}, i < j."""
    m = [[F(0)] * n for _ in range(n)]
    for (i, j), v in entries.items():
        m[i][j] = m[j][i] = v
    return tuple(tuple(r) for r in m)


def test_rejects_duplicate_points():
    with pytest.raises(ValueError, match="duplicate points"):
        FinMetricSpace((0, 0), _matrix(2, {(0, 1): F(1, 3)}))


@pytest.mark.parametrize("dist", [
    ((F(0),), (F(0),)),
    ((F(0), F(1, 3)), (F(1, 3),)),
    ((F(0), F(1, 3)), (F(1, 3), F(0)), (F(0), F(0))),
])
def test_rejects_shape_mismatch(dist):
    with pytest.raises(ValueError, match="shape mismatch"):
        FinMetricSpace((0, 1), dist)


def test_rejects_nonzero_self_distance():
    dist = ((F(1, 4), F(1, 3)), (F(1, 3), F(0)))
    with pytest.raises(ValueError, match="nonzero self distance"):
        FinMetricSpace((0, 1), dist)


@pytest.mark.parametrize("entry", [0.5, 1, "1/2", None])
def test_rejects_non_fraction_entry(entry):
    dist = ((F(0), entry), (entry, F(0)))
    with pytest.raises(ValueError, match="must be Fractions"):
        FinMetricSpace((0, 1), dist)


def test_rejects_non_fraction_diagonal():
    dist = ((0, F(1, 3)), (F(1, 3), F(0)))
    with pytest.raises(ValueError, match="must be Fractions"):
        FinMetricSpace((0, 1), dist)


def test_rejects_asymmetry_across_denominators():
    dist = (
        (F(0), F(1, 3), F(1, 2)),
        (F(1, 4), F(0), F(1, 2)),
        (F(1, 2), F(1, 2), F(0)),
    )
    with pytest.raises(ValueError, match="not symmetric"):
        FinMetricSpace((0, 1, 2), dist)


@pytest.mark.parametrize("bad", [F(0), F(5, 4), F(-1, 3), F(13, 12)])
def test_rejects_distance_outside_unit_interval(bad):
    dist = _matrix(3, {(0, 1): F(1, 3), (0, 2): F(1, 4), (1, 2): bad})
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        FinMetricSpace((0, 1, 2), dist)


@pytest.mark.parametrize("entries", [
    {(0, 1): F(1, 3), (1, 2): F(1, 4), (0, 2): F(1)},
    {(0, 1): F(1, 5), (1, 2): F(2, 7), (0, 2): F(1, 2)},
    {(0, 1): F(1, 12), (0, 2): F(1, 12), (1, 2): F(1, 5)},
])
def test_rejects_triangle_violation(entries):
    with pytest.raises(ValueError, match="triangle"):
        FinMetricSpace((0, 1, 2), _matrix(3, entries))


def test_accepts_triangle_equality_across_denominators():
    # 1/3 + 1/4 == 7/12 exactly
    X = FinMetricSpace(
        (0, 1, 2), _matrix(3, {(0, 1): F(1, 3), (1, 2): F(1, 4), (0, 2): F(7, 12)})
    )
    assert X.d(0, 2) == X.d(0, 1) + X.d(1, 2)


def _thirds():
    return metric_space([0, 1], lambda a, b: F(1, 3))


def _quarters():
    return metric_space([0, 1], lambda a, b: F(1, 4))


def test_map_rejects_image_outside_codomain():
    with pytest.raises(ValueError, match="outside codomain"):
        NonexpandingMap(_thirds(), _quarters(), (0, 2))


def test_map_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        NonexpandingMap(_thirds(), _quarters(), (0,))


def test_map_rejects_expansion_across_denominators():
    with pytest.raises(ValueError, match="expanding"):
        NonexpandingMap(_quarters(), _thirds(), (0, 1))


def test_map_accepts_contraction_across_denominators():
    f = NonexpandingMap(_thirds(), _quarters(), (1, 0))
    assert f(0) == 1 and f(1) == 0
    assert not f.is_isometric_embedding()


def test_map_isometry_across_denominators():
    X = metric_space(
        [0, 1, 2], {(0, 1): F(1, 2), (0, 2): F(1, 3), (1, 2): F(1, 2)}
    )
    Y = metric_space(["a", "b"], lambda a, b: F(2, 4))
    f = NonexpandingMap(Y, X, (0, 1))
    assert f.is_isometric_embedding()
    with pytest.raises(ValueError, match="expanding"):
        NonexpandingMap(X, Y, ("a", "b", "b"))


# ---------------------------------------------------------------------------
# differential test: subset tables against the literal definition

_DISTANCES = [F(1, 5), F(2, 7), F(1, 12), F(1, 3), F(3, 4), F(2, 5), F(5, 12), F(1)]


@st.composite
def _mixed_spaces(draw):
    """A metric on 1..5 points with mixed denominators, as the matrix given
    to metric_space: random entries repaired by min-plus closure."""
    n = draw(st.integers(1, 5))
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.sampled_from(_DISTANCES))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if i != j and m[i][k] + m[k][j] < m[i][j]:
                    m[i][j] = m[i][k] + m[k][j]
    points = tuple("pqrst"[:n])
    return points, tuple(tuple(r) for r in m)


@settings(max_examples=40, deadline=None)
@given(_mixed_spaces())
def test_subset_space_differential_mixed_denominators(space):
    points, matrix = space
    X = metric_space(points, {(x, y): matrix[i][j]
                              for i, x in enumerate(points)
                              for j, y in enumerate(points) if i != j})
    assert X.dist == matrix
    H = subset_space(X)
    table = H.dist
    for i, a in enumerate(H.points):
        for j, b in enumerate(H.points):
            expected = 0 if a == b else hausdorff_by_definition(X, a, b)
            assert table[i][j] == expected
            assert H.d(a, b) == expected
    for S in (X, H):
        j = space_to_json(S)
        back = space_from_json(j)
        assert back == S
        assert canonical_dumps(space_to_json(back)) == canonical_dumps(j)


# ---------------------------------------------------------------------------
# subset spaces of 6- and 7-point bases (63 and 127 points)


@pytest.mark.parametrize("size", [6, 7])
def test_larger_subset_spaces(size):
    rng = random.Random(size)
    X = random_metric_space(rng, size)
    H = subset_space(X)  # the constructor checks every axiom of the table
    assert H.size == 2**size - 1
    assert subset_map(nonexpanding(X, X, lambda x: x)).mapping == H.points
    for _ in range(300):
        a, b = rng.choice(H.points), rng.choice(H.points)
        expected = 0 if a == b else hausdorff_by_definition(X, a, b)
        assert H.d(a, b) == expected


def test_larger_subset_space_mixed_denominators():
    # a 7-point base over denominators 5, 7 and 12 (common denominator 420)
    rng = random.Random(11)
    # every distance lies in [1/2, 1], so the triangle law holds
    X = metric_space(range(7), {
        (x, y): rng.choice(_DISTANCES[:3]) + F(1, 2)
        for x, y in itertools.combinations(range(7), 2)
    })
    assert X.den == 420
    H = subset_space(X)
    assert H.size == 127
    for _ in range(300):
        a, b = rng.choice(H.points), rng.choice(H.points)
        expected = 0 if a == b else hausdorff_by_definition(X, a, b)
        assert H.d(a, b) == expected


def test_integer_form_is_canonical():
    # twelfths that reduce to halves give the same space as halves
    halves = metric_space([0, 1, 2], lambda a, b: F(1, 2))
    twelfths = FinMetricSpace.from_ints((0, 1, 2), 12, [[0, 6, 6], [6, 0, 6], [6, 6, 0]])
    assert twelfths == halves and hash(twelfths) == hash(halves)
    assert twelfths.den == 2 and twelfths.rows == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert twelfths.dist == halves.dist
    assert FinMetricSpace((7,), ((F(0),),)).den == 1


# ---------------------------------------------------------------------------
# the packed triangle check against the per-pair loop.  A field holds
# 2 * den and a guard bit above it: 12, 420 and 2^17 - 1 take fields of 1, 2
# and 3 bytes, and 100 and 2^15 - 1, whose 2 * den fills whole bytes, take
# one byte more than 2 * den alone would

DENS = [12, 100, 420, 2**15 - 1, 2**17 - 1]


def _builds(den, rows):
    """Whether from_ints accepts rows over den; any other error than the
    triangle law's fails the test."""
    try:
        FinMetricSpace.from_ints(range(len(rows)), den, rows)
    except ValueError as exc:
        assert str(exc) == "triangle inequality fails"
        return False
    return True


def _band(rng, n, den):
    """(rows, lo): a random distance matrix on n points whose entries lie in
    [lo, 2 lo], so any two sum to at least any third; gcd(lo, den) = 1, so a
    matrix holding lo is in lowest terms over den."""
    lo = den // 3
    while gcd(lo, den) > 1:
        lo -= 1
    rows = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rows[j][i] = rng.randint(lo, 2 * lo)
    return rows, lo


def _set(rows, i, j, v):
    rows[i][j] = rows[j][i] = v


def _shortest_detour(rows, i, j):
    return min(rows[i][k] + rows[k][j] for k in range(len(rows)) if k not in (i, j))


@pytest.mark.parametrize("den", DENS)
def test_packed_triangle_check_matches_the_pair_loop(den):
    rng = random.Random(den)
    verdicts = Counter()
    for trial in range(36):
        if trial % 4 == 0:
            # a subset space over a base of 1 to 5 points: many equalities
            H = subset_space(random_metric_space(rng, rng.randint(1, 5)))
            rows, den_t = [list(r) for r in H.rows], H.den
        else:
            rows, _ = _band(rng, rng.choice([1, 2, 3, rng.randint(4, 63)]), den)
            den_t = den
        n = len(rows)
        for _ in range(rng.randint(0, 2) if n > 2 else 0):
            i, j = rng.sample(range(n), 2)
            if rng.random() < 0.5:  # at the law's boundary, or one past it
                v = _shortest_detour(rows, i, j) + rng.randint(0, 1)
            else:
                v = rng.randint(1, den_t)
            _set(rows, i, j, min(v, den_t))
        expected = triangle_by_pairs(rows)
        assert _builds(den_t, rows) == expected
        verdicts[expected] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


@pytest.mark.parametrize("den", DENS)
def test_planted_triangle_equality_passes_and_one_more_fails(den):
    rng = random.Random(f"planted/{den}")
    assert _builds(den, [[0]])
    assert _builds(den, [[0, den], [den, 0]]) and _builds(den, [[0, 1], [1, 0]])
    for n in (3, 4, 17, 63):
        for _ in range(4):
            rows, lo = _band(rng, n, den)
            i, k, j = rng.sample(range(n), 3)
            _set(rows, i, k, lo)
            _set(rows, k, j, lo)
            _set(rows, i, j, 2 * lo)  # d(i, j) = d(i, k) + d(k, j) exactly
            X = FinMetricSpace.from_ints(range(n), den, rows)
            assert X.den == den and triangle_by_pairs(rows)
            _set(rows, i, j, 2 * lo + 1)  # one more, 1/den too far
            with pytest.raises(ValueError, match="^triangle inequality fails$"):
                FinMetricSpace.from_ints(range(n), den, rows)


def test_eight_point_base_builds_and_rejects_a_planted_violation():
    # 255 points: the constructor checks the triangle law on 255^3 triples
    rng = random.Random(8)
    X = random_metric_space(rng, 8)
    H = subset_space(X)
    assert H.size == 255
    for _ in range(500):
        a, b = rng.choice(H.points), rng.choice(H.points)
        expected = 0 if a == b else hausdorff_by_definition(X, a, b)
        assert H.d(a, b) == expected
    rows = [list(r) for r in H.rows]
    while True:
        i, j = rng.sample(range(H.size), 2)
        detour = _shortest_detour(rows, i, j)
        if detour < H.den:
            break
    _set(rows, i, j, detour)  # raises d(i, j) to the shortest detour: still a metric
    FinMetricSpace.from_ints(H.points, H.den, rows)
    _set(rows, i, j, detour + 1)
    with pytest.raises(ValueError, match="^triangle inequality fails$"):
        FinMetricSpace.from_ints(H.points, H.den, rows)
