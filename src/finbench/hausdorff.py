"""Finite metric spaces of diameter at most 1 with exact rational distances,
nonexpanding maps, and the subset-space functor with the Hausdorff metric.

A space is stored once, indexed: its points, a point -> index dict, and one
integer matrix `rows` over a common denominator `den`, so that the distance
from points[i] to points[j] is rows[i][j] / den.  `den` is the lcm of the
reduced denominators of the distances, which makes the form canonical: equal
spaces have equal `den` and `rows`, and hash equal.  Every exact check runs on
integers: the metric axioms in the constructor (the triangle law on rows
packed into one integer each, one pair of rows per step), nonexpansion (the
two spaces' denominators are cross-multiplied), and the Hausdorff table of
the subset space.

Fractions appear only at the boundary: the constructor takes a matrix of
Fractions, `d` and `hausdorff_dist` return Fractions, `dist` is a Fraction
view built on each access, and `serialize.space_to_json` writes each distance
as "p/q".

The module desk-models the countable-boundedness argument, where at finite
scale the dense subsets are the whole carriers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import lshift

from .certs import FAIL, PASS_WITNESSED, recipe


@dataclass(frozen=True, init=False)
class FinMetricSpace:
    points: tuple
    den: int
    rows: tuple  # integer matrix aligned with points: d = rows[i][j] / den
    index: dict = field(repr=False, compare=False)  # point -> position

    def __init__(self, points, dist):
        """The space on `points` whose distances are the full matrix `dist`
        of Fractions aligned with them."""
        if not all(isinstance(d, Fraction) for row in dist for d in row):
            raise ValueError("distances must be Fractions")
        den = lcm(*(d.denominator for row in dist for d in row))
        self._store(
            points, den, [[d.numerator * (den // d.denominator) for d in row] for row in dist]
        )

    @classmethod
    def from_ints(cls, points, den, rows):
        """The space whose distance from points[i] to points[j] is
        rows[i][j] / den; the form is reduced to the lowest denominator."""
        space = object.__new__(cls)
        space._store(points, den, rows)
        return space

    def _store(self, points, den, rows):
        g = gcd(den, *itertools.chain.from_iterable(rows))
        if g > 1:
            den //= g
            rows = [[v // g for v in row] for row in rows]
        points = tuple(points)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "index", {p: i for i, p in enumerate(points)})
        self.__post_init__()

    def __post_init__(self):
        rows, n = self.rows, len(self.points)
        if len(self.index) != n:
            raise ValueError("duplicate points")
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("distance matrix shape mismatch")
        if any(row[i] for i, row in enumerate(rows)):
            raise ValueError("nonzero self distance")
        if rows != tuple(zip(*rows)):
            raise ValueError("distance matrix not symmetric")
        # the diagonal is zero, so exactly one zero per row means none off it
        if any(row.count(0) != 1 or min(row) < 0 or max(row) > self.den for row in rows):
            raise ValueError("distances must lie in (0, 1]")
        # The triangle law on packed rows.  Row k is one integer with a field
        # of nb bytes per column j holding d(k, j); the top bit G of a field
        # exceeds 2 * den.  Field j of row_k + (d(i, k) + G) * ones - row_i
        # is d(i, k) + d(k, j) + G - d(i, j), which lies in [0, 2G), so no
        # field carries or borrows, and its G bit is set exactly when
        # d(i, j) <= d(i, k) + d(k, j).
        nb = (2 * self.den).bit_length() // 8 + 1
        shifts = range(0, 8 * nb * n, 8 * nb)  # the fields' offsets in bits
        packed = [sum(map(lshift, row, shifts)) for row in rows]
        ones = sum(map(lshift, itertools.repeat(1), shifts))
        guards = ones << (8 * nb - 1)
        for row_i, p_i in zip(rows, packed):
            base = guards - p_i
            for d_ik, p_k in zip(row_i, packed):
                if (p_k + base + d_ik * ones) & guards != guards:
                    raise ValueError("triangle inequality fails")

    @property
    def dist(self):
        """The full matrix of Fractions aligned with points."""
        den = self.den
        return tuple(tuple(Fraction(v, den) for v in row) for row in self.rows)

    def d(self, x, y):
        return Fraction(self.rows[self.index[x]][self.index[y]], self.den)

    @property
    def size(self):
        return len(self.points)


def metric_space(points, d) -> FinMetricSpace:
    """Build a space from a callable or dict of Fractions."""
    points = tuple(points)

    def get(x, y):
        if x == y:
            return Fraction(0)
        if callable(d):
            return Fraction(d(x, y))
        return Fraction(d[(x, y)] if (x, y) in d else d[(y, x)])

    matrix = tuple(tuple(get(x, y) for y in points) for x in points)
    return FinMetricSpace(points, matrix)


@dataclass(frozen=True)
class NonexpandingMap:
    dom: FinMetricSpace
    cod: FinMetricSpace
    mapping: tuple  # images aligned with dom.points
    img: tuple = field(init=False, repr=False, compare=False)  # cod indices of mapping

    def __post_init__(self):
        if len(self.mapping) != self.dom.size:
            raise ValueError("mapping length mismatch")
        index = self.cod.index
        if not all(y in index for y in self.mapping):
            raise ValueError("image outside codomain")
        img = tuple(index[y] for y in self.mapping)
        object.__setattr__(self, "img", img)
        # d(f x, f x') <= d(x, x') over the two denominators, cross-multiplied
        dd, cd = self.dom.den, self.cod.den
        for drow, fi in zip(self.dom.rows, img):
            crow = self.cod.rows[fi]
            if any(crow[fj] * dd > v * cd for fj, v in zip(img, drow)):
                raise ValueError("map is expanding")

    def __call__(self, x):
        return self.mapping[self.dom.index[x]]

    def is_isometric_embedding(self):
        dd, cd = self.dom.den, self.cod.den
        return all(
            self.cod.rows[fi][fj] * dd == v * cd
            for drow, fi in zip(self.dom.rows, self.img)
            for fj, v in zip(self.img, drow)
        )


def nonexpanding(dom, cod, f) -> NonexpandingMap:
    return NonexpandingMap(dom, cod, tuple(f(x) for x in dom.points))


def hausdorff_dist(space: FinMetricSpace, M, N) -> Fraction:
    """Maximum of the two directed point-to-set suprema."""
    M, N = list(M), list(N)
    if not M or not N:
        raise ValueError("hausdorff distance needs nonempty subsets")
    rows, index = space.rows, space.index
    A, B = [index[x] for x in M], [index[y] for y in N]
    forward = max(min(rows[a][b] for b in B) for a in A)
    backward = max(min(rows[b][a] for a in A) for b in B)
    return Fraction(max(forward, backward), space.den)


def subset_space(space: FinMetricSpace) -> FinMetricSpace:
    """All nonempty subsets with the Hausdorff metric (2^n - 1 points).

    Subsets are index tuples in combinations order.  near[S][x] is the
    distance from point x to S, and far[S][T] = max of near[T][x] over x in S
    is the directed distance from S to T; the Hausdorff distance of S and T
    is the larger of far[S][T] and far[T][S]."""
    subs = [
        c for r in range(1, space.size + 1)
        for c in itertools.combinations(range(space.size), r)
    ]
    near = _fold_members(min, subs, space.rows)
    far = _fold_members(max, subs, list(zip(*near)))
    table = [list(map(max, row, col)) for row, col in zip(far, zip(*far))]
    points = tuple(frozenset(map(space.points.__getitem__, c)) for c in subs)
    return FinMetricSpace.from_ints(points, space.den, table)


def _fold_members(op, subs, vectors):
    """For each index tuple c in subs, the elementwise fold by op of
    vectors[i] over the members i of c.  Each c is folded from c[:-1], which
    comes earlier in subs."""
    done = {}
    for c in subs:
        done[c] = tuple(map(op, done[c[:-1]], vectors[c[-1]])) if len(c) > 1 else vectors[c[0]]
    return [done[c] for c in subs]


def subset_map(f: NonexpandingMap) -> NonexpandingMap:
    """Direct images on the subset spaces; nonexpansion is re-verified by the
    constructor."""
    HX = subset_space(f.dom)
    HY = subset_space(f.cod)
    return NonexpandingMap(
        HX, HY, tuple(frozenset(f(x) for x in s) for s in HX.points)
    )


def boundedness_witness(space: FinMetricSpace, members) -> tuple:
    """Recover a point set M of X, in point order, so that every member
    subset is a direct image of a subset of M; at finite scale M is the union
    of the members."""
    members = tuple(frozenset(m) for m in members)
    union = sorted(set().union(*members) if members else set(), key=space.index.__getitem__)
    mset = set(union)
    if not all(m <= mset for m in members):
        raise AssertionError("union failed to cover a member subset")
    return tuple(union)


def random_metric_space(rng, size: int) -> FinMetricSpace:
    """Random metric in twelfths of (0, 1], repaired by min-plus closure."""
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            m[i][j] = m[j][i] = rng.randint(1, 12)
    # Floyd-Warshall closure only lowers distances, keeps them positive and
    # enforces the triangle law
    for k, i, j in itertools.product(range(size), repeat=3):
        if i != j and m[i][k] + m[k][j] < m[i][j]:
            m[i][j] = m[j][i] = m[i][k] + m[k][j]
    return FinMetricSpace.from_ints(range(size), 12, m)


# ---------------------------------------------------------------------------
# recipes: metric axioms, functoriality and boundedness of the subset space


@recipe("hausdorff-axioms", "hausdorff", limits={"count": (0, 1000), "max_size": (1, 6)})
def r_hausdorff_axioms(seed: int = 0, count: int = 100, max_size: int = 5):
    rng = random.Random(seed)
    for _ in range(count):
        X = random_metric_space(rng, rng.randint(1, max_size))
        subset_space(X)  # constructor asserts all axioms exactly
    return PASS_WITNESSED, {"spaces_checked": count, "arithmetic": "exact rationals"}


@recipe("hausdorff-functoriality", "hausdorff", limits={"samples": (0, 1500)})
def r_hausdorff_functoriality(seed: int = 0, samples: int = 15):
    rng = random.Random(seed)
    for _ in range(samples):
        X = random_metric_space(rng, rng.randint(1, 4))
        idX = nonexpanding(X, X, lambda x: x)
        if subset_map(idX).mapping != subset_space(X).points:
            return FAIL, {"violated": "identity"}
        Y = random_metric_space(rng, rng.randint(1, 3))
        f = _random_nonexpanding(rng, X, Y)
        g = _random_nonexpanding(rng, Y, X)
        lhs = subset_map(nonexpanding(X, X, lambda x, g=g, f=f: g(f(x))))
        rhs_f, rhs_g = subset_map(f), subset_map(g)
        composed = tuple(rhs_g(rhs_f(s)) for s in rhs_f.dom.points)
        if lhs.mapping != composed:
            return FAIL, {"violated": "composition"}
        emb = _far_point_embedding(X)
        if not emb.is_isometric_embedding():
            return FAIL, {"violated": "embedding"}
        if len(set(subset_map(emb).mapping)) != subset_space(X).size:
            return FAIL, {"violated": "mono"}
    return PASS_WITNESSED, {"samples": samples,
                            "laws": ["identity", "composition", "mono-preservation"]}


def _random_nonexpanding(rng, X, Y):
    """Rejection-sample a nonexpanding map; a constant map always works."""
    for _ in range(8):
        images = tuple(rng.choice(Y.points) for _ in X.points)
        try:
            return NonexpandingMap(X, Y, images)
        except ValueError:
            continue
    return nonexpanding(X, Y, lambda x: Y.points[0])


def _far_point_embedding(X):
    """Isometric embedding of X into X plus one point at distance 1."""
    extra = "far"
    points = tuple(X.points) + (extra,)

    def d(a, b):
        if extra in (a, b):
            return 1
        return X.d(a, b)

    Y = metric_space(points, d)
    return nonexpanding(X, Y, lambda x: x)


@recipe("hausdorff-bounded", "hausdorff", limits={"samples": (0, 10000)})
def r_hausdorff_bounded(seed: int = 0, samples: int = 20):
    rng = random.Random(seed)
    for _ in range(samples):
        X = random_metric_space(rng, rng.randint(1, 5))
        members = [
            frozenset(rng.sample(X.points, rng.randint(1, X.size)))
            for _ in range(rng.randint(1, 3))
        ]
        boundedness_witness(X, members)  # raises unless the union covers them
    return PASS_WITNESSED, {"samples": samples}
