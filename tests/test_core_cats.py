"""Category backbone: hom enumeration, lifts, factorization, mono/epi,
coproducts, coequalizers, kernel pairs, subobjects, and isomorphism search."""

import gc
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from finbench.cats import (
    FINSET,
    GRA,
    UN,
    TRIVIAL_GPD,
    Z2_GPD,
    Z3_GPD,
    S3_GPD,
    gset_cat,
    gset_free_orbit,
    gset_fixed_point,
    random_finset_mor,
    random_un_obj,
    random_un_surjection,
)
from finbench.core import Mor, _fits, category_of, elem_key
from finbench.perms import compose_perm
from finbench import symbolic as sy
from finbench.vec import VEC2, VEC3

from oracles import (
    brute_congruences,
    brute_homs,
    coequalizer_by_definition,
    coproduct_by_definition,
    elem_key_by_isinstance,
    factorizations_by_fibers,
    finset_probes,
    generated_by_definition,
    image_by_definition,
    kernel_pair_by_definition,
    linear_by_definition,
    orbit_by_iteration,
    pair_through_chain,
    quotient_by_definition,
    restrict_by_definition,
    subalgebras_by_definition,
    vec_coequalizer_pointwise,
    vec_factorize_pointwise,
    vec_projection_pointwise,
    vec_subspaces_by_combinations,
)


# ---------------------------------------------------------------------------
# hom enumeration


def test_finset_hom_count():
    X, Y = FINSET.obj(range(2)), FINSET.obj(range(3))
    assert len(FINSET.hom_set(X, Y)) == 9  # |Y| ** |X|


def test_un_hom_against_function_space():
    c2, c4 = UN.cycle(2), UN.cycle(4)
    assert UN.hom_set(c2, c4) == []
    assert len(brute_homs(c2, c4)) == 0
    homs = UN.hom_set(c4, c2)
    assert len(homs) == 2
    assert len(brute_homs(c4, c2)) == 2


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_un_divisibility_small_oracle(p, q):
    homs = UN.hom_set(UN.cycle(p), UN.cycle(q))
    brute = brute_homs(UN.cycle(p), UN.cycle(q))
    assert len(homs) == len(brute)
    assert (len(homs) > 0) == (p % q == 0)


def test_un_divisibility_law_full_range():
    for p in range(1, 24):
        for q in range(1, 24):
            nonempty = bool(UN.hom_set(UN.cycle(p), UN.cycle(q)))
            assert nonempty == (p % q == 0), (p, q)


def test_hom_composition_closure():
    rng = random.Random(3)
    objs = [random_un_obj(rng, 3) for _ in range(3)]
    for X in objs:
        for Y in objs:
            for f in UN.hom_set(X, Y):
                for Z in objs:
                    for g in UN.hom_set(Y, Z)[:4]:
                        gf = UN.compose(g, f)
                        assert gf in UN.hom_set(X, Z)


# ---------------------------------------------------------------------------
# factorization


def test_factorize_identity():
    X = FINSET.obj(range(3))
    e, m = FINSET.factorize(FINSET.identity(X))
    assert e.dom == e.cod == X and m.dom == m.cod == X


def test_factorize_constant():
    X = FINSET.obj(range(3))
    f = FINSET.mor(X, X, lambda x: 0)
    e, m = FINSET.factorize(f)
    assert m.dom.size == 1


def test_factorize_graph_collapse_to_loop():
    P2, L = GRA.path(2), GRA.loop()
    f = GRA.mor(P2, L, lambda v: 0)
    e, m = GRA.factorize(f)
    assert m.dom.size == 1
    assert GRA.edges(m.dom) == ((0, 0),)


def test_factorize_graph_edges_not_induced():
    # map an edgeless pair onto both endpoints of an edge: image has no edges
    pair = GRA.obj([0, 1], [])
    edge = GRA.obj([0, 1], [(0, 1)])
    f = GRA.mor(pair, edge, lambda v: v)
    _, m = GRA.factorize(f)
    assert GRA.edges(m.dom) == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_factorize_recomposes(seed):
    rng = random.Random(seed)
    f = random_finset_mor(rng)
    e, m = FINSET.factorize(f)
    assert FINSET.compose(m, e) == f
    assert e.is_surjective() and FINSET.is_mono(m)


def test_diagonal_fillin_probes():
    # squares v . e = m . u with e strong epi, m mono admit a unique diagonal
    rng = random.Random(5)
    for _ in range(25):
        X = FINSET.obj(range(rng.randint(2, 4)))
        f = random_finset_mor(rng, 4, 4)
        e, _ = FINSET.factorize(
            FINSET.mor(X, X, {x: rng.randrange(X.size) for x in X.carrier})
        )
        M = FINSET.obj(range(rng.randint(1, 3)))
        Y, (m, _) = FINSET.coproduct([M, FINSET.obj(range(2))])
        for t in FINSET.hom_set(e.cod, M)[:3]:
            u = FINSET.compose(t, e)
            v = FINSET.compose(m, t)
            assert FINSET.compose(v, e) == FINSET.compose(m, u)
            d = FINSET.mor(e.cod, M, {e(x): u(x) for x in e.dom.carrier})
            assert FINSET.compose(d, e) == u
            assert FINSET.compose(m, d) == v


def test_un_factorize_image_is_subalgebra():
    rng = random.Random(11)
    for _ in range(20):
        X = random_un_obj(rng, 5)
        Y = random_un_obj(rng, 4)
        homs = UN.hom_set(X, Y)
        if not homs:
            continue
        f = homs[rng.randrange(len(homs))]
        e, m = UN.factorize(f)
        assert UN.compose(m, e) == f
        members = set(m.dom.carrier)
        assert all(UN.op_tables(m.dom)["op"][x] in members for x in members)


# ---------------------------------------------------------------------------
# mono / epi and cancellation probes


def test_mono_epi_examples():
    inj = FINSET.mor(FINSET.obj(range(2)), FINSET.obj(range(3)), lambda x: x)
    assert FINSET.is_mono(inj) and not inj.is_surjective()
    c4, c2 = UN.cycle(4), UN.cycle(2)
    red = UN.mor(c4, c2, lambda e: (2, e[1] % 2))
    assert red.is_surjective() and not UN.is_mono(red)


def _cancellation_epi(cat, f, probes):
    for Z in probes:
        homs = cat.hom_set(f.cod, Z)
        for g in homs:
            for h in homs:
                if g != h and cat.compose(g, f) == cat.compose(h, f):
                    return False
    return True


def _cancellation_mono(cat, f, probes):
    for Z in probes:
        homs = cat.hom_set(Z, f.dom)
        for g in homs:
            for h in homs:
                if g != h and cat.compose(f, g) == cat.compose(f, h):
                    return False
    return True


def test_epi_agrees_with_cancellation():
    probes = finset_probes(3)
    rng = random.Random(1)
    for _ in range(15):
        f = random_finset_mor(rng, 3, 3)
        assert f.is_surjective() == _cancellation_epi(FINSET, f, probes)
        assert FINSET.is_mono(f) == _cancellation_mono(FINSET, f, probes)


def test_un_epi_agrees_with_cancellation():
    probes = [UN.cycle(1), UN.cycle(2), UN.obj(range(2), {0: 1, 1: 1})]
    c4, c2 = UN.cycle(4), UN.cycle(2)
    red = UN.mor(c4, c2, lambda e: (2, e[1] % 2))
    assert _cancellation_epi(UN, red, probes)
    assert not _cancellation_mono(UN, red, [c2, c4])


# ---------------------------------------------------------------------------
# coproducts


def test_empty_coproduct_is_initial():
    out, injs = UN.coproduct([])
    assert out == UN.obj((), {}) and injs == []


@pytest.mark.parametrize("cat", [FINSET, UN] + [
    gset_cat(g) for g in (TRIVIAL_GPD, Z2_GPD, Z3_GPD, S3_GPD)], ids=lambda c: c.name)
def test_empty_coproduct_has_every_operation(cat):
    # the operation ids come from the category, not from the summands
    out, injs = cat.coproduct([])
    if cat is FINSET:
        want = FINSET.obj(())
    elif cat is UN:
        want = UN.obj((), {})
    else:
        want = cat.obj((), {g: {} for g in cat.group.elements})
    assert out == want and injs == []
    assert list(cat.op_tables(out)) == list(cat.op_tables(want)) == list(cat.op_ids)


def test_un_coproduct_two_cycles():
    out, injs = UN.coproduct([UN.cycle(2), UN.cycle(3)])
    assert out.size == 5
    assert sorted(UN.tail_period(out, x) for x in out.carrier) == [(0, 2)] * 2 + [(0, 3)] * 3


def test_un_tail_period_counts_steps_into_the_cycle():
    # 0 -> 1 -> 2 -> 3 -> 2: a tail of two steps into a 2-cycle
    X = UN.obj(range(4), {0: 1, 1: 2, 2: 3, 3: 2})
    assert [UN.tail_period(X, x) for x in X.carrier] == [(2, 2), (1, 2), (0, 2), (0, 2)]


def test_graph_coproduct_edges():
    edge = GRA.obj([0, 1], [(0, 1)])
    out, injs = GRA.coproduct([edge, edge])
    assert out.size == 4 and len(GRA.edges(out)) == 2


def test_coproduct_universal_property_probes():
    A, B = FINSET.obj(range(2)), FINSET.obj(range(1))
    S, (ia, ib) = FINSET.coproduct([A, B])
    for Z in finset_probes(2):
        for f in FINSET.hom_set(A, Z):
            for g in FINSET.hom_set(B, Z):
                pairing = {}
                for x in A.carrier:
                    pairing[ia(x)] = f(x)
                for x in B.carrier:
                    pairing[ib(x)] = g(x)
                h = FINSET.mor(S, Z, pairing)
                assert FINSET.compose(h, ia) == f
                assert FINSET.compose(h, ib) == g
                others = [
                    k for k in FINSET.hom_set(S, Z)
                    if FINSET.compose(k, ia) == f and FINSET.compose(k, ib) == g
                ]
                assert others == [h]


# ---------------------------------------------------------------------------
# coequalizers and kernel pairs


def test_coequalizer_of_equal_pair_is_iso():
    c3 = UN.cycle(3)
    f = UN.identity(c3)
    q = UN.coequalizer(f, f)
    assert UN.is_iso(q)


def test_finset_coequalizer_two_constants():
    one, two = FINSET.obj([0]), FINSET.obj(range(2))
    f = FINSET.mor(one, two, lambda x: 0)
    g = FINSET.mor(one, two, lambda x: 1)
    q = FINSET.coequalizer(f, g)
    assert q.cod.size == 1


def test_kernel_pair_of_cycle_reduction():
    c4, c2 = UN.cycle(4), UN.cycle(2)
    red = UN.mor(c4, c2, lambda e: (2, e[1] % 2))
    p1, p2 = UN.kernel_pair(red)
    assert p1.dom.size == 8
    assert UN.compose(red, p1) == UN.compose(red, p2)


def test_regularity_small_samples():
    from finbench.strictness import regularity_check

    rng = random.Random(2)
    for _ in range(25):
        assert regularity_check(random_finset_mor(rng, surjective=True))
        assert regularity_check(random_un_surjection(rng))


def test_regularity_presheaf_carrier_6():
    from finbench.strictness import regularity_check

    cat = gset_cat(Z2_GPD)
    both, injs = cat.coproduct([gset_free_orbit(cat, 0), gset_free_orbit(cat, 1)])
    free = gset_free_orbit(cat, 0)
    for f in cat.hom_set(both, free):
        if f.is_surjective():
            assert regularity_check(f)


# ---------------------------------------------------------------------------
# subobjects


def test_finset_subobjects_of_pair():
    monos = FINSET.subobjects_fg(FINSET.obj(range(2)))
    assert len(monos) == 4
    assert sorted(m.dom.size for m in monos) == [0, 1, 1, 2]


def test_un_subalgebras_of_cycle():
    monos = UN.subobjects_fg(UN.cycle(4))
    assert sorted(m.dom.size for m in monos) == [0, 4]


def test_constructions_reject_elements_outside_the_carrier():
    X = UN.cycle(2)
    with pytest.raises(ValueError, match="outside the carrier"):
        UN.subalgebra(X, [(2, 0), (2, 1), (3, 0)])
    with pytest.raises(ValueError, match="outside the carrier"):
        UN.quotient_obj(X, {(2, 0): (3, 0), (2, 1): (3, 0)})


def test_graph_subobjects_not_induced():
    edge = GRA.obj([0, 1], [(0, 1)])
    monos = GRA.subobjects_fg(edge)
    # vertex subsets: {}, {0}, {1}, {0,1} without edge, {0,1} with edge
    assert len(monos) == 5


# ---------------------------------------------------------------------------
# presheaves and vector spaces


def test_presheaf_ops_satisfy_composition():
    cat = gset_cat(Z3_GPD)
    free = gset_free_orbit(cat)
    g = Z3_GPD.elements[1]
    h = compose_perm(g, g)
    tables = cat.op_tables(free)
    for x in free.carrier:
        assert tables[g][tables[g][x]] == tables[h][x]


def test_presheaf_hom_respects_sorts():
    cat = gset_cat(Z2_GPD)
    free = gset_free_orbit(cat)
    fix = gset_fixed_point(cat)
    homs = cat.hom_set(free, fix)
    assert len(homs) == 1  # collapse the free orbit
    assert cat.hom_set(fix, free) == []  # no fixed points in a free orbit


def test_vec_factorize_and_rank():
    v = VEC2
    f = v.from_matrix(v.obj(3), v.obj(2), [(1, 0), (1, 0), (0, 0)])
    e, m = v.factorize(f)
    assert v.dim(e.cod) == 1
    assert v.compose(m, e) == f


def test_vec_subobjects_count():
    # subspaces of F_2^2: trivial, three lines, whole plane
    assert len(VEC2.subobjects_fg(VEC2.obj(2))) == 5
    # of F_q^n for n = 0, 1, ...: the Galois numbers, OEIS A006116 and A006117
    assert [len(VEC2.subobjects_fg(VEC2.obj(n))) for n in range(6)] == [1, 2, 5, 16, 67, 374]
    assert [len(VEC3.subobjects_fg(VEC3.obj(n))) for n in range(5)] == [1, 2, 6, 28, 212]



@pytest.mark.parametrize("cat, n", [(VEC2, 3), (VEC3, 2)])
def test_vec_subobjects_bound_by_size(cat, n):
    # as in every other category, the bound caps the subobject's carrier
    X = cat.obj(n)
    every = cat.subobjects_fg(X)
    for bound in (0, 1, 2, 3, 4, 8, 9, 26, 27):
        assert cat.subobjects_fg(X, bound) == [m for m in every if m.dom.size <= bound]
    assert len(cat.subobjects_fg(X, 1)) == 1  # the zero subspace alone


def test_vec_coequalizer_is_cokernel():
    v = VEC2
    f = v.from_matrix(v.obj(1), v.obj(2), [(1, 0)])
    z = v.from_matrix(v.obj(1), v.obj(2), [(0, 0)])
    q = v.coequalizer(f, z)
    assert v.dim(q.cod) == 1
    assert q.is_surjective()


@pytest.mark.parametrize(
    "cat, dim",
    [(VEC2, 3), (VEC3, 2), (VEC2, 0), (VEC2, 1), (VEC2, 2), (VEC2, 4),
     (VEC3, 0), (VEC3, 1), (VEC3, 3)],
)
def test_vec_maps_from_basis_images_match_pointwise_construction(cat, dim):
    X = cat.obj(dim)
    assert cat.subobjects_fg(X) == vec_subspaces_by_combinations(cat, X)
    for m in cat.subobjects_fg(X):
        assert cat.projection_onto(m) == vec_projection_pointwise(cat, m)
        zero = cat.from_matrix(m.dom, X, [cat.zero(dim)] * cat.dim(m.dom))
        assert cat.coequalizer(m, zero) == vec_coequalizer_pointwise(cat, m, zero)
        assert cat.coequalizer(zero, m) == vec_coequalizer_pointwise(cat, zero, m)
        fold = cat.compose(m, cat.projection_onto(m))
        for f in (m, fold):
            assert cat.factorize(f) == vec_factorize_pointwise(cat, f)


@pytest.mark.parametrize("cat, n", [(VEC2, 2), (VEC2, 3), (VEC3, 2)])
def test_vec_image_has_one_presentation(cat, n):
    Y = cat.obj(n)
    subs = cat.subobjects_fg(Y)
    for k in range(4):
        for f in cat.hom_set(cat.obj(k), Y):
            e, m = cat.factorize(f)
            assert m in subs
            assert cat.compose(m, e) == f


@pytest.mark.parametrize("cat, n, k", [(VEC2, 2, 2), (VEC3, 1, 2), (VEC2, 2, 1)])
def test_vec_linearity_check_agrees_with_definition(cat, n, k):
    # every function F_q^n -> F_q^k: the check accepts exactly the linear
    # ones, and from_matrix rebuilds each of those from its basis images
    X, Y = cat.obj(n), cat.obj(k)
    linear = 0
    for images in itertools.product(Y.carrier, repeat=X.size):
        try:
            f = Mor(X, Y, images)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == linear_by_definition(cat, X, Y, images)
        if accepted:
            linear += 1
            assert cat.from_matrix(X, Y, [f(e) for e in cat.basis_vectors(n)]) == f
    assert linear == cat.q ** (n * k)


def test_vec_rejects_nonlinear_maps():
    X, Y = VEC2.obj(2), VEC2.obj(1)
    # zero on the basis but 1 on (1, 1): not additive
    with pytest.raises(ValueError, match="preserve"):
        VEC2.mor(X, Y, lambda u: (u[0] * u[1],))
    # sends 0 to 1
    with pytest.raises(ValueError, match="preserve"):
        VEC2.mor(X, Y, lambda u: ((u[0] + 1) % 2,))


# ---------------------------------------------------------------------------
# isomorphism search and chains


def test_iso_search_un():
    a = UN.cycles_sum([2, 3])
    b, _ = UN.coproduct([UN.cycle(3), UN.cycle(2)])
    assert UN.is_isomorphic(a, b)
    assert not UN.is_isomorphic(a, UN.cycle(5))


def test_un_iso_invariant_counts_tails_not_only_periods():
    # both have only fixed-point cycles, so the periods agree; the tails do not
    chain = UN.obj(range(3), {0: 1, 1: 2, 2: 2})
    star = UN.obj(range(3), {0: 2, 1: 2, 2: 2})
    assert UN.iso_invariant(chain) == (3, ((0, 1), (1, 1), (2, 1)))
    assert UN.iso_invariant(star) == (3, ((0, 1), (1, 1), (1, 1)))
    assert UN.find_iso(chain, star) is None


def test_iso_graph_requires_edge_reflection():
    loop = GRA.loop()
    point = GRA.obj([0], [])
    assert not GRA.is_isomorphic(loop, point)


def test_chain_colimit_of_prefix():
    from finbench.colimits import chain_colimit

    c2 = UN.cycles_sum([2])
    c23 = UN.cycles_sum([2, 3])
    c235 = UN.cycles_sum([2, 3, 5])
    links = [UN.mor(c2, c23, lambda x: x), UN.mor(c23, c235, lambda x: x)]
    cocone = chain_colimit(links)
    assert cocone.apex == c235
    assert cocone.legs[-1] == UN.identity(c235)
    assert cocone.legs[0] == UN.compose(links[1], links[0])


def test_chain_colimit_single_object():
    from finbench.colimits import chain_colimit

    X = FINSET.obj(range(2))
    cocone = chain_colimit([], objects=[X])
    assert cocone.apex == X and cocone.legs == (FINSET.identity(X),)


def test_split_quotients_of_finite_objects_are_finite():
    # sections s with r . s = id exhibit split quotients; all stay finite
    X = FINSET.obj(range(3))
    for r in FINSET.hom_set(X, FINSET.obj(range(2))):
        for s in FINSET.hom_set(FINSET.obj(range(2)), X):
            if FINSET.compose(r, s) == FINSET.identity(FINSET.obj(range(2))):
                assert r.cod.size <= X.size


def test_random_un_surjection_matches_chain_coequalizer():
    # the least congruence identifying a and b is the coequalizer of the
    # pair of homs from a chain that pick out a and b
    for seed in range(1000):
        rng = random.Random(seed)
        X = random_un_obj(rng)
        expected = UN.identity(X)
        if X.size >= 2:
            a, b = rng.sample(list(X.carrier), 2)
            u, v = pair_through_chain(X, a, b)
            assert u.cod == v.cod == X and (u(0), v(0)) == (a, b)
            expected = UN.coequalizer(u, v)
        assert random_un_surjection(random.Random(seed)) == expected, seed


def test_symbolic_subobjects_of_ray_windowed():
    # path segments with at most 4 vertices, anywhere inside the window
    from finbench.symbolic import RAY, fg_subobjects

    window = 10
    subs = fg_subobjects(RAY, bound=4, window=window)
    paths = [m.dom for m in subs if m.dom.size > 0]
    assert all(M.size <= 4 for M in paths)
    lengths = {}
    for M in paths:
        lengths.setdefault(M.size - 1, 0)
        lengths[M.size - 1] += 1
    # one segment per start position: window - length of them
    assert lengths == {k: window - k for k in range(4)}


def test_symbolic_subobjects_of_cycle_family_bounded():
    from finbench.symbolic import CYCLE_FAMILY, fg_subobjects

    subs = fg_subobjects(CYCLE_FAMILY, bound=5, window=12)
    sizes = sorted(m.dom.size for m in subs)
    # empty, single cycles of sizes 2, 3, 5, and the sum 2+3
    assert sizes == [0, 2, 3, 5, 5]


# ---------------------------------------------------------------------------
# differential: hom search, iso search and coequalizers against the oracles

_S3 = gset_cat(S3_GPD)
_S3_ELS = S3_GPD.elements
# the subgroups of orders 2, 3 and 6, whose coset actions have 3, 2 and 1 points
_S3_SUBGROUPS = [
    H
    for r in (2, 3, 6)
    for H in itertools.combinations(_S3_ELS, r)
    if all(compose_perm(a, b) in H for a in H for b in H)
]


@st.composite
def _small_obj(draw, kind, max_size):
    """A FINSET, UN, GRA or S3-set object on at most max_size points."""
    if kind == "s3":
        points = []
        for i, H in enumerate(draw(st.lists(st.sampled_from(_S3_SUBGROUPS), max_size=3))):
            orbit = {frozenset(compose_perm(x, h) for h in H) for x in _S3_ELS}
            if len(points) + len(orbit) <= max_size:
                points.extend((i, c) for c in orbit)
        label = {pt: i for i, pt in enumerate(points)}
        ops = {
            g: {label[(i, c)]: label[(i, frozenset(compose_perm(g, x) for x in c))]
                for i, c in points}
            for g in _S3_ELS
        }
        return _S3.obj(range(len(points)), ops)
    n = draw(st.integers(0, max_size))
    if kind == "finset":
        return FINSET.obj(range(n))
    if kind == "un":
        return UN.obj(range(n), dict(enumerate(draw(st.lists(
            st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)))))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    return GRA.obj(range(n), [e for e in pairs if draw(st.booleans())])


def _relabel(X, p):
    """The copy of X along the bijection p of its labels."""
    cat = category_of(X)
    if cat is FINSET:
        return FINSET.obj(p[x] for x in X.carrier)
    if cat is UN:
        op = UN.op_tables(X)["op"]
        return UN.obj([p[x] for x in X.carrier], {p[x]: p[op[x]] for x in X.carrier})
    if cat is GRA:
        return GRA.obj([p[x] for x in X.carrier], [(p[u], p[v]) for u, v in GRA.edges(X)])
    tables = cat.op_tables(X)
    return cat.obj([p[v] for _, v in X.carrier],
                   {g: {p[x[1]]: p[tables[g][x][1]] for x in X.carrier}
                    for g in cat.group.elements})


@st.composite
def _obj_pairs(draw):
    """(cat, X, Y) with |Y| ** |X| <= 256; Y is often a relabelled copy of X."""
    kind = draw(st.sampled_from(["finset", "un", "gra", "s3"]))
    X = draw(_small_obj(kind, 4))
    if draw(st.booleans()):
        labels = [x[1] if kind == "s3" else x for x in X.carrier]
        Y = _relabel(X, dict(zip(labels, draw(st.permutations(labels)))))
    else:
        Y = draw(_small_obj(kind, 4))
    return category_of(X), X, Y


@settings(max_examples=150, deadline=None)
@given(_obj_pairs(), st.data())
def test_hom_iso_coequalizer_against_brute_oracles(pair, data):
    cat, X, Y = pair
    brute = brute_homs(X, Y)
    # as lists: depth-first search over the carrier is lexicographic,
    # and certificates record homs in this order
    assert cat.hom_set(X, Y) == brute
    assert cat.find_iso(X, Y) == next((h for h in brute if cat.is_iso(h)), None)
    if not brute:
        return
    f, g = data.draw(st.sampled_from(brute)), data.draw(st.sampled_from(brute))
    q = cat.coequalizer(f, g)
    fibres = {}
    for y in Y.carrier:
        fibres.setdefault(q(y), set()).add(y)
    seeds = [(f(x), g(x)) for x in X.carrier]
    containing = [
        part for part in brute_congruences(cat, Y)
        if all(any(a in cls and b in cls for cls in part) for a, b in seeds)
    ]
    # the least congruence containing the seeds has the most classes
    assert frozenset(frozenset(c) for c in fibres.values()) == max(containing, key=len)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["finset", "un", "s3"]), st.data())
def test_unary_algebra_constructions_against_definitions(kind, data):
    X = data.draw(_small_obj(kind, 4))
    cat = category_of(X)
    summands = data.draw(st.lists(_small_obj(kind, 3), max_size=3))
    out, injections = cat.coproduct(summands)
    want, want_injections = coproduct_by_definition(cat, summands)
    assert out == want
    assert [i.mapping for i in injections] == want_injections
    # as lists: certificates record subobjects in this order
    assert cat.subobjects_fg(X) == subalgebras_by_definition(cat, X)
    bound = data.draw(st.integers(0, 3))
    assert cat.subobjects_fg(X, bound) == subalgebras_by_definition(cat, X, bound)
    for x in X.carrier:
        assert cat.generated_subalgebra(X, x) == generated_by_definition(cat, X, x)
    Y = X if data.draw(st.booleans()) else data.draw(_small_obj(kind, 4))
    homs = brute_homs(X, Y) or brute_homs(X, X)
    f, g = data.draw(st.sampled_from(homs)), data.draw(st.sampled_from(homs))
    Y = f.cod
    assert cat.image_obj(f) == restrict_by_definition(cat, Y, set(f.mapping))
    p1, p2 = cat.kernel_pair(f)
    P, first, second = kernel_pair_by_definition(cat, f)
    assert (p1.dom, p1.mapping, p2.dom, p2.mapping) == (P, first, P, second)
    seeds = [(f(x), g(x)) for x in X.carrier]
    least = max(
        (part for part in brute_congruences(cat, Y)
         if all(any(a in cls and b in cls for cls in part) for a, b in seeds)),
        key=len,
    )
    q = cat.coequalizer(f, g)
    assert q.cod == quotient_by_definition(cat, Y, least)


# ---------------------------------------------------------------------------
# carrier order: constructions list their carriers in elem_key order without
# sorting, and build the same objects as the canon-through-obj path

# carrier labels of every kind elem_key orders: ints, strings, tuples and
# frozensets, mixed
_LABELS = [0, 1, 5, -2, "a", "b", "ab", (0,), (1, "a"), (0, 0, 0), frozenset(),
           frozenset({0, 2}), frozenset({"a", 1}), (frozenset({1}), "x")]
_GROUPS = {"z2": Z2_GPD, "z3": Z3_GPD, "s3": S3_GPD}


# nested carrier elements of every kind that elem_key orders, bools among
# the ints
_ELEMENTS = st.recursive(
    st.integers(-3, 3) | st.booleans() | st.text("ab", max_size=2),
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.frozensets(inner, max_size=3),
    max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ELEMENTS, max_size=6))
def test_elem_key_agrees_with_the_isinstance_chain(elems):
    for x in elems:
        assert elem_key(x) == elem_key_by_isinstance(x), x
    assert sorted(elems, key=elem_key) == sorted(elems, key=elem_key_by_isinstance)
    for bad in (1.5, None, [0], (0, 1.5)):
        with pytest.raises(TypeError):
            elem_key(bad)


def _subgroups(gpd):
    els = gpd.elements
    return [H for r in range(1, len(els) + 1) for H in itertools.combinations(els, r)
            if all(compose_perm(a, b) in H for a in H for b in H)]


def _coset_gset(cat, subgroups):
    """The G-set that is the union of the coset actions of the subgroups,
    the i-th on values (i, coset) with each coset a frozenset."""
    els = cat.group.elements
    values, ops = [], {g: {} for g in els}
    for i, H in enumerate(subgroups):
        for c in {frozenset(compose_perm(x, h) for h in H) for x in els}:
            values.append((i, c))
            for g in els:
                ops[g][(i, c)] = (i, frozenset(compose_perm(g, x) for x in c))
    return cat.obj(values, ops)


@st.composite
def _labelled_obj(draw, kind, max_size):
    """A FINSET, UN or Z2/Z3/S3-set object on at most max_size points: a
    G-set is a union of coset actions, and its frozenset coset values are
    often relabelled, like set and algebra points, by mixed labels."""
    labels = draw(st.permutations(_LABELS))
    if kind in _GROUPS:
        cat = gset_cat(_GROUPS[kind])
        subgroups, size = [], 0
        for H in draw(st.lists(st.sampled_from(_subgroups(cat.group)), max_size=3)):
            if size + len(cat.group.elements) // len(H) <= max_size:
                subgroups.append(H)
                size += len(cat.group.elements) // len(H)
        X = _coset_gset(cat, subgroups)
        if not draw(st.booleans()):
            return X
        p = dict(zip((v for _, v in X.carrier), labels))
        tables = cat.op_tables(X)
        return cat.obj(list(p.values()),
                       {m: {p[x[1]]: p[tables[m][x][1]] for x in X.carrier}
                        for m in cat.group.elements})
    n = draw(st.integers(0, max_size))
    points = labels[:n]
    if kind == "finset":
        return FINSET.obj(points)
    return UN.obj(points, {x: draw(st.sampled_from(points)) for x in points})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["finset", "un", "z2", "z3", "s3"]), st.data())
def test_constructions_match_the_canon_path(kind, data):
    X = data.draw(_labelled_obj(kind, 5))
    cat = category_of(X)
    start = data.draw(st.sets(st.sampled_from(X.carrier))) if X.size else set()
    closed = set().union(*(cat.generated_subalgebra(X, x).carrier for x in start))
    assert cat.subalgebra(X, closed) == restrict_by_definition(cat, X, closed)
    for x in X.carrier:
        assert cat.generated_subalgebra(X, x) == generated_by_definition(cat, X, x)
    summands = data.draw(st.lists(_labelled_obj(kind, 3), max_size=3))
    out, injections = cat.coproduct(summands)
    want, want_injections = coproduct_by_definition(cat, summands)
    assert out == want
    assert [i.mapping for i in injections] == want_injections
    Y = X if data.draw(st.booleans()) else data.draw(_labelled_obj(kind, 4))
    homs = cat.hom_set(X, Y) or [cat.identity(X)]
    f, g = data.draw(st.sampled_from(homs)), data.draw(st.sampled_from(homs))
    assert cat.image_obj(f) == image_by_definition(cat, f)
    p1, p2 = cat.kernel_pair(f)
    P, first, second = kernel_pair_by_definition(cat, f)
    assert (p1.dom, p1.mapping, p2.dom, p2.mapping) == (P, first, P, second)
    Q, rep = coequalizer_by_definition(cat, f, g)
    assert cat.quotient_obj(f.cod, rep) == Q
    q = cat.coequalizer(f, g)
    assert (q.cod, q.mapping) == (Q, tuple(rep[y] for y in f.cod.carrier))


def test_constructions_do_not_sort(monkeypatch):
    # a later change must not bring back a re-sort by elem_key: build the
    # inputs, then count elem_key calls while the constructions run
    import finbench.cats as cats_module
    import finbench.core as core_module

    orders = {len(H): H for H in _subgroups(S3_GPD)}
    inputs = [
        FINSET.obj([3, "b", (0, "a"), frozenset({1})]),
        UN.obj([0, "a", (1,), "b"], {0: "a", "a": (1,), (1,): "a", "b": 0}),
        _coset_gset(gset_cat(S3_GPD), [orders[2], orders[3]]),
    ]
    jobs = []
    for X in inputs:
        cat = category_of(X)
        f = cat.hom_set(X, X)[-1]
        g = cat.identity(X)
        jobs.append((cat, X, f, g, cat.coequalizer(f, g)))
    calls = []
    key = core_module.elem_key

    def counting(x):
        calls.append(x)
        return key(x)

    monkeypatch.setattr(core_module, "elem_key", counting)
    monkeypatch.setattr(cats_module, "elem_key", counting)
    for cat, X, f, g, q in jobs:
        cat.subalgebra(X, X.carrier)
        cat.generated_subalgebra(X, X.carrier[-1])
        cat.image_obj(f)
        cat.quotient_obj(X, dict(zip(X.carrier, q.mapping)))
        cat.coproduct([X, f.cod, X])
        cat.kernel_pair(f)
        cat.coequalizer(f, g)
    assert calls == []
    # the counter sees a sort by elem_key: an outside carrier goes through canon
    FINSET.obj(["b", "a"])
    assert calls


@st.composite
def _lifting_problem(draw, kind):
    """(f, g) with a common codomain C: g a mono onto a subobject of C, the
    non-mono fold C + C -> C, or for "cycle_family" a hom into the symbolic
    cycle family (a leg of the prime-cycle chain, or a hom from a sum of
    cycles, often not injective); f often factors through g."""
    if kind == "cycle_family":
        from finbench.functors import prime_cycle_chain

        if draw(st.booleans()):
            g = draw(st.sampled_from(prime_cycle_chain(draw(st.integers(1, 3))).legs))
        else:
            ns = draw(st.lists(st.sampled_from([2, 3, 6]), min_size=2, max_size=3))
            D, _ = UN.coproduct([UN.cycle(n) for n in ns])
            g = draw(st.sampled_from(sy.homs_into(sy.CYCLE_FAMILY, D, window=5)[0]))
        A = UN.cycles_sum(draw(st.lists(st.sampled_from([2, 3, 5]), min_size=1,
                                        max_size=2, unique=True)))
        homs, _ = sy.homs_into(sy.CYCLE_FAMILY, A, window=5)
    else:
        C = draw(_small_obj(kind, 3))
        cat = category_of(C)
        if draw(st.booleans()):
            g = draw(st.sampled_from(cat.subobjects_fg(C)))
        else:
            D, injections = cat.coproduct([C, C])
            fold = {i(x): x for i in injections for x in C.carrier}
            g = cat.mor(D, C, fold)
        A = draw(_small_obj(kind, 3))
        homs = brute_homs(A, C) or [cat.identity(C)]
    qs = category_of(A).hom_set(A, g.dom)
    if qs and draw(st.booleans()):
        q = draw(st.sampled_from(qs))
        f = category_of(A).compose(g, q)
        return f, g
    return draw(st.sampled_from(homs)), g


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["finset", "un", "gra", "s3", "cycle_family"]), st.data())
def test_lifts_against_fiber_products(kind, data):
    f, g = data.draw(_lifting_problem(kind))
    lifts = list(category_of(f.dom).lifts(f, g))
    # as lists: lifts go in hom_set order, and witnesses record the first one
    assert lifts == factorizations_by_fibers(f, g)


# ---------------------------------------------------------------------------
# the search kernel: per-search tables and incremental checks


def _fold(cat, C):
    """The codiagonal C + C -> C, a non-mono to lift along."""
    D, injections = cat.coproduct([C, C])
    return cat.mor(D, C, {i(x): x for i in injections for x in C.carrier})


def _search_cases(double=False):
    """(name, search): hom_set, find_iso and lifts on Un, S3-set and graph
    inputs, each search with an answer to find; with double, each search
    runs on the domain X + X in place of X."""
    s3 = gset_cat(S3_GPD)
    cases = []
    for cat, X, Y in [
        (UN, UN.cycles_sum([2, 3]), UN.coproduct([UN.cycle(6), UN.cycle(1)])[0]),
        (s3, _coset_gset(s3, _S3_SUBGROUPS[:2]), _coset_gset(s3, _S3_SUBGROUPS[1:3])),
        (GRA, GRA.obj(range(4), [(0, 0), (1, 2), (2, 1), (2, 3)]),
         GRA.obj(range(3), [(0, 0), (0, 1), (1, 0), (1, 2)])),
    ]:
        labels = [x[1] if cat is s3 else x for x in X.carrier]
        copy = _relabel(X, dict(zip(labels, reversed(labels))))
        g = _fold(cat, Y)
        f = cat.hom_set(X, Y)[-1]
        if double:
            fold = _fold(cat, X)
            X, copy, f = fold.dom, _fold(cat, copy).dom, cat.compose(f, fold)
        cases += [
            (f"{cat.name} hom_set", lambda cat=cat, X=X, Y=Y: cat.hom_set(X, Y)),
            (f"{cat.name} find_iso", lambda cat=cat, X=X, c=copy: cat.find_iso(X, c)),
            (f"{cat.name} lifts", lambda cat=cat, f=f, g=g: list(cat.lifts(f, g))),
        ]
    return cases


def test_search_reads_the_tables_once_per_object(monkeypatch):
    # a search reads the operations from the indexes of its two objects,
    # each built from the object's generator_tables on the first search
    # that meets it and kept on it: every object's tables are read once,
    # however large the object and however often it is searched, so a
    # second run of each search reads no table.  The Mor validation of
    # each hom found reads them once per hom and is not counted.
    reads, validating, kept = Counter(), [], []
    for cls in (type(UN), type(gset_cat(S3_GPD)), type(GRA)):
        for name in ("op_tables", "generator_tables"):
            def counting(self, X, _real=getattr(cls, name), _name=name):
                if not validating:
                    reads[_name, id(X)] += 1
                    kept.append(X)  # so that no id is reused
                return _real(self, X)

            monkeypatch.setattr(cls, name, counting)

        def checking(self, f, _real=cls.preserves_structure):
            validating.append(f)
            try:
                return _real(self, f)
            finally:
                validating.pop()

        monkeypatch.setattr(cls, "preserves_structure", checking)
    cases = _search_cases() + _search_cases(double=True)
    for name, search in cases:
        assert search(), name  # builds the indexes of the objects new to a search
    assert max(n for (kind, _), n in reads.items() if kind == "generator_tables") == 1
    reads.clear()
    for name, search in cases:
        assert search(), name
        assert not reads, (name, +reads)


def test_searches_leave_no_cyclic_garbage():
    # a search is one generator over a stack of frames, with no closures
    # that refer to each other, so reference counting frees it whether it
    # ran to the end (hom_set), was left part way (lifts) or stopped at its
    # first answer (find_iso); the collector is off so that none of its
    # own runs takes the garbage first
    s3 = gset_cat(S3_GPD)
    folds = [_fold(UN, UN.cycle(3)), _fold(s3, _coset_gset(s3, _S3_SUBGROUPS[1:3])),
             _fold(GRA, GRA.obj(range(3), [(0, 0), (0, 1), (1, 0), (1, 2)]))]
    cases = _search_cases()
    gc.collect()
    gc.disable()
    try:
        for name, search in cases:
            assert search(), name
        for g in folds:  # the identity and the swap of the two summands first
            lifts = category_of(g.dom).lifts(g, g)
            assert next(lifts) != next(lifts)
            del lifts
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_deep_searches_do_not_hit_the_recursion_limit():
    # the frames of a search are on a list, not on Python's stack: each
    # point here is its own branch element, past the default limit of 1,000
    one = FINSET.obj([0])
    assert [h.mapping for h in FINSET.hom_set(FINSET.obj(range(1500)), one)] == [(0,) * 1500]
    fixed = UN.obj(range(1500), lambda i: i)
    point = UN.cycle(1)
    assert [h.mapping for h in UN.hom_set(fixed, point)] == [point.carrier * 1500]
    edgeless = GRA.obj(range(1200), [])
    assert GRA.find_iso(edgeless, edgeless) == GRA.identity(edgeless)


def _injective_brute(X, Y):
    """brute_homs restricted to the injective maps: every injective function
    on carriers in product order, kept when the Mor constructor accepts it."""
    out = []
    for images in itertools.permutations(Y.carrier, X.size):
        try:
            out.append(Mor(X, Y, images))
        except ValueError:
            continue
    return out


@st.composite
def _graph_with_loop_and_two_cycle(draw):
    n = draw(st.integers(5, 7))
    vertex = st.integers(0, n - 1)
    a, b, c = draw(st.permutations(range(n)))[:3]
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return GRA.obj(range(n), edges + [(a, a), (b, c), (c, b)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_incremental_checks_against_brute_oracles(data):
    # graphs for the edge check; S3-sets and unary algebras for injectivity
    # across propagation, which a G-set's homogeneous orbits cannot break alone
    kind = data.draw(st.sampled_from(["gra", "s3", "un"]))
    if kind == "gra":
        X, Y = (data.draw(_graph_with_loop_and_two_cycle()) for _ in range(2))
    else:
        X, Y = data.draw(_small_obj(kind, 6)), data.draw(_small_obj(kind, 6))
    cat = category_of(X)
    injective = _injective_brute(X, Y)
    if Y.size ** X.size <= 3125:
        brute = brute_homs(X, Y)
        assert cat.hom_set(X, Y) == brute
        assert injective == [h for h in brute if h.is_injective()]
    assert list(cat._search(X, Y, injective=True)) == injective
    # a relabelled copy: the first isomorphism in product order, a bijection
    # carrying edges onto edges
    labels = [x[1] if kind == "s3" else x for x in X.carrier]
    copy = _relabel(X, dict(zip(labels, data.draw(st.permutations(labels)))))
    iso = cat.find_iso(X, copy)
    assert iso == next(h for h in _injective_brute(X, copy) if cat.is_iso(h))
    assert sorted(iso.mapping) == list(copy.carrier)
    if cat is GRA:
        assert {(iso(u), iso(v)) for u, v in GRA.edges(X)} == GRA.edge_set(copy)


def _iterate(table, x, n):
    """op^n(x) for the operation table."""
    for _ in range(n):
        x = table[x]
    return x


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["un", "s3"]), st.data())
def test_cycle_signatures_against_iteration_and_every_hom(kind, data):
    X, Y = data.draw(_small_obj(kind, 5)), data.draw(_small_obj(kind, 4))
    cat = category_of(X)
    for Z in (X, Y):
        tables = list(cat.generator_tables(Z).values())
        assert cat.cycle_signatures(Z) == {
            z: tuple(orbit_by_iteration(t, z) for t in tables) for z in Z.carrier}
    # the rule holds at y exactly when y satisfies each equation
    # op^(t + p)(x) = op^t(x)
    sx, sy = cat.cycle_signatures(X), cat.cycle_signatures(Y)
    for x, y in itertools.product(X.carrier, Y.carrier):
        assert _fits(sx[x], sy[y]) == all(
            _iterate(t, y, s[0] + s[1]) == _iterate(t, y, s[0])
            for t, s in zip(cat.generator_tables(Y).values(), sx[x]))
    # soundness: every hom sends each x to an element passing x's cycle rule
    for h in brute_homs(X, Y):
        assert all(_fits(sx[x], sy[h(x)]) for x in X.carrier)


class _CountingList(list):
    """A position table that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def _counting_table(Y):
    """The position table of Y's one operation, in Y's index (pos, gens,
    sigs), swapped for a _CountingList."""
    gens = UN._index(Y)[1]
    gens[0] = _CountingList(gens[0])
    return gens[0]


def test_search_skips_targets_that_break_a_cycle_equation():
    # a hom sends the 12-cycle's first point to a point whose period divides
    # 12: every target is tested before it is propagated, so no point of the
    # 5-cycle starts a propagation and its position table is never read
    X = UN.obj(range(12), lambda i: (i + 1) % 12)
    Y = UN.obj(range(5), lambda i: (i + 1) % 5)
    table = _counting_table(Y)
    assert UN.hom_set(X, Y) == []
    assert table.reads == 0
    # every point of a 6-cycle fits: six propagations of 12 reads, one per hom
    six = UN.obj(range(6), lambda i: (i + 1) % 6)
    table = _counting_table(six)
    assert len(UN.hom_set(X, six)) == 6
    assert table.reads == 72


def test_lifts_skip_fiber_points_that_break_a_cycle_equation():
    # lifts of C_2 -> 1 through B -> 1, B a 3-cycle on 0, 1, 2 and a 2-cycle
    # on 3, 4: the fiber's first point 0 has period 3, which does not divide
    # 2, so only 3 and 4 start a propagation (2 reads each), one per lift
    B = UN.obj(range(5), [1, 2, 0, 4, 3].__getitem__)
    one, two = UN.obj([0], lambda i: 0), UN.obj(range(2), lambda i: 1 - i)
    f, g = Mor(two, one, (0, 0)), Mor(B, one, (0,) * 5)
    table = _counting_table(B)
    assert [h.mapping for h in UN.lifts(f, g)] == [(3, 4), (4, 3)]
    assert table.reads == 4
    # a fiber in which no point fits: no propagation starts
    C = UN.obj(range(3), lambda i: (i + 1) % 3)
    table = _counting_table(C)
    assert list(UN.lifts(f, Mor(C, one, (0, 0, 0)))) == []
    assert table.reads == 0


def _cycle_sum_homs(ps, qs):
    """|hom(sum of C_p, sum of C_q)| = prod over p of sum of q dividing p."""
    total = 1
    for p in ps:
        total *= sum(q for q in qs if p % q == 0)
    return total


def test_hom_counts_between_sums_of_cycles_match_the_closed_form():
    # the summands have different cycle signatures, so a pruning fault that
    # drops some homs but not all changes a count
    def sums(top, most):
        return [c for k in range(1, most + 1) for c in itertools.combinations(range(1, top + 1), k)]

    pairs = [(ps, qs) for ps in sums(9, 2) for qs in sums(6, 3)]
    assert len(pairs) == 1845
    for ps, qs in pairs:
        assert len(UN.hom_set(UN.cycles_sum(ps), UN.cycles_sum(qs))) == _cycle_sum_homs(ps, qs), (ps, qs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_isomorphism_keeps_the_point_invariants(data):
    # find_iso tries for x only the points with x's key, which is sound when
    # every isomorphism keeps the keys; checked on all of them, by brute force
    kind = data.draw(st.sampled_from(["un", "s3", "gra"]))
    X = data.draw(_small_obj(kind, 6))
    cat = category_of(X)
    labels = [x[1] if kind == "s3" else x for x in X.carrier]
    copy = _relabel(X, dict(zip(labels, data.draw(st.permutations(labels)))))
    keys, copy_keys = cat.point_invariants(X), cat.point_invariants(copy)
    isos = [h for h in _injective_brute(X, copy) if cat.is_iso(h)]
    assert isos
    for h in isos:
        assert all(copy_keys[h(x)] == keys[x] for x in X.carrier)
    if cat is GRA:  # the degrees, counted directly
        degrees = sorted((sum(u == v for u, _ in GRA.edges(X)),
                          sum(w == v for _, w in GRA.edges(X))) for v in X.carrier)
        assert GRA.iso_invariant(X) == (X.size, len(GRA.edges(X)), tuple(degrees))


def test_find_iso_tries_one_target_per_vertex_when_the_degrees_differ(monkeypatch):
    # a transitive tournament with one loop: every vertex has its own
    # (out-degree, in-degree, loop) key, so each vertex has one target
    X = GRA.obj(range(6), [(u, v) for u in range(6) for v in range(u + 1, 6)] + [(2, 2)])
    Y = _relabel(X, dict(enumerate([3, 5, 0, 4, 1, 2])))
    assert len(set(GRA.point_invariants(X).values())) == X.size
    tried, real = [], GRA.relation_check

    def counting(X, Y):  # one edge check per target tried: graphs have no operations
        check = real(X, Y)

        def counted(assign, new):  # on positions
            tried.append(new[0])
            return check(assign, new)

        return counted

    monkeypatch.setattr(GRA, "relation_check", counting)
    first = next(f for f in GRA._search(X, Y, injective=True) if GRA.is_iso(f))
    assert len(tried) > X.size  # unfiltered, the search tries more
    tried.clear()
    assert GRA.find_iso(X, Y) == first
    assert tried == list(range(X.size))


def test_has_cycle_matches_walks_as_long_as_the_carrier():
    # by pigeonhole, a finite graph has a cycle iff it has a walk with as
    # many edges as vertices
    for n in range(4):
        pairs = [(u, v) for u in range(n) for v in range(n)]
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            edges = [e for e, bit in zip(pairs, bits) if bit]
            ends = set(range(n))
            for _ in range(n):
                ends = {v for u, v in edges if u in ends}
            assert GRA.has_cycle(GRA.obj(range(n), edges)) == bool(ends)
