"""Presented functors on small cardinals: evaluation, the canonical
surjection, closure operations, and the power-functor negative results."""

import hashlib
import itertools

import pytest

from finbench import superfin
from finbench.cats import FINSET
from finbench.certs import FAIL
from finbench.core import canon, elem_key
from finbench.functors import path_chain
from finbench.superfin import (
    PresentationError,
    SubfunctorError,
    canonical_epsilon,
    coproduct,
    escaping_element,
    evaluate,
    nonempty_subsets,
    power_functor,
    powfin_endo_probe,
    presentation,
    product,
    subfunctor_pullback,
    truncated_hom,
    truncated_identity,
)
from finbench.symbolic import RAY

from oracles import (
    constant_presentation,
    identity_functor,
    induced_map,
    kan_functor,
    powfin_endo_dfs,
)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluation_of_truncated_hom_counts():
    # oracle: classes of Set(2,-) at X are the genuine maps 2 -> X
    P = truncated_hom(2, 2)
    for size in range(5):
        assert evaluate(P, range(size)).size == size * size


def test_evaluation_constant():
    P = constant_presentation(1, ["a", "b"])
    for size in range(4):
        assert evaluate(P, range(size)).size == 2


def test_evaluation_truncated_identity():
    P = truncated_identity(1)
    for size in range(5):
        assert evaluate(P, range(size)).size == size


@pytest.mark.parametrize("P", [
    constant_presentation(2, ["b", 2, (0,), "a"]),
    truncated_hom(2, 1),
    coproduct(truncated_identity(2), constant_presentation(2, ["z", 1])),
])
def test_evaluation_represents_each_class_by_its_least_triple(P):
    # values and points out of elem_key order: the representatives are the
    # elem_key-least triples of their classes, listed in elem_key order
    for X in [(), ("b", 0), ("z", (1,), 3, "a")]:
        ev = evaluate(P, X)
        classes = {}
        for triple, rep in ev.rep_of.items():
            classes.setdefault(rep, []).append(triple)
        assert all(rep == min(members, key=elem_key) for rep, members in classes.items())
        assert ev.reps == canon(classes)

def test_evaluation_is_functorial_on_probes():
    P = truncated_hom(2, 2)
    X, Y, Z = range(2), range(3), range(2)
    ev = {k: evaluate(P, v) for k, v in {"x": X, "y": Y, "z": Z}.items()}
    for h1 in itertools.product(Y, repeat=len(X)):
        for h2 in itertools.product(Z, repeat=len(Y)):
            f = induced_map(ev["x"], ev["y"], dict(zip(X, h1)))
            g = induced_map(ev["y"], ev["z"], dict(zip(Y, h2)))
            comp = {x: dict(zip(Y, h2))[dict(zip(X, h1))[x]] for x in X}
            assert FINSET.compose(g, f) == induced_map(ev["x"], ev["z"], comp)
    idm = induced_map(ev["y"], ev["y"], {y: y for y in Y})
    assert idm == FINSET.identity(FINSET.obj(ev["y"].reps))


def test_presentation_law_check_rejects_bad_action():
    with pytest.raises(PresentationError):
        presentation(
            1,
            [(0,), (0, 1)],
            lambda g, k, k2, q: 0,  # violates the identity law at level 1
        )


# ---------------------------------------------------------------------------
# canonical surjection


def test_epsilon_truncated_identity():
    P = truncated_identity(1)
    pairs = canonical_epsilon(evaluate(P, range(2)))
    assert len({rep for _, rep in pairs}) == 2


def test_epsilon_constant_is_projection():
    P = constant_presentation(1, ["a", "b"])
    classes = {}
    for (q, f), rep in canonical_epsilon(evaluate(P, range(3))):
        classes.setdefault(q, set()).add(rep)
    assert all(len(v) == 1 for v in classes.values())


def test_epsilon_truncated_hom():
    P = truncated_hom(2, 2)
    pairs = canonical_epsilon(evaluate(P, range(2)))
    assert len({rep for _, rep in pairs}) == 4


def test_epsilon_naturality_on_probes():
    P = truncated_hom(2, 2)
    X, Y = range(2), range(3)
    evx, evy = evaluate(P, X), evaluate(P, Y)
    for images in itertools.product(Y, repeat=len(X)):
        g = dict(zip(X, images))
        Fg = induced_map(evx, evy, g)
        for q in P.values[P.n]:
            for f in itertools.product(X, repeat=P.n):
                lhs = Fg(evx.class_of(P.n, q, f))
                rhs = evy.class_of(P.n, q, tuple(g[v] for v in f))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# closure operations


def test_product_matches_pointwise_oracle():
    P = product(truncated_identity(1), truncated_identity(1))
    assert P.n == 2
    for size in range(4):
        assert evaluate(P, range(size)).size == size * size


def test_coproduct_matches_pointwise_oracle():
    A = constant_presentation(0, ["a"])
    B = constant_presentation(0, ["b"])
    C = coproduct(A, B)
    for size in range(4):
        assert evaluate(C, range(size)).size == 2


def test_coproduct_of_identities():
    C = coproduct(truncated_identity(1), truncated_identity(1))
    for size in range(4):
        assert evaluate(C, range(size)).size == 2 * size


def test_subfunctor_constants_inside_hom():
    P = truncated_hom(2, 2)
    constants = {
        1: list(P.values[1]),
        2: [q for q in P.values[2] if q[0] == q[1]],
    }
    S = subfunctor_pullback(P, constants)
    for size in range(4):
        assert evaluate(S, range(size)).size == size


def test_subfunctor_injective_predicate_rejected():
    # postcomposition destroys injectivity, so this is not a subfunctor
    P = truncated_hom(2, 2)
    with pytest.raises(SubfunctorError):
        subfunctor_pullback(P, {2: [q for q in P.values[2] if q[0] != q[1]]})


# ---------------------------------------------------------------------------
# super-finitarity tests


def test_identity_functor_superfinitary():
    assert escaping_element(identity_functor("finset"), 1, [FINSET.obj(range(2))]) is None


def test_nonempty_subsets_come_in_canonical_order():
    # mixed element kinds, so the order is elem_key's across kinds and sizes
    pool = [-1, 0, 3, "a", "b", (1,), (0, "x"), frozenset(), frozenset({"a", 2})]
    for r in range(6):
        for elems in itertools.combinations(pool, r):
            carrier = canon(elems)
            subsets = [frozenset(c) for k in range(1, r + 1)
                       for c in itertools.combinations(elems, k)]
            assert nonempty_subsets(carrier) == canon(subsets), carrier
    assert power_functor().on_obj(FINSET.obj("cab")) == FINSET.obj(
        frozenset(c) for k in (1, 2, 3) for c in itertools.combinations("abc", k))


@pytest.mark.parametrize("F", [power_functor()], ids=["power"])
def test_finite_set_functors_refuse_symbolic_objects(F):
    leg = path_chain(2).legs[0]
    with pytest.raises(ValueError, match=r"Symbolic\(ray\)"):
        F.on_obj(RAY)
    with pytest.raises(ValueError, match=r"Symbolic\(ray\)"):
        F.on_mor(leg)


def test_powerset_recipe_builds_each_power_set_once(monkeypatch):
    # escaping_element asks for P(n) and P(n + 1) once per map n -> n + 1
    built = []
    real = superfin.nonempty_subsets

    def counting(carrier):
        built.append(carrier)
        return real(carrier)

    monkeypatch.setattr(superfin, "nonempty_subsets", counting)
    n_max = 4
    assert superfin.r_superfin_powerset(n_max).verdict == FAIL
    assert 0 < len(built) <= 2 * n_max
    assert len(set(built)) == len(built)


# sha256 of the certificate bytes at each n_max in range, first 16 hex
# digits, as first recorded when the power functor read every image by
# calling the morphism
POWERSET_DIGESTS = {
    0: "7007fd47e53fabc9", 1: "f7c5cc5a98616b9b", 2: "e308a458a63306cf",
    3: "80f88ba1322f7edd", 4: "123535cbae5044e1", 5: "4616cc15268835fc",
}


def test_powerset_certificates_keep_their_bytes():
    fresh = {n: hashlib.sha256(superfin.r_superfin_powerset(n).dumps().encode()).hexdigest()[:16]
             for n in POWERSET_DIGESTS}
    assert fresh == POWERSET_DIGESTS


def test_power_functor_not_superfinitary():
    PW = power_functor()
    assert escaping_element(PW, 2, [FINSET.obj(range(3))]) == frozenset({0, 1, 2})


def test_truncated_hom_passes_probes():
    F = kan_functor(truncated_hom(2, 2))
    probes = [FINSET.obj(range(k)) for k in range(1, 5)]
    assert escaping_element(F, 2, probes) is None


# ---------------------------------------------------------------------------
# endomorphism scan of the finite power functor


@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_endo_probe_identity_only(m):
    fams = powfin_endo_probe(m)
    assert len(fams) == 1
    fam = fams[0]
    assert all(k == v for level in fam.values() for k, v in level.items())


@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_endo_probe_matches_dfs_oracle(m):
    ours = powfin_endo_probe(m)
    oracle = powfin_endo_dfs(m)
    assert len(ours) == len(oracle) == 1
    assert ours[0] == oracle[0]


def test_power_endo_probe_m4():
    fams = powfin_endo_probe(4)
    assert len(fams) == 1
    assert all(k == v for level in fams[0].values() for k, v in level.items())


def test_power_endo_probe_rejects_large_level():
    with pytest.raises(ValueError):
        powfin_endo_probe(5)
