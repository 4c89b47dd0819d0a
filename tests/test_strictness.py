"""Strictness witnesses, finitary-morphism factorizations, atoms, and the
negative certificates."""

import itertools
import random

import pytest

from finbench.cats import (
    FINSET,
    GRA,
    S3_GPD,
    TRIVIAL_GPD,
    UN,
    VEC2,
    Z2_GPD,
    Z3_GPD,
    gset_cat,
    gset_fixed_point,
    gset_free_orbit,
    gset_from_cosets,
    random_gset,
)
import finbench.suites  # registers all recipes
from finbench.certs import RECIPES
from finbench.perms import subgroups_of_sym
from finbench.strictness import (
    Exhaustion,
    FinitaryEndoExists,
    FinitaryMorWitness,
    NoFinitaryEndoCertificate,
    StrictnessWitness,
    SymEndoWitness,
    atoms_of_presheaves,
    congruences,
    decompose_into_atoms,
    decomposition_roundtrip,
    finitary_morphism_witness,
    fixed_subobject_witness,
    is_atom,
    no_finitary_endo_certificate,
    quotient_by_partition,
    regular_presheaf,
    semistrictness_witness,
    strictness_witness,
)
from finbench import symbolic as sy

from oracles import brute_congruences


# ---------------------------------------------------------------------------
# finitary morphisms


def test_identity_on_finite_object_is_finitary():
    X = UN.cycle(3)
    wit = finitary_morphism_witness(UN.identity(X), bound=5)
    assert isinstance(wit, FinitaryMorWitness)
    assert wit.mid == X


def test_constant_endo_of_loop_ray_factors_through_loop():
    wit = finitary_morphism_witness(sy.loop_ray_const0(), bound=4)
    assert isinstance(wit, SymEndoWitness)
    assert wit.mid == GRA.loop()


def test_ray_shift_has_no_witness():
    wit = finitary_morphism_witness(sy.ray_shift(1), bound=8)
    assert isinstance(wit, Exhaustion)
    assert isinstance(wit.certificate, NoFinitaryEndoCertificate)


def test_finite_exhaustion_when_image_exceeds_bound():
    X = FINSET.obj(range(5))
    wit = finitary_morphism_witness(FINSET.identity(X), bound=3)
    assert isinstance(wit, Exhaustion)


# ---------------------------------------------------------------------------
# strictness witnesses


def test_finset_injective_witness():
    b = FINSET.mor(FINSET.obj(range(2)), FINSET.obj(range(3)), lambda x: x)
    wit = strictness_witness(b)
    assert isinstance(wit, StrictnessWitness)
    assert wit.b_prime.dom.size == 2  # the image, embedded back


def test_finset_empty_domain_witness():
    b = FINSET.mor(FINSET.obj(()), FINSET.obj(range(3)), {})
    wit = strictness_witness(b)
    assert isinstance(wit, StrictnessWitness)
    assert wit.b_prime.dom.size == 1  # any point


def test_finset_exhaustive_small():
    total = found = 0
    for d in range(5):
        for c in range(6):
            if d > 0 and c == 0:
                continue
            D, C = FINSET.obj(range(d)), FINSET.obj(range(c))
            for images in itertools.product(range(c), repeat=d):
                total += 1
                wit = strictness_witness(FINSET.mor(D, C, dict(enumerate(images))))
                found += isinstance(wit, StrictnessWitness)
    assert total == 1280 and found == total


def test_presheaf_orbit_fold():
    cat = gset_cat(Z2_GPD)
    both, injs = cat.coproduct([gset_free_orbit(cat, 0), gset_free_orbit(cat, 1)])
    wit = strictness_witness(injs[0])
    assert isinstance(wit, StrictnessWitness)
    assert wit.b_prime.dom.size == 2  # one free orbit


def test_vec_complement_projection():
    v = VEC2
    b = v.from_matrix(v.obj(1), v.obj(3), [(1, 1, 0)])
    wit = strictness_witness(b)
    assert isinstance(wit, StrictnessWitness)
    assert v.dim(wit.b_prime.dom) == 1


def test_strictness_vec_recipe_passes_above_eight_vectors():
    # the witness is the 4-dimensional subspace itself: 16 vectors
    cert = RECIPES["strictness-vec"](ambient_dim=5, sub_dim=4)
    assert (cert.verdict, cert.witness) == ("PASS", {"b_prime_dim": 4})


def test_generic_strictness_on_graphs():
    edge = GRA.obj([0, 1], [(0, 1)])
    b = GRA.identity(edge)
    wit = strictness_witness(b)
    assert isinstance(wit, StrictnessWitness)


# ---------------------------------------------------------------------------
# semi-strictness and fixed subobjects


def test_semistrictness_finite_identity():
    wit = semistrictness_witness(UN.cycle(3), bound=5)
    assert isinstance(wit, FinitaryMorWitness)


def test_semistrictness_loop_ray():
    wit = semistrictness_witness(sy.LOOP_RAY, bound=4)
    assert isinstance(wit, SymEndoWitness)


@pytest.mark.parametrize("bound", [2, 4, 8])
def test_semistrictness_ray_exhausts(bound):
    wit = semistrictness_witness(sy.RAY, bound=bound)
    assert isinstance(wit, Exhaustion)
    assert wit.certificate.subject == "ray"


def test_semistrictness_cycle_family_exhausts():
    wit = semistrictness_witness(sy.CYCLE_FAMILY, bound=8)
    assert isinstance(wit, Exhaustion)
    assert wit.certificate.subject == "cycle_family"


def test_fixed_subobject_identity():
    X = UN.cycle(2)
    wit = fixed_subobject_witness(UN.identity(X))
    assert isinstance(wit, FinitaryMorWitness)


def test_fixed_subobject_point_in_finset():
    m = FINSET.mor(FINSET.obj([0]), FINSET.obj(range(3)), lambda x: 0)
    wit = fixed_subobject_witness(m)
    assert isinstance(wit, FinitaryMorWitness)
    assert wit.mid.size == 1  # constant at the image point


def test_fixed_subobject_vec_projection():
    v = VEC2
    m = v.from_matrix(v.obj(1), v.obj(3), [(1, 0, 0)])
    wit = fixed_subobject_witness(m)
    assert isinstance(wit, FinitaryMorWitness)
    assert v.dim(wit.mid) == 1


def test_fixed_subobject_presheaf():
    cat = gset_cat(Z3_GPD)
    X, injs = cat.coproduct([gset_free_orbit(cat, 0), gset_free_orbit(cat, 1)])
    wit = fixed_subobject_witness(injs[0])
    assert isinstance(wit, FinitaryMorWitness)
    assert wit.mid.size == 3


# ---------------------------------------------------------------------------
# atoms


@pytest.mark.parametrize(
    "gpd,count",
    [(TRIVIAL_GPD, 1), (Z2_GPD, 2), (Z3_GPD, 2), (S3_GPD, 4)],
)
def test_atom_counts(gpd, count):
    atoms = atoms_of_presheaves(gpd)
    assert len(atoms) == count
    cat = gset_cat(gpd)
    assert all(is_atom(cat, a) for a in atoms)


@pytest.mark.parametrize("gpd", [TRIVIAL_GPD, Z2_GPD, Z3_GPD, S3_GPD])
def test_atoms_match_partition_oracle(gpd):
    cat = gset_cat(gpd)
    base_sort = gpd.sorts[0]
    R = regular_presheaf(cat, base_sort)
    ours = congruences(cat, R)
    oracle = brute_congruences(cat, R)
    assert sorted(map(sorted, (map(sorted, p) for p in ours))) == sorted(
        map(sorted, (map(sorted, p) for p in oracle))
    )
    # quotients up to iso agree as well
    ours_atoms = atoms_of_presheaves(gpd)
    oracle_atoms = []
    for part in oracle:
        Q = quotient_by_partition(cat, R, part).cod
        if not any(cat.is_isomorphic(Q, seen) for seen in oracle_atoms):
            oracle_atoms.append(Q)
    assert len(ours_atoms) == len(oracle_atoms)
    for a in ours_atoms:
        assert sum(cat.is_isomorphic(a, b) for b in oracle_atoms) == 1


def test_decompose_singleton():
    cat = gset_cat(Z2_GPD)
    X = gset_fixed_point(cat)
    parts = decompose_into_atoms(cat, X)
    assert len(parts) == 1 and parts[0] == X


def test_decompose_free_plus_fixed():
    cat = gset_cat(Z2_GPD)
    X, _ = cat.coproduct([gset_free_orbit(cat), gset_fixed_point(cat)])
    parts = decompose_into_atoms(cat, X)
    assert sorted(p.size for p in parts) == [1, 2]
    assert decomposition_roundtrip(cat, X)


def test_decompose_two_regular_z3_orbits():
    cat = gset_cat(Z3_GPD)
    X, _ = cat.coproduct([gset_free_orbit(cat, 0), gset_free_orbit(cat, 1)])
    parts = decompose_into_atoms(cat, X)
    assert sorted(p.size for p in parts) == [3, 3]
    assert decomposition_roundtrip(cat, X)


def test_decomposition_roundtrip_random():
    rng = random.Random(17)
    for gpd in (Z2_GPD, Z3_GPD, S3_GPD):
        cat = gset_cat(gpd)
        subs = [tuple(h) for h in subgroups_of_sym(len(gpd.mors[0][0]))]
        for _ in range(25):
            X = random_gset(rng, cat, subs, max_size=8)
            assert decomposition_roundtrip(cat, X)


# ---------------------------------------------------------------------------
# negative certificates


def test_cycle_family_certificate_table():
    cert = no_finitary_endo_certificate(sy.CYCLE_FAMILY)
    table = cert.checked["prime_hom_table"]
    primes = sorted({p for p, _ in table})
    assert len(primes) == 9 and primes[-1] == 23
    for (p, q), n in table.items():
        assert (n > 0) == (p == q)


def test_ray_certificate_counts():
    cert = no_finitary_endo_certificate(sy.RAY, window=32, path_bound=8)
    counts = cert.checked["path_hom_counts"]
    assert set(counts) == set(range(1, 9))
    for k, n in counts.items():
        assert n == 32 - k  # one hom per start position inside the window


def test_loop_ray_certificate_refused():
    with pytest.raises(FinitaryEndoExists):
        no_finitary_endo_certificate(sy.LOOP_RAY)
