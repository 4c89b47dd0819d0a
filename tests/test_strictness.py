"""Strictness witnesses, atoms, and the negative certificates."""

import ast
import itertools
import random
from collections import Counter
from pathlib import Path

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
    gset_fixed_point,
    gset_free_orbit,
    gset_sampler,
)
import finbench.suites  # registers all recipes
from finbench import cats, strictness
from finbench.certs import PASS_WITNESSED, RECIPES
from finbench.core import Category, category_of, elem_key
from finbench.perms import subgroups_of_sym
from finbench.strictness import (
    atoms_of_presheaves,
    congruences,
    decomposition_roundtrip,
    is_atom,
    quotient_by_partition,
    strictness_witness,
)
from finbench import symbolic as sy
from finbench.symbolic import no_finitary_endo_certificate
from finbench.vec import VEC2, VEC3

from oracles import brute_congruences, random_gset


# ---------------------------------------------------------------------------
# strictness witnesses


def _assert_retraction(b):
    """The retraction (b_prime, f) splits, and the square through it holds."""
    cat = category_of(b.dom)
    b_prime, f = cat.retraction(b)
    assert cat.is_mono(b_prime) and b_prime.cod == b.cod
    assert cat.compose(f, b_prime) == cat.identity(b_prime.dom)
    assert cat.compose(b_prime, cat.compose(f, b)) == b
    assert strictness_witness(b) == (b_prime, f)
    return b_prime, f


def test_finset_injective_witness():
    b = FINSET.mor(FINSET.obj(range(2)), FINSET.obj(range(3)), lambda x: x)
    b_prime, f = strictness_witness(b)
    assert b_prime.dom.size == 2  # the image, embedded back


def test_finset_empty_domain_witness():
    b = FINSET.mor(FINSET.obj(()), FINSET.obj(range(3)), {})
    b_prime, f = strictness_witness(b)
    assert b_prime.dom.size == 1  # any point


def test_finset_exhaustive_small():
    total = found = 0
    for d in range(5):
        for c in range(6):
            if d > 0 and c == 0:
                continue
            D, C = FINSET.obj(range(d)), FINSET.obj(range(c))
            for images in itertools.product(range(c), repeat=d):
                total += 1
                found += strictness_witness(FINSET.mor(D, C, dict(enumerate(images)))) is not None
    assert total == 1280 and found == total


def test_finset_retraction_on_random_maps():
    rng = random.Random(3)
    for _ in range(300):
        d = rng.randint(0, 5)
        c = rng.randint(1 if d else 0, 6)
        b = FINSET.mor(FINSET.obj(range(d)), FINSET.obj(range(c)),
                       {i: rng.randrange(c) for i in range(d)})
        b_prime, f = _assert_retraction(b)
        image = set(b.mapping)
        assert b_prime.dom.size == (max(len(image), 1) if c else 0)
        assert image <= set(b_prime.mapping)


def test_finset_retraction_is_the_fold_over_the_trivial_group():
    # all 1,280 maps of strictness-finset, each element x relabelled ("*", x)
    triv = gset_cat(TRIVIAL_GPD)
    ident = TRIVIAL_GPD.elements[0]

    def relabel(n):
        return triv.obj(range(n), {ident: {x: x for x in range(n)}})

    def shape(m):
        return m.dom.carrier, m.cod.carrier, m.mapping

    def starred(m):
        star = lambda xs: tuple(("*", x) for x in xs)
        return star(m.dom.carrier), star(m.cod.carrier), star(m.mapping)

    total = 0
    for d in range(5):
        for c in range(1 if d else 0, 6):
            D, C = FINSET.obj(range(d)), FINSET.obj(range(c))
            for images in itertools.product(range(c), repeat=d):
                b = FINSET.mor(D, C, dict(enumerate(images)))
                fold = triv.retraction(triv.mor(relabel(d), relabel(c), starred(b)[2]))
                assert tuple(map(starred, FINSET.retraction(b))) == tuple(map(shape, fold))
                total += 1
    assert total == 1280


@pytest.mark.parametrize("gpd", [Z2_GPD, Z3_GPD, S3_GPD], ids=lambda g: g.name)
def test_gset_retraction_on_random_maps(gpd):
    rng = random.Random(11)
    cat = gset_cat(gpd)
    draw = gset_sampler(rng, cat, [tuple(h) for h in subgroups_of_sym(len(gpd.elements[0]))], 6)
    tried = 0
    for _ in range(40):
        X, A = draw(), draw()
        homs = cat.hom_set(X, A)
        if homs:
            tried += 1
            b_prime, _ = _assert_retraction(rng.choice(homs))
            assert b_prime.dom.size <= A.size
        _assert_retraction(cat.identity(A))
    assert tried >= 10


@pytest.mark.parametrize("cat", [VEC2, VEC3], ids=lambda c: c.name)
def test_vec_retraction_on_random_maps(cat):
    rng = random.Random(7)
    for _ in range(60):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        cols = [tuple(rng.randrange(cat.q) for _ in range(m)) for _ in range(n)]
        b = cat.from_matrix(cat.obj(n), cat.obj(m), cols)
        b_prime, _ = _assert_retraction(b)
        assert cat.dim(b_prime.dom) == len(cat.echelon(cols)[0])  # the rank of b


def test_presheaf_orbit_fold():
    cat = gset_cat(Z2_GPD)
    both, injs = cat.coproduct([gset_free_orbit(cat, 0), gset_free_orbit(cat, 1)])
    b_prime, f = _assert_retraction(injs[0])
    assert b_prime.dom.size == 2  # one free orbit


def test_vec_complement_projection():
    v = VEC2
    b = v.from_matrix(v.obj(1), v.obj(3), [(1, 1, 0)])
    b_prime, f = _assert_retraction(b)
    assert v.dim(b_prime.dom) == 1


def test_strictness_vec_recipe_passes_above_eight_vectors():
    # the witness is the 4-dimensional subspace itself: 16 vectors
    cert = RECIPES["strictness-vec"](ambient_dim=5, sub_dim=4)
    assert (cert.verdict, cert.witness) == ("PASS", {"b_prime_dim": 4})


def test_unary_algebras_and_graphs_have_no_retraction():
    edge = GRA.obj([0, 1], [(0, 1)])
    for b in (GRA.identity(edge), UN.identity(UN.cycle(2))):
        with pytest.raises(ValueError):
            strictness_witness(b)


# Each category answers for itself through its Category hooks, so no module
# outside the ones that define categories tests which category it holds.
LIBRARY = Path(__file__).resolve().parent.parent / "src" / "finbench"
CATEGORY_HOMES = ("core", "cats", "vec")
CATEGORY_VALUES = {"FINSET", "GRA", "UN", "VEC2", "VEC3"}


def _category_classes():
    out, todo = set(), [Category]
    while todo:
        cls = todo.pop()
        out.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return out


def _names_in(node):
    """Names and attribute names in node, through tuple, list and set displays."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*map(_names_in, node.elts))
    return set()


def category_branches(source):
    """Lines of source that compare a value with a registered category or a
    category class, or pass a category class to isinstance or issubclass."""
    classes = _category_classes()
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            named = set().union(*map(_names_in, (node.left, *node.comparators)))
            if named & (CATEGORY_VALUES | classes):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2 \
                and _names_in(node.args[1]) & classes:
            lines.append(node.lineno)
    return lines


def test_category_branch_scan_sees_each_form():
    source = ("if cat is FINSET: pass\n"
              "if cats.UN == cat: pass\n"
              "if cat in (GRA, VEC2): pass\n"
              "if isinstance(cat, PresheafCat): pass\n"
              "if isinstance(cat, (int, cats.VecCat)): pass\n"
              "if type(cat) is UnCat: pass\n"
              "if cat is other or isinstance(cat, dict): pass\n")
    assert category_branches(source) == [1, 2, 3, 4, 5, 6]


def test_no_module_outside_the_categories_branches_on_one():
    found = [f"{path.name}:{line}" for path in sorted(LIBRARY.glob("*.py"))
             if path.stem not in CATEGORY_HOMES
             for line in category_branches(path.read_text(encoding="utf-8"))]
    assert found == []


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
    R = gset_free_orbit(cat)
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
    parts = cat.components(X)
    assert len(parts) == 1 and parts[0] == X


def test_decompose_free_plus_fixed():
    cat = gset_cat(Z2_GPD)
    X, _ = cat.coproduct([gset_free_orbit(cat), gset_fixed_point(cat)])
    parts = cat.components(X)
    assert sorted(p.size for p in parts) == [1, 2]
    assert decomposition_roundtrip(cat, X)


def test_decompose_two_regular_z3_orbits():
    cat = gset_cat(Z3_GPD)
    X, _ = cat.coproduct([gset_free_orbit(cat, 0), gset_free_orbit(cat, 1)])
    parts = cat.components(X)
    assert sorted(p.size for p in parts) == [3, 3]
    assert decomposition_roundtrip(cat, X)


def test_decomposition_roundtrip_random():
    rng = random.Random(17)
    for gpd in (Z2_GPD, Z3_GPD, S3_GPD):
        cat = gset_cat(gpd)
        subs = [tuple(h) for h in subgroups_of_sym(len(gpd.elements[0]))]
        draw = gset_sampler(rng, cat, subs, 8)
        for _ in range(25):
            assert decomposition_roundtrip(cat, draw())


@pytest.mark.parametrize("group", sorted(strictness.GROUPS))
def test_gset_sampler_matches_fresh_orbits(group):
    # the same draws and the same rng state as building every orbit afresh,
    # at both carrier bounds the recipes use
    gpd = strictness.GROUPS[group]
    cat = gset_cat(gpd)
    subs = [tuple(h) for h in subgroups_of_sym(len(gpd.elements[0]))]
    for seed in range(20):
        max_size = (6, 8)[seed % 2]
        rng, ref = random.Random(seed), random.Random(seed)
        draw = gset_sampler(rng, cat, subs, max_size)
        for _ in range(25):
            assert draw() == random_gset(ref, cat, subs, max_size)
        assert rng.getstate() == ref.getstate()


def test_atoms_builds_each_coset_orbit_once(monkeypatch):
    built = Counter()
    real = cats.gset_from_cosets

    def counting(cat, subgroup, tag=0):
        built[(tuple(subgroup), tag)] += 1
        return real(cat, subgroup, tag)

    monkeypatch.setattr(cats, "gset_from_cosets", counting)
    assert RECIPES["atoms"]("s3", 0).verdict == PASS_WITNESSED
    assert built and max(built.values()) == 1


def test_regularity_builds_the_probe_orbit_once(monkeypatch):
    probes = []
    real = strictness.gset_free_orbit

    def counting(cat, tag=0):
        if tag == "probe":
            probes.append(cat.name)
        return real(cat, tag)

    monkeypatch.setattr(strictness, "gset_free_orbit", counting)
    assert RECIPES["regularity"](0).verdict == PASS_WITNESSED
    assert probes == ["psh(z2)"]


def test_atoms_runs_the_roundtrip_once_per_distinct_draw(monkeypatch):
    # seed-0 triv draws repeat: 25 samples, far fewer distinct G-sets
    cat = gset_cat(TRIVIAL_GPD)
    draw = gset_sampler(random.Random(0), cat, [tuple(h) for h in subgroups_of_sym(1)], 8)
    distinct = list(dict.fromkeys(draw() for _ in range(25)))
    assert len(distinct) < 25
    seen = []
    real = strictness.decomposition_roundtrip

    def counting(cat, X):
        seen.append(X)
        return real(cat, X)

    monkeypatch.setattr(strictness, "decomposition_roundtrip", counting)
    cert = RECIPES["atoms"]("triv", 0)
    assert cert.verdict == PASS_WITNESSED and cert.witness["roundtrips"] == 25
    assert seen == distinct


def _congruence_samples():
    """Un, FinSet and S3-set objects with integer labels, so the old key's
    plain comparison of class minima is defined."""
    rng = random.Random(5)
    out = [FINSET.obj(range(n)) for n in range(5)]
    out += [cats.random_un_obj(rng, 5) for _ in range(12)]
    s3 = gset_cat(S3_GPD)
    draw = gset_sampler(rng, s3, [tuple(h) for h in subgroups_of_sym(3)], 6)
    for _ in range(8):
        X = draw()
        label = {x: i for i, x in enumerate(X.carrier)}
        tables = s3.op_tables(X)
        out.append(s3.obj(range(X.size), {
            g: {label[x]: label[tables[g][x]] for x in X.carrier}
            for g in S3_GPD.elements}))
    return out


@pytest.mark.parametrize("X", _congruence_samples(), ids=repr)
def test_congruences_keep_the_elem_key_order(X):
    # the partitions and quotient representatives come out as they did with
    # minima and sorting by elem_key
    cat = category_of(X)
    found = congruences(cat, X)
    old_key = lambda p: (len(p), sorted(sorted(c, key=elem_key)[0] for c in p))
    assert found == sorted(found, key=old_key)
    for part in found:
        q = quotient_by_partition(cat, X, part)
        assert all(q(x) == min(cls, key=elem_key) for cls in part for x in cls)


# ---------------------------------------------------------------------------
# negative certificates


def test_cycle_family_certificate_table():
    cert = no_finitary_endo_certificate(sy.CYCLE_FAMILY)
    table = {(p, q): n for p, q, n in cert["checked"]["prime_hom_table"]}
    primes = sorted({p for p, _ in table})
    assert len(primes) == 9 and primes[-1] == 23
    for (p, q), n in table.items():
        assert (n > 0) == (p == q)


def test_ray_certificate_counts():
    cert = no_finitary_endo_certificate(sy.RAY, window=32, path_bound=8)
    counts = {k: n for k, n in cert["checked"]["path_hom_counts"]}
    assert set(counts) == set(range(1, 9))
    for k, n in counts.items():
        assert n == 32 - k  # one hom per start position inside the window
    assert cert["inference"]
