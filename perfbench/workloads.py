"""Workload inputs, the operations run on them, and the oracles that check them.

Inputs are plain data (ints, lists, tuples) generated from the seed; the
`finbench` objects are built inside each timed operation, as a caller of the
library would build them.  The oracles never call `finbench`: hom counts of
sums of cycles come from a closed form, isomorphisms are checked against the
raw relabelling, and coequalizer class counts come from a plain union-find.
The parent process imports this module for the replay inputs, so `finbench`
is only imported inside the functions that need it.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import random

# The criterion-03 table of the acceptance gate: hom_set(C_p, C_q), p, q <= 23.
TABLE_MAX = 23
# Query counts per kind; sizes are fixed so every seed does the same work.
CYCLE_SUMS = 60
ISO_PAIRS = 30
NONISO_PAIRS = 15
GSET_PAIRS = 4
COEQ_PAIRS = 60

ORBIT_MAX_N = 4
ORBIT_SUBGROUP_COUNTS = [1, 1, 2, 6, 30]
ORBIT_CLASS_COUNTS = [1, 1, 2, 4, 11]

# S3 as permutation tuples and its six subgroups, for coset G-sets.
S3 = list(itertools.permutations(range(3)))
S3_SUBGROUPS = [
    [(0, 1, 2)],
    [(0, 1, 2), (1, 0, 2)],
    [(0, 1, 2), (2, 1, 0)],
    [(0, 1, 2), (0, 2, 1)],
    [(0, 1, 2), (1, 2, 0), (2, 0, 1)],
    S3,
]


# ---------------------------------------------------------------------------
# independent oracles


def cycle_sum_homs(ps, qs):
    """|hom(sum of C_p, sum of C_q)| = prod over p of sum of q dividing p."""
    total = 1
    for p in ps:
        total *= sum(q for q in qs if p % q == 0)
    return total


def union_find_classes(size, f_images, g_images):
    """Classes of range(size) under the equivalence generated by f(x) ~ g(x)."""
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in zip(f_images, g_images):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(a) for a in range(size)})


def unary_invariant(op):
    """Sorted in-degrees and cycle lengths of a function given as a list."""
    indeg = [0] * len(op)
    for y in op:
        indeg[y] += 1
    cycles = []
    seen = set()
    for x in range(len(op)):
        path = []
        while x not in seen:
            seen.add(x)
            path.append(x)
            x = op[x]
        if x in path:
            cycles.append(len(path) - path.index(x))
    return sorted(indeg), sorted(cycles)


def graph_invariant(n, edges):
    outd, ind = [0] * n, [0] * n
    for u, v in edges:
        outd[u] += 1
        ind[v] += 1
    return len(edges), sorted(zip(outd, ind))


def is_relabelling(mapping, pairs_x, pairs_y):
    """mapping is a bijection carrying the relation pairs_x onto pairs_y."""
    if len(set(mapping.values())) != len(mapping):
        return False
    return {(mapping[a], mapping[b]) for a, b in pairs_x} == set(pairs_y)


# ---------------------------------------------------------------------------
# hom-search


def hom_search_queries(seed):
    """The seeded batch: a list of (kind, spec) with plain-data specs."""
    rng = random.Random(f"hom-search/{seed}")
    queries = [("table", (p, q)) for p in range(1, TABLE_MAX + 1)
               for q in range(1, TABLE_MAX + 1)]
    for _ in range(CYCLE_SUMS):
        queries.append(("cycle-sum", (rng.sample(range(1, 10), 2), rng.sample(range(1, 7), 3))))
    for _ in range(ISO_PAIRS):
        n = 9
        op = [rng.randrange(n) for _ in range(n)]
        queries.append(("un-iso", (op, _shuffled(rng, n))))
        edges = sorted({(rng.randrange(7), rng.randrange(7)) for _ in range(12)})
        queries.append(("gra-iso", (7, edges, _shuffled(rng, 7))))
    for _ in range(NONISO_PAIRS):
        queries.append(("un-noniso", _distinct_pair(
            rng, lambda: [rng.randrange(9) for _ in range(9)], unary_invariant)))
        queries.append(("gra-noniso", _distinct_pair(
            rng, lambda: sorted({(rng.randrange(7), rng.randrange(7)) for _ in range(12)}),
            lambda edges: graph_invariant(7, edges))))
    for _ in range(GSET_PAIRS):
        # orbits of sizes 6, 3 and 2; the seed picks the order-2 subgroup
        subs = [0, rng.randrange(1, 4), 4]
        rng.shuffle(subs)
        queries.append(("gset-iso", (subs, _shuffled(rng, 3))))
        queries.append(("gset-homs", subs))
    for _ in range(COEQ_PAIRS):
        n, m = 8, 8
        queries.append(("coeq", (n, m, [rng.randrange(m) for _ in range(n)],
                                 [rng.randrange(m) for _ in range(n)])))
    return queries


def _shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _distinct_pair(rng, draw, invariant):
    a = draw()
    while True:
        b = draw()
        if invariant(a) != invariant(b):
            return a, b


def run_query(kind, spec):
    """One hom-search operation; returns a JSON-able answer."""
    from finbench.cats import FINSET, GRA, UN

    if kind == "table":
        p, q = spec
        return len(UN.hom_set(UN.cycle(p), UN.cycle(q)))
    if kind == "cycle-sum":
        ps, qs = spec
        return len(UN.hom_set(UN.cycles_sum(ps), UN.cycles_sum(qs)))
    if kind == "un-iso":
        op, perm = spec
        X = UN.obj(range(len(op)), dict(enumerate(op)))
        Y = UN.obj(range(len(op)), {perm[x]: perm[y] for x, y in enumerate(op)})
        return _iso_pairs(UN.find_iso(X, Y))
    if kind == "un-noniso":
        ops = [UN.obj(range(len(op)), dict(enumerate(op))) for op in spec]
        return _iso_pairs(UN.find_iso(*ops))
    if kind == "gra-iso":
        n, edges, perm = spec
        X = GRA.obj(range(n), edges)
        Y = GRA.obj(range(n), [(perm[u], perm[v]) for u, v in edges])
        return _iso_pairs(GRA.find_iso(X, Y))
    if kind == "gra-noniso":
        X, Y = (GRA.obj(range(7), edges) for edges in spec)
        return _iso_pairs(GRA.find_iso(X, Y))
    if kind == "gset-iso":
        subs, perm = spec
        cat, X = _gset(subs)
        _, Y = _gset([subs[perm[i]] for i in range(len(subs))])
        return _iso_pairs(cat.find_iso(X, Y))
    if kind == "gset-homs":
        from finbench.cats import gset_free_orbit

        cat, Y = _gset(spec)
        return len(cat.hom_set(gset_free_orbit(cat), Y))
    if kind == "coeq":
        n, m, fi, gi = spec
        X, Y = FINSET.obj(range(n)), FINSET.obj(range(m))
        f, g = FINSET.mor(X, Y, fi), FINSET.mor(X, Y, gi)
        return FINSET.coequalizer(f, g).cod.size
    raise ValueError(f"unknown query kind {kind!r}")


def _gset(subs):
    from finbench.cats import S3_GPD, gset_cat, gset_from_cosets

    cat = gset_cat(S3_GPD)
    parts = [gset_from_cosets(cat, S3_SUBGROUPS[h], tag) for tag, h in enumerate(subs)]
    return cat, cat.coproduct(parts)[0]


def _iso_pairs(f):
    """An isomorphism as sorted [x, f(x)] pairs of JSON-able carrier elements."""
    if f is None:
        return None
    return sorted(json.loads(json.dumps([x, y], default=sorted))
                  for x, y in zip(f.dom.carrier, f.mapping))


def check_query(kind, spec, answer):
    """True when the answer agrees with the oracle."""
    if kind == "table":
        p, q = spec
        return answer == (q if p % q == 0 else 0)
    if kind == "cycle-sum":
        return answer == cycle_sum_homs(*spec)
    if kind in ("un-noniso", "gra-noniso"):
        return answer is None
    if kind == "un-iso":
        op, perm = spec
        if answer is None:
            return False
        mapping = dict(tuple(p) for p in answer)
        graph_x = list(enumerate(op))
        graph_y = [(perm[x], perm[y]) for x, y in enumerate(op)]
        return set(mapping) == set(range(len(op))) and is_relabelling(mapping, graph_x, graph_y)
    if kind == "gra-iso":
        n, edges, perm = spec
        if answer is None:
            return False
        mapping = dict(tuple(p) for p in answer)
        return set(mapping) == set(range(n)) and is_relabelling(
            mapping, edges, [(perm[u], perm[v]) for u, v in edges])
    if kind == "gset-iso":
        return answer is not None and len(answer) == sum(
            len(S3) // len(S3_SUBGROUPS[h]) for h in spec[0])
    if kind == "gset-homs":
        # Yoneda: homs out of the free orbit are the elements of the target.
        return answer == sum(len(S3) // len(S3_SUBGROUPS[h]) for h in spec)
    if kind == "coeq":
        n, m, fi, gi = spec
        return answer == union_find_classes(m, fi, gi)
    return False


# ---------------------------------------------------------------------------
# orbit-classify


def orbit_classify():
    """Subgroup and single-orbit class counts for n = 0..ORBIT_MAX_N."""
    from finbench.nominal import single_orbit_enumerate, subgroups_of_Sn

    subgroups, classes = [], []
    for n in range(ORBIT_MAX_N + 1):
        subgroups.append(len(subgroups_of_Sn(n)))
        classes.append(len(single_orbit_enumerate(n)))
    return subgroups, classes


# ---------------------------------------------------------------------------
# replay

MUTATED_CERTS = 4
# Checks whose recompute is cheap, so the seeded choice of which to mutate
# leaves the work of a replay pass the same for every seed.
MUTABLE_CHECKS = (
    "atoms/atoms-triv",
    "atoms/atoms-z2",
    "nom-counterexample/rigidity",
    "nominal-classification/subgroup-counts",
    "strictness/vec-projection",
    "superfin/powerset-endo-probe",
    "un-counterexample/boundedness-witnesses",
    "un-counterexample/finitarity-chain",
)


def check_id(check):
    return f"{check['suite']}/{check['name']}"


def replay_cases(report, seed):
    """Certificates to replay: (case id, kind, JSON text).

    kind is "valid" (expect exit 0), "mutated" (one witness value changed,
    expect exit 1 and MISMATCH) or "malformed" (expect exit 2, no traceback).
    """
    rng = random.Random(f"replay/{seed}")
    certs = {check_id(c): c["certificate"] for c in report["checks"]}
    cases = [(cid, "valid", dumps(cert)) for cid, cert in certs.items()]
    for cid in sorted(rng.sample([c for c in MUTABLE_CHECKS if c in certs], MUTATED_CERTS)):
        cert = copy.deepcopy(certs[cid])
        _mutate_leaf(rng, cert["witness"])
        cases.append((f"{cid}#mutated", "mutated", dumps(cert)))
    base = certs["un-counterexample/prime-hom-table"]
    unknown = copy.deepcopy(base)
    unknown["inputs"]["params"]["subject"] = f"no-such-subject-{rng.randrange(1000)}"
    extra = copy.deepcopy(base)
    extra["inputs"]["params"][f"unexpected_{rng.randrange(1000)}"] = 1
    cases += [
        ("malformed/unknown-subject", "malformed", dumps(unknown)),
        ("malformed/extra-parameter", "malformed", dumps(extra)),
        ("malformed/top-level-list", "malformed", dumps([base])),
    ]
    return cases


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dumps(payload):
    """Canonical JSON text, as finbench.serialize.canonical_dumps writes it."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, path + (i,))
    else:
        yield path, node


def _mutate_leaf(rng, witness):
    """Change one seeded leaf of the witness so its bytes differ."""
    path, value = rng.choice(list(_leaves(witness)))
    if isinstance(value, bool):
        new = not value
    elif isinstance(value, (int, float)):
        new = value + 1
    elif isinstance(value, str):
        new = value + "*"
    else:
        new = 0
    node = witness
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
