"""Span tracer for the benchmark's traced run.

It wraps public functions and methods of the `finbench` modules from outside
`src/`: each wrapped call records a span (name, start, end, parent) and adds
to its target's counters (calls, self time, inclusive time, and one extra
count chosen per target).  Self time is span time minus the time of child
spans.  The per-layer metrics are computed from those counters and from the
`cache_info()` of the library's module-level caches.

The tracer is written to survive refactors of the library:
- a wrapped function is rebound in every loaded `finbench.*` module that
  imported it by name;
- a method target is also wrapped on every subclass that overrides it;
- a target that no longer exists is recorded as absent, and every metric
  that needs it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Spans kept in memory per process; counters stay exact past the cap.
SPAN_CAP = 50_000

ROOT = "bench.workload"


def _counting(post):
    """Hook factory for a count that needs only the call's args and result."""
    return lambda fn: (None, post)


_result_len = _counting(lambda args, result, before: len(result))
_found = _counting(lambda args, result, before: result is not None)
_triangles = _counting(lambda args, result, before: len(args[0].points) ** 3)


def _materialised(fn):
    """Elements built: with an lru_cache in front, only a miss builds them."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None, lambda args, result, before: len(result)
    return (lambda: info().misses), (
        lambda args, result, before: len(result) if info().misses > before else 0)


# (target name, module, attribute path, hook).  A path "Cls.meth" wraps the
# method on Cls and on every subclass that defines its own version.  A hook
# maps the wrapped function to (pre, post): pre() runs before the call and
# post(args, result, pre's value) returns the amount to add to the extra count.
TARGETS = [
    ("core.hom_set", "finbench.core", "Category.hom_set", _result_len),
    ("core.find_iso", "finbench.core", "Category.find_iso", _found),
    ("core.coequalizer", "finbench.core", "Category.coequalizer", None),
    ("core.Obj", "finbench.core", "Obj.__post_init__", None),
    ("core.Mor", "finbench.core", "Mor.__post_init__", None),
    ("cats.obj", "finbench.core", "Category.obj", None),
    ("cats.op", "finbench.core", "Category.op", None),
    ("cats.coproduct", "finbench.core", "Category.coproduct", None),
    ("nominal.orbit_iso_map", "finbench.nominal", "orbit_iso_map", _found),
    ("nominal.canon_rep", "finbench.nominal", "OrbitSpec.canon_rep", None),
    ("nominal.act", "finbench.nominal", "OrbitSpec.act", None),
    ("nominal.orbit_elements", "finbench.nominal", "_orbit_elements", _materialised),
    ("nominal.subgroup_from_quotient", "finbench.nominal", "subgroup_from_quotient", None),
    ("perms.mulclose", "finbench.perms", "mulclose", None),
    ("perms.subgroups_of_sym", "finbench.perms", "subgroups_of_sym", None),
    ("hausdorff.space_init", "finbench.hausdorff", "FinMetricSpace.__post_init__", _triangles),
    ("hausdorff.subset_space", "finbench.hausdorff", "subset_space", None),
    ("hausdorff.hausdorff_dist", "finbench.hausdorff", "hausdorff_dist", None),
    ("hausdorff.d", "finbench.hausdorff", "FinMetricSpace.d", None),
    ("strictness.strictness_witness", "finbench.strictness", "strictness_witness", None),
    ("strictness.congruences", "finbench.strictness", "congruences", None),
    ("strictness.decomposition_roundtrip", "finbench.strictness", "decomposition_roundtrip", None),
    ("superfin.evaluate", "finbench.superfin", "evaluate", None),
    ("superfin.powfin_endo_probe", "finbench.superfin", "powfin_endo_probe", None),
    ("functors.finitarity_certificate", "finbench.functors", "finitarity_certificate", None),
    ("functors.finitely_bounded_witness", "finbench.functors", "finitely_bounded_witness", None),
    ("colimits.reflect_colimit_test", "finbench.colimits", "reflect_colimit_test", None),
    ("symbolic.homs_into", "finbench.symbolic", "homs_into", None),
    ("certs.load_certificate", "finbench.certs", "load_certificate", None),
    ("certs.recompute", "finbench.certs", "recompute", None),
    ("certs.replay", "finbench.certs", "replay", None),
    ("serialize.canonical_dumps", "finbench.serialize", "canonical_dumps", _result_len),
    ("suites.run_suite", "finbench.suites", "run_suite", None),
    ("cli.main", "finbench.cli", "main", None),
]

# The recipes registered at commit f91ece3; each is wrapped in certs.RECIPES.
RECIPES = [
    "atoms", "finitarity-graph", "finitarity-nom", "finitarity-un",
    "hausdorff-axioms", "hausdorff-bounded", "hausdorff-functoriality",
    "no-finitary-endo", "nominal-orbit-classes", "nominal-rigidity",
    "nominal-roundtrip", "nominal-subgroups", "reflect-prime-chain",
    "regularity", "strictness-finset", "strictness-presheaf", "strictness-vec",
    "superfin-closure", "superfin-endos", "superfin-evaluation",
    "superfin-powerset", "un-boundedness",
]

# Unbounded module-level caches, read through cache_info() after a run.
CACHES = [
    ("cats._un_op_map", "finbench.cats", "_un_op_map"),
    ("cats._psh_op_map", "finbench.cats", "_psh_op_map"),
    ("nominal._orbit_group", "finbench.nominal", "_orbit_group"),
    ("nominal._orbit_elements", "finbench.nominal", "_orbit_elements"),
    ("superfin._table", "finbench.superfin", "_table"),
]

LAYERS = ["core", "cats", "nominal", "perms", "hausdorff", "strictness", "superfin",
          "functors", "colimits", "symbolic", "certs", "serialize", "suites", "cli"]


def _resolve(module, path):
    """(owner, attribute name) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return owner, attr


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += [c for c in _subclasses(sub) if c not in out]
    return out


class Tracer:
    """Installs the wrappers and accumulates spans and counters in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.stats = {}  # target -> [calls, self_s, incl_s, extra]
        self.spans = []  # (name, start, end, parent index)
        self.dropped = 0
        self.stack = [[0.0, -1]]  # frames: [child time, span index]
        self.absent = []
        self.caches = {}
        self._cache_objects = {}

    def wrap(self, name, fn, hook=None):
        pre, post = hook(fn) if hook else (None, None)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        open_calls = [0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if len(spans) < SPAN_CAP:
                frame = [0.0, len(spans)]
                spans.append(None)
            else:
                frame = [0.0, -1]
                tracer.dropped += 1
            stack.append(frame)
            open_calls[0] += 1
            before = pre() if pre else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if post:
                    stats[3] += post(args, result, before)
                return result
            finally:
                t1 = clock()
                stack.pop()
                open_calls[0] -= 1
                dt = t1 - t0
                parent[0] += dt
                stats[0] += 1
                stats[1] += dt - frame[0]
                if not open_calls[0]:
                    stats[2] += dt
                if frame[1] >= 0:
                    spans[frame[1]] = (name, t0, t1, parent[1])

        return traced

    def install(self):
        """Wrap every target that exists; record the rest as absent."""
        import finbench.suites  # noqa: F401
        from finbench import certs

        for name, module, attr in CACHES:
            found = _resolve(module, attr)
            fn = getattr(found[0], found[1], None) if found else None
            if hasattr(fn, "cache_info"):
                self._cache_objects[name] = fn
            else:
                self.absent.append(f"cache.{name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "finbench" or n.startswith("finbench.")]
        for name, module, path, hook in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr = found
            if isinstance(owner, type):
                classes = [c for c in _subclasses(owner) if attr in c.__dict__]
                for cls in classes:
                    setattr(cls, attr, self.wrap(name, cls.__dict__[attr], hook))
                if not classes:
                    self.absent.append(name)
                continue
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            traced = self.wrap(name, fn, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        for recipe in RECIPES:
            fn = certs.RECIPES.get(recipe)
            if fn is None:
                self.absent.append(f"suites.recipe.{recipe}")
            else:
                certs.RECIPES[recipe] = self.wrap(f"suites.recipe.{recipe}", fn)

    def run(self, fn, *args):
        """Call fn under the root span and return its result."""
        return self.wrap(ROOT, fn)(*args)

    def read_caches(self):
        for name, fn in self._cache_objects.items():
            info = fn.cache_info()
            self.caches[name] = [info.hits, info.misses, info.currsize]

    def summary(self):
        self.read_caches()
        return {"stats": self.stats, "caches": self.caches, "absent": self.absent,
                "spans": len(self.spans), "dropped": self.dropped}

    def write_spans(self, path):
        with open(path, "a", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics, computed in the parent from the summed summaries


def merge(summaries):
    """Sum counters over processes; cache sizes take the largest reading."""
    stats, caches, absent = {}, {}, set()
    spans = dropped = 0
    for s in summaries:
        for name, row in s["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        for name, (hits, misses, size) in s["caches"].items():
            acc = caches.setdefault(name, [0, 0, 0])
            acc[0] += hits
            acc[1] += misses
            acc[2] = max(acc[2], size)
        absent.update(s["absent"])
        spans += s["spans"]
        dropped += s["dropped"]
    return {"stats": stats, "caches": caches, "absent": sorted(absent),
            "spans": spans, "dropped": dropped}


def _ratio(a, b):
    return a / b if b else 0.0


def _calls(t):
    return [t], lambda st, ca: st[t][0]


def _self(t):
    return [t], lambda st, ca: st[t][1]


def _incl(t):
    return [t], lambda st, ca: st[t][2]


def _extra(t):
    return [t], lambda st, ca: st[t][3]


def _per_call(t):
    return [t], lambda st, ca: _ratio(st[t][3], st[t][0])


def _cache_ratio(*names):
    keys = [f"cache.{n}" for n in names]
    return keys, lambda st, ca: _ratio(sum(ca[n][0] for n in names),
                                       sum(ca[n][0] + ca[n][1] for n in names))


def _cache_size(*names):
    return [f"cache.{n}" for n in names], lambda st, ca: sum(ca[n][2] for n in names)


def _cache_field(name, i):
    return [f"cache.{name}"], lambda st, ca: ca[name][i]


# name -> (unit, (targets needed, value function of stats and caches))
METRICS = {
    "core.hom_set.calls": ("count", _calls("core.hom_set")),
    "core.hom_set.self_s": ("s", _self("core.hom_set")),
    "core.hom_set.homs_per_call": ("count", _per_call("core.hom_set")),
    "core.find_iso.calls": ("count", _calls("core.find_iso")),
    "core.find_iso.self_s": ("s", _self("core.find_iso")),
    "core.find_iso.found_ratio": ("ratio", _per_call("core.find_iso")),
    "core.coequalizer.calls": ("count", _calls("core.coequalizer")),
    "core.coequalizer.self_s": ("s", _self("core.coequalizer")),
    "core.Obj.built": ("count", _calls("core.Obj")),
    "core.Mor.built": ("count", _calls("core.Mor")),
    "core.Mor.validate_s": ("s", _incl("core.Mor")),
    "cats.obj.calls": ("count", _calls("cats.obj")),
    "cats.obj.self_s": ("s", _self("cats.obj")),
    "cats.op.calls": ("count", _calls("cats.op")),
    "cats.coproduct.self_s": ("s", _self("cats.coproduct")),
    "cats.op_cache.hit_ratio": ("ratio", _cache_ratio("cats._un_op_map", "cats._psh_op_map")),
    "cats.op_cache.entries": ("count", _cache_size("cats._un_op_map", "cats._psh_op_map")),
    "nominal.orbit_iso_map.calls": ("count", _calls("nominal.orbit_iso_map")),
    "nominal.orbit_iso_map.self_s": ("s", _self("nominal.orbit_iso_map")),
    "nominal.orbit_iso_map.found_ratio": ("ratio", _per_call("nominal.orbit_iso_map")),
    "nominal.canon_rep.calls": ("count", _calls("nominal.canon_rep")),
    "nominal.canon_rep.self_s": ("s", _self("nominal.canon_rep")),
    "nominal.act.calls": ("count", _calls("nominal.act")),
    "nominal.orbit_elements.materialised": ("count", _extra("nominal.orbit_elements")),
    "nominal.subgroup_from_quotient.self_s": ("s", _self("nominal.subgroup_from_quotient")),
    "nominal.orbit_cache.hit_ratio": (
        "ratio", _cache_ratio("nominal._orbit_group", "nominal._orbit_elements")),
    "perms.mulclose.calls": ("count", _calls("perms.mulclose")),
    "perms.mulclose.self_s": ("s", _self("perms.mulclose")),
    "perms.subgroups_of_sym.self_s": ("s", _self("perms.subgroups_of_sym")),
    "hausdorff.space_init.calls": ("count", _calls("hausdorff.space_init")),
    "hausdorff.space_init.self_s": ("s", _self("hausdorff.space_init")),
    "hausdorff.space_init.triangles": ("count", _extra("hausdorff.space_init")),
    "hausdorff.subset_space.self_s": ("s", _self("hausdorff.subset_space")),
    "hausdorff.hausdorff_dist.calls": ("count", _calls("hausdorff.hausdorff_dist")),
    "hausdorff.d.calls": ("count", _calls("hausdorff.d")),
}
for _target in ("strictness.strictness_witness", "strictness.congruences",
                "strictness.decomposition_roundtrip", "superfin.evaluate",
                "superfin.powfin_endo_probe", "functors.finitarity_certificate",
                "functors.finitely_bounded_witness", "colimits.reflect_colimit_test",
                "symbolic.homs_into"):
    METRICS[f"{_target}.calls"] = ("count", _calls(_target))
    METRICS[f"{_target}.self_s"] = ("s", _self(_target))
METRICS.update({
    "superfin.table_cache.entries": ("count", _cache_size("superfin._table")),
    "certs.load_certificate.self_s": ("s", _self("certs.load_certificate")),
    "certs.recompute.self_s": ("s", _self("certs.recompute")),
    "certs.replay.self_s": ("s", _self("certs.replay")),
    "serialize.canonical_dumps.calls": ("count", _calls("serialize.canonical_dumps")),
    "serialize.canonical_dumps.self_s": ("s", _self("serialize.canonical_dumps")),
    "serialize.canonical_dumps.bytes": ("count", _extra("serialize.canonical_dumps")),
    "cli.main.s": ("s", _incl("cli.main")),
})
for _recipe in RECIPES:
    METRICS[f"suites.recipe.{_recipe}.s"] = ("s", _incl(f"suites.recipe.{_recipe}"))
for _name, _, _ in CACHES:
    for _i, _field in enumerate(("hits", "misses", "size")):
        METRICS[f"cache.{_name}.{_field}"] = ("count", _cache_field(_name, _i))


def layer_metrics(merged, wall):
    """Per-layer metric values; absent targets give None.  The shares divide
    self times by the traced wall time; share.startup is the part of it
    spent before the root spans, in interpreter start and import."""
    stats, caches = merged["stats"], merged["caches"]
    absent = set(merged["absent"])
    values = {}
    for name, (unit, (needs, value)) in METRICS.items():
        if absent.intersection(needs):
            values[name] = (None, unit)
            continue
        st = {t: stats.get(t, [0, 0.0, 0.0, 0]) for t in needs}
        ca = {n[len("cache."):]: caches.get(n[len("cache."):], [0, 0, 0])
              for n in needs if n.startswith("cache.")}
        values[name] = (value(st, ca), unit)
    root = stats.get(ROOT, [0, 0.0, 0.0, 0])
    for layer in LAYERS:
        own = sum(row[1] for t, row in stats.items() if t.split(".")[0] == layer)
        values[f"share.{layer}"] = (_ratio(own, wall), "ratio")
    values["share.bench"] = (_ratio(root[1], wall), "ratio")
    values["share.startup"] = (_ratio(wall - root[2], wall), "ratio")
    return values
