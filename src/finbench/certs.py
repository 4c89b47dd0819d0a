"""Machine-checkable certificates and their replay machinery.

A certificate records the recipe that produced it plus its parameters, so
replaying recomputes the verdict and witness from scratch and compares them
bit-exactly against the stored record.

This module owns the canonical JSON text, the verdict labels, the table
of which layer module registers each recipe and the table of each recipe's
parameters, and imports no mathematics (from core, only the Value base): a
replay imports only the module of its own recipe.
"""

from __future__ import annotations

import functools
import importlib
import json

from .core import Value

CERT_SCHEMA = "finbench-cert/1"

# verdict labels: a check of a property of infinite objects that found no
# counterexample within its probes; a check that verified its claim on each
# instance its witness records; and a check that certifies a counterexample
PASS = "PASS(probe-limited)"
PASS_WITNESSED = "PASS"
FAIL = "FAIL(certified)"
VERDICTS = (PASS, PASS_WITNESSED, FAIL)

KINDS = (
    "colimit-test",
    "finitarity",
    "strictness-witness",
    "no-finitary-endo",
    "atoms",
    "superfin",
    "nominal",
    "hausdorff",
)


# the deepest array and object nesting a certificate may have; the suite's
# certificates nest at most 23 deep, and a replay compares and prints stored
# values with recursive JSON code, which this keeps far from the stack limit
MAX_NESTING = 200
TOO_DEEP = "certificate JSON is nested too deeply"


class CertificateError(ValueError):
    """A certificate that cannot be replayed: a malformed payload, an unknown
    recipe, or parameters that its recipe does not accept."""


class Certificate(Value):
    _fields = ("kind", "inputs", "verdict", "witness", "bounds", "schema")
    __hash__ = None  # its fields are dicts

    def __init__(self, kind: str, inputs: dict, verdict: str, witness: dict,
                 bounds: dict | None = None, schema: str = CERT_SCHEMA):
        # inputs: {"recipe": name, "params": {...}}, JSON-able; a certificate
        # given no bounds gets a dict of its own
        self.__dict__.update(kind=kind, inputs=inputs, verdict=verdict, witness=witness,
                             bounds={} if bounds is None else bounds, schema=schema)
        self.__post_init__()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")

    def to_payload(self) -> dict:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "witness": self.witness,
            "bounds": self.bounds,
        }

    def dumps(self) -> str:
        return canonical_dumps(self.to_payload())

    @staticmethod
    def from_payload(payload: dict) -> "Certificate":
        if not isinstance(payload, dict):
            raise CertificateError("certificate is not a JSON object")
        if payload.get("schema") != CERT_SCHEMA:
            raise CertificateError("unsupported certificate schema")
        missing = [k for k in ("kind", "inputs", "verdict", "witness") if k not in payload]
        if missing:
            raise CertificateError(f"certificate lacks {', '.join(missing)}")
        _refuse_unknown_keys(payload, Certificate._fields, "certificate")
        inputs = payload["inputs"]
        if not isinstance(inputs, dict):
            raise CertificateError("certificate inputs are not a JSON object")
        _refuse_unknown_keys(inputs, ("recipe", "params"), "certificate inputs")
        if not isinstance(inputs.get("recipe"), str):
            raise CertificateError("certificate recipe is not a string")
        if not isinstance(inputs.get("params", {}), dict):
            raise CertificateError("certificate params are not a JSON object")
        if payload["verdict"] not in VERDICTS:
            raise CertificateError(f"certificate verdict is not one of {', '.join(VERDICTS)}")
        for key in ("witness", "bounds"):
            if not isinstance(payload.get(key, {}), dict):
                raise CertificateError(f"certificate {key} is not a JSON object")
        return Certificate(
            payload["kind"],
            inputs,
            payload["verdict"],
            payload["witness"],
            payload.get("bounds", {}),
        )


def _refuse_unknown_keys(obj: dict, known, where: str):
    # a key that the writer never writes makes a malformed file, not a
    # disagreement with the recomputed certificate
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise CertificateError(f"{where} has unknown keys {', '.join(map(repr, unknown))}")


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# recipe name -> the finbench module that registers it.  Replay imports only
# that module, so a certificate pays for its own layer, not for the package.
RECIPE_MODULES = {
    "finitarity-graph": "functors",
    "finitarity-un": "functors",
    "reflect-prime-chain": "functors",
    "un-boundedness": "functors",
    "finitarity-nom": "nominal",
    "nominal-orbit-classes": "nominal",
    "nominal-rigidity": "nominal",
    "nominal-roundtrip": "nominal",
    "nominal-subgroups": "nominal",
    "atoms": "strictness",
    "no-finitary-endo": "symbolic",
    "regularity": "strictness",
    "strictness-finset": "strictness",
    "strictness-presheaf": "strictness",
    "strictness-vec": "strictness",
    "superfin-closure": "superfin",
    "superfin-endos": "superfin",
    "superfin-evaluation": "superfin",
    "superfin-powerset": "superfin",
    "hausdorff-axioms": "hausdorff",
    "hausdorff-bounded": "hausdorff",
    "hausdorff-functoriality": "hausdorff",
}

RECIPES: dict[str, object] = {}
# recipe name -> {parameter: (least, greatest)} accepted on replay
LIMITS: dict[str, dict] = {}
# recipe name -> {parameter: (JSON type, default)} in signature order, read
# once at registration; a parameter without a default has REQUIRED there
PARAMS: dict[str, dict] = {}
REQUIRED = object()

# the annotations a recipe parameter may carry, written as strings, and the
# exact type each asks of a value
PARAM_TYPES = {"int": int, "str": str}
_CO_VARARGS, _CO_VARKEYWORDS = 0x04, 0x08  # code flags, as in the inspect module


def _parameters(name, fn) -> dict:
    """fn's entry of PARAMS, read off its code object, defaults and
    annotations; a TypeError unless every parameter can be passed by
    keyword and is annotated "int" or "str"."""
    code = fn.__code__
    if (code.co_posonlyargcount or code.co_kwonlyargcount
            or code.co_flags & (_CO_VARARGS | _CO_VARKEYWORDS)):
        raise TypeError(f"recipe {name!r}: parameters must be plain, "
                        "not positional-only, keyword-only, *args or **kwargs")
    names = code.co_varnames[:code.co_argcount]
    defaults = fn.__defaults__ or ()
    defaults = (REQUIRED,) * (len(names) - len(defaults)) + defaults
    table = {}
    for key, default in zip(names, defaults):
        annotation = fn.__annotations__.get(key)
        if annotation not in PARAM_TYPES:
            raise TypeError(f"recipe {name!r}: parameter {key!r} must be annotated "
                            f"{' or '.join(map(repr, PARAM_TYPES))}, not {annotation!r}")
        table[key] = (PARAM_TYPES[annotation], default)
    return table


def recipe(name, kind, bounds=(), limits=None):
    """Register a function returning (verdict, witness) as recipe name.

    The registered function returns the call's Certificate: its inputs are
    the recipe name and every argument, defaults included, and its bounds are
    the arguments named in bounds.  PARAMS records fn's parameters, and
    registration refuses fn unless _parameters can read them.
    """

    def deco(fn):
        table = _parameters(name, fn)

        @functools.wraps(fn)
        def certify(*args, **kwargs):
            verdict, witness = fn(*args, **kwargs)
            given = dict(zip(table, args), **kwargs)
            params = {k: given.get(k, default) for k, (_, default) in table.items()}
            return Certificate(kind, {"recipe": name, "params": params}, verdict, witness,
                               {k: params[k] for k in bounds})

        RECIPES[name] = certify
        LIMITS[name] = limits or {}
        PARAMS[name] = table
        return certify

    return deco


def recompute(cert: Certificate) -> Certificate:
    """Rerun the recipe, importing only the module that registers it; a
    recipe that is unknown raises CertificateError before that import, and
    one that does not accept the recorded parameters, their JSON types or
    their values raises it before any work."""
    name = cert.inputs.get("recipe")
    module = RECIPE_MODULES.get(name)
    if module is None:
        raise CertificateError(f"unknown recipe {name!r}")
    importlib.import_module(f"finbench.{module}")
    table = PARAMS[name]
    params = cert.inputs.get("params", {})
    # the messages that binding params to the recipe's signature gives
    for key, (_, default) in table.items():
        if default is REQUIRED and key not in params:
            raise CertificateError(f"recipe {name!r}: missing a required argument: {key!r}")
    for key in params:
        if key not in table:
            raise CertificateError(
                f"recipe {name!r}: got an unexpected keyword argument {key!r}")
    for key, value in params.items():
        # exact types: JSON true is not an int, nor 1.5 or null
        kind = table[key][0]
        if type(value) is not kind:
            raise CertificateError(
                f"recipe {name!r}: parameter {key!r} must be {kind.__name__}, "
                f"not {type(value).__name__}"
            )
    for key, (lo, hi) in LIMITS[name].items():
        if key in params and not lo <= params[key] <= hi:
            raise CertificateError(
                f"recipe {name!r}: parameter {key!r} must be in {lo}..{hi}, "
                f"not {params[key]}"
            )
    return RECIPES[name](**params)


_ABSENT = object()


def _first_difference(stored, recomputed, path):
    """(path, stored value, recomputed value) at the first JSON path, in key
    and index order, where two unequal JSON values differ; a key or index
    that one side lacks holds _ABSENT there.  The descent is a loop, so its
    stack does not grow with the nesting of the values."""
    while True:
        if isinstance(stored, dict) and isinstance(recomputed, dict):
            steps = [(stored.get(k, _ABSENT), recomputed.get(k, _ABSENT), f"{path}.{k}")
                     for k in sorted(stored.keys() | recomputed.keys())]
        elif isinstance(stored, list) and isinstance(recomputed, list):
            steps = [(stored[i] if i < len(stored) else _ABSENT,
                      recomputed[i] if i < len(recomputed) else _ABSENT, f"{path}[{i}]")
                     for i in range(max(len(stored), len(recomputed)))]
        else:
            return path, stored, recomputed
        stored, recomputed, path = next(step for step in steps if _differ(*step[:2]))


def _differ(a, b):
    return a is _ABSENT or b is _ABSENT or canonical_dumps(a) != canonical_dumps(b)


def _shown(value):
    return "absent" if value is _ABSENT else canonical_dumps(value)


def replay(cert: Certificate) -> list:
    """One line per top-level field where the recomputed certificate
    differs, naming the first differing JSON path; empty on a match."""
    fresh = recompute(cert)
    diffs = []
    for fieldname in ("kind", "verdict", "witness", "bounds", "inputs"):
        a = canonical_dumps(getattr(cert, fieldname))
        b = canonical_dumps(getattr(fresh, fieldname))
        if a != b:
            path, x, y = _first_difference(json.loads(a), json.loads(b), fieldname)
            diffs.append(f"{path}: stored {_shown(x)} recomputed {_shown(y)}")
    return diffs


def load_certificate(path) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise CertificateError(TOO_DEEP) from None
    if _nesting(payload) > MAX_NESTING:
        raise CertificateError(TOO_DEEP)
    return Certificate.from_payload(payload)


def _nesting(value) -> int:
    """How deep JSON arrays and objects nest in value, counted without recursion."""
    deepest, todo = 0, [(value, 0)]
    while todo:
        node, depth = todo.pop()
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            deepest = max(deepest, depth + 1)
            todo.extend((child, depth + 1) for child in node)
    return deepest


def save_certificate(cert: Certificate, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cert.dumps())
