"""Replay of mutated certificates.

Each example mutates one seed-0 certificate of a cheap recipe (the type of
a value, the range of an int parameter, the nesting of a value, the key set
of an object, or the JSON text itself) and replays it through the CLI.  The
only allowed outcomes are exit 0 with "replay: match", exit 1 with
"replay: MISMATCH", and exit 2 with exactly one line on stderr.  No mutation
raises a work parameter above its recorded value, so every example stays
cheap.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

import finbench.suites  # registers all recipes
from finbench.certs import LIMITS, RECIPES
from finbench.cli import main
from finbench.suites import SUITES

# recipes whose suite certificates replay in milliseconds
CHEAP = {
    "finitarity-un", "finitarity-graph", "finitarity-nom", "reflect-prime-chain",
    "no-finitary-endo", "un-boundedness", "nominal-rigidity", "nominal-subgroups",
    "nominal-orbit-classes", "strictness-vec", "strictness-presheaf", "superfin-endos",
    "hausdorff-bounded",
}
# every seeded recipe defaults to seed 0
BASES = [
    RECIPES[recipe](**params).to_payload()
    for checks in SUITES.values()
    for _, recipe, params, _ in checks
    if recipe in CHEAP
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
JSON_TYPES = (dict, list, str, bool, int, float, type(None))
SENTINEL = "\x00nested\x00"


def _json_type(value):
    return next(t for t in JSON_TYPES if isinstance(value, t))


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _at(node, path):
    for step in path:
        node = node[step]
    return node


def _replace(payload, path, value):
    if not path:
        return value
    _at(payload, path[:-1])[path[-1]] = value
    return payload


@st.composite
def mutated_certificates(draw):
    """The JSON text of one seed-0 certificate with one mutation."""
    payload = copy.deepcopy(draw(st.sampled_from(BASES)))
    mutation = draw(st.sampled_from(["type", "range", "nest", "drop", "add", "truncate"]))
    if mutation == "truncate":
        text = json.dumps(payload)
        return text[:draw(st.integers(0, len(text) - 1))]
    recipe, params = payload["inputs"]["recipe"], payload["inputs"]["params"]
    limited = sorted(k for k in LIMITS[recipe] if k in params)
    if mutation == "range" and limited:
        key = draw(st.sampled_from(limited))
        lo, hi = LIMITS[recipe][key]
        params[key] = draw(st.integers(lo - 3, params[key]) | st.integers(hi + 1, 10**12)
                           | st.integers(max_value=lo - 1))
        return json.dumps(payload)
    paths = list(_paths(payload))
    if mutation in ("drop", "add"):
        objects = [_at(payload, p) for p in paths if isinstance(_at(payload, p), dict)]
        node = draw(st.sampled_from([o for o in objects if o or mutation == "add"]))
        if mutation == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            node[draw(st.text(max_size=8).filter(lambda k: k not in node))] = draw(JSON_VALUES)
        return json.dumps(payload)
    path = draw(st.sampled_from(paths))
    old = _at(payload, path)
    if mutation == "nest":
        depth = draw(st.integers(1, 3000))
        opener, closer = draw(st.sampled_from([("[", "]"), ('{"x":', "}")]))
        text = json.dumps(_replace(payload, path, SENTINEL))
        return text.replace(json.dumps(SENTINEL),
                            opener * depth + json.dumps(old) + closer * depth)
    # a type change; also the range mutation of a recipe without int parameters
    value = draw(JSON_VALUES.filter(lambda v: _json_type(v) is not _json_type(old)))
    return json.dumps(_replace(payload, path, value))


def _with_recipe(name):
    payload = copy.deepcopy(BASES[0])
    payload["inputs"]["recipe"] = name
    return json.dumps(payload)


def _replay_text(text):
    """(exit code, stdout, stderr) of `finbench replay` on the text."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["replay", path])
    finally:
        os.unlink(path)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(mutated_certificates())
@example("[" * 100_000)
@example(_with_recipe(["atoms"]))
@example(_with_recipe({"atoms": 1}))
def test_mutated_certificates_replay_or_exit_2(text):
    code, out, err = _replay_text(text)
    if code == 0:
        assert (out, err) == ("replay: match\n", "")
    elif code == 1:
        assert out.startswith("replay: MISMATCH\n") and err == ""
    else:
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
