"""Serialization roundtrips, certificate replay, and the CLI contract."""

import functools
import inspect
import json
import typing

import pytest

import finbench.suites  # registers all recipes
from finbench.cats import FINSET, GRA, UN, Z2_GPD, gset_cat, gset_free_orbit
from finbench.certs import (
    FAIL,
    LIMITS,
    MAX_NESTING,
    PARAMS,
    PASS_WITNESSED,
    RECIPES,
    REQUIRED,
    Certificate,
    CertificateError,
    canonical_dumps,
    load_certificate,
    recipe,
    replay,
    save_certificate,
)
from finbench.cli import HELP, USAGE, main, parse
from finbench.core import Obj
from finbench.hausdorff import random_metric_space
from finbench.nominal import NominalSetSpec, pn_orbit
from finbench.serialize import (
    dec_elem,
    enc_elem,
    mor_from_json,
    mor_to_json,
    nomset_from_json,
    nomset_to_json,
    obj_from_json,
    obj_to_json,
    orbit_from_json,
    space_from_json,
    space_to_json,
)
from finbench.suites import SUITES, run_suite
from finbench import symbolic as sy
from finbench.vec import VEC2


# ---------------------------------------------------------------------------
# serialization


def test_obj_roundtrip_all_categories():
    import random

    objs = [
        FINSET.obj(range(3)),
        GRA.obj(range(3), [(0, 1), (1, 2)]),
        UN.cycles_sum([2, 3]),
        gset_free_orbit(gset_cat(Z2_GPD)),
        VEC2.obj(2),
    ]
    for X in objs:
        j = json.loads(canonical_dumps(obj_to_json(X)))
        assert obj_from_json(j) == X


def test_mor_roundtrip():
    c4, c2 = UN.cycle(4), UN.cycle(2)
    f = UN.mor(c4, c2, lambda e: (2, e[1] % 2))
    j = json.loads(canonical_dumps(mor_to_json(f)))
    assert mor_from_json(j) == f


def test_symbolic_obj_roundtrip():
    for sobj in (sy.RAY, sy.CYCLE_FAMILY):
        assert obj_from_json(obj_to_json(sobj)) == sobj


@pytest.mark.parametrize("j", [
    # the operation sends 0 outside the carrier
    {"category": "un", "carrier": [0, 1], "structure": {"t": ["op", {"t": [
        {"t": [0, 5]}, {"t": [1, 0]}]}]}},
    # an edge leaves the vertex set
    {"category": "gra", "carrier": [0, 1], "structure": {"t": ["edges", {"t": [
        {"t": [0, 2]}]}]}},
    # a carrier out of elem_key order
    {"category": "finset", "carrier": [1, 0], "structure": {"t": []}},
    # a structure of the wrong shape
    {"category": "un", "carrier": [0], "structure": {"t": []}},
    {"category": "psh(z2)", "carrier": [{"t": ["*", 0]}], "structure": {"t": []}},
    # a dimension far beyond the carrier, refused before the space is built
    {"category": "vec2", "carrier": [], "structure": {"t": ["q", 2, "dim", 200]}},
    {"category": "nowhere", "carrier": [], "structure": {"t": []}},
    {"category": "gra", "symbolic": "loop_ray"},
    # JSON booleans are not carrier elements, as enc_elem refuses them
    {"category": "finset", "carrier": [0, True], "structure": {"t": []}},
], ids=["un-op-outside", "gra-edge-outside", "unsorted", "un-shape", "psh-shape", "vec-dim",
        "unknown-category", "unknown-kind", "boolean"])
def test_malformed_obj_is_refused(j):
    with pytest.raises(ValueError):
        obj_from_json(j)


_POINT = GRA.obj([0], [])
_TAIL = UN.obj([0, 1, 2], {0: 1, 1: 2, 2: 1})  # 0 -> 1, and 1, 2 a 2-cycle


def test_symmor_roundtrip():
    for f in (sy.SymMor(GRA.path(2), sy.RAY, (4, 5, 6)),
              sy.SymMor(_TAIL, sy.CYCLE_FAMILY, ((2, 1), (2, 0), (2, 1)))):
        j = json.loads(canonical_dumps(mor_to_json(f)))
        assert mor_from_json(j) == f


@pytest.mark.parametrize("dom, cod, images", [
    (_POINT, sy.RAY, (-5,)),
    (_POINT, sy.RAY, ("x",)),
    (_POINT, sy.RAY, (True,)),
    # the tail's first element has no preimage, so only the point check sees it
    (_TAIL, sy.CYCLE_FAMILY, ((2, 7), (2, 0), (2, 1))),
    (_TAIL, sy.CYCLE_FAMILY, ((2, -1), (2, 0), (2, 1))),
    (UN.cycle(1), sy.RAY, (0,)),
], ids=["ray-negative", "ray-string", "ray-bool", "family-index-past-prime",
        "family-negative-index", "across-categories"])
def test_symmor_refuses_images_outside_its_codomain(dom, cod, images):
    with pytest.raises(ValueError):
        sy.SymMor(dom, cod, images)
    maps = [[x, {"t": list(y)} if isinstance(y, tuple) else y]
            for x, y in zip(obj_to_json(dom)["carrier"], images)]
    j = json.loads(json.dumps({"category": dom.cat, "dom": obj_to_json(dom),
                               "cod": obj_to_json(cod), "maps": maps}))
    with pytest.raises(ValueError):
        mor_from_json(j)


def test_mor_reader_refuses_maps_without_an_image_for_a_domain_element():
    path = obj_to_json(GRA.path(1))
    j = {"category": "gra", "dom": path, "cod": path, "maps": [[0, 0]]}
    with pytest.raises(ValueError, match="no image for 1"):
        mor_from_json(j)


@pytest.mark.parametrize("change, message", [
    ({"maps": [[0, 0], [1, 1], [2, 1]]}, "2, which is outside the domain"),
    ({"maps": [[0, 0], [1, 1], [0, 0]]}, "lists 0 twice"),
    ({"maps": [[0, 0], [1, 1], [0, 1]]}, "lists 0 twice"),
    ({"maps": None}, "not a list"),
    ({"maps": {"0": 0, "1": 1}}, "not a list"),
    ({"maps": [[0, 0], [1, 1, 1]]}, "not an \\[element, image\\] pair"),
    ({"maps": [[0, 0], 1]}, "not an \\[element, image\\] pair"),
    ({"category": "finset"}, "'finset' is not the domain's, 'gra'"),
    ({"category": None}, "None is not the domain's"),
    ({"dom": obj_to_json(sy.RAY)}, "domain of a morphism is a finite object"),
], ids=["outside-domain", "twice", "twice-two-images", "maps-missing", "maps-object",
        "triple", "not-a-pair", "other-category", "category-missing", "symbolic-domain"])
def test_mor_reader_refuses_malformed_maps(change, message):
    path = obj_to_json(GRA.path(1))
    j = {"category": "gra", "dom": path, "cod": path, "maps": [[0, 0], [1, 1]]}
    assert mor_from_json(j) == GRA.identity(GRA.path(1))
    j.update(change)
    j = {k: v for k, v in j.items() if v is not None}  # None: the key is missing
    with pytest.raises(ValueError, match=message):
        mor_from_json(j)


_PATH = obj_to_json(GRA.path(1))
# a Z2-set's one fixed point, whose carrier element ("a", 0) has a sort
# other than "*", as no action's element has
_OTHER_SORT = obj_to_json(Obj(gset_cat(Z2_GPD).name, (("a", 0),), (
    "ops", tuple((g, ((("a", 0), ("a", 0)),)) for g in Z2_GPD.elements))))
# a valid payload for each JSON reader, which the cases below alter
_VALID = {
    obj_from_json: {"category": "finset", "carrier": [0, 1], "structure": {"t": []}},
    mor_from_json: {"category": "gra", "dom": _PATH, "cod": _PATH, "maps": [[0, 0], [1, 1]]},
    space_from_json: {"points": [0, 1], "d": [[], ["1/2"]]},
    orbit_from_json: {"n": 2, "generators": [[1, 0]]},
    nomset_from_json: {"orbits": [{"n": 2, "generators": [[1, 0]]}]},
}


@pytest.mark.parametrize("read, change", [
    (obj_from_json, {"carrier": None, "structure": None}),
    (obj_from_json, {"category": ["finset"]}),
    (obj_from_json, {"symbolic": ["ray"]}),
    (obj_from_json, {"carrier": 5}),
    (obj_from_json, {"structure": {"t": 5}}),
    (obj_from_json, list),
    (obj_from_json, {"symbolic": "ray"}),
    (obj_from_json, {"category": None, "carrier": None, "structure": None, "symbolic": "ray"}),
    (obj_from_json, _OTHER_SORT),
    (mor_from_json, {"category": None, "dom": None, "cod": None, "maps": None}),
    (mor_from_json, {"dom": [_PATH]}),
    (space_from_json, {"d": None}),
    (space_from_json, {"d": [[], [5]]}),
    (space_from_json, {"d": [[], ["1/0"]]}),
    (space_from_json, {"d": [[], ["1/2"], ["1/2", "1/2"]]}),
    (space_from_json, {"d": [[], ["2/4"]]}),
    (orbit_from_json, {"generators": None}),
    (orbit_from_json, {"n": "2"}),
    (nomset_from_json, {"orbits": 5}),
], ids=["obj-only-category", "obj-category-list", "obj-symbolic-list", "obj-carrier-int",
        "obj-tuple-of-int", "obj-list", "obj-symbolic-other-category",
        "obj-symbolic-no-category", "obj-psh-other-sort", "mor-empty", "mor-dom-list",
        "space-no-d", "space-int-entry", "space-zero-denominator", "space-extra-row",
        "space-non-canonical-entry", "orbit-no-generators", "orbit-n-string",
        "nomset-orbits-int"])
def test_json_readers_refuse_wrongly_shaped_payloads(read, change):
    j = _VALID[read]
    read(j)  # the unaltered payload reads
    if change is list:
        j = [[k, v] for k, v in j.items()]  # a JSON list of the same entries
    else:
        j = {k: v for k, v in {**j, **change}.items() if v is not None}  # None: key missing
    with pytest.raises(ValueError):
        read(j)


@pytest.mark.parametrize("j", [{"q": 5}, {"q": "1/0"}, {"q": "a/b"}, {"q": "1/2/3"},
                               {"q": None}, True, 1.5, {},
                               # parsed by int and Fraction, but not as enc_elem writes
                               {"q": " 1_0/3 "}, {"q": "+1/3"}, {"q": "01/3"}, {"q": "1 /3"},
                               {"q": "2/4"}, {"q": "1/-3"}, {"q": "-0/1"}])
def test_element_reader_refuses_malformed_encodings(j):
    with pytest.raises(ValueError):
        dec_elem(j)


def test_rational_reader_takes_what_the_writer_writes():
    from fractions import Fraction

    for q in (Fraction(0), Fraction(10, 3), Fraction(-1, 3), Fraction(1, 2), Fraction(7)):
        assert dec_elem(enc_elem(q)) == q
    assert [enc_elem(Fraction(n, 3))["q"] for n in (10, 1, -1)] == ["10/3", "1/3", "-1/3"]


def test_symbolic_reader_takes_each_kind_with_its_own_category():
    from finbench.nominal import P_SUBSET_FAMILY

    for X in (sy.RAY, sy.CYCLE_FAMILY, P_SUBSET_FAMILY):
        assert obj_from_json(obj_to_json(X)) is X
        for other in ("gra", "un", "nom"):
            if other != X.cat:
                with pytest.raises(ValueError, match="is not the"):
                    obj_from_json({"category": other, "symbolic": X.kind})


def test_nomset_roundtrip():
    X = NominalSetSpec((pn_orbit(2), pn_orbit(1)))
    assert nomset_from_json(nomset_to_json(X)) == X


def test_space_roundtrip():
    import random

    X = random_metric_space(random.Random(0), 4)
    assert space_from_json(json.loads(canonical_dumps(space_to_json(X)))) == X


# ---------------------------------------------------------------------------
# certificates and replay


def test_replay_fresh_certificates_match():
    for name in (
        "finitarity-un",
        "finitarity-graph",
        "finitarity-nom",
        "no-finitary-endo",
        "superfin-endos",
        "nominal-subgroups",
    ):
        params = {"subject": "ray"} if name == "no-finitary-endo" else {}
        cert = RECIPES[name](**params)
        assert replay(cert) == [], name


def test_replay_detects_tampered_witness(tmp_path):
    cert = RECIPES["finitarity-un"](k=3)
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    payload = json.loads(path.read_text())
    payload["witness"]["lhs_size"] = 99
    tampered = Certificate.from_payload(payload)
    assert replay(tampered) == [
        f"witness.lhs_size: stored 99 recomputed {cert.witness['lhs_size']}",
    ]


def test_replay_diff_names_the_first_path_inside_lists():
    fresh = RECIPES["no-finitary-endo"](subject="cycle_family", prime_bound=7)
    table = fresh.witness["checked"]["prime_hom_table"]
    i = next(i for i, (p, q, n) in enumerate(table) if p == q)

    def diffs_after(edit):
        payload = json.loads(fresh.dumps())
        edit(payload)
        return tuple(replay(Certificate.from_payload(payload)))

    def bump(payload):
        stored = payload["witness"]["checked"]["prime_hom_table"]
        stored[i][2] += 1
        stored[-1][2] += 5  # a later difference is not the one reported
        payload["verdict"] = "PASS"

    assert diffs_after(bump) == (
        'verdict: stored "PASS" recomputed "FAIL(certified)"',
        f"witness.checked.prime_hom_table[{i}][2]: stored {table[i][2] + 1} "
        f"recomputed {table[i][2]}",
    )

    def truncate(payload):
        del payload["witness"]["checked"]["prime_hom_table"][i:]
        del payload["witness"]["inference"]

    assert diffs_after(truncate) == (
        f"witness.checked.prime_hom_table[{i}]: stored absent "
        f"recomputed {canonical_dumps(table[i])}",
    )

    assert diffs_after(lambda payload: payload["witness"].pop("inference")) == (
        f"witness.inference: stored absent "
        f"recomputed {canonical_dumps(fresh.witness['inference'])}",
    )


def test_replay_recomputes_under_recorded_bound():
    cert = RECIPES["un-boundedness"](bound=12)
    assert cert.bounds["bound"] == 12
    assert replay(cert) == []


def test_certificate_schema_guard():
    with pytest.raises(ValueError):
        Certificate("nonsense-kind", {}, "PASS", {})
    with pytest.raises(ValueError):
        Certificate.from_payload({"schema": "other/9"})


# ---------------------------------------------------------------------------
# suites and CLI


def test_every_suite_matches_expectations():
    for name in SUITES:
        report, ok = run_suite(name, seed=0)
        assert ok, name
        assert report["suite"] == name


def test_report_checks_carry_certificates():
    report, _ = run_suite("superfin", seed=0)
    for check in report["checks"]:
        payload = check["certificate"]
        cert = Certificate.from_payload(payload)
        assert cert.kind in ("superfin",)


def test_report_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--suite", "hausdorff", "--seed", "5", "--json", str(p1)]) == 0
    assert main(["run", "--suite", "hausdorff", "--seed", "5", "--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_exit_codes(tmp_path):
    assert main(["run", "--suite", "nominal-classification"]) == 0
    assert main(["run", "--suite", "un-counterexample"]) == 0
    assert main(["run", "--suite", "no-such-suite"]) == 2


@pytest.mark.parametrize("flag", ["--json", "--metrics"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, monkeypatch, flag):
    def no_run(*args, **kwargs):
        raise AssertionError("the suite ran before the output paths were checked")

    monkeypatch.setattr(finbench.suites, "run_suite", no_run)
    path = tmp_path / "missing" / "out.json"
    other = tmp_path / "other.json"
    other_flag = "--metrics" if flag == "--json" else "--json"
    assert main(["run", "--suite", "hausdorff", other_flag, str(other), flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err
    assert "Traceback" not in err
    assert not path.exists() and not other.exists()


def test_cli_mismatch_exits_1(monkeypatch, capsys):
    # expect a plain PASS where the recipe certifies its counterexample
    checks = [(name, recipe, params,
               PASS_WITNESSED if name == "finitarity-chain" else expected)
              for name, recipe, params, expected in SUITES["un-counterexample"]]
    monkeypatch.setitem(SUITES, "un-counterexample", checks)
    assert main(["run", "--suite", "un-counterexample"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"BAD [un-counterexample] finitarity-chain: {FAIL}" in lines
    assert lines[-1] == "mismatched checks present"


def test_unknown_suite_message_names_the_suites(capsys):
    assert main(["run", "--suite", "no-such-suite"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err == f"unknown suite: no-such-suite (one of: {', '.join(sorted(SUITES))}, all)\n"


def test_cli_replay_roundtrip(tmp_path):
    cert = RECIPES["nominal-roundtrip"](n=3)
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    assert main(["replay", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["verdict"] = "FAIL(certified)"
    path.write_text(json.dumps(payload))
    assert main(["replay", str(path)]) == 1
    assert main(["replay", str(tmp_path / "missing.json")]) == 2


def _argparse_cli():
    """The parser that the CLI built with argparse: the oracle for its help
    texts and for the command lines it accepts.  Returns the parser and its
    subparsers by command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="finbench",
        description="witness and counterexample workbench for functor "
        "finiteness properties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a demo suite")
    runp.add_argument("--suite", required=True,
                      help="a suite name, or all; an unknown name lists the suites")
    runp.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    runp.add_argument("--bound", type=int, default=8, help="search bound recorded in reports")
    runp.add_argument("--json", dest="json_path", default=None, help="write the report here")
    runp.add_argument("--metrics", dest="metrics_path", default=None,
                      help="write each check's wall time, the Python version and nproc "
                      "here as JSON; the report does not change")
    runp.add_argument("--verbose", action="store_true")
    rep = sub.add_parser("replay", help="recompute a certificate and compare")
    rep.add_argument("certificate", help="path to a certificate JSON file")
    return parser, {"run": runp, "replay": rep}


# usage errors: (command line, the command whose usage is printed, error line)
USAGE_ERRORS = [
    ([], None, "the following arguments are required: command"),
    (["bogus"], None, "argument command: invalid choice: 'bogus' (choose from 'run', 'replay')"),
    (["run"], "run", "the following arguments are required: --suite"),
    (["run", "--seed", "3"], "run", "the following arguments are required: --suite"),
    (["run", "--suite", "all", "--nope"], "run", "unrecognized arguments: --nope"),
    (["run", "--suite", "all", "-v"], "run", "unrecognized arguments: -v"),
    (["run", "--suite", "all", "extra"], "run", "unrecognized arguments: extra"),
    (["run", "--suite"], "run", "argument --suite: expected one argument"),
    (["run", "--json", "--suite", "all"], "run", "argument --json: expected one argument"),
    (["run", "--suite", "all", "--seed", "x"], "run", "argument --seed: invalid int value: 'x'"),
    (["run", "--suite", "all", "--bound=1.5"], "run",
     "argument --bound: invalid int value: '1.5'"),
    (["run", "--suite", "all", "--seed="], "run", "argument --seed: invalid int value: ''"),
    (["run", "--suite", "all", "--verbose=1"], "run",
     "argument --verbose: ignored explicit argument '1'"),
    (["run", "--s", "all"], "run", "ambiguous option: --s could match --suite, --seed"),
    (["run", "--sui", "all", "--x=1"], "run", "unrecognized arguments: --x=1"),
    (["replay"], "replay", "the following arguments are required: certificate"),
    (["replay", "a.json", "b.json"], "replay", "unrecognized arguments: b.json"),
    (["replay", "--json", "a.json"], "replay", "unrecognized arguments: --json"),
]
USAGE_ERROR_IDS = ["no-command", "unknown-command", "no-suite", "no-suite-with-seed",
                   "unknown-option", "unknown-short-option", "extra-argument", "no-value",
                   "option-as-value", "non-int-seed", "non-int-bound", "empty-seed",
                   "flag-with-value", "ambiguous-prefix", "unknown-prefix", "no-certificate",
                   "two-certificates", "replay-option"]
# command lines that parse, each with forms argparse took
ACCEPTED = [
    ["run", "--suite", "all"],
    ["run", "--suite=all", "--seed=5", "--bound=3"],
    ["run", "--sui", "all", "--se", "-5", "--b", "12"],
    ["run", "--suite", "x", "--suite", "hausdorff", "--seed", "1", "--seed", "+2"],
    ["run", "--verbose", "--json", "r.json", "--metrics=m.json", "--suite", "all"],
    ["run", "--suite", "all", "--json=", "--seed", "1_0"],
    ["run", "--v", "--j", "-", "--m", "-", "--suite", "-3"],
    ["replay", "cert.json"],
    ["replay", "--", "-cert.json"],
    ["replay", "-"],
]
HELP_LINES = [(["-h"], None), (["--help"], None), (["--he", "run"], None),
              (["run", "-h"], "run"), (["run", "--suite", "all", "--h"], "run"),
              (["replay", "--help"], "replay"), (["replay", "a.json", "-h"], "replay")]


def _argparse_result(argv):
    """The argparse oracle's options for argv, or its exit code."""
    try:
        return vars(_argparse_cli()[0].parse_args(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, command, message", USAGE_ERRORS, ids=USAGE_ERROR_IDS)
def test_usage_error_exits_2_with_the_usage_and_one_error_line(capsys, argv, command, message):
    assert main(argv) == 2
    out = capsys.readouterr()
    prog = f"finbench {command}" if command else "finbench"
    assert out.out == ""
    assert out.err == f"{USAGE[command]}{prog}: error: {message}\n"


@pytest.mark.parametrize("argv, command", HELP_LINES)
def test_help_prints_the_commands_help_and_exits_0(capsys, argv, command):
    assert main(argv) == 0
    assert capsys.readouterr() == (USAGE[command] + HELP[command], "")


def test_help_texts_are_what_argparse_printed(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    parser, commands = _argparse_cli()
    for command, p in ((None, parser), *commands.items()):
        assert p.format_usage() == USAGE[command]
        assert p.format_help() == USAGE[command] + HELP[command]


@pytest.mark.parametrize("argv", ACCEPTED)
def test_parser_reads_what_argparse_read(argv):
    got = vars(parse(argv))
    assert got.pop("help") is False
    assert got == _argparse_result(argv)


def test_parser_refuses_and_helps_where_argparse_did(capsys):
    for argv, _, _ in USAGE_ERRORS:
        assert _argparse_result(argv) == 2, argv
    for argv, _ in HELP_LINES:
        assert _argparse_result(argv) == 0, argv


def test_option_forms_give_the_same_report(tmp_path):
    paths = [tmp_path / f"{i}.json" for i in range(3)]
    assert main(["run", "--suite", "hausdorff", "--seed", "5", "--json", str(paths[0])]) == 0
    assert main(["run", "--suite=hausdorff", "--seed=5", f"--json={paths[1]}"]) == 0
    assert main(["run", "--su", "hausdorff", "--se=5", "--j", str(paths[2])]) == 0
    assert len({p.read_bytes() for p in paths}) == 1
    report = json.loads(paths[0].read_text())
    assert (report["suite"], report["seed"], report["bound"]) == ("hausdorff", 5, 8)


def test_unique_prefix_runs_every_suite_at_the_default_seed_and_bound(tmp_path):
    path = tmp_path / "all.json"
    assert main(["run", "--sui", "all", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert (report["suite"], report["seed"], report["bound"]) == ("all", 0, 8)
    assert len(report["checks"]) == sum(len(checks) for checks in SUITES.values())


def _malformed_replay(tmp_path, capsys, payload):
    """Replay a hand-edited certificate, given as a JSON value or as raw
    text; return the exit code and stderr."""
    path = tmp_path / "cert.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code = main(["replay", str(path)])
    return code, capsys.readouterr().err


def _no_finitary_endo_payload():
    return RECIPES["no-finitary-endo"](subject="ray", prime_bound=5).to_payload()


def test_replay_unknown_subject_exits_2(tmp_path, capsys):
    payload = _no_finitary_endo_payload()
    payload["inputs"]["params"]["subject"] = "no-such-subject"
    code, err = _malformed_replay(tmp_path, capsys, payload)
    assert code == 2
    assert err.count("\n") == 1 and "no-such-subject" in err
    assert "Traceback" not in err


def test_replay_extra_parameter_exits_2(tmp_path, capsys):
    payload = _no_finitary_endo_payload()
    payload["inputs"]["params"]["unexpected"] = 1
    code, err = _malformed_replay(tmp_path, capsys, payload)
    assert code == 2
    assert err.count("\n") == 1 and "unexpected" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "recipe, key, value",
    [
        ("un-boundedness", "bound", "8"),
        ("un-boundedness", "max_m0", 1.5),
        ("un-boundedness", "bound", None),
        ("un-boundedness", "max_m0", True),
        ("no-finitary-endo", "subject", 7),
    ],
)
def test_replay_ill_typed_parameter_exits_2(tmp_path, capsys, recipe, key, value):
    if recipe == "no-finitary-endo":
        payload = _no_finitary_endo_payload()
    else:
        payload = RECIPES[recipe](bound=3, max_m0=2).to_payload()
    payload["inputs"]["params"][key] = value
    code, err = _malformed_replay(tmp_path, capsys, payload)
    assert code == 2
    assert err.count("\n") == 1 and repr(key) in err
    assert "Traceback" not in err


def _least(recipe):
    """The recipe's certificate at the least value of every limited parameter."""
    params = {"subject": "ray"} if recipe == "no-finitary-endo" else {}
    params.update((key, lo) for key, (lo, hi) in LIMITS[recipe].items())
    return RECIPES[recipe](**params)


@pytest.mark.parametrize(
    "recipe, key, value",
    [
        ("nominal-roundtrip", "n", 6),
        ("nominal-roundtrip", "n", -1),
        ("nominal-orbit-classes", "n_max", 5),
        ("finitarity-nom", "k", 7),
        ("finitarity-nom", "k", 0),
        ("finitarity-un", "k", 0),
        ("finitarity-graph", "k", 0),
        ("reflect-prime-chain", "k", 0),
        ("reflect-prime-chain", "k", -1),
        ("nominal-rigidity", "pool", 1),
        ("nominal-rigidity", "k", 5),  # pool 2 < 2k+2
        ("strictness-vec", "sub_dim", 3),  # ambient_dim 0
        ("hausdorff-axioms", "max_size", 0),
        ("superfin-endos", "m", 5),
        ("atoms", "group", "s4"),
        ("regularity", "count", 10**9),
        ("hausdorff-axioms", "count", 10**9),
        ("no-finitary-endo", "prime_bound", 10**9),
    ],
)
def test_replay_out_of_range_parameter_exits_2(tmp_path, capsys, recipe, key, value):
    payload = _least(recipe).to_payload()
    payload["inputs"]["params"][key] = value
    code, err = _malformed_replay(tmp_path, capsys, payload)
    assert code == 2
    assert err.count("\n") == 1 and repr(key) in err and str(value) in err
    assert "Traceback" not in err


def test_every_int_parameter_but_seed_has_a_replay_limit():
    suite_params = {}
    for checks in SUITES.values():
        for _, recipe, params, _ in checks:
            suite_params.setdefault(recipe, []).append(params)
    for recipe, fn in RECIPES.items():
        hints = typing.get_type_hints(fn)
        defaults = {key: p.default for key, p in inspect.signature(fn).parameters.items()}
        ints = {key for key in defaults if hints[key] is int and key != "seed"}
        assert set(LIMITS[recipe]) == ints, recipe
        for key, (lo, hi) in LIMITS[recipe].items():
            values = [defaults[key]] + [p[key] for p in suite_params.get(recipe, ()) if key in p]
            assert all(lo <= v <= hi for v in values), (recipe, key)
        least = _least(recipe)
        assert replay(least) == [], recipe


def test_parameter_table_agrees_with_the_signatures():
    # the slow path as oracle: what inspect and typing read off each recipe
    assert set(PARAMS) == set(RECIPES)
    for name, fn in RECIPES.items():
        hints = typing.get_type_hints(fn)
        expected = {key: (hints[key], REQUIRED if p.default is p.empty else p.default)
                    for key, p in inspect.signature(fn).parameters.items()}
        assert PARAMS[name] == expected, name
        assert list(PARAMS[name]) == list(expected), name


# annotations as the library's modules write them, strings under
# `from __future__ import annotations`
def _kw_only(*, k: "int" = 1): ...
def _var_args(k: "int" = 1, *rest: "int"): ...
def _var_kwargs(k: "int" = 1, **rest: "int"): ...
def _pos_only(k: "int" = 1, /): ...
def _float(x: "float" = 0.5): ...
def _unannotated(k=1): ...
def _type_object(k: int = 1): ...


@pytest.mark.parametrize("fn, reason", [
    (_kw_only, "must be plain"), (_var_args, "must be plain"), (_var_kwargs, "must be plain"),
    (_pos_only, "must be plain"), (_float, "must be annotated 'int' or 'str', not 'float'"),
    (_unannotated, "not None"), (_type_object, "not <class 'int'>"),
])
def test_registration_refuses_parameters_that_replay_cannot_pass(fn, reason):
    with pytest.raises(TypeError, match="no-such-recipe") as err:
        recipe("no-such-recipe", "atoms")(fn)
    assert reason in str(err.value)
    assert "no-such-recipe" not in RECIPES and "no-such-recipe" not in PARAMS


def test_recipe_called_positionally_records_its_parameters():
    by_position = RECIPES["un-boundedness"](3, 2)
    assert by_position.inputs["params"] == {"bound": 3, "max_m0": 2}
    assert by_position.dumps() == RECIPES["un-boundedness"](max_m0=2, bound=3).dumps()


@pytest.mark.parametrize("params, message", [
    ({}, "missing a required argument: 'subject'"),
    ({"subject": "ray", "unexpected": 1, "window": "8"},
     "got an unexpected keyword argument 'unexpected'"),
    ({"subject": "ray", "window": "8"}, "parameter 'window' must be int, not str"),
])
def test_replay_parameter_errors_name_the_parameter(params, message):
    payload = _no_finitary_endo_payload()
    payload["inputs"]["params"] = params
    with pytest.raises(CertificateError) as err:
        replay(Certificate.from_payload(payload))
    assert str(err.value) == f"recipe 'no-finitary-endo': {message}"


def test_finitarity_nom_at_k_6_replays():
    cert = RECIPES["finitarity-nom"](k=6)
    assert cert.verdict == FAIL
    assert cert.witness["lhs_size"] == 7 and cert.witness["persistence"]["lhs_size_k1"] == 8
    assert replay(cert) == []


def test_replay_top_level_list_exits_2(tmp_path, capsys):
    code, err = _malformed_replay(tmp_path, capsys, [_no_finitary_endo_payload()])
    assert code == 2
    assert err.count("\n") == 1 and "not a JSON object" in err
    assert "Traceback" not in err


def test_replay_deeply_nested_json_exits_2(tmp_path, capsys):
    code, err = _malformed_replay(tmp_path, capsys, "[" * 100_000)
    assert code == 2
    assert err.count("\n") == 1 and "nested too deeply" in err
    assert "Traceback" not in err


def test_replay_nesting_at_the_cap_mismatches_and_above_it_exits_2(tmp_path, capsys):
    # the payload nests 2 deep at witness.checked, so the value there may add
    # MAX_NESTING - 2 levels before the certificate is too deep
    for extra, expected in ((MAX_NESTING - 2, 1), (MAX_NESTING - 1, 2)):
        payload = _no_finitary_endo_payload()
        payload["witness"]["checked"] = functools.reduce(lambda v, _: [v], range(extra - 1), [0])
        code, err = _malformed_replay(tmp_path, capsys, payload)
        assert code == expected and "Traceback" not in err
        if expected == 2:
            assert err.count("\n") == 1 and "nested too deeply" in err


def test_from_payload_rejects_non_object_fields():
    payload = _no_finitary_endo_payload()
    for key, value in (("inputs", [1]), ("inputs", {"recipe": "x", "params": [1]}),
                       ("inputs", {"recipe": ["atoms"], "params": {}}),
                       ("inputs", {"recipe": {"atoms": 1}, "params": {}})):
        bad = dict(payload, **{key: value})
        with pytest.raises(CertificateError):
            Certificate.from_payload(bad)
    with pytest.raises(CertificateError):
        Certificate.from_payload({k: v for k, v in payload.items() if k != "witness"})


@pytest.mark.parametrize("key,value", [
    ("verdict", 5), ("verdict", "MAYBE"), ("verdict", None), ("verdict", ["PASS"]),
    ("witness", [1]), ("witness", "x"), ("witness", None),
    ("bounds", [1]), ("bounds", 3), ("bounds", None),
])
def test_replay_malformed_verdict_witness_or_bounds_exits_2(tmp_path, capsys, key, value):
    payload = _no_finitary_endo_payload()
    payload[key] = value
    with pytest.raises(CertificateError):
        Certificate.from_payload(payload)
    code, err = _malformed_replay(tmp_path, capsys, payload)
    assert code == 2
    assert err.count("\n") == 1 and key in err
    assert "Traceback" not in err


def test_replay_changed_witness_leaf_or_label_still_mismatches(tmp_path, capsys):
    # a well-formed certificate whose values differ is a disagreement, exit 1
    payload = _no_finitary_endo_payload()
    payload["witness"]["checked"]["window"] += 1
    assert _malformed_replay(tmp_path, capsys, payload)[0] == 1
    payload = _no_finitary_endo_payload()
    payload["verdict"] = PASS_WITNESSED
    assert _malformed_replay(tmp_path, capsys, payload)[0] == 1
    payload = _no_finitary_endo_payload()
    del payload["bounds"]
    assert _malformed_replay(tmp_path, capsys, payload)[0] == 1


def _vec_projection_payload():
    _, recipe, params, _ = next(c for c in SUITES["strictness"] if c[0] == "vec-projection")
    return RECIPES[recipe](**params).to_payload()


@pytest.mark.parametrize("where, key", [(None, "extra"), ("inputs", "note")],
                         ids=["top-level", "inputs"])
def test_replay_unknown_key_exits_2(tmp_path, capsys, where, key):
    # a key the writer never writes is a malformed file, not a disagreement
    payload = _vec_projection_payload()
    (payload[where] if where else payload)[key] = {"x": 1}
    with pytest.raises(CertificateError, match=repr(key)):
        Certificate.from_payload(payload)
    code, err = _malformed_replay(tmp_path, capsys, payload)
    assert code == 2
    assert err.count("\n") == 1 and repr(key) in err
    assert "Traceback" not in err
