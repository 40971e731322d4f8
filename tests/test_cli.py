import argparse
import json
import sys

import pytest

from currentext import cli
from currentext.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_RESOURCE,
    EXIT_USAGE,
    UsageError,
    _build_parser,
    main,
    parse_algebra_document,
    run_command,
)
from currentext.catalog import comm_catalog, lie_catalog
from currentext.cohomology import CoboundaryWitness
from currentext.current import CommAlgebra
from currentext.errors import (
    CatalogError,
    DocumentError,
    InternalConsistencyError,
    InvalidAlgebraError,
    NotDiagonalError,
)
from currentext.lie import LieAlgebra

SL2_DOC = json.dumps(
    {
        "kind": "lie",
        "dim": 3,
        "labels": ["e", "h", "f"],
        "brackets": [[0, 1, 0, "-2"], [1, 2, 2, "-2"], [0, 2, 1, "1"]],
    }
)

FUN2_DOC = json.dumps(
    {
        "kind": "comm",
        "dim": 2,
        "labels": ["e1", "e2"],
        "products": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
        "unit": ["1", "1"],
        "idempotents": [
            {"point": "1", "coords": ["1", "0"]},
            {"point": "2", "coords": ["0", "1"]},
        ],
    }
)


def test_parse_lie_document():
    algebra = parse_algebra_document(SL2_DOC)
    assert isinstance(algebra, LieAlgebra)
    assert algebra.labels == ("e", "h", "f")


def test_parse_comm_document_with_points():
    algebra = parse_algebra_document(FUN2_DOC)
    assert isinstance(algebra, CommAlgebra)
    assert algebra.points == ("1", "2")


def test_parse_rejects_zero_denominator():
    doc = json.dumps(
        {"kind": "lie", "dim": 2, "brackets": [[0, 1, 0, "2/0"]]}
    )
    with pytest.raises(DocumentError):
        parse_algebra_document(doc)


def test_parse_rejects_bad_schema():
    with pytest.raises(DocumentError):
        parse_algebra_document('{"kind": "module"}')
    with pytest.raises(DocumentError):
        parse_algebra_document('{"kind": "lie", "dim": -1}')
    with pytest.raises(DocumentError):
        parse_algebra_document("not json at all")


# each document, read from a file, against the exit code of the command
# that loads it: the first is valid, the others break one schema rule
DOCUMENT_CASES = [
    ({"kind": "lie", "dim": 3, "brackets": [[0, 1, 2, 1], [1, 2, 0, 1], [2, 0, 1, 1]]}, EXIT_OK),
    ({"kind": "lie", "dim": 2, "brackets": [[0, 1, 0, 1.5]]}, EXIT_INPUT),
    ({"kind": "lie", "dim": 2, "brackets": {"0": [0, 1, 0, "1"]}}, EXIT_INPUT),
    ({"kind": "lie", "dim": 2, "brackets": [[0, 1, 0]]}, EXIT_INPUT),
    ({"kind": "lie", "dim": 2, "brackets": [[0, 1, 0, "1"], [0, 1, 0, "2"]]}, EXIT_INPUT),
    ({"kind": "comm", "dim": 2, "products": [[0, 0, 0, "1"]], "unit": ["1"]}, EXIT_INPUT),
    ({"kind": "comm", "dim": 1, "products": [[0, 0, 0, "1"]], "idempotents": {}}, EXIT_INPUT),
    ({"kind": "comm", "dim": 1, "products": [[0, 0, 0, "1"]],
      "idempotents": [{"point": "1"}]}, EXIT_INPUT),
    ({"kind": "comm", "dim": 1, "products": [[0, 0, 0, "1"]],
      "idempotents": [{"point": "1", "coords": ["1", "0"]}]}, EXIT_INPUT),
    (["kind", "lie"], EXIT_INPUT),
]


@pytest.mark.parametrize("doc, code", DOCUMENT_CASES)
def test_document_schema_refusals_are_input_errors(doc, code, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_command(["info", str(path)]).exit_code == code


def test_documents_of_the_wrong_kind_or_unreadable_are_input_errors(tmp_path):
    lie, comm = tmp_path / "sl2.json", tmp_path / "fun2.json"
    lie.write_text(SL2_DOC, encoding="utf-8")
    comm.write_text(FUN2_DOC, encoding="utf-8")
    assert run_command(["killing", str(comm)]).exit_code == EXIT_INPUT
    assert run_command(["kaehler", str(lie)]).exit_code == EXIT_INPUT
    assert run_command(["info", str(tmp_path / "missing.json")]).exit_code == EXIT_INPUT


@pytest.mark.parametrize("spec, code", [
    ("[1, 0, 0]", EXIT_OK),
    ("[1, 0", EXIT_INPUT),
    ("[1, 0]", EXIT_INPUT),
    ("3", EXIT_INPUT),
    ("-1", EXIT_INPUT),
    ("zz", EXIT_INPUT),
    ("1", EXIT_OK),
    # a basis index is ASCII digits only: int() read these as index 1
    ("0_1", EXIT_INPUT),
    (" 1", EXIT_INPUT),
    ("+1", EXIT_INPUT),
    ("\u0661", EXIT_INPUT),
])
def test_witness_element_specs(spec, code):
    assert run_command(["witness", "sl2", spec]).exit_code == code


# more digits than int() reads by default (4,300): int() raised a
# ValueError on these, which escaped as a traceback
LONG_NUMBER = "1" * 5000


def test_a_catalog_number_longer_than_int_reads_is_refused():
    report = run_command(["killing", "abelian:" + LONG_NUMBER])
    assert report.exit_code == EXIT_INPUT
    assert report.results["error"] == f"bad abelian dimension in 'abelian:{LONG_NUMBER}'"


def test_a_witness_index_longer_than_int_reads_is_refused():
    report = run_command(["witness", "heis3", LONG_NUMBER])
    assert report.exit_code == EXIT_INPUT
    assert report.results["error"] == f"basis index {LONG_NUMBER} out of range"
    # leading zeros do not count: this is index 1
    assert run_command(["witness", "sl2", "0" * 5000 + "1"]).exit_code == EXIT_OK
    assert run_command(["witness", "heis3", f"[{LONG_NUMBER}, 0, 0]"]).exit_code == EXIT_INPUT


def test_a_document_integer_longer_than_int_reads_is_a_document_error(tmp_path):
    text = '{"kind": "lie", "dim": 2, "brackets": [[0, 1, 0, ' + LONG_NUMBER + ']]}'
    with pytest.raises(DocumentError):
        parse_algebra_document(text)
    path = tmp_path / "long.json"
    path.write_text(text, encoding="utf-8")
    assert run_command(["info", str(path)]).exit_code == EXIT_INPUT


def test_a_json_integer_longer_than_int_reads_names_the_limit(tmp_path):
    # int()'s own message tells the user to call sys.set_int_max_str_digits(),
    # which no command-line user can do; the refusal names the limit
    limit = f"an integer has more than {sys.get_int_max_str_digits()} digits"
    path = tmp_path / "long.json"
    path.write_text('{"kind": "comm", "dim": 1, "products": [[0, 0, 0, -' + LONG_NUMBER + ']]}',
                    encoding="utf-8")
    for argv, what in ((["witness", "heis3", f"[{LONG_NUMBER}, 0, 0]"], "bad element coordinates"),
                       (["info", str(path)], "not valid JSON")):
        report = run_command(argv)
        assert report.exit_code == EXIT_INPUT
        assert report.results["error"] == f"{what}: {limit}, the most this program reads"
        assert "set_int_max_str_digits" not in report.results["error"]


@pytest.mark.parametrize("doc", [
    {"kind": "lie", "dim": True},
    {"kind": "comm", "dim": False},
    {"kind": "lie", "dim": 2, "brackets": [[False, True, True, "1"]]},
    {"kind": "comm", "dim": 1, "products": [[0, 0, False, "1"]]},
    {"kind": "lie", "dim": 2, "brackets": [[0, 1, 0, True]]},
])
def test_booleans_are_not_integers(doc, tmp_path, capsys):
    # JSON true/false load as Python bools, which are ints: "dim": true
    # would otherwise be a 1-dimensional algebra and an index false be 0
    with pytest.raises(DocumentError):
        parse_algebra_document(json.dumps(doc))
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["info", str(path)]) == EXIT_INPUT
    capsys.readouterr()


def test_parse_rejects_jacobi_violation():
    doc = json.dumps(
        {
            "kind": "lie",
            "dim": 3,
            "brackets": [[0, 1, 2, "1"], [1, 2, 0, "1"], [0, 2, 0, "1"]],
        }
    )
    with pytest.raises(InvalidAlgebraError):
        parse_algebra_document(doc)


def test_parse_names_the_first_three_associativity_triples():
    # b0 b0 = b1 and b1 b1 = b0 fail associativity on four triples
    doc = json.dumps({"kind": "comm", "dim": 2, "products": [[0, 0, 1, "1"], [1, 1, 0, "1"]]})
    with pytest.raises(InvalidAlgebraError) as caught:
        parse_algebra_document(doc)
    assert str(caught.value) == (
        "commutative algebra axioms fail: commutativity [], "
        "associativity [(0, 0, 1), (0, 1, 1), (1, 0, 0)], unit [], idempotents []"
    )


def test_duplicate_idempotent_labels_are_refused(tmp_path):
    # two idempotents labelled "p" on fun:2's table: each command used to
    # read them as one point, and cocycle-check blamed the wrong one
    doc = json.loads(FUN2_DOC)
    for item in doc["idempotents"]:
        item["point"] = "p"
    with pytest.raises(DocumentError, match="duplicate idempotent point label 'p'"):
        parse_algebra_document(json.dumps(doc))
    path = tmp_path / "two_p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["validate", str(path)], ["info", str(path)],
                 ["cocycle-check", "sl2", str(path)]):
        report = run_command(argv)
        assert report.exit_code == EXIT_INPUT
        assert "duplicate idempotent point label 'p'" in json.dumps(report.results)


@pytest.mark.parametrize("doc", [
    {"kind": "lie", "dim": 3, "labels": ["x", "x", "z"], "brackets": [[0, 1, 2, 1]]},
    {"kind": "comm", "dim": 2, "labels": ["e", "e"],
     "products": [[0, 0, 0, 1], [1, 1, 1, 1]], "unit": [1, 1]},
])
def test_repeated_basis_labels_are_refused(doc, tmp_path):
    # the heis3 table with two basis elements labelled "x": witness DOC x
    # read the first of them, and current DOC fun:2 printed x*e1 twice
    message = f'document "labels" repeats the label {doc["labels"][1]!r}'
    with pytest.raises(DocumentError) as caught:
        parse_algebra_document(json.dumps(doc))
    assert str(caught.value) == message
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argvs = [["info", str(path)]]
    if doc["kind"] == "lie":
        argvs += [["witness", str(path), "x"], ["current", str(path), "fun:2"]]
    for argv in argvs:
        report = run_command(argv)
        assert report.exit_code == EXIT_INPUT == 1
        assert report.results == {"error": message}


def test_a_current_algebra_label_built_twice_is_refused(tmp_path):
    # x (x) a is labelled x*a: "p*q" (x) "r" and "p" (x) "q*r" are both
    # p*q*r, which current printed at indices 0 and 3 with exit 0
    docs = {
        "fibre": {"kind": "lie", "dim": 2, "labels": ["p*q", "p"], "brackets": []},
        "coefficients": {"kind": "comm", "dim": 2, "labels": ["r", "q*r"],
                         "products": [[0, 0, 0, 1], [1, 1, 1, 1]], "unit": [1, 1]},
    }
    paths = []
    for name, doc in docs.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    report = run_command(["current", *map(str, paths)])
    assert report.exit_code == EXIT_INPUT == 1
    assert report.results == {"error": "the basis repeats the label 'p*q*r'"}


def test_catalog_resolution_without_files():
    report = run_command(["info", "sl2"])
    assert report.exit_code == EXIT_OK
    assert report.results["dim"] == 3
    report = run_command(["info", "fun:3"])
    assert report.results["points"] == ["1", "2", "3"]


def test_document_file_input(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(SL2_DOC, encoding="utf-8")
    report = run_command(["killing", str(path)])
    assert report.exit_code == EXIT_OK
    assert report.results["semisimple"] is True


def test_document_file_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "lie", "dim": 1, "brackets": [[0, 0, 0, "1/0"]]}')
    assert main(["killing", str(path)]) == EXIT_INPUT
    capsys.readouterr()


SUBCOMMANDS = (
    "validate", "info", "killing", "derivations", "witness", "vform", "h2",
    "kaehler", "omegabar", "current", "cocycle-check", "universality", "twist",
    "glue-demo",
)
# arguments each subcommand parses without a usage error
VALID_ARGS = {
    "validate": [], "info": ["sl2"], "killing": ["sl2"], "derivations": ["sl2"],
    "witness": ["sl2", "h"], "vform": ["sl2"], "h2": ["sl2"], "kaehler": ["sq2"],
    "omegabar": ["sq2"], "current": ["sl2", "sq2"], "cocycle-check": ["sl2", "sq2"],
    "universality": ["sl2", "sq2"], "twist": ["sl2", "sq2"],
    "glue-demo": ["sl2", "fun:2", "--cover", "1;2"],
}


def test_unknown_subcommand_is_usage_error():
    report = run_command(["frobnicate"])
    assert report.exit_code == EXIT_USAGE
    assert all(repr(name) in report.results["error"] for name in SUBCOMMANDS)
    assert run_command([]).exit_code == EXIT_USAGE


# the namespace entries each subcommand declares after --format and --max-cochain
OWN_DESTS = {
    "validate": ["algebras", "all"], "info": ["algebra"], "killing": ["algebra"],
    "derivations": ["algebra"], "witness": ["algebra", "element"], "vform": ["algebra"],
    "h2": ["algebra", "coeff_dim"], "kaehler": ["algebra"], "omegabar": ["algebra"],
    "current": ["fibre", "coefficients"], "cocycle-check": ["fibre", "coefficients"],
    "universality": ["fibre", "coefficients", "coeff_dim"],
    "twist": ["fibre", "coefficients", "seed"],
    "glue-demo": ["fibre", "coefficients", "cover", "seed"],
}


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _parse_outcome(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except UsageError as exc:
        return str(exc)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_parser_of_one_subcommand_reads_as_the_full_parser(name):
    alone, full = _build_parser([name]), _build_parser([])
    assert tuple(_subparsers(full)) == SUBCOMMANDS
    assert alone.format_help() == _subparsers(full)[name].format_help()
    # help first, then the two options every subcommand shares: the help
    # layout without a help text, which argparse words by Python version
    dests = [action.dest for action in alone._actions]
    assert dests == ["help", "format", "max_cochain"] + OWN_DESTS[name]
    valid = VALID_ARGS[name]
    cases = {
        "missing positional": [name],
        "bad --format": [name] + valid + ["--format", "xml"],
        "unrecognized argument": [name] + valid + ["--bogus"],
        "valid": [name] + valid,
    }
    for case, argv in cases.items():
        outcome = _parse_outcome(alone, argv[1:])
        assert outcome == _parse_outcome(full, argv), case
        if case in ("bad --format", "unrecognized argument"):
            assert isinstance(outcome, str), case
        if case == "valid":
            assert outcome["subcommand"] == name
    if name != "validate":  # validate takes any number of names
        assert isinstance(_parse_outcome(alone, []), str)


def test_run_command_builds_only_the_named_subcommand(monkeypatch):
    built, registered = [], []
    init = argparse.ArgumentParser.__init__
    add_parser = argparse._SubParsersAction.add_parser

    def spy_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def spy_add_parser(self, name, **kwargs):
        registered.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy_add_parser)
    assert run_command(["h2", "sl2"]).exit_code == EXIT_OK
    assert built == ["currentext h2"] and registered == []
    built.clear()
    assert run_command(["frobnicate"]).exit_code == EXIT_USAGE
    assert registered == list(SUBCOMMANDS)
    assert len(built) == 1 + len(SUBCOMMANDS)


# the inputs each failed run below echoes (validate with no name expands
# to none)
FAILURE_INPUTS = {
    "validate": {"algebras": []},
    "h2": {"algebra": "sl3", "coeff_dim": 1},
    "witness": {"algebra": "heis3", "element": "x"},
    "killing": {"algebra": "sl17"},
}


# one row per entry of the failure table: argv, exit code, status
@pytest.mark.parametrize("argv, code, status", [
    (["validate"], EXIT_USAGE, "usage-error"),
    (["h2", "sl3", "--max-cochain", "5"], EXIT_RESOURCE, "resource-limit"),
    (["witness", "heis3", "x"], EXIT_PROPERTY, "property-failed"),
    (["killing", "sl17"], EXIT_INPUT, "invalid-input"),
])
def test_each_failure_class_has_one_exit_code(argv, code, status):
    report = run_command(argv)
    assert (report.command, report.exit_code, report.status) == (argv[0], code, status)
    assert report.inputs == FAILURE_INPUTS[argv[0]]
    assert set(report.results) == (
        {"error", "defect_class"} if argv[0] == "witness" else {"error"}
    )


@pytest.mark.parametrize("exc, code, status", [
    (InternalConsistencyError("identity failed"), EXIT_INTERNAL, "internal-error"),
    # a property failure with no defect class
    (NotDiagonalError((0, 1)), EXIT_PROPERTY, "property-failed"),
    (ValueError("not a package error"), None, None),  # outside the table: it propagates
])
def test_a_handler_exception_maps_through_the_failure_table(monkeypatch, exc, code, status):
    def fail(L):
        raise exc

    monkeypatch.setattr(cli, "killing_form", fail)
    if code is None:
        with pytest.raises(ValueError, match="not a package error"):
            run_command(["killing", "sl2"])
        return
    report = run_command(["killing", "sl2"])
    assert (report.exit_code, report.status) == (code, status)
    assert report.results == {"error": str(exc)} and report.inputs == {"algebra": "sl2"}


@pytest.mark.parametrize("name, lie_refusal", [
    ("sl2+", "malformed Lie algebra name 'sl2+'"),
    ("abelian:-1", "bad abelian dimension in 'abelian:-1'"),
    ("zzz", "unknown Lie algebra 'zzz'"),
])
def test_a_name_both_catalogs_refuse_names_both_refusals(name, lie_refusal):
    comm_refusal = f"unknown commutative algebra {name!r}"
    report = run_command(["info", name])
    assert report.exit_code == EXIT_INPUT
    assert report.results["error"] == f"{lie_refusal}; {comm_refusal}"
    report = run_command(["validate", name, "sl2"])
    assert report.exit_code == EXIT_INPUT
    assert report.results[name]["error"] == f"{lie_refusal}; {comm_refusal}"
    assert report.results["sl2"]["valid"] is True


@pytest.mark.parametrize("argv", [["h2", "sl2"], ["universality", "sl2", "sq2"]])
def test_negative_coeff_dim_is_usage_error(argv, capsys):
    report = run_command(argv + ["--coeff-dim", "-1"])
    assert report.exit_code == EXIT_USAGE
    assert "--coeff-dim" in report.results["error"]
    assert main(argv + ["--coeff-dim", "-1"]) == EXIT_USAGE
    capsys.readouterr()
    assert run_command(argv + ["--coeff-dim", "0"]).exit_code == EXIT_OK


@pytest.mark.parametrize("argv, at_zero", [
    (["h2", "heis3"], EXIT_RESOURCE),  # C^3 of heis3 has dimension 1 > 0
    (["info", "sl2"], EXIT_OK),  # info builds no cochain space
])
def test_negative_max_cochain_is_usage_error(argv, at_zero, capsys):
    report = run_command(argv + ["--max-cochain", "-5"])
    assert report.exit_code == EXIT_USAGE
    assert "--max-cochain" in report.results["error"]
    assert main(argv + ["--max-cochain", "-5"]) == EXIT_USAGE
    capsys.readouterr()
    assert run_command(argv + ["--max-cochain", "0"]).exit_code == at_zero
    assert run_command(argv + ["--max-cochain", "100"]).exit_code == EXIT_OK


@pytest.mark.parametrize("option", ["--coeff-dim", "--max-cochain"])
@pytest.mark.parametrize("text", ["0_1", " 1", "+1", "\u0661"])
def test_a_count_is_read_from_ascii_digits_only(option, text, capsys):
    # int() reads each of these as a number; like a catalog number, a
    # count is ASCII digits only
    report = run_command(["h2", "heis3", option, text])
    assert report.exit_code == EXIT_USAGE
    assert option in report.results["error"]
    assert main(["h2", "heis3", option, text]) == EXIT_USAGE
    capsys.readouterr()


def test_catalog_name_is_not_shadowed_by_a_directory(tmp_path, monkeypatch):
    # only an existing file is read as a document; a directory named
    # like a catalog entry leaves the catalog name alone
    (tmp_path / "sl2").mkdir()
    (tmp_path / "sq2").mkdir()
    monkeypatch.chdir(tmp_path)
    report = run_command(["info", "sl2"])
    assert report.exit_code == EXIT_OK
    assert report.results["dim"] == 3
    assert run_command(["universality", "sl2", "sq2"]).exit_code == EXIT_OK
    # an existing file without the .json suffix is still read as a document
    (tmp_path / "mysl2").write_text(SL2_DOC, encoding="utf-8")
    assert run_command(["killing", "mysl2"]).results["semisimple"] is True


def test_unknown_catalog_name_is_input_error():
    assert run_command(["killing", "sl17"]).exit_code == EXIT_INPUT


@pytest.mark.parametrize("argv", [
    ["kaehler", "jets:0"], ["kaehler", "jets:x"], ["kaehler", "fun:0"], ["kaehler", "fun:x"],
    ["kaehler", "sq2*"], ["killing", "abelian:x"], ["info", "jets:1_0"],
    ["info", "jets:03"], ["info", "fun:007"], ["info", "abelian:00"],
])
def test_bad_catalog_names_are_input_errors(argv):
    assert run_command(argv).exit_code == EXIT_INPUT


@pytest.mark.parametrize("resolve, name, refusal", [
    (comm_catalog, "jets:0", "bad jet order in 'jets:0'"),
    (comm_catalog, "jets:x", "bad jet order in 'jets:x'"),
    (comm_catalog, "fun:0", "bad point count in 'fun:0'"),
    (comm_catalog, "fun:", "bad point count in 'fun:'"),
    (lie_catalog, "abelian:x", "bad abelian dimension in 'abelian:x'"),
    (lie_catalog, "abelian", "unknown Lie algebra 'abelian'"),
    (comm_catalog, "sq2:3", "unknown commutative algebra 'sq2:3'"),
    # a family number is ASCII digits only: int() read these as numbers
    (comm_catalog, "jets:1_0", "bad jet order in 'jets:1_0'"),
    (comm_catalog, "fun:\u0663", "bad point count in 'fun:\u0663'"),
    (comm_catalog, "fun:\uff13", "bad point count in 'fun:\uff13'"),
    (comm_catalog, "fun:2*jets:+2", "bad jet order in 'jets:+2'"),
    (lie_catalog, "abelian: 2", "bad abelian dimension in 'abelian: 2'"),
    (lie_catalog, "sl2+abelian:0_2", "bad abelian dimension in 'abelian:0_2'"),
    # one spelling per algebra: no leading zero, but 0 itself stays
    (comm_catalog, "jets:03", "bad jet order in 'jets:03'"),
    (comm_catalog, "fun:007", "bad point count in 'fun:007'"),
    (lie_catalog, "abelian:00", "bad abelian dimension in 'abelian:00'"),
])
def test_catalog_refusal_messages(resolve, name, refusal):
    with pytest.raises(CatalogError) as err:
        resolve(name)
    assert str(err.value) == refusal


def test_witness_not_in_derived_algebra_exit_2():
    report = run_command(["witness", "heis3", "x"])
    assert report.exit_code == EXIT_PROPERTY
    payload = json.loads(report.to_json())
    assert payload["results"]["defect_class"] == ["1", "0"]


def test_resource_ceiling_exit_3():
    report = run_command(["h2", "sl3", "--max-cochain", "5"])
    assert report.exit_code == EXIT_RESOURCE


def test_universality_report():
    report = run_command(["universality", "sl2", "sq2"])
    assert report.exit_code == EXIT_OK
    assert report.results["bijective"] is True
    assert report.results["dim_omega1bar"] == 1
    assert report.results["dim_h2"] == 1


def test_vform_sl2c_report():
    report = run_command(["vform", "sl2C"])
    assert report.results["dim_v"] == 2
    assert report.results["killing_factor"]["kernel_dim"] == 1


def test_h2_heis3_report():
    report = run_command(["h2", "heis3"])
    assert report.results["dim"] == 2
    assert len(report.results["representatives"]) == 2


def test_validate_all_catalog():
    report = run_command(["validate", "--all"])
    assert report.exit_code == EXIT_OK
    assert all(entry["valid"] for entry in report.results.values())


def test_validate_reports_violations():
    doc = json.dumps(
        {"kind": "lie", "dim": 2, "brackets": [[0, 1, 0, "1"], [1, 0, 0, "1"]]}
    )
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        handle.write(doc)
        path = handle.name
    try:
        report = run_command(["validate", path])
        assert report.exit_code == EXIT_INPUT
        assert not report.results[path]["valid"]
    finally:
        os.unlink(path)


def test_json_reports_are_byte_stable():
    commands = [
        ["killing", "sl2", "--format", "json"],
        ["vform", "sl2C", "--format", "json"],
        ["h2", "heis3", "--format", "json"],
        ["universality", "sl2", "sq2", "--format", "json"],
        ["twist", "sl2", "sq2", "--seed", "3", "--format", "json"],
        ["glue-demo", "sl2", "fun:3*jets:2", "--cover", "1,2;2,3", "--format", "json"],
    ]
    first = [run_command(argv).to_json() for argv in commands]
    second = [run_command(argv).to_json() for argv in commands]
    assert first == second


def test_json_rationals_are_strings():
    report = run_command(["killing", "sl2", "--format", "json"])
    payload = json.loads(report.to_json())
    assert payload["results"]["matrix"][1][1] == "8"
    assert payload["results"]["matrix"][0][2] == "4"


def test_main_prints_and_returns(capsys):
    code = main(["info", "sl2"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "dim: 3" in captured.out


def test_glue_demo_command():
    report = run_command(
        ["glue-demo", "sl2", "fun:4*jets:2", "--cover", "1,2;2,3;3,4"]
    )
    assert report.exit_code == EXIT_OK
    assert report.results["glued_matches"] is True


def test_glue_demo_reports_a_non_exact_restriction_as_internal(monkeypatch):
    # the glued cocycle is d beta0, so a local restriction that is not
    # exact is a bug (exit 70), not a property of the input (exit 2)
    monkeypatch.setattr(cli, "coboundary_witness",
                        lambda psi, ceiling=None: CoboundaryWitness(None, (1,), None))
    report = run_command(["glue-demo", "sl2", "fun:2", "--cover", "1;2"])
    assert report.exit_code == EXIT_INTERNAL
    assert report.results == {"error": "the restriction of a coboundary to ['1'] is not exact"}


def test_glue_demo_refuses_a_non_unital_algebra(tmp_path):
    # fun:2's two points without its unit: the idempotents partition no 1,
    # which is an input error (exit 1), not an internal one (exit 70)
    doc = json.loads(FUN2_DOC)
    del doc["unit"]
    path = tmp_path / "fun2_no_unit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = run_command(["glue-demo", "sl2", str(path), "--cover", "1;2"])
    assert report.exit_code == EXIT_INPUT
    assert report.results == {"error": "a partition of unity requires a unital algebra"}


def test_cocycle_check_command():
    report = run_command(["cocycle-check", "sl2", "fun:2*sq2"])
    assert report.exit_code == EXIT_OK
    assert report.results["cocycle_identity"] is True
    assert report.results["diagonal"] is True


def test_twist_command_deterministic_seed():
    a = run_command(["twist", "sl2", "sq2", "--seed", "11"])
    b = run_command(["twist", "sl2", "sq2", "--seed", "11"])
    assert a.results == b.results
    assert a.results["class_unchanged"] is True


def test_supplied_labels_skip_default_label_list():
    # the default b0..b{dim-1} list is built only when "labels" is absent,
    # so a huge "dim" with a short label list is refused before allocating
    import tracemalloc

    doc = json.dumps({"kind": "lie", "dim": 200_000, "labels": ["a", "b"]})
    tracemalloc.start()
    try:
        with pytest.raises(DocumentError):
            parse_algebra_document(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
