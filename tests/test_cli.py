import json

import pytest

from currentext.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
    parse_algebra_document,
    run_command,
)
from currentext.current import CommAlgebra
from currentext.errors import DocumentError, InvalidAlgebraError
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


def test_unknown_subcommand_is_usage_error():
    assert run_command(["frobnicate"]).exit_code == EXIT_USAGE
    assert run_command([]).exit_code == EXIT_USAGE


def test_unknown_catalog_name_is_input_error():
    assert run_command(["killing", "sl17"]).exit_code == EXIT_INPUT


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
