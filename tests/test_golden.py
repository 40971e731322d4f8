"""Golden JSON outputs of the CLI, compared byte for byte.

Each case's ``--format json`` report is pinned in ``tests/golden/``, and
a few cases' text reports are pinned next to them as ``.txt``: the JSON
sorts its keys, so only the text pins the order of the ``input`` lines.
A change that alters an answer on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md; any other difference is a regression.
"""

import pathlib
import re
import sys

import pytest

from currentext.catalog import COMM_NAMES, LIE_NAMES
from currentext.cli import run_command

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")

# (fibre, coefficients) acceptance pairs
PAIRS = (
    ("sl2", "sq2"),
    ("sl2", "fun:2*sq2"),
    ("sl2", "jets:3"),
    ("sl2", "fun:2"),
    ("sl2+so3", "sq2"),
)


def golden_cases():
    cases = []
    for name in LIE_NAMES:
        cases += [["vform", name], ["h2", name], ["info", name], ["killing", name],
                  ["derivations", name]]
    for name in COMM_NAMES:
        cases += [["kaehler", name], ["omegabar", name], ["info", name]]
    for fibre, coeff in PAIRS:
        cases += [
            ["universality", fibre, coeff],
            ["twist", fibre, coeff],
            ["cocycle-check", fibre, coeff],
            ["current", fibre, coeff],
        ]
    cases += [
        ["validate", "--all"],
        ["universality", "sl2", "fun:4*sq2"],
        ["cocycle-check", "sl2", "sq2*jets:2"],
        # the twist-glue benchmark twists: coboundary witnesses with m = 9 and m = 17
        ["twist", "sl2", "sq2*jets:3"],
        ["twist", "so3", "sq2*sq2"],
        # refused at the default cochain ceiling: exit 3 names the size
        ["universality", "sl3", "sq2*sq2"],
        ["h2", "sl2", "--coeff-dim", "3"],
        ["h2", "heis3", "--coeff-dim", "2"],
        ["universality", "sl2", "fun:2*sq2", "--coeff-dim", "2"],
        ["universality", "sl2+so3", "sq2", "--coeff-dim", "3"],
        # the d^{p-1} guard counts comb(n, p) * m: 6 * 3 = 18 entries
        ["h2", "abelian:4", "--coeff-dim", "3", "--max-cochain", "17"],
        ["h2", "abelian:4", "--coeff-dim", "3", "--max-cochain", "18"],
        ["glue-demo", "sl2", "fun:3*jets:2", "--cover", "1,2;2,3"],
        ["glue-demo", "sl2", "fun:4*jets:2", "--cover", "1,2;2,3;3,4"],
        # corners whose coefficient factor sq2 is nilpotent past its unit
        ["glue-demo", "sl2", "fun:3*sq2", "--cover", "1,2;2,3"],
        ["glue-demo", "so3", "fun:2*sq2", "--cover", "1;2"],
        # a fibre with a centre: d^1 of gl2 has a free column, so the
        # canonical primitives set a coordinate to zero
        ["twist", "gl2", "fun:2*sq2"],
        ["glue-demo", "gl2", "fun:3*sq2", "--cover", "1,2;2,3"],
        # the catalog-sweep witnesses; x in heis3, E11 in gl2 and a1 in
        # abelian:3 lie outside [g, g] and exit 2 with their defect class
        ["witness", "sl2", "h"],
        ["witness", "sl3", "h1"],
        ["witness", "so3", "e1"],
        ["witness", "heis3", "x"],
        ["witness", "sl2C", "0"],
        ["witness", "gl2", "E11"],
        ["witness", "abelian:3", "a1"],
        ["info", "sl2+so3"],
        # the sweep's semisimple fibre that is not simple: V is 2-dimensional
        ["vform", "sl2+so3"],
        ["derivations", "sl2+so3"],
        ["killing", "sl2+so3"],
    ]
    return cases


# the text report of a success, of exit 1 with results per name, of a
# failure with a defect class and of a refusal at the cochain ceiling
TEXT_CASES = (
    ["universality", "sl2", "sq2", "--coeff-dim", "2"],
    ["glue-demo", "sl2", "fun:3*jets:2", "--cover", "1,2;2,3"],
    ["validate", "--all"],
    ["witness", "heis3", "x"],
    ["h2", "abelian:4", "--coeff-dim", "3", "--max-cochain", "17"],
)


def golden_path(argv) -> pathlib.Path:
    slug = re.sub(r"[^A-Za-z0-9.+-]+", "_", "_".join(argv).replace("*", "x"))
    return GOLDEN_DIR / f"{slug.strip('_')}.json"


def text_path(argv) -> pathlib.Path:
    return golden_path(argv).with_suffix(".txt")


def render(argv) -> str:
    return run_command(list(argv) + ["--format", "json"]).to_json()


def render_text(argv) -> str:
    return run_command(list(argv)).to_text()


@pytest.mark.parametrize("argv", golden_cases(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    path = golden_path(argv)
    assert path.exists(), f"missing golden file {path.name}"
    assert render(argv) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", TEXT_CASES, ids=" ".join)
def test_cli_text_output_matches_golden(argv):
    path = text_path(argv)
    assert path.exists(), f"missing golden file {path.name}"
    assert render_text(argv) == path.read_text(encoding="utf-8")


def test_golden_file_names_are_distinct():
    paths = [golden_path(argv) for argv in golden_cases()]
    assert len(set(paths)) == len(paths)
    assert sorted(GOLDEN_DIR.glob("*.json")) == sorted(paths)
    texts = [text_path(argv) for argv in TEXT_CASES]
    assert sorted(GOLDEN_DIR.glob("*.txt")) == sorted(texts)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in golden_cases():
        golden_path(argv).write_text(render(argv), encoding="utf-8")
        print(golden_path(argv).name)
    for argv in TEXT_CASES:
        text_path(argv).write_text(render_text(argv), encoding="utf-8")
        print(text_path(argv).name)
    sys.exit(0)
