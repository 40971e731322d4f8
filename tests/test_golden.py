"""Golden JSON outputs of the CLI, compared byte for byte.

Each case's ``--format json`` report is pinned in ``tests/golden/``.  A
change that alters an answer on purpose regenerates the files with

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
        cases += [["vform", name], ["h2", name]]
    for name in COMM_NAMES:
        cases += [["kaehler", name], ["omegabar", name]]
    for fibre, coeff in PAIRS:
        cases += [["universality", fibre, coeff], ["twist", fibre, coeff]]
    cases += [
        ["universality", "sl2", "fun:4*sq2"],
        # refused at the default cochain ceiling: exit 3 names the size
        ["universality", "sl3", "sq2*sq2"],
        ["h2", "sl2", "--coeff-dim", "3"],
        ["h2", "heis3", "--coeff-dim", "2"],
        ["glue-demo", "sl2", "fun:3*jets:2", "--cover", "1,2;2,3"],
        ["glue-demo", "sl2", "fun:4*jets:2", "--cover", "1,2;2,3;3,4"],
    ]
    return cases


def golden_path(argv) -> pathlib.Path:
    slug = re.sub(r"[^A-Za-z0-9.+-]+", "_", "_".join(argv).replace("*", "x"))
    return GOLDEN_DIR / f"{slug.strip('_')}.json"


def render(argv) -> str:
    return run_command(list(argv) + ["--format", "json"]).to_json()


@pytest.mark.parametrize("argv", golden_cases(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    path = golden_path(argv)
    assert path.exists(), f"missing golden file {path.name}"
    assert render(argv) == path.read_text(encoding="utf-8")


def test_golden_file_names_are_distinct():
    paths = [golden_path(argv) for argv in golden_cases()]
    assert len(set(paths)) == len(paths)
    assert sorted(GOLDEN_DIR.glob("*.json")) == sorted(paths)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in golden_cases():
        golden_path(argv).write_text(render(argv), encoding="utf-8")
        print(golden_path(argv).name)
    sys.exit(0)
