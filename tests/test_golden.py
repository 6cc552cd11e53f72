"""Golden CLI outputs: each command's exit code, and its stdout byte for
byte, as recorded in tests/golden/.  A command that exits non-zero also
has its stderr recorded, byte for byte, in tests/golden/<name>.err.

A refactor must leave every output as it was, and these files are the
record it is checked against.  When an output change is intended,
regenerate the files from the repository root with

    PYTHONPATH=src python tests/test_golden.py

which writes the stdout of every case and the stderr of every failing
one, and stops when a case exits with a code other than its own.  Then
review the diff of tests/golden/, and list the change in CHANGES.md.
"""

import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest.mock import patch

import pytest

from knutson.cli import main

GOLDEN = Path(__file__).parent / "golden"

_JSON = ("--format", "json", "--no-cache")

# file name -> (exit code, argv)
CASES = {
    "knutson_sn_6.json": (0, ("knutson", "sn", "6", *_JSON)),
    "knutson_an_7.json": (0, ("knutson", "an", "7", *_JSON)),
    "knutson_sl2_5.json": (0, ("knutson", "sl2", "5", *_JSON)),
    "knutson_sl2_8.json": (0, ("knutson", "sl2", "8", *_JSON)),
    "knutson_psl2_13.json": (0, ("knutson", "psl2", "13", *_JSON)),
    "knutson_sl2_13_theorem.json": (
        0, ("knutson", "sl2", "13", "--rho", "theorem", *_JSON)
    ),
    "knutson_psl2_9.txt": (0, ("knutson", "psl2", "9", "--no-cache")),
    "table_psl2_13.csv": (0, ("table", "psl2", "13", "--format", "csv", "--no-cache")),
    "table_psl2_8.json": (0, ("table", "psl2", "8", *_JSON)),
    "table_an_7.json": (0, ("table", "an", "7", *_JSON)),
    "table_sl2_9.txt": (0, ("table", "sl2", "9", "--no-cache")),
    "seq_a363701.json": (0, ("seq", "a363701", "--format", "json")),
    "seq_a363675_40.bfile": (0, ("seq", "a363675", "--limit", "40", "--bfile")),
    "seq_a363676.csv": (0, ("seq", "a363676", "--format", "csv")),
    "cores_60_5.json": (0, ("cores", "--n", "60", "--t", "5", "--format", "json")),
    "verify_sl2_rho_13.txt": (0, ("verify", "sl2-rho", "--q", "13")),
    "verify_knutson_small.txt": (0, ("verify", "knutson-small")),
    "knutson_sn_7_char.json": (
        0, ("knutson", "sn", "7", "--char", "(4, 2, 1)", *_JSON)
    ),
    "knutson_an_9_char.json": (
        0, ("knutson", "an", "9", "--char", "(3, 3, 3)+", *_JSON)
    ),
    "knutson_an_12_char.json": (
        0, ("knutson", "an", "12", "--char", "(6, 3, 1, 1, 1)", *_JSON)
    ),
    "knutson_psl2_11_theta2.txt": (
        0, ("knutson", "psl2", "11", "--char", "theta2", "--no-cache")
    ),
    "knutson_sn_15.txt": (3, ("knutson", "sn", "15", "--no-cache")),
    "knutson_an_17.txt": (3, ("knutson", "an", "17", "--no-cache")),
    "table_sl2_17.txt": (3, ("table", "sl2", "17", "--no-cache")),
    "knutson_sn_7_nope.txt": (
        2, ("knutson", "sn", "7", "--char", "nope", "--no-cache")
    ),
    "knutson_sl2_0.txt": (2, ("knutson", "sl2", "0", "--no-cache")),
    "knutson_sn_23.txt": (3, ("knutson", "sn", "23", "--no-cache")),
    "table_an_2.txt": (2, ("table", "an", "2", "--no-cache")),
    "table_sn_8.csv": (0, ("table", "sn", "8", "--format", "csv", "--no-cache")),
    "table_an_9.txt": (0, ("table", "an", "9", "--no-cache")),
    "table_psl2_6.txt": (2, ("table", "psl2", "6", "--no-cache")),
    "knutson_psl2_33.txt": (3, ("knutson", "psl2", "33", "--no-cache")),
    "table_psl2_27.txt": (3, ("table", "psl2", "27", "--no-cache")),
    "verify_sl2_rho_3.txt": (2, ("verify", "sl2-rho", "--q", "3")),
    "knutson_psl2_13_theorem.txt": (
        2, ("knutson", "psl2", "13", "--rho", "theorem", "--no-cache")
    ),
    "verify_orthogonality_q.txt": (2, ("verify", "orthogonality", "--q", "5")),
}


def run(argv: tuple[str, ...]) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of one in-process CLI run, the output
    as UTF-8 bytes, with the table cache in a fresh temporary directory."""
    out, err = StringIO(), StringIO()
    with (
        tempfile.TemporaryDirectory() as tmp,
        patch.dict(os.environ, {"KNUTSON_CACHE_DIR": tmp}),
        redirect_stdout(out),
        redirect_stderr(err),
    ):
        code = main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_golden_directory_holds_exactly_the_cases():
    errs = [f"{name}.err" for name, (code, _) in CASES.items() if code]
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*CASES, *errs])


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    want, argv = CASES[name]
    code, out, err = run(argv)
    assert code == want
    assert out == (GOLDEN / name).read_bytes()
    if want:
        assert err == (GOLDEN / f"{name}.err").read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (want, argv) in CASES.items():
        code, out, err = run(argv)
        if code != want:
            sys.exit(f"{' '.join(argv)} exited {code}, not {want}")
        (GOLDEN / name).write_bytes(out)
        if code:
            (GOLDEN / f"{name}.err").write_bytes(err)


if __name__ == "__main__":
    regenerate()
