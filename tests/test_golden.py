"""Golden CLI outputs: each command's stdout, byte for byte, and its exit
code, as recorded in tests/golden/.

A refactor must leave every output as it was, and these files are the
record it is checked against.  When an output change is intended,
regenerate the files from the repository root with

    PYTHONPATH=src python tests/test_golden.py

review the diff of tests/golden/, and list the change in CHANGES.md.
"""

import os
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from unittest.mock import patch

import pytest

from knutson.cli import main

GOLDEN = Path(__file__).parent / "golden"

_JSON = ("--format", "json", "--no-cache")

# file name -> argv; every command exits 0
CASES = {
    "knutson_sn_6.json": ("knutson", "sn", "6", *_JSON),
    "knutson_an_7.json": ("knutson", "an", "7", *_JSON),
    "knutson_sl2_5.json": ("knutson", "sl2", "5", *_JSON),
    "knutson_sl2_8.json": ("knutson", "sl2", "8", *_JSON),
    "knutson_psl2_13.json": ("knutson", "psl2", "13", *_JSON),
    "knutson_sl2_13_theorem.json": ("knutson", "sl2", "13", "--rho", "theorem", *_JSON),
    "knutson_psl2_9.txt": ("knutson", "psl2", "9", "--no-cache"),
    "table_psl2_13.csv": ("table", "psl2", "13", "--format", "csv", "--no-cache"),
    "table_psl2_8.json": ("table", "psl2", "8", *_JSON),
    "table_an_7.json": ("table", "an", "7", *_JSON),
    "table_sl2_9.txt": ("table", "sl2", "9", "--no-cache"),
    "seq_a363701.json": ("seq", "a363701", "--format", "json"),
    "seq_a363675_40.bfile": ("seq", "a363675", "--limit", "40", "--bfile"),
    "seq_a363676.csv": ("seq", "a363676", "--format", "csv"),
    "cores_60_5.json": ("cores", "--n", "60", "--t", "5", "--format", "json"),
    "verify_sl2_rho_13.txt": ("verify", "sl2-rho", "--q", "13"),
    "verify_knutson_small.txt": ("verify", "knutson-small"),
}


def run(argv: tuple[str, ...]) -> tuple[bytes, int]:
    """(stdout as UTF-8 bytes, exit code) of one in-process CLI run, with
    the table cache in a fresh temporary directory."""
    out = StringIO()
    with (
        tempfile.TemporaryDirectory() as tmp,
        patch.dict(os.environ, {"KNUTSON_CACHE_DIR": tmp}),
        redirect_stdout(out),
    ):
        code = main(list(argv))
    return out.getvalue().encode(), code


def test_golden_directory_holds_exactly_the_cases():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    out, code = run(CASES[name])
    assert code == 0
    assert out == (GOLDEN / name).read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        out, code = run(argv)
        if code:
            sys.exit(f"{' '.join(argv)} exited {code}")
        (GOLDEN / name).write_bytes(out)


if __name__ == "__main__":
    regenerate()
