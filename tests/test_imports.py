"""What each entry point loads, in a fresh interpreter.

`import knutson` loads no submodule, each module imports only its own
layer and the layers below it, and each CLI command imports only the
layers it runs.  The interpreter runs with -S, so that modules a site
hook preloads cannot hide an import, and reports the modules that
appeared while it ran.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
STDLIB = ("dataclasses", "hashlib", "tempfile")


def _fresh(code: str) -> dict:
    """Run code in a fresh interpreter: the knutson and STDLIB modules
    it loaded, and the value its variable `out` ends with, if any."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "new = set(sys.modules) - before\n"
        "print(json.dumps({'knutson': sorted(m for m in new if m.startswith('knutson')),"
        f" 'stdlib': sorted(m for m in {STDLIB!r} if m in new),"
        " 'out': globals().get('out')}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_knutson_loads_no_submodule():
    got = _fresh("import knutson")
    assert got["knutson"] == ["knutson"]
    assert got["stdlib"] == []


# The package's layers, bottom first: errors; the combinatorics; exact
# values and tables; the lattice and the index; the representation ring;
# the CLI.  A module may import its own layer and those below it.
LAYERS = [
    ["errors"],
    ["numtheory", "partitions", "sequences"],
    ["algnum", "chartable", "symchar", "sl2tables", "tablejson"],
    ["knutsonlat"],
    ["charring"],
    ["cli"],
]
# The one exception: the rho section of sl2tables checks the printed
# rho-inverse rows with charring's fusion matrices and knutsonlat's mat_vec.
UPWARD = {"sl2tables": ["charring", "knutsonlat"]}


@pytest.mark.parametrize(
    "level, module", [(i, m) for i, layer in enumerate(LAYERS) for m in layer]
)
def test_each_module_loads_only_its_layer_and_those_below(level, module):
    got = _fresh(f"import knutson.{module}")
    below = {m for layer in LAYERS[: level + 1] for m in layer}
    loaded = {m.removeprefix("knutson.") for m in got["knutson"]} - {"knutson"}
    assert module in loaded
    assert sorted(loaded - below) == UPWARD.get(module, [])
    if level <= 1:
        assert got["stdlib"] == []  # not even dataclasses


COMBINATORICS = ["cli", "errors", "numtheory", "partitions"]
INDEX = COMBINATORICS + ["algnum", "chartable", "knutsonlat", "symchar"]


@pytest.mark.parametrize(
    "argv, layers, stdlib",
    [
        ("seq a363675 --limit 10", COMBINATORICS + ["sequences"], []),
        ("seq a363676 --limit 10", COMBINATORICS + ["sequences"], []),
        ("seq a363701 --limit 30", COMBINATORICS + ["sequences"], []),
        ("cores --n 10 --t 3 --format json", COMBINATORICS, []),
        ("verify sequences", COMBINATORICS + ["sequences"], []),
        ("knutson sn 4 --no-cache", INDEX, ["dataclasses"]),
    ],
    ids=[
        "seq-a363675", "seq-a363676", "seq-a363701", "cores", "verify-sequences",
        "knutson-sn-4",
    ],
)
def test_command_loads_only_its_layers(argv, layers, stdlib):
    got = _fresh(
        "import contextlib, io\n"
        "from knutson.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv.split()!r}) == 0"
    )
    assert got["knutson"] == sorted(["knutson"] + [f"knutson.{m}" for m in layers])
    assert got["stdlib"] == stdlib


def test_public_names_are_the_defining_modules_objects():
    # the first access comes after a cli run has imported and bound the
    # submodules it needs
    got = _fresh(
        "import knutson\n"
        "from knutson import cli, numtheory\n"
        "cli.main(['cores', '--n', '4', '--t', '2'])\n"
        "objs = {name: getattr(knutson, name) for name in knutson.__all__}\n"
        "out = [name for name, obj in objs.items()"
        " if getattr(sys.modules[obj.__module__], name) is not obj]\n"
        "out += [m.__name__ for m in (cli, numtheory)]"
    )
    assert got["out"] == ["knutson.cli", "knutson.numtheory"]


def test_partitions_import_binds_the_module():
    # `partitions` names a submodule only; the function is
    # knutson.partitions.partitions
    got = _fresh(
        "import knutson.partitions as m\n"
        "from knutson import partitions\n"
        "out = [m.__name__, partitions is m, callable(m.partitions)]"
    )
    assert got["out"] == ["knutson.partitions", True, True]


def test_star_import_binds_every_public_name():
    got = _fresh(
        "import knutson\n"
        "from knutson import *\n"
        "out = [name for name in knutson.__all__ if globals()[name] is not getattr(knutson, name)]"
    )
    assert got["out"] == []
    assert len(got["knutson"]) == 11  # the package and the 10 modules behind __all__


def test_dir_lists_the_public_names_and_others_raise():
    import knutson

    assert set(knutson.__all__) <= set(dir(knutson))
    with pytest.raises(AttributeError):
        knutson.class_has_zero  # a test oracle now, in tests/oracles.py
    with pytest.raises(AttributeError):
        knutson.Sl2Param  # sl2tables.check_group checks q
