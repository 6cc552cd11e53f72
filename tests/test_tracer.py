"""The benchmark's tracer runs on the package and reads what it expects.

perfbench/tracer.py wraps every public layer function and, after each
command, reads `symchar.mn_value.cache_info()`; its cache observers
call `cli._cache_path` and read what `cli.cache_load` returns, and its
fusion observer reads `CharacterTable._fusion_cache`, which only the
rho machinery fills.  A package change
that drops that memo or renames a traced function breaks every traced
run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from knutson.sl2tables import psl2_table
from knutson.symchar import sn_table

ROOT = Path(__file__).resolve().parents[1]


def _trace(tmp_path, *argv):
    out = tmp_path / "trace.json"
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "KNUTSON_CACHE_DIR": str(tmp_path / "cache"),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), "t", "--", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_tracer_records_table_build(tmp_path):
    record = _trace(tmp_path, "table", "sn", "6", "--format", "csv", "--no-cache")
    assert record["stats"]["symchar.sn_table"][0] == 1


def test_tracer_reads_mn_value_memo(tmp_path):
    # the tracer reads the memo after every command; a363701 no longer
    # evaluates a single character value, so it reads no miss
    record = _trace(tmp_path, "seq", "a363701", "--limit", "8")
    counters = record["counters"]
    for key in ("hits", "misses", "entries"):
        assert f"symchar.mn_value.{key}" in counters
    assert counters["symchar.mn_value.misses"] == 0


def test_tracer_observes_the_table_cache(tmp_path):
    # the cache observers call cli._cache_path and wrap cli.cache_load:
    # a cold run stores a nonempty entry, a second run loads it
    argv = ("table", "sn", "6", "--format", "csv")
    cold = _trace(tmp_path, *argv)
    assert cold["counters"]["cli.cache_store.bytes"] > 0
    assert cold["counters"]["cli.cache_load.misses"] == 1
    warm = _trace(tmp_path, *argv)
    assert warm["counters"]["cli.cache_load.hits"] == 1
    assert "cli.cache_store.bytes" not in warm["counters"]


def _distinct_zero_sets(table):
    return {
        tuple(k for k, v in enumerate(ir.values) if not v) for ir in table.irreps
    }


def test_tracer_sees_sn_indices_from_zero_sets(tmp_path):
    # S_n indices build no fusion matrix and solve one lattice per
    # distinct zero set of a character
    record = _trace(tmp_path, "knutson", "sn", "6", "--no-cache")
    stats = record["stats"]
    assert stats.get("charring.fusion_matrix", [0])[0] == 0
    table = sn_table(6)
    zero_sets = _distinct_zero_sets(table)
    assert len(zero_sets) < len(table.irreps)
    assert stats["knutsonlat.min_multiplier"][0] == len(zero_sets)


def test_tracer_sees_psl2_indices_from_zero_sets(tmp_path):
    # PSL2 indices take the same route: no fusion matrix, one lattice
    # per distinct zero set
    record = _trace(tmp_path, "knutson", "psl2", "5", "--no-cache")
    stats = record["stats"]
    assert stats.get("charring.fusion_matrix", [0])[0] == 0
    zero_sets = _distinct_zero_sets(psl2_table(5))
    assert stats["knutsonlat.min_multiplier"][0] == len(zero_sets)


def test_tracer_counts_sl2_fusion_matrices(tmp_path):
    # the indices build none; the rho-inverse rows of odd q >= 5 do
    record = _trace(tmp_path, "knutson", "sl2", "5")
    assert record["counters"]["charring.fusion.misses"] > 0
