"""The benchmark's tracer runs on the package and reads what it expects.

perfbench/tracer.py wraps every public layer function and, after each
command, reads `symchar.mn_value.cache_info()`; its cache observers
call `cli._cache_path` and read what `cli.cache_load` returns.  A
package change that drops that memo or renames a traced function breaks
every traced run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    record = _trace(tmp_path, "seq", "a363701", "--limit", "8")
    assert record["counters"]["symchar.mn_value.misses"] > 0


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
