"""CLI surface: exit codes, JSON schema round trips, the table cache."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from knutson import (
    cli, knutsonlat, numtheory, partitions, sequences, sl2tables, symchar,
)
from knutson.algnum import CyclotomicTau, MultiQuadratic
from knutson.chartable import CharacterTable, Irrep
from knutson.cli import cache_load, cache_store, get_table, main
from knutson.tablejson import (
    table_from_json,
    table_to_json,
    value_from_json,
    value_to_json,
)
from knutson.sl2tables import EVEN_CAP, paper_rho_inverses, psl2_table, sl2_table
from knutson.errors import TableError
from knutson.partitions import CORES_MAX_N, hook_multiset
from knutson.sequences import L_SEQUENCES_CAP, ZERO_COLUMNS_CAP, SequenceRecord
from knutson.symchar import DEFAULT_CAP, an_table, sn_table

from oracles import count_t_cores_quotient, with_entry


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("KNUTSON_CACHE_DIR", str(tmp_path / "cache"))


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in a run that has not finished after seconds,
    so that a hang fails the test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_value_round_trip():
    samples = [
        0,
        7,
        -3,
        10**30,
        MultiQuadratic.sqrt(5),
        MultiQuadratic.sqrt(-3) * Fraction(1, 2) + 4,
        CyclotomicTau.root_of_unity(8, 3),
        CyclotomicTau(12, -3, None, {0: 2}) + CyclotomicTau.root_of_unity(12, 5, -3),
    ]
    for v in samples:
        back = value_from_json(json.loads(json.dumps(value_to_json(v))))
        assert v == back and type(back) is type(v), v


@pytest.mark.parametrize(
    "value", [1.5, 1.0, True, {"mq": [[1, 1, 0]]}],
    ids=["float", "integral-float", "bool", "zero-den"],
)
def test_malformed_integer_value_is_a_miss(value):
    # an integer value is an exact JSON integer: 1.0 and true are not,
    # although both equal 1, the value the entry held
    with pytest.raises((TypeError, ZeroDivisionError)):
        value_from_json(value)
    cache_store("sn-4", sn_table(4))
    payload = json.loads(_entry("sn-4")[1])
    assert payload["irreps"][0]["values"][0] == 1
    payload["irreps"][0]["values"][0] = value
    _write_entry("sn-4", payload)
    assert cache_load("sn-4", "S4") is None


def test_table_round_trip_preserves_orthogonality():
    for table in (sn_table(5), an_table(5), sl2_table(5)):
        back = table_from_json(json.loads(json.dumps(table_to_json(table))))
        assert back.label == table.label
        assert back.order == table.order
        assert back.degrees == table.degrees
        back.check_orthogonality()


def test_value_from_json_reduces_radicands():
    root4 = value_from_json({"mq": [[4, 1, 1]]})
    assert root4 == 2 and root4.is_rational() and hash(root4) == hash(2)
    assert value_from_json(value_to_json(root4)) == 2


def test_value_from_json_sums_congruent_exponents():
    # a record listing exponents 0 and 4 in Q(zeta_4) holds 1 + 1 = 2
    record = {"cyc": {"order": 4, "eq": 0, "base": [[0, 1, 1], [4, 1, 1]], "tau": []}}
    two = value_from_json(record)
    assert two == 2 and hash(two) == hash(2)
    assert value_to_json(two) == {
        "cyc": {"order": 4, "eq": 0, "base": [[0, 2, 1]], "tau": []}
    }


def test_no_sympy_at_runtime():
    code = "import sys, knutson.cli; print('sympy' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_lattice_layer_does_not_load_sl2_tables():
    # knutsonlat is group-agnostic: importing it pulls in no SL2 code.
    # The package is built by hand, so that the check does not rest on
    # what the package __init__ imports.
    pkg = Path(cli.__file__).resolve().parent
    code = (
        "import sys, types; "
        f"pkg = types.ModuleType('knutson'); pkg.__path__ = [{str(pkg)!r}]; "
        "sys.modules['knutson'] = pkg; "
        "import knutson.knutsonlat; "
        "print('knutson.knutsonlat' in sys.modules, 'knutson.sl2tables' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["True", "False"]


def test_cache_round_trip():
    table = sl2_table(7)
    assert cache_load("sl2-7", "SL2(7)") is None
    cache_store("sl2-7", table)
    cached = cache_load("sl2-7", "SL2(7)")
    assert cached is not None
    assert cached.degrees == table.degrees
    cached.check_orthogonality()


@pytest.mark.parametrize(
    "key,build,param",
    [
        ("sn-8", sn_table, 8),  # int values
        ("an-9", an_table, 9),  # MultiQuadratic values
        ("sl2-7", sl2_table, 7),  # CyclotomicTau with tau
        ("sl2-8", sl2_table, 8),  # CyclotomicTau with tau^2 = 0
    ],
)
def test_cache_round_trip_is_exact(key, build, param):
    built = build(param)
    cache_store(key, built)
    assert table_to_json(cache_load(key, built.label)) == table_to_json(built)


@pytest.mark.parametrize(
    "key,build,param",
    [
        ("sn-4", sn_table, 4),
        ("an-6", an_table, 6),
        ("sl2-7", sl2_table, 7),
        ("psl2-9", psl2_table, 9),
    ],
)
def test_cached_table_equals_the_built_table(key, build, param):
    # ConjClass.data (a cycle type, a label tuple) is not cached, and
    # takes no part in comparing tables
    built = build(param)
    cache_store(key, built)
    cached = cache_load(key, built.label)
    assert cached == built
    assert [c.data for c in cached.classes] != [c.data for c in built.classes]


def _entry(key):
    """(digest line, body) of a stored cache entry."""
    digest, _, body = Path(cli._cache_path(key)).read_bytes().partition(b"\n")
    return digest, body


def _write_entry(key, payload):
    """Write payload as an entry whose digest matches its body."""
    body = json.dumps(payload).encode()
    digest = hashlib.sha256(body).hexdigest().encode()
    Path(cli._cache_path(key)).write_bytes(digest + b"\n" + body)


def test_cache_rejects_corruption():
    cache_store("sn-4", sn_table(4))
    digest, body = _entry("sn-4")
    assert b'"order":24,' in body
    corrupt = body.replace(b'"order":24,', b'"order":25,')
    Path(cli._cache_path("sn-4")).write_bytes(digest + b"\n" + corrupt)
    assert cache_load("sn-4", "S4") is None  # checksum mismatch


def _flip(body, i):
    flipped = bytearray(body)
    flipped[i] ^= 1
    return bytes(flipped)


def _decodes(body):
    try:
        table_from_json(json.loads(body))
    except Exception:
        return False
    return True


@pytest.mark.parametrize("which", [0, 0.5, -1], ids=["first", "middle", "last"])
def test_cache_flipped_body_byte_is_a_miss(which):
    # among the bytes whose low bit flipped still leaves a body that
    # decodes into a table, so that only the digest rejects it
    cache_store("sn-4", sn_table(4))
    digest, body = _entry("sn-4")
    flips = [i for i in range(len(body)) if _decodes(_flip(body, i))]
    flipped = _flip(body, flips[int(which * len(flips))])
    Path(cli._cache_path("sn-4")).write_bytes(digest + b"\n" + flipped)
    assert cache_load("sn-4", "S4") is None


@pytest.mark.parametrize(
    "damage",
    [
        lambda digest, body: digest + body,  # no newline
        lambda digest, body: body,  # no digest line
        lambda digest, body: digest + b"\n",  # no body
        lambda digest, body: digest + b"\n" + body[:-1],  # truncated body
    ],
    ids=["no-newline", "no-digest", "no-body", "truncated"],
)
def test_cache_malformed_file_is_a_miss(damage):
    cache_store("sn-4", sn_table(4))
    Path(cli._cache_path("sn-4")).write_bytes(damage(*_entry("sn-4")))
    assert cache_load("sn-4", "S4") is None


def test_cache_ignores_v1_entries(capsys):
    # well-formed entries of the three old formats, none holding the
    # table the command prints: the v1 entry's has order 25, and the v2
    # and v3 entries, digest line and all, hold S3 in the current
    # schema.  None is ever read.
    payload = table_to_json(sn_table(4))
    payload["order"] = 25
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    v1 = json.dumps({
        "version": 1,
        "checksum": hashlib.sha256(blob.encode()).hexdigest(),
        "table": payload,
    }).encode()
    body = json.dumps(table_to_json(sn_table(3)), separators=(",", ":")).encode()
    v2 = hashlib.sha256(body).hexdigest().encode() + b"\n" + body
    directory = Path(cli.cache_dir())
    old = {
        directory / "sn-4.v1.json": v1,
        directory / "sn-4.v2.json": v2,
        directory / "sn-4.v3.json": v2,
    }
    directory.mkdir(parents=True)
    for path, blob in old.items():
        path.write_bytes(blob)
    assert cache_load("sn-4", "S4") is None
    assert main(["table", "sn", "4"]) == 0
    cached = capsys.readouterr()
    assert main(["table", "sn", "4", "--no-cache"]) == 0
    assert cached == capsys.readouterr()
    assert cached.out.startswith("S4  order 24\n")
    for path, blob in old.items():
        assert path.read_bytes() == blob
    assert Path(cli._cache_path("sn-4")).name == "sn-4.v4.json"
    assert Path(cli._cache_path("sn-4")).is_file()


def _first_record(obj, kind):
    """The first value record of the given kind in a table payload."""
    return next(
        v[kind] for ir in obj["irreps"] for v in ir["values"]
        if isinstance(v, dict) and kind in v
    )


def _zero_order(payload):
    _first_record(payload, "cyc")["order"] = 0


def _float_cyc_order(payload):
    record = _first_record(payload, "cyc")
    record["order"] = float(record["order"])


def _rat_not_a_pair(payload):
    payload["irreps"][0]["values"][0] = {"rat": 1}


def _leftover_rat_record(payload):
    # the integer record of the older schema, now no value record at all
    payload["irreps"][0]["values"][0] = {"rat": [1, 1]}


def _float_table_order(payload):
    payload["order"] = float(payload["order"])


def _float_class_size(payload):
    payload["classes"][-1][1] = float(payload["classes"][-1][1])


def _bool_degree(payload):
    # the trivial character's degree, 1, as true: equal to 1, but no int
    assert payload["irreps"][0]["degree"] == 1
    payload["irreps"][0]["degree"] = True


def _ragged_row(payload):
    payload["irreps"][0]["values"].pop()


@pytest.mark.parametrize(
    "corrupt",
    [
        _zero_order, _float_cyc_order, _rat_not_a_pair, _leftover_rat_record,
        _float_table_order, _float_class_size, _bool_degree, _ragged_row,
    ],
)
def test_undecodable_checksummed_entry_is_a_miss(corrupt, capsys):
    # the checksum matches, but the entry does not decode into a table:
    # the command rebuilds it and prints what --no-cache prints
    cache_store("sl2-4", sl2_table(4))
    payload = json.loads(_entry("sl2-4")[1])
    corrupt(payload)
    _write_entry("sl2-4", payload)
    assert cache_load("sl2-4", "SL2(4)") is None
    assert main(["table", "sl2", "4"]) == 0
    cached = capsys.readouterr()
    assert main(["table", "sl2", "4", "--no-cache"]) == 0
    uncached = capsys.readouterr()
    assert cached.out == uncached.out
    assert cached.err == uncached.err == ""


def test_cache_entry_that_is_not_an_object_is_a_miss():
    cache_store("sn-4", sn_table(4))
    _write_entry("sn-4", [])
    assert cache_load("sn-4", "S4") is None


@pytest.mark.parametrize(
    "key, label, source, build, param",
    [
        ("sn-4", "S4", "sn-5", sn_table, 5),
        ("an-5", "A5", "an-6", an_table, 6),
        ("sl2-5", "SL2(5)", "sl2-7", sl2_table, 7),
        ("psl2-7", "PSL2(7)", "sl2-7", sl2_table, 7),
        # PSL2(8) and SL2(8) have one table, under two labels
        ("psl2-8", "PSL2(8)", "sl2-8", sl2_table, 8),
    ],
)
def test_cache_entry_under_the_wrong_key_is_a_miss(
    capsys, key, label, source, build, param
):
    # a valid entry of another group, copied under key: a miss, rebuilt
    # and overwritten by the command
    cache_store(source, build(param))
    Path(cli._cache_path(key)).write_bytes(Path(cli._cache_path(source)).read_bytes())
    assert cache_load(source, build(param).label).label != label
    assert cache_load(key, label) is None
    kind, _, n = key.partition("-")
    assert main(["knutson", kind, n]) == 0
    assert capsys.readouterr().out.startswith(f"group: {label}\n")
    assert cache_load(key, label).label == label


@pytest.mark.parametrize(
    "key, label, build, param, message",
    [
        ("an-2", "A2", an_table, 3, "A_n needs n >= 3, not n = 2"),
        ("an-1", "A1", an_table, 3, "A_n needs n >= 3, not n = 1"),
        ("sn-0", "S0", sn_table, 1, "S_n needs n >= 1, not n = 0"),
    ],
    ids=["an-2", "an-1", "sn-0"],
)
@pytest.mark.parametrize("command", ["table", "knutson"])
def test_cache_cannot_skip_the_parameter_check(
    capsys, command, key, label, build, param, message
):
    # a checksummed entry under a key no builder accepts, labelled as
    # the key names: the parameter is refused before the cache is read,
    # as --no-cache refuses it
    planted = build(param)
    planted.label = label
    cache_store(key, planted)
    kind, _, n = key.partition("-")
    assert main([command, kind, n, "--no-cache"]) == 2
    refused = capsys.readouterr()
    assert refused.out == "" and refused.err == f"error: {message}\n"
    assert main([command, kind, n]) == 2
    assert capsys.readouterr() == refused


def test_unusable_cache_dir_is_a_warning(tmp_path):
    # a regular file where the cache directory should be: the table is
    # still printed and the command exits 0, with one warning line
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
        "KNUTSON_CACHE_DIR": str(blocker),
    }

    def run(*extra):
        return subprocess.run(
            [sys.executable, "-m", "knutson.cli", "table", "sn", "4", *extra],
            capture_output=True, text=True, env=env,
        )

    cached, uncached = run(), run("--no-cache")
    assert cached.returncode == 0 and uncached.returncode == 0
    assert cached.stdout == uncached.stdout
    assert cached.stderr.startswith("warning: ")
    assert len(cached.stderr.splitlines()) == 1
    assert "Traceback" not in cached.stderr


def test_get_table_uses_cache():
    t1 = get_table("sn", 4)
    t2 = get_table("sn", 4)
    assert t2.degrees == t1.degrees
    t3 = get_table("sn", 4, use_cache=False)
    assert t3.degrees == t1.degrees


def test_main_table_text(capsys):
    assert main(["table", "sn", "3"]) == 0
    out = capsys.readouterr().out
    assert "S3" in out and "order 6" in out


def test_main_table_json_schema(capsys):
    assert main(["table", "sl2", "5", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 120
    table_from_json(obj).check_orthogonality()


def test_main_seq_bfile(capsys):
    assert main(["seq", "a363675", "--limit", "40", "--bfile"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["1 1", "2 6", "3 10", "4 21", "5 36"]


def test_main_seq_json_default_limit(capsys):
    assert main(["seq", "a363676", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["id"] == "a363676"
    assert obj["limit"] == 60
    assert obj["terms"][:4] == [1, 2, 5, 6]


def test_main_cores_json(capsys):
    assert main(["cores", "--n", "4", "--t", "2"]) == 0
    capsys.readouterr()
    assert main(["cores", "--n", "6", "--t", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["exists"] == (obj["first_core"] is not None)


def test_cores_first_core_is_null_exactly_when_none_exists(capsys):
    # n = 0 has one t-core, the empty partition, printed as []
    for n in range(11):
        for t in (2, 3, 4, 5, 7, 11):
            argv = ["cores", "--n", str(n), "--t", str(t), "--format", "json"]
            assert main(argv) == 0
            obj = json.loads(capsys.readouterr().out)
            assert obj["exists"] == (obj["first_core"] is not None), (n, t)
            assert obj["exists"] == (obj["count"] > 0), (n, t)
            if obj["exists"]:
                assert sum(obj["first_core"]) == n, (n, t)
    assert main(["cores", "--n", "0", "--t", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "n": 0, "t": 2, "exists": True, "count": 1, "first_core": [],
    }


@pytest.mark.parametrize("n, t", [(200, 2), (80, 4), (120, 13)])
def test_cores_cap_exits_3(capsys, n, t):
    assert main(["cores", "--n", str(n), "--t", str(t)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_cores_every_t_at_the_cap(capsys):
    # every t up to n + 1, and t far beyond n, where every partition is a core
    for t in (*range(2, 62), 1000, 10**21):
        assert main(["cores", "--n", "60", "--t", str(t), "--format", "json"]) == 0, t
        captured = capsys.readouterr()
        assert captured.err == "", t
        obj = json.loads(captured.out)
        assert obj["count"] == count_t_cores_quotient(60, t), t
        assert obj["exists"] == (obj["count"] > 0), t
        core = obj["first_core"]
        if obj["count"]:
            assert sum(core) == 60 and all(h % t for h in hook_multiset(tuple(core))), t
        else:
            assert core is None, t


@pytest.mark.parametrize("t", [1, 0, -5])
def test_cores_t_below_2_exits_2(capsys, t):
    assert main(["cores", "--n", "10", "--t", str(t)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cores_huge_prime_t_is_fast(capsys):
    start = time.perf_counter()
    assert main(["cores", "--n", "5", "--t", str(2**61 - 1), "--format", "json"]) == 0
    assert time.perf_counter() - start < 1.0
    obj = json.loads(capsys.readouterr().out)
    assert obj["exists"] is True and obj["count"] == 7 and obj["first_core"] == [5]


@pytest.mark.parametrize("seq_id", ["a363675", "a363676"])
def test_seq_limit_cap_exits_3(capsys, seq_id):
    assert main(["seq", seq_id, "--limit", str(L_SEQUENCES_CAP), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["limit"] == L_SEQUENCES_CAP
    assert main(["seq", seq_id, "--limit", str(L_SEQUENCES_CAP + 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "exceeds cap" in lines[0]


def test_main_knutson_json(capsys):
    assert main(["knutson", "psl2", "5", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["knutson_index"] == 1
    assert obj["L"] == 60
    assert obj["generalized_lower_bound"] == "1"


def test_main_knutson_sl2_rho_table(capsys):
    assert main(["knutson", "sl2", "5", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["knutson_index"] == 2
    rows = obj["rho_inverse_table"]["rows"]
    assert set(rows) == {
        "eta", "xi", "theta_odd", "theta_even", "psi", "chi_odd", "chi_even",
    }
    assert all(r["verified"] or r["corrected"] or not r["targets"] for r in rows.values())


def test_main_knutson_single_char(capsys):
    assert main(["knutson", "sl2", "5", "--char", "psi", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["character"] == "psi"
    assert obj["index"] in (1, 2)


def test_warm_sl2_rho_report_builds_no_table(capsys, monkeypatch):
    # the rho rows and the obstruction run on the table the command got
    # from the cache, and report what a fresh build reports
    builds, build = [], sl2tables._sl2

    def counted(q, label):
        builds.append(q)
        return build(q, label)

    monkeypatch.setattr(sl2tables, "_sl2", counted)
    argv = ["knutson", "sl2", "13", "--rho", "theorem", "--format", "json"]
    assert main(argv + ["--no-cache"]) == 0
    fresh = capsys.readouterr().out
    assert builds == [13]
    cache_store("sl2-13", build(13, "SL2(13)"))
    builds.clear()
    assert main(argv) == 0
    assert builds == []
    assert capsys.readouterr().out == fresh


def _rho_rows(report):
    """A rho-inverse report without its tables: the virtual characters
    as multiplicity vectors."""

    def mults(chi):
        return None if chi is None else chi.mults

    return report.q, report.column, {
        column: [
            (name, row.targets, row.coefficients, mults(row.lam), row.verified,
             row.discrepancies, mults(row.correction))
            for name, row in rows.items()
        ]
        for column, rows in report.rows.items()
    }


@pytest.mark.parametrize("q", (7, 13))
def test_paper_rho_inverses_on_a_cached_table(q):
    built = sl2_table(q)
    cache_store(f"sl2-{q}", built)
    cached = cache_load(f"sl2-{q}", built.label)
    assert not cached._orthogonal
    got = paper_rho_inverses(cached)
    assert cached._orthogonal  # checked where it was used
    assert _rho_rows(got) == _rho_rows(paper_rho_inverses(built))


def test_paper_rho_inverses_checks_an_unchecked_table():
    good = sl2_table(7)
    bad = with_entry(good, 1, 2, good.irreps[1].values[2] + 1)
    with pytest.raises(TableError, match=r"SL2\(7\): <1,psi> = "):
        paper_rho_inverses(bad)


def test_knutson_has_no_csv_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["knutson", "sn", "4", "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_main_verify_cores(capsys, monkeypatch):
    # the brute force decides all six t in one pass over partitions(n)
    # for each n <= 40; the report is pinned as a whole
    calls, enumerate_partitions = [], partitions.partitions

    def counted(n):
        calls.append(n)
        return enumerate_partitions(n)

    monkeypatch.setattr(partitions, "partitions", counted)
    assert main(["verify", "cores"]) == 0
    assert sorted(calls) == list(range(41))
    names = (
        "count_t_cores(n,3) == sigma3(3n+1), n <= 60",
        "exists_t_core fast paths == brute force, n <= 40",
        "quadform theorem, n <= 2000",
    )
    assert json.loads(capsys.readouterr().out) == {
        "suite": "cores",
        "pass": True,
        "checks": [
            {"name": name, "pass": True, "expected": [], "found": []}
            for name in names
        ],
    }


@pytest.mark.parametrize("broken", [False, True])
def test_verify_checks_report_expected_and_found(capsys, monkeypatch, broken):
    # found equals expected exactly when a check passes; with every index
    # reported as 2, the K = 2 checks pass and the rest fail
    if broken:
        monkeypatch.setattr(knutsonlat, "knutson_index_group", lambda table: 2)
        monkeypatch.setattr(
            sequences, "seq_L_An", lambda limit: SequenceRecord("a363676", limit, (1,))
        )
    for suite in ("sequences", "knutson-small"):
        assert main(["verify", suite]) == (1 if broken else 0)
        checks = json.loads(capsys.readouterr().out)["checks"]
        for c in checks:
            assert list(c) == ["name", "pass", "expected", "found"]
            assert c["pass"] == (c["found"] == c["expected"])
        assert {c["pass"] for c in checks} == ({False, True} if broken else {True})


def test_verify_sequences_checks_the_degrees(capsys, monkeypatch):
    # with f^(3,2,1) doubled, L(S_6) is 1440 and L(A_6) is 720, so 6, a
    # term of both sequences, is the one n each degree check finds
    hook = partitions.degree_hook
    monkeypatch.setattr(
        partitions, "degree_hook", lambda lam: hook(lam) * (1 + (lam == (3, 2, 1)))
    )
    assert main(["verify", "sequences"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["pass"] for c in checks] == [True, True, True, False, False]
    assert [c["found"] for c in checks[3:]] == [[6], [6]]


@pytest.mark.parametrize("broken", [False, True])
def test_verify_cores_reports_the_failing_n(capsys, monkeypatch, broken):
    # each range check expects no failing n and finds the n it breaks at:
    # sigma3 is wrong at 3 * 5 + 1, exists_t_core at (4, 2), quadform_xxyy at 7
    if broken:
        sigma3, quadform = numtheory.sigma3, numtheory.quadform_xxyy
        exists = partitions.exists_t_core
        monkeypatch.setattr(numtheory, "sigma3", lambda m: sigma3(m) + (m == 16))
        monkeypatch.setattr(
            partitions, "exists_t_core",
            lambda n, t: exists(n, t) != ((n, t) == (4, 2)),
        )
        monkeypatch.setattr(
            numtheory, "quadform_xxyy", lambda n: quadform(n) != (n == 7)
        )
    assert main(["verify", "cores"]) == (1 if broken else 0)
    checks = json.loads(capsys.readouterr().out)["checks"]
    for c in checks:
        assert list(c) == ["name", "pass", "expected", "found"]
        assert c["expected"] == [] and c["pass"] == (c["found"] == [])
    assert [c["found"] for c in checks] == (
        [[5], [4], [7]] if broken else [[], [], []]
    )


@pytest.mark.parametrize("broken", [False, True])
def test_verify_sl2_rho_reports_each_row_outcome(capsys, monkeypatch, broken):
    # at q = 7 the chi_odd row is accepted through its correction; with
    # the correction withheld it is rejected and the suite fails
    def report(table):
        got = paper_rho_inverses(table)
        if broken:
            got.selected_rows()["chi_odd"].correction = None
        return got

    monkeypatch.setattr(sl2tables, "paper_rho_inverses", report)
    assert main(["verify", "sl2-rho", "--q", "7"]) == (1 if broken else 0)
    column, *rows = json.loads(capsys.readouterr().out)["checks"]
    assert column == {
        "name": "column assignment q=7", "pass": True, "detail": "right",
        "expected": ["left", "right"], "found": "right",
    }
    for c in rows:
        assert list(c) == ["name", "pass", "expected", "found"]
        assert c["expected"] == "accepted"
        assert c["pass"] == (c["found"] != "rejected")
    found = {c["name"]: c["found"] for c in rows}
    assert found.pop("row chi_odd") == ("rejected" if broken else "corrected")
    assert set(found.values()) == {"verified"}


def test_wrong_loeschian_predicate_is_caught(capsys, monkeypatch):
    # The wrong predicate calls every m > 200 Loeschian (202 = 2 * 101 is
    # not).  It agrees below that, where the t-core checks reach (3n + 1
    # for n <= 60), so only the quadratic-form checks can notice it.
    import test_acceptance

    right = numtheory.is_loeschian

    def wrong(m):
        return m > 200 or right(m)

    for module in list(sys.modules.values()):
        if getattr(module, "is_loeschian", None) is right:
            monkeypatch.setattr(module, "is_loeschian", wrong)
    assert test_acceptance.is_loeschian is wrong
    assert main(["verify", "cores"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["pass"] for c in checks] == [True, True, False]
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_13_quadratic_form_theorem()


def test_verify_orthogonality_names_the_failing_pair(capsys, monkeypatch):
    # S4 gets a rational entry off by one, A5 a split value negated, which
    # makes an inner product irrational
    s4, a5 = sn_table(4), an_table(5)
    bad_s4 = with_entry(s4, 1, 0, s4.irreps[1].values[0] + 1)  # on the 4-cycles
    i, k = next(
        (i, k)
        for i, ir in enumerate(a5.irreps)
        for k, v in enumerate(ir.values)
        if isinstance(v, MultiQuadratic) and not v.is_rational()
    )
    bad_a5 = with_entry(a5, i, k, -a5.irreps[i].values[k])
    monkeypatch.setattr(symchar, "sn_table", lambda n: bad_s4 if n == 4 else sn_table(n))
    monkeypatch.setattr(symchar, "an_table", lambda n: bad_a5 if n == 5 else an_table(n))
    assert main(["verify", "orthogonality"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = [c for c in checks if not c["pass"]]
    assert [c["name"] for c in failed] == ["orthogonality sn 4", "orthogonality an 5"]
    pair = f"<{s4.irreps[0].label},{s4.irreps[1].label}>"
    assert failed[0]["detail"].startswith(f"S4: {pair} = ")
    assert failed[1]["detail"].startswith("A5: irrational inner product")
    assert failed[1]["detail"].endswith(f",{a5.irreps[i].label}>")
    assert all("detail" not in c for c in checks if c["pass"])


def test_verify_orthogonality_lets_bugs_through(monkeypatch):
    def buggy(n):
        raise TypeError("a bug, not a failed check")

    monkeypatch.setattr(symchar, "an_table", buggy)
    with pytest.raises(TypeError):
        main(["verify", "orthogonality"])


def test_exit_code_cap_exceeded(capsys):
    assert main(["table", "sn", "23"]) == 3
    assert "error" in capsys.readouterr().err


def test_exit_code_usage(capsys):
    assert main(["table", "sl2", "6"]) == 2  # 6 is not a prime power
    capsys.readouterr()


def test_exit_code_bad_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_exit_code_unknown_char(capsys):
    assert main(["knutson", "sl2", "5", "--char", "foo"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "foo" in err


@pytest.mark.parametrize("exc", [AssertionError, TableError])
def test_exit_code_verification_failure(capsys, monkeypatch, exc):
    def broken(n):
        raise exc("orthogonality fails\nat (c, d)")

    monkeypatch.setattr(symchar, "sn_table", broken)
    assert main(["table", "sn", "4", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_code_fusion_range_check(capsys, monkeypatch):
    # one value of S4 raised by 1: validate_basic passes, and the row
    # orthogonality checked before the first zero-set index fails
    good = sn_table(4)
    ir = good.irreps[1]
    bad_row = Irrep(ir.label, ir.degree, (ir.values[0] + 1,) + ir.values[1:])
    bad = CharacterTable(
        good.label, good.order, good.classes,
        (good.irreps[0], bad_row) + good.irreps[2:], good.identity_index,
    )
    monkeypatch.setattr(symchar, "sn_table", lambda n: bad)
    assert main(["knutson", "sn", "4", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: verification failed") and err.count("\n") == 1


def test_exit_code_orthogonality_check_sl2(capsys, monkeypatch):
    # one value of SL2(5) raised by 1: the copy was never checked, so the
    # row orthogonality checked before its first index fails
    good = sl2_table(5)
    bad = with_entry(good, 1, 2, good.irreps[1].values[2] + 1)
    monkeypatch.setattr(sl2tables, "sl2_table", lambda q: bad)
    assert main(["knutson", "sl2", "5", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: verification failed") and err.count("\n") == 1
    assert "SL2(5): <1,psi> = " in err


def test_irrational_identity_value_exits_1(capsys, monkeypatch):
    a5 = an_table(5)
    i = a5.degrees.index(4)
    monkeypatch.setattr(
        symchar, "an_table",
        lambda n: with_entry(a5, i, a5.identity_index, 4 + MultiQuadratic.sqrt(5)),
    )
    assert main(["table", "an", "5", "--no-cache"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: verification failed: ")


@pytest.mark.parametrize(
    "argv", [["seq", "a363675", "--limit", "0"], ["verify", "sl2-rho", "--q", "0"]]
)
def test_zero_limit_and_q_exit_2(capsys, argv):
    # 0 is an input, not a request for the default
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "kind, param, label",
    [("psl2", 5, "PSL2(5)"), ("sl2", 3, "SL2(3)"), ("sn", 5, "S5"),
     ("sl2", 8, "SL2(8)")],
)
def test_rho_theorem_on_a_table_without_rho_exits_2(capsys, kind, param, label):
    # --rho theorem asks for the obstruction, which only SL2(q) for odd
    # q >= 5 carries: any other table is refused, not reported without it
    argv = ["knutson", kind, str(param), "--rho", "theorem", "--no-cache"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the rho machinery requires SL2(q) for odd q >= 5, "
        f"not {label}\n"
    )


@pytest.mark.parametrize("suite", ["sequences", "knutson-small", "cores"])
def test_q_on_a_suite_other_than_sl2_rho_exits_2(capsys, suite):
    assert main(["verify", suite, "--q", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --q applies to the sl2-rho suite only, not {suite}\n"


def test_seq_and_verify_choices_are_their_dispatch_tables(capsys):
    # one table per command names its choices and dispatches them, and
    # argparse rejects any other id before the command runs
    for argv, choices in (
        (["seq", "nope"], cli._SEQ_FUNCS), (["verify", "nope"], cli._SUITES)
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        listed = capsys.readouterr().err.split("choose from", 1)[1]
        at = [listed.find(name) for name in choices]
        assert -1 not in at and at == sorted(at), listed


@pytest.mark.parametrize("q", (0, -1, -4))
@pytest.mark.parametrize(
    "argv",
    [["table", "sl2"], ["table", "psl2"], ["knutson", "sl2"],
     ["knutson", "psl2"], ["verify", "sl2-rho", "--q"]],
    ids=" ".join,
)
def test_q_below_2_exits_2_naming_q(capsys, argv, q):
    # the message of every other non-prime-power q, not factorize's own
    assert main(argv + [str(q)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q = {q} is not a prime power\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "sl2", "1000000000000000003"],
        ["knutson", "psl2", "1000000000000000003"],
        ["verify", "sl2-rho", "--q", "1000000000000000003"],
    ],
)
def test_huge_q_exits_3_fast(capsys, argv):
    start = time.perf_counter()
    with _time_limit(10):
        assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert "exceeds" in capsys.readouterr().err


def test_knutson_index_cap_exits_3(capsys):
    with _time_limit(10):
        assert main(["knutson", "sn", "15", "--no-cache"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds cap" in captured.err


@pytest.mark.parametrize("kind, n", [("sn", 15), ("sn", 22), ("an", 17)])
def test_knutson_index_cap_before_the_table_is_built(capsys, kind, n):
    # the class count comes from n, so the table (S22 took 1.7 s) is
    # never built; S15 (176 classes) and A17 (156) are the first S_n
    # and A_n past the cap
    start = time.perf_counter()
    with _time_limit(10):
        assert main(["knutson", kind, str(n), "--no-cache"]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "exceeds cap" in lines[0]


@pytest.mark.parametrize("kind, count", [("sl2", 17), ("psl2", 9)])
def test_knutson_index_cap_before_any_sl2_table_is_built(
    capsys, monkeypatch, kind, count
):
    # every kind's class count comes from its parameter: with the cap
    # below SL2(13)'s 17 classes and PSL2(13)'s 9, neither is built
    def no_build(q, label):
        raise AssertionError("table built past the index cap")

    monkeypatch.setattr(knutsonlat, "INDEX_MAX_CLASSES", 8)
    monkeypatch.setattr(sl2tables, "_sl2", no_build)
    assert main(["knutson", kind, "13", "--no-cache"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: Knutson index of {kind.upper()}(13): class count {count} "
        "exceeds cap 8\n"
    )


def test_knutson_single_char_at_the_index_cap(capsys):
    # S14 has exactly INDEX_MAX_CLASSES = 135 classes
    assert main(["knutson", "sn", "14", "--char", "(14,)", "--no-cache"]) == 0
    assert "index: 1" in capsys.readouterr().out.splitlines()


def test_cap_checked_before_cache(capsys):
    # a validly checksummed entry under its key's label: S4's values,
    # labelled S23, for the table that is past the cap
    fake = sn_table(4)
    fake.label = "S23"
    cache_store("sn-23", fake)
    assert cache_load("sn-23", "S23") is not None
    assert main(["table", "sn", "23"]) == 3
    assert "exceeds cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzing the argument grammar

HUGE = 10**18 + 3


def _numbers(low, high, *special):
    """Mostly a small range; else 0, negatives, 10**18 + 3 or a given value."""
    small = st.integers(low, high)
    return st.one_of(
        small, small, st.sampled_from((0, -1, -7, HUGE) + special)
    ).map(str)


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


# In-cap inputs that take seconds stay out: tables of S_n and A_n above
# 12 (the table cap, 22, is such an input) and Knutson indices of tables
# above 43 classes, S14 at the index cap included.  S15 and A17 are past
# the index cap, so `knutson` on them exits 3.
_GROUP_PARAMS = {
    "sn": _numbers(1, 10, 15, DEFAULT_CAP + 1),
    "an": _numbers(3, 12, 17, DEFAULT_CAP + 1),
    "sl2": _numbers(2, 17, EVEN_CAP, EVEN_CAP + 1),
    "psl2": _numbers(2, 17, EVEN_CAP, EVEN_CAP + 1),
}
_CHARS = st.sampled_from(
    ["1", "psi", "chi1", "xi2", "(3,)", "(2, 1)", "(1, 1, 1)", "foo", ""]
)
_JUNK = st.sampled_from(["--bogus", "frobnicate", "--format", "--no-cache", "-h"])
_FORMATS = st.sampled_from(["text", "json", "csv"])


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["table", "seq", "knutson", "verify", "cores"]))
    if command in ("table", "knutson"):
        kind = draw(st.sampled_from(sorted(_GROUP_PARAMS)))
        argv = [command, kind, draw(_GROUP_PARAMS[kind])]
        argv += draw(_optional("--format", _FORMATS))
        argv += draw(st.sampled_from([[], ["--no-cache"]]))
        if command == "knutson":
            argv += draw(_optional("--char", _CHARS))
            argv += draw(_optional("--rho", st.sampled_from(["regular", "theorem"])))
    elif command == "seq":
        argv = ["seq", draw(st.sampled_from(["a363675", "a363676", "a363701"]))]
        limits = _numbers(
            1, 40, ZERO_COLUMNS_CAP, L_SEQUENCES_CAP, L_SEQUENCES_CAP + 1
        )
        argv += draw(_optional("--limit", limits))
        argv += draw(_optional("--format", _FORMATS))
        argv += draw(st.sampled_from([[], ["--bfile"]]))
    elif command == "verify":
        suites = ["orthogonality", "sequences", "sl2-rho", "knutson-small", "cores"]
        argv = ["verify", draw(st.sampled_from(suites))]
        argv += draw(_optional("--q", _numbers(2, 17, EVEN_CAP, EVEN_CAP + 1)))
    else:
        argv = [
            "cores",
            "--n", draw(_numbers(0, 30, CORES_MAX_N, CORES_MAX_N + 1)),
            "--t", draw(_numbers(2, 15, 2**61 - 1)),
        ]
        argv += draw(_optional("--format", st.sampled_from(["text", "json"])))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=timedelta(seconds=5),
    # explaining a failure traces every line, too slow for the time limit
    phases=[Phase.generate, Phase.shrink],
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_argvs())
def test_fuzz_argument_grammar(capsys, argv):
    # every input ends in a documented exit code, or in argparse's own
    # exit for a malformed or --help command line, and nothing hangs (a
    # hypothesis deadline is only checked once a run returns)
    with _time_limit(10):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code in (0, 2), argv
    assert code in (0, 1, 2, 3, 4), argv
    assert "Traceback" not in capsys.readouterr().err
