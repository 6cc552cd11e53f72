"""CLI surface: exit codes, JSON schema round trips, the table cache."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from knutson import cli, numtheory
from knutson.algnum import CyclotomicTau, MultiQuadratic
from knutson.chartable import CharacterTable, Irrep
from knutson.cli import (
    cache_load,
    cache_store,
    get_table,
    main,
    table_from_json,
    table_to_json,
    value_from_json,
    value_to_json,
)
from knutson.sl2tables import sl2_table
from knutson.errors import TableError
from knutson.partitions import hook_multiset
from knutson.sequences import L_SEQUENCES_CAP
from knutson.symchar import an_table, sn_table

from oracles import count_t_cores_quotient


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("KNUTSON_CACHE_DIR", str(tmp_path / "cache"))


def test_value_round_trip():
    from fractions import Fraction

    samples = [
        0,
        7,
        -3,
        Fraction(5, 2),
        MultiQuadratic.sqrt(5),
        MultiQuadratic.sqrt(-3) * Fraction(1, 2) + 4,
        CyclotomicTau.root_of_unity(8, 3),
        CyclotomicTau.tau_element(12, -3, 2) + CyclotomicTau.root_of_unity(12, 5, -3),
    ]
    for v in samples:
        back = value_from_json(json.loads(json.dumps(value_to_json(v))))
        assert v == back, v


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


def test_cache_round_trip():
    table = sl2_table(7)
    assert cache_load("sl2-7") is None
    cache_store("sl2-7", table)
    cached = cache_load("sl2-7")
    assert cached is not None
    assert cached.degrees == table.degrees
    cached.check_orthogonality()


def test_cache_rejects_corruption(tmp_path, monkeypatch):
    monkeypatch.setenv("KNUTSON_CACHE_DIR", str(tmp_path))
    cache_store("sn-4", sn_table(4))
    path = tmp_path / "sn-4.v1.json"
    entry = json.loads(path.read_text())
    entry["table"]["order"] = 25
    path.write_text(json.dumps(entry))
    assert cache_load("sn-4") is None  # checksum mismatch


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


def test_main_verify_cores(capsys):
    assert main(["verify", "cores"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pass"] is True


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

    monkeypatch.setattr(cli, "sn_table", broken)
    assert main(["table", "sn", "4", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_code_fusion_range_check(capsys, monkeypatch):
    # one value of S4 raised by 1: validate_basic passes, fusion does not
    good = sn_table(4)
    ir = good.irreps[1]
    bad_row = Irrep(ir.label, ir.degree, (ir.values[0] + 1,) + ir.values[1:])
    bad = CharacterTable(
        good.label, good.order, good.classes,
        (good.irreps[0], bad_row) + good.irreps[2:], good.identity_index,
    )
    monkeypatch.setattr(cli, "sn_table", lambda n: bad)
    assert main(["knutson", "sn", "4", "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: verification failed") and err.count("\n") == 1


def test_cap_checked_before_cache(capsys):
    cache_store("sn-23", sn_table(4))  # a validly checksummed entry
    assert cache_load("sn-23") is not None
    assert main(["table", "sn", "23"]) == 3
    assert "exceeds cap" in capsys.readouterr().err
