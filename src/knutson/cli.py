"""Command-line interface: tables, sequences, indices, verification, cores.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 resource cap
exceeded, 4 published-table discrepancy (a rho-inverse row that neither
verifies nor admits the flagged correction).

Exact values survive serialization through a tagged-union JSON schema:
rationals as {"rat": [num, den]}, quadratic-irrational combinations as
{"mq": [[d, num, den], ...]} (coefficient of sqrt(d)), cyclotomic values
as {"cyc": {"order": m, "eq": tau^2, "base": [[e, num, den], ...],
"tau": [...]}}.  Character tables are cached on disk under
KNUTSON_CACHE_DIR (default ~/.cache/knutson) with a checksum, written
atomically via temp-file rename.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from math import lcm

from .algnum import CyclotomicTau, MultiQuadratic
from .chartable import (
    CharacterTable,
    ConjClass,
    Irrep,
    zero_in_every_nontrivial_column,
)
from .errors import CapExceededError, TableError
from .knutsonlat import (
    generalized_lower_bound,
    knutson_index_char,
    knutson_index_group,
    min_rho_search,
    verify_rho_pm_obstruction,
)
from .numtheory import is_loeschian, quadform_xxyy, sigma3
from .partitions import (
    CORES_MAX_N,
    count_t_cores,
    exists_t_core,
    find_t_core,
    is_t_core,
    partitions,
)
from .sequences import seq_L_An, seq_L_Sn, seq_zero_columns_sn
from .sl2tables import Sl2Param, paper_rho_inverses, psl2_table, sl2_table
from .symchar import DEFAULT_CAP, an_table, sn_table

CACHE_VERSION = 1


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# exact-value (de)serialization

def value_to_json(v):
    if isinstance(v, (int, Fraction)):
        f = Fraction(v)
        return {"rat": [f.numerator, f.denominator]}
    if isinstance(v, MultiQuadratic):
        return {
            "mq": [
                [d, c.numerator, c.denominator]
                for d, c in sorted(v.coeffs.items())
            ]
        }
    if isinstance(v, CyclotomicTau):
        return {
            "cyc": {
                "order": v.m,
                "eq": v.tau_sq,
                "base": [
                    [e, c.numerator, c.denominator]
                    for e, c in sorted(v.base.items())
                ],
                "tau": [
                    [e, c.numerator, c.denominator]
                    for e, c in sorted(v.tau.items())
                ],
            }
        }
    raise TypeError(f"unserializable value {v!r}")


def value_from_json(obj):
    if "rat" in obj:
        num, den = obj["rat"]
        f = Fraction(num, den)
        return f.numerator if f.denominator == 1 else f
    if "mq" in obj:
        return MultiQuadratic(
            {d: Fraction(num, den) for d, num, den in obj["mq"]}
        )
    if "cyc" in obj:
        c = obj["cyc"]
        return CyclotomicTau(
            c["order"], c["eq"],
            {e: Fraction(num, den) for e, num, den in c["base"]},
            {e: Fraction(num, den) for e, num, den in c["tau"]},
        )
    raise ValueError(f"unknown value record {obj!r}")


def table_to_json(table: CharacterTable) -> dict:
    return {
        "label": table.label,
        "order": table.order,
        "identity_index": table.identity_index,
        "classes": [[c.label, c.size] for c in table.classes],
        "irreps": [
            {
                "label": ir.label,
                "degree": ir.degree,
                "values": [value_to_json(v) for v in ir.values],
            }
            for ir in table.irreps
        ],
    }


def table_from_json(obj: dict) -> CharacterTable:
    classes = tuple(ConjClass(label, size) for label, size in obj["classes"])
    irreps = tuple(
        Irrep(
            ir["label"], ir["degree"],
            tuple(value_from_json(v) for v in ir["values"]),
        )
        for ir in obj["irreps"]
    )
    return CharacterTable(
        obj["label"], obj["order"], classes, irreps, obj["identity_index"]
    )


# ---------------------------------------------------------------------------
# persistent table cache

def cache_dir() -> str:
    return os.environ.get(
        "KNUTSON_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "knutson"),
    )


def _cache_path(key: str) -> str:
    return os.path.join(cache_dir(), f"{key}.v{CACHE_VERSION}.json")


def _checksum(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()

def cache_load(key: str) -> CharacterTable | None:
    path = _cache_path(key)
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        if entry.get("version") != CACHE_VERSION:
            return None
        if entry.get("checksum") != _checksum(entry["table"]):
            return None
        return table_from_json(entry["table"])
    except (OSError, ValueError, KeyError):
        return None


def cache_store(key: str, table: CharacterTable) -> None:
    payload = table_to_json(table)
    entry = {
        "version": CACHE_VERSION,
        "checksum": _checksum(payload),
        "table": payload,
    }
    directory = cache_dir()
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        os.replace(tmp, _cache_path(key))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_cap(kind: str, param: int) -> None:
    """The builders' default cap, checked before any cache read."""
    if kind in ("sn", "an"):
        cap = DEFAULT_CAP
    else:
        cap = Sl2Param.from_q(param).default_cap
    if param > cap:
        raise CapExceededError(f"{kind}_table({param}) exceeds cap {cap}")


def get_table(kind: str, param: int, use_cache: bool = True) -> CharacterTable:
    builders = {"sn": sn_table, "an": an_table, "sl2": sl2_table, "psl2": psl2_table}
    if kind not in builders:
        raise UsageError(f"unknown group kind {kind!r}")
    _check_cap(kind, param)
    key = f"{kind}-{param}"
    if use_cache:
        cached = cache_load(key)
        if cached is not None:
            return cached
    table = builders[kind](param)
    if use_cache:
        cache_store(key, table)
    return table


# ---------------------------------------------------------------------------
# rendering

def _render_value(v) -> str:
    return str(v)


def render_table_text(table: CharacterTable) -> str:
    lines = [f"{table.label}  order {table.order}"]
    header = ["class"] + [c.label for c in table.classes]
    sizes = ["size"] + [str(c.size) for c in table.classes]
    rows = [header, sizes]
    for ir in table.irreps:
        rows.append([ir.label] + [_render_value(v) for v in ir.values])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        lines.append("  ".join(s.rjust(w) for s, w in zip(r, widths)))
    return "\n".join(lines)


def render_table_csv(table: CharacterTable) -> str:
    lines = ["," + ",".join(c.label for c in table.classes)]
    lines.append("size," + ",".join(str(c.size) for c in table.classes))
    for ir in table.irreps:
        lines.append(
            ir.label + "," + ",".join(_render_value(v) for v in ir.values)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands

def cmd_table(args) -> int:
    table = get_table(args.kind, args.param, use_cache=not args.no_cache)
    if args.format == "json":
        print(json.dumps(table_to_json(table), indent=2))
    elif args.format == "csv":
        print(render_table_csv(table))
    else:
        print(render_table_text(table))
    return 0


_SEQ_DEFAULT_LIMITS = {"a363675": 200, "a363676": 60, "a363701": 30}
_SEQ_FUNCS = {
    "a363675": seq_L_Sn,
    "a363676": seq_L_An,
    "a363701": seq_zero_columns_sn,
}


def cmd_seq(args) -> int:
    if args.id not in _SEQ_FUNCS:
        raise UsageError(f"unknown sequence {args.id!r}")
    limit = args.limit or _SEQ_DEFAULT_LIMITS[args.id]
    record = _SEQ_FUNCS[args.id](limit)
    if args.bfile:
        out = "".join(
            f"{i} {term}\n" for i, term in enumerate(record.terms, start=1)
        )
        sys.stdout.write(out)
    elif args.format == "json":
        print(json.dumps({
            "id": record.sequence_id,
            "limit": record.limit,
            "terms": list(record.terms),
        }))
    elif args.format == "csv":
        print(",".join(map(str, record.terms)))
    else:
        for term in record.terms:
            print(term)
    return 0


def cmd_knutson(args) -> int:
    table = get_table(args.kind, args.param, use_cache=not args.no_cache)
    report: dict = {"group": table.label, "order": table.order}
    # Each per-character index is computed at most once: the group index
    # is their lcm, and the zero-column criterion reuses it.
    indices: dict[int, int] = {}
    if args.char is not None:
        try:
            idx = table.irrep_index(args.char)
        except KeyError:
            raise UsageError(
                f"unknown character {args.char!r} for {table.label}"
            ) from None
        indices[idx] = knutson_index_char(table, idx)
        report["character"] = args.char
        report["index"] = indices[idx]
    else:
        indices = {
            i: knutson_index_char(table, i) for i in range(len(table.irreps))
        }
        report["per_character"] = {
            ir.label: indices[i] for i, ir in enumerate(table.irreps)
        }
        report["knutson_index"] = lcm(*indices.values())
    report["L"] = table.degree_lcm()
    bound = generalized_lower_bound(table)
    report["generalized_lower_bound"] = f"{bound}"
    zc = None
    if zero_in_every_nontrivial_column(table):
        zc = lcm(*(
            indices[i] if i in indices else knutson_index_char(table, i)
            for i in range(len(table.irreps))
        ))
    report["zero_column_criterion"] = (
        None if zc is None else {"certified_K_prime_equals_K": zc}
    )
    exit_code = 0
    if args.kind == "sl2" and args.param % 2 and args.param >= 5:
        rho_report = paper_rho_inverses(args.param)
        rows = {}
        for name, row in rho_report.selected_rows().items():
            rows[name] = {
                "targets": list(row.targets),
                "verified": row.verified,
                "discrepancies": {
                    k: list(v) for k, v in row.discrepancies.items()
                },
                "corrected": row.correction is not None,
            }
            if row.targets and not row.verified and row.correction is None:
                exit_code = 4
        report["rho_inverse_table"] = {
            "column": rho_report.column,
            "residue": args.param % 4,
            "rows": rows,
        }
        if args.rho == "theorem":
            report["rho_pm_obstruction"] = verify_rho_pm_obstruction(args.param)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for k, v in report.items():
            print(f"{k}: {v}")
    return exit_code


def cmd_cores(args) -> int:
    n, t = args.n, args.t
    if n > CORES_MAX_N:
        raise CapExceededError(f"cores --n {n} exceeds cap {CORES_MAX_N}")
    result = {
        "n": n,
        "t": t,
        "exists": exists_t_core(n, t),
        "count": count_t_cores(n, t),
        "first_core": list(find_t_core(n, t) or ()) or None,
    }
    if args.format == "json":
        print(json.dumps(result))
    else:
        for k, v in result.items():
            print(f"{k}: {v}")
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _suite_orthogonality() -> list[dict]:
    checks = []
    for label, build, rng in (
        ("sn", sn_table, range(1, 8)),
        ("an", an_table, range(3, 8)),
        ("sl2", sl2_table, (2, 3, 4, 5, 7, 8, 9)),
        ("psl2", psl2_table, (4, 5, 7, 9)),
    ):
        for k in rng:
            try:
                build(k).check_orthogonality()
                ok = True
            except Exception:
                ok = False
            checks.append({"name": f"orthogonality {label} {k}", "pass": ok})
    return checks


def _suite_sequences() -> list[dict]:
    return [
        {
            "name": "a363675 prefix",
            "pass": seq_L_Sn(200).terms
            == (1, 6, 10, 21, 36, 66, 105, 120, 136, 190),
        },
        {
            "name": "a363676 prefix",
            "pass": seq_L_An(60).terms
            == (1, 2, 5, 6, 8, 10, 12, 17, 21, 30, 36, 57),
        },
        {
            "name": "a363701 prefix",
            "pass": seq_zero_columns_sn(21).terms
            == (1, 5, 6, 8, 9, 10, 12, 14, 17, 21),
        },
    ]


def _suite_sl2_rho(q: int) -> list[dict]:
    report = paper_rho_inverses(q)
    checks = [{
        "name": f"column assignment q={q}",
        "pass": True,
        "detail": report.column,
    }]
    for name, row in report.selected_rows().items():
        ok = row.verified or row.correction is not None or not row.targets
        checks.append({"name": f"row {name}", "pass": ok})
    return checks


def _suite_knutson_small() -> list[dict]:
    checks = []
    for q, want in ((2, 1), (3, 1), (4, 1), (5, 2), (7, 2), (8, 1)):
        got = knutson_index_group(sl2_table(q))
        checks.append({"name": f"K(SL2({q}))={want}", "pass": got == want})
    for q, want in ((4, 1), (5, 1), (7, 1), (9, 1)):
        got = knutson_index_group(psl2_table(q))
        checks.append({"name": f"K(PSL2({q}))={want}", "pass": got == want})
    for n in range(1, 7):
        got = knutson_index_group(sn_table(n))
        checks.append({"name": f"K(S{n})=1", "pass": got == 1})
    got = min_rho_search(sl2_table(2))
    checks.append({
        "name": "K'(SL2(2))=1/3",
        "pass": got is not None and got[1] == Fraction(1, 3),
    })
    return checks


def _suite_cores() -> list[dict]:
    checks = [
        {
            "name": "count_t_cores(n,3) == sigma3(3n+1), n <= 60",
            "pass": all(
                count_t_cores(n, 3) == sigma3(3 * n + 1) for n in range(61)
            ),
        },
        {
            "name": "exists_t_core fast paths == brute force, n <= 40",
            "pass": all(
                exists_t_core(n, t)
                == any(is_t_core(lam, t) for lam in partitions(n))
                for n in range(41)
                for t in (2, 3, 5, 7, 11, 13)
            ),
        },
        {
            "name": "quadform theorem, n <= 2000",
            "pass": all(
                quadform_xxyy(n) == is_loeschian(3 * n + 1)
                for n in range(2001)
            ),
        },
    ]
    return checks


def cmd_verify(args) -> int:
    suites = {
        "orthogonality": _suite_orthogonality,
        "sequences": _suite_sequences,
        "sl2-rho": lambda: _suite_sl2_rho(args.q or 5),
        "knutson-small": _suite_knutson_small,
        "cores": _suite_cores,
    }
    if args.suite not in suites:
        raise UsageError(f"unknown suite {args.suite!r}")
    checks = suites[args.suite]()
    ok = all(c["pass"] for c in checks)
    print(json.dumps({"suite": args.suite, "pass": ok, "checks": checks}, indent=2))
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knutson",
        description="Exact character tables, Knutson indices and the "
        "associated integer sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p):
        p.add_argument("kind", choices=["sn", "an", "sl2", "psl2"])
        p.add_argument("param", type=int)
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--no-cache", action="store_true")

    p_table = sub.add_parser("table", help="print a character table")
    add_group_args(p_table)
    p_table.set_defaults(func=cmd_table)

    p_seq = sub.add_parser("seq", help="print an integer sequence")
    p_seq.add_argument("id", choices=sorted(_SEQ_FUNCS))
    p_seq.add_argument("--limit", type=int, default=None)
    p_seq.add_argument("--bfile", action="store_true")
    p_seq.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_seq.set_defaults(func=cmd_seq)

    p_kn = sub.add_parser("knutson", help="Knutson-index report for a group")
    add_group_args(p_kn)
    p_kn.add_argument("--char", default=None, help="single character label")
    p_kn.add_argument("--rho", choices=["regular", "theorem"], default="regular")
    p_kn.set_defaults(func=cmd_knutson)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "suite",
        choices=["orthogonality", "sequences", "sl2-rho", "knutson-small", "cores"],
    )
    p_ver.add_argument("--q", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_cores = sub.add_parser("cores", help="t-core existence and counting")
    p_cores.add_argument(
        "--n", type=int, required=True,
        help=f"the number partitioned, at most {CORES_MAX_N} (else exit 3)",
    )
    p_cores.add_argument("--t", type=int, required=True)
    p_cores.add_argument("--format", choices=["text", "json"], default="text")
    p_cores.set_defaults(func=cmd_cores)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, TableError) as exc:
        detail = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: verification failed: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
