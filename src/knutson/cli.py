"""Command-line interface: tables, sequences, indices, verification, cores.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 resource cap
exceeded, 4 published-table discrepancy (a rho-inverse row that neither
verifies nor admits the flagged correction).

Exact values survive serialization through the tagged-union JSON schema
of knutson.tablejson.  Tables are cached under KNUTSON_CACHE_DIR
(default ~/.cache/knutson), one `{key}.v4.json` file per table (`.v1`,
`.v2` and `.v3` files are ignored): the SHA-256 hex digest of the compact
table JSON, a newline, then exactly those JSON bytes, written
atomically via temp-file rename.  The kind's check_group checks the
parameter and gives the table's label before any cache read; an entry
that fails its digest, does not decode, or holds a table of another
label is a miss (and is rebuilt and overwritten); a cache that cannot
be written is a warning on stderr, not a failure.

Importing this module loads only the parser's needs.  Each command
imports the layers it runs when it runs, and looks its functions up on
their defining modules then, so `seq` and `cores` never load the
exact-arithmetic, table or lattice layers.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import CapExceededError, TableError
from .partitions import CORES_MAX_N

CACHE_VERSION = 4


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# persistent table cache

def cache_dir() -> str:
    return os.environ.get(
        "KNUTSON_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "knutson"),
    )


def _cache_path(key: str) -> str:
    return os.path.join(cache_dir(), f"{key}.v{CACHE_VERSION}.json")


def cache_load(key: str, label: str):
    """The table cached under key, or None unless it is labelled label."""
    import hashlib
    import json

    from .tablejson import table_from_json

    try:
        with open(_cache_path(key), "rb") as fh:
            digest, body = fh.readline(), fh.read()
        if digest != hashlib.sha256(body).hexdigest().encode() + b"\n":
            return None
        table = table_from_json(json.loads(body))
        # a valid entry of another group, e.g. a file copied under the
        # wrong name, is a miss too
        return table if table.label == label else None
    except (
        OSError, ValueError, LookupError, TypeError, AttributeError,
        ArithmeticError, TableError,
    ):
        # An entry that cannot be read or decoded into a valid table,
        # checksummed or not, is a miss: the table is built again.
        return None


def cache_store(key: str, table) -> None:
    import hashlib
    import json
    import tempfile

    from .tablejson import table_to_json

    body = json.dumps(table_to_json(table), separators=(",", ":")).encode()
    directory = cache_dir()
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n")
            fh.write(body)
        os.replace(tmp, _cache_path(key))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table_module(kind: str):
    """The module that builds the tables of kind and has its check_group."""
    if kind in ("sn", "an"):
        from . import symchar

        return symchar
    if kind in ("sl2", "psl2"):
        from . import sl2tables

        return sl2tables
    raise UsageError(f"unknown group kind {kind!r}")


def get_table(kind: str, param: int, use_cache: bool = True):
    module = _table_module(kind)
    label, _count = module.check_group(kind, param)
    key = f"{kind}-{param}"
    if use_cache:
        cached = cache_load(key, label)
        if cached is not None:
            return cached
    table = getattr(module, f"{kind}_table")(param)
    if use_cache:
        try:
            cache_store(key, table)
        except OSError as exc:
            print(f"warning: table not cached: {exc}", file=sys.stderr)
    return table


# ---------------------------------------------------------------------------
# rendering

def render_table_text(table) -> str:
    lines = [f"{table.label}  order {table.order}"]
    header = ["class"] + [c.label for c in table.classes]
    sizes = ["size"] + [str(c.size) for c in table.classes]
    rows = [header, sizes]
    for ir in table.irreps:
        rows.append([ir.label] + [str(v) for v in ir.values])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        lines.append("  ".join(s.rjust(w) for s, w in zip(r, widths)))
    return "\n".join(lines)


def render_table_csv(table) -> str:
    lines = ["," + ",".join(c.label for c in table.classes)]
    lines.append("size," + ",".join(str(c.size) for c in table.classes))
    for ir in table.irreps:
        lines.append(
            ir.label + "," + ",".join(str(v) for v in ir.values)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands

def cmd_table(args) -> int:
    table = get_table(args.kind, args.param, use_cache=not args.no_cache)
    if args.format == "json":
        import json

        from .tablejson import table_to_json

        print(json.dumps(table_to_json(table), indent=2))
    elif args.format == "csv":
        print(render_table_csv(table))
    else:
        print(render_table_text(table))
    return 0


# sequence id -> (its function's name in knutson.sequences, looked up
# there at call time, and its default --limit); the parser's choices
_SEQ_FUNCS = {
    "a363675": ("seq_L_Sn", 200),
    "a363676": ("seq_L_An", 60),
    "a363701": ("seq_zero_columns_sn", 30),
}


def cmd_seq(args) -> int:
    from . import sequences

    func, default_limit = _SEQ_FUNCS[args.id]
    limit = default_limit if args.limit is None else args.limit
    record = getattr(sequences, func)(limit)
    if args.bfile:
        out = "".join(
            f"{i} {term}\n" for i, term in enumerate(record.terms, start=1)
        )
        sys.stdout.write(out)
    elif args.format == "json":
        import json

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
    from math import lcm

    from .knutsonlat import (
        check_index_cap,
        generalized_lower_bound,
        knutson_index_char,
        zero_column_criterion,
    )

    label, count = _table_module(args.kind).check_group(args.kind, args.param)
    check_index_cap(label, count)  # before the table is built
    table = get_table(args.kind, args.param, use_cache=not args.no_cache)
    report: dict = {"group": table.label, "order": table.order}
    if args.char is not None:
        try:
            idx = table.irrep_index(args.char)
        except KeyError:
            raise UsageError(
                f"unknown character {args.char!r} for {table.label}"
            ) from None
        report["character"] = args.char
        report["index"] = knutson_index_char(table, idx)
    else:
        indices = [knutson_index_char(table, i) for i in range(len(table.irreps))]
        report["per_character"] = {
            ir.label: k for ir, k in zip(table.irreps, indices)
        }
        report["knutson_index"] = lcm(*indices)
    report["L"] = table.degree_lcm()
    bound = generalized_lower_bound(table)
    report["generalized_lower_bound"] = f"{bound}"
    # d is memoised per zero set, so the criterion's indices cost no solve
    zc = zero_column_criterion(table)
    report["zero_column_criterion"] = (
        None if zc is None else {"certified_K_prime_equals_K": zc}
    )
    exit_code = 0
    # the rho report is part of every SL2(q) report for odd q >= 5, and
    # --rho theorem asks for it of any table: _odd_q refuses the others
    if args.rho == "theorem" or (
        args.kind == "sl2" and args.param % 2 and args.param >= 5
    ):
        from .sl2tables import paper_rho_inverses, verify_rho_pm_obstruction

        rho_report = paper_rho_inverses(table)
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
            if not row.accepted:
                exit_code = 4
        report["rho_inverse_table"] = {
            "column": rho_report.column,
            "residue": args.param % 4,
            "rows": rows,
        }
        if args.rho == "theorem":
            report["rho_pm_obstruction"] = verify_rho_pm_obstruction(table)
    if args.format == "json":
        import json

        print(json.dumps(report, indent=2))
    else:
        for k, v in report.items():
            print(f"{k}: {v}")
    return exit_code


def cmd_cores(args) -> int:
    from .partitions import count_t_cores, exists_t_core, find_t_core

    n, t = args.n, args.t
    if n > CORES_MAX_N:
        raise CapExceededError(f"cores --n {n} exceeds cap {CORES_MAX_N}")
    core = find_t_core(n, t)
    result = {
        "n": n,
        "t": t,
        "exists": exists_t_core(n, t),
        "count": count_t_cores(n, t),
        "first_core": None if core is None else list(core),
    }
    if args.format == "json":
        import json

        print(json.dumps(result))
    else:
        for k, v in result.items():
            print(f"{k}: {v}")
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _suite_orthogonality() -> list[dict]:
    from .sl2tables import psl2_table, sl2_table
    from .symchar import an_table, sn_table

    checks = []
    for label, build, rng in (
        ("sn", sn_table, range(1, 8)),
        ("an", an_table, range(3, 8)),
        ("sl2", sl2_table, (2, 3, 4, 5, 7, 8, 9)),
        ("psl2", psl2_table, (4, 5, 7, 9)),
    ):
        for k in rng:
            check = {"name": f"orthogonality {label} {k}", "pass": True}
            try:
                build(k).check_orthogonality()
            except (TableError, AssertionError) as exc:
                check.update({"pass": False, "detail": str(exc)})
            checks.append(check)
    return checks


def _expect(name: str, expected, found) -> dict:
    return {
        "name": name, "pass": found == expected,
        "expected": expected, "found": found,
    }


# Largest n of verify sequences' degree checks.  It reaches the term 21
# of both L sequences; the next term of either is 30.  In process on a
# 2-core host the degree sweep took 0.10 s for n <= 21, 0.31 s for
# n <= 25 and 1.1 s for n <= 30.
DEGREES_N = 21


def _suite_sequences() -> list[dict]:
    from math import factorial, lcm

    from .partitions import conjugate, degree_hook, partitions
    from .sequences import seq_L_An, seq_L_Sn, seq_zero_columns_sn

    def degree_lcms(n: int) -> tuple[int, int]:
        """(L(S_n), L(A_n)) from the hook-length degrees f^lam: A_n has
        one irreducible of degree f^lam for each pair lam != lam', and
        two of degree f^lam / 2 for each self-conjugate lam (n >= 2;
        A_1 = S_1)."""
        l_sn = l_an = 1
        for lam in partitions(n):
            f = degree_hook(lam)
            l_sn = lcm(l_sn, f)
            l_an = lcm(l_an, f // 2 if n > 1 and conjugate(lam) == lam else f)
        return l_sn, l_an

    # the two L sequences come from number theory; these checks list the
    # n <= DEGREES_N at which they disagree with the degrees
    lcms = {n: degree_lcms(n) for n in range(1, DEGREES_N + 1)}
    s_terms, a_terms = seq_L_Sn(DEGREES_N).terms, seq_L_An(DEGREES_N).terms
    return [
        _expect(
            "a363675 prefix",
            (1, 6, 10, 21, 36, 66, 105, 120, 136, 190),
            seq_L_Sn(200).terms,
        ),
        _expect(
            "a363676 prefix",
            (1, 2, 5, 6, 8, 10, 12, 17, 21, 30, 36, 57),
            seq_L_An(60).terms,
        ),
        _expect(
            "a363701 prefix",
            (1, 5, 6, 8, 9, 10, 12, 14, 17, 21, 28, 30),
            seq_zero_columns_sn(30).terms,
        ),
        _expect(
            f"a363675 == n with L(S_n) = n! from the degrees, n <= {DEGREES_N}",
            [],
            [n for n, (l, _) in lcms.items() if (n in s_terms) != (l == factorial(n))],
        ),
        _expect(
            f"a363676 == n with L(A_n) = n!/2 from the degrees, n <= {DEGREES_N}",
            [],
            [
                n for n, (_, l) in lcms.items()
                if (n in a_terms) != (l == max(factorial(n) // 2, 1))
            ],
        ),
    ]


def _suite_sl2_rho(q: int = 5) -> list[dict]:
    from .sl2tables import paper_rho_inverses, sl2_table

    report = paper_rho_inverses(sl2_table(q))
    checks = [{
        "name": f"column assignment q={q}",
        "pass": True,
        "detail": report.column,
        "expected": ["left", "right"],
        "found": report.column,
    }]
    for name, row in report.selected_rows().items():
        if row.verified:
            found = "verified"
        elif row.correction is not None:
            found = "corrected"
        else:
            found = "rejected"
        checks.append({
            "name": f"row {name}", "pass": row.accepted,
            "expected": "accepted", "found": found,
        })
    return checks


def _suite_knutson_small() -> list[dict]:
    from .charring import min_rho_search
    from .knutsonlat import knutson_index_group
    from .sl2tables import psl2_table, sl2_table
    from .symchar import sn_table

    checks = []
    for q, want in ((2, 1), (3, 1), (4, 1), (5, 2), (7, 2), (8, 1)):
        got = knutson_index_group(sl2_table(q))
        checks.append(_expect(f"K(SL2({q}))={want}", want, got))
    for q, want in ((4, 1), (5, 1), (7, 1), (9, 1)):
        got = knutson_index_group(psl2_table(q))
        checks.append(_expect(f"K(PSL2({q}))={want}", want, got))
    for n in range(1, 7):
        got = knutson_index_group(sn_table(n))
        checks.append(_expect(f"K(S{n})=1", 1, got))
    got = min_rho_search(sl2_table(2))
    checks.append(_expect(
        "K'(SL2(2))=1/3", "1/3", None if got is None else str(got[1])
    ))
    return checks


def _suite_cores() -> list[dict]:
    from .numtheory import is_loeschian, quadform_xxyy, sigma3
    from .partitions import count_t_cores, exists_t_core, is_t_core, partitions

    def cores_present(n: int) -> set[int]:
        """The t in ts with a t-core of n, by brute force: one pass over
        partitions(n), asking is_t_core only about the t not yet found."""
        pending = set(ts)
        for lam in partitions(n):
            pending -= {t for t in pending if is_t_core(lam, t)}
            if not pending:
                break
        return set(ts) - pending

    # each check lists the n at which the two computations disagree
    ts = (2, 3, 5, 7, 11, 13)
    return [
        _expect(
            "count_t_cores(n,3) == sigma3(3n+1), n <= 60", [],
            [n for n in range(61) if count_t_cores(n, 3) != sigma3(3 * n + 1)],
        ),
        _expect(
            "exists_t_core fast paths == brute force, n <= 40", [],
            [
                n for n in range(41)
                if {t for t in ts if exists_t_core(n, t)} != cores_present(n)
            ],
        ),
        _expect(
            "quadform theorem, n <= 2000", [],
            [n for n in range(2001) if quadform_xxyy(n) != is_loeschian(3 * n + 1)],
        ),
    ]


# suite name -> its checks, in the order of the parser's choices; only
# sl2-rho takes --q
_SUITES = {
    "orthogonality": _suite_orthogonality,
    "sequences": _suite_sequences,
    "sl2-rho": _suite_sl2_rho,
    "knutson-small": _suite_knutson_small,
    "cores": _suite_cores,
}


def cmd_verify(args) -> int:
    import json

    if args.q is None:
        checks = _SUITES[args.suite]()
    elif args.suite == "sl2-rho":
        checks = _suite_sl2_rho(args.q)
    else:
        raise UsageError(f"--q applies to the sl2-rho suite only, not {args.suite}")
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

    def add_group_args(p, formats):
        p.add_argument("kind", choices=["sn", "an", "sl2", "psl2"])
        p.add_argument("param", type=int)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--no-cache", action="store_true")

    p_table = sub.add_parser("table", help="print a character table")
    add_group_args(p_table, ["text", "json", "csv"])
    p_table.set_defaults(func=cmd_table)

    p_seq = sub.add_parser("seq", help="print an integer sequence")
    p_seq.add_argument("id", choices=list(_SEQ_FUNCS))
    p_seq.add_argument("--limit", type=int, default=None)
    p_seq.add_argument("--bfile", action="store_true")
    p_seq.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_seq.set_defaults(func=cmd_seq)

    p_kn = sub.add_parser("knutson", help="Knutson-index report for a group")
    add_group_args(p_kn, ["text", "json"])
    p_kn.add_argument("--char", default=None, help="single character label")
    p_kn.add_argument("--rho", choices=["regular", "theorem"], default="regular")
    p_kn.set_defaults(func=cmd_knutson)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=list(_SUITES))
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
