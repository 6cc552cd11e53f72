"""Output checks that do not use the `knutson` package.

Each check takes a command's stdout (bytes) and returns None when the
output is right, or a one-line reason when it is not; a ValueError
means the output could not be parsed.  The expected
values are fixed constants or recomputed here from first principles, so
a fast wrong answer from the program counts as a failed command.
"""

from __future__ import annotations

import json
from math import factorial, gcd

# Acceptance criteria 1-3 of the package: each sequence's terms up to a limit.
SEQUENCE_PREFIXES = {
    "a363675": (200, [1, 6, 10, 21, 36, 66, 105, 120, 136, 190]),
    "a363676": (60, [1, 2, 5, 6, 8, 10, 12, 17, 21, 30, 36, 57]),
    "a363701": (30, [1, 5, 6, 8, 9, 10, 12, 14, 17, 21, 28, 30]),
}


def group_order(kind: str, param: int) -> int:
    if kind == "sn":
        return factorial(param)
    if kind == "an":
        return factorial(param) // 2
    sl2 = param * (param * param - 1)
    return sl2 if kind == "sl2" else sl2 // gcd(2, param - 1)


def sigma3(m: int) -> int:
    """Sum over the divisors d of m of the Legendre symbol (d/3)."""
    symbol = (0, 1, -1)
    return sum(symbol[d % 3] for d in range(1, m + 1) if m % d == 0)


def t_core_count(n: int, t: int) -> int:
    """Coefficient of q^n in prod_k (1 - q^(tk))^t / (1 - q^k)."""
    poly = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            poly[i] += poly[i - k]
    for k in range(t, n + 1, t):
        for _ in range(t):
            for i in range(n, k - 1, -1):
                poly[i] -= poly[i - k]
    return poly[n]


def is_t_core_of(parts, n: int, t: int) -> bool:
    """A partition of n none of whose hook lengths is a multiple of t."""
    if not parts or any(not isinstance(p, int) or p < 1 for p in parts):
        return False
    if sum(parts) != n or any(a < b for a, b in zip(parts, parts[1:])):
        return False
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    return all(
        ((p - j - 1) + (conj[j] - i - 1) + 1) % t
        for i, p in enumerate(parts)
        for j in range(p)
    )


def check_index(label: str, want: int, rho_column: str | None = None):
    """`knutson <kind> <param> --format json`: the group's Knutson index."""

    def check(out: bytes) -> str | None:
        report = json.loads(out)
        if not isinstance(report, dict):
            return "output is not a JSON object"
        if report.get("group") != label:
            return f"group {report.get('group')!r}, want {label!r}"
        if report.get("knutson_index") != want:
            return f"K({label}) = {report.get('knutson_index')!r}, want {want}"
        if rho_column is not None:
            if report.get("rho_pm_obstruction") is not True:
                return "rho_pm_obstruction is not true"
            column = (report.get("rho_inverse_table") or {}).get("column")
            if column != rho_column:
                return f"rho-inverse column {column!r}, want {rho_column!r}"
        return None

    return check


def check_sequence(seq_id: str, limit: int):
    known, terms = SEQUENCE_PREFIXES[seq_id]
    if limit > known:
        raise ValueError(f"{seq_id} terms are known only up to {known}")
    want = [t for t in terms if t <= limit]

    def check(out: bytes) -> str | None:
        got = [int(line) for line in out.decode().split()]
        return None if got == want else f"{seq_id} terms {got}, want {want}"

    return check


def check_cores(n: int, t: int):
    """`cores --format json`: count from the generating function, a valid
    first core, and for t = 3 the count sigma3(3n + 1)."""
    count = t_core_count(n, t)
    if t == 3 and count != sigma3(3 * n + 1):
        raise AssertionError("3-core generating function disagrees with sigma3")

    def check(out: bytes) -> str | None:
        got = json.loads(out)
        if not isinstance(got, dict):
            return "output is not a JSON object"
        if (got.get("n"), got.get("t")) != (n, t):
            return f"echoed n, t = {got.get('n')}, {got.get('t')}"
        if got.get("count") != count:
            return f"{t}-cores of {n}: count {got.get('count')!r}, want {count}"
        if got.get("exists") is not (count > 0):
            return f"exists {got.get('exists')!r} with count {count}"
        core = got.get("first_core")
        if count and not is_t_core_of(core, n, t):
            return f"first_core {core!r} is not a {t}-core of {n}"
        return None

    return check


def check_table_csv(kind: str, param: int):
    """`table --format csv`: a square table whose class sizes and squared
    degrees both sum to the group order."""
    order = group_order(kind, param)

    def check(out: bytes) -> str | None:
        lines = out.decode().rstrip("\n").split("\n")
        if len(lines) < 3 or not lines[1].startswith("size,"):
            return "not a character-table CSV"
        sizes = [int(s) for s in lines[1].split(",")[1:]]
        k = len(sizes)
        rows = [line.rsplit(",", k)[1:] for line in lines[2:]]
        if len(rows) != k or any(len(r) != k for r in rows):
            return f"table is not {k} x {k}"
        if sum(sizes) != order:
            return f"class sizes sum to {sum(sizes)}, want {order}"
        identity = next(
            (
                j for j in range(k)
                if sizes[j] == 1 and all(r[j].isdigit() and r[j] != "0" for r in rows)
            ),
            None,
        )
        if identity is None:
            return "no identity column"
        squares = sum(int(r[identity]) ** 2 for r in rows)
        if squares != order:
            return f"squared degrees sum to {squares}, want {order}"
        return None

    return check
