"""The table JSON schema: exact values and whole tables, both ways.

Integers are bare JSON integers (and every integer field must be one:
24.0 or true is not), quadratic-irrational combinations are {"mq": [[d,
num, den], ...]} (coefficient of sqrt(d)), cyclotomic values are {"cyc":
{"order": m, "eq": tau^2, "base": [[e, num, den], ...], "tau": [...]}}.
The CLI imports this module only for a command that reads or writes a
table, since its value types load the exact-arithmetic layer.
"""

from __future__ import annotations

from fractions import Fraction

from .algnum import CyclotomicTau, MultiQuadratic
from .chartable import CharacterTable, ConjClass, Irrep


def _triples(coeffs: dict) -> list:
    """[k, num, den] for each k: c of coeffs, in key order."""
    return [[k, c.numerator, c.denominator] for k, c in sorted(coeffs.items())]


def value_to_json(v):
    if type(v) is int:
        return v
    if isinstance(v, MultiQuadratic):
        return {"mq": _triples(v.coeffs)}
    if isinstance(v, CyclotomicTau):
        return {
            "cyc": {
                "order": v.m, "eq": v.tau_sq,
                "base": _triples(v.base), "tau": _triples(v.tau),
            }
        }
    raise TypeError(f"unserializable value {v!r}")


def _exact(*xs) -> None:
    """Raise TypeError unless every x is an exact int, not a float or bool."""
    for x in xs:
        if type(x) is not int:
            raise TypeError(f"{x!r} is not an exact integer")


def _coefficients(triples) -> dict:
    """The inverse of _triples, with num itself for num/1."""
    out = {}
    for k, num, den in triples:
        _exact(k, num, den)
        out[k] = num if den == 1 else Fraction(num, den)
    return out


def value_from_json(obj):
    if type(obj) is int:
        return obj
    if "mq" in obj:
        return MultiQuadratic(_coefficients(obj["mq"]))
    if "cyc" in obj:
        c = obj["cyc"]
        _exact(c["order"], c["eq"])
        return CyclotomicTau(
            c["order"], c["eq"],
            _coefficients(c["base"]), _coefficients(c["tau"]),
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
    _exact(
        obj["order"], obj["identity_index"],
        *(c.size for c in classes), *(ir.degree for ir in irreps),
    )
    return CharacterTable(
        obj["label"], obj["order"], classes, irreps, obj["identity_index"]
    )
