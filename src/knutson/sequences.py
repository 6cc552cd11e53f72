"""The three integer sequences attached to L(S_n), L(A_n) and zero columns.

The first two are pure number theory: L(S_n) = n! iff n is triangular
and 3n + 1 is Loeschian, and L(A_n) = n!/2 additionally allows n - 2
triangular.  The third -- the n whose S_n table has a zero in every
non-trivial column -- needs the tables, but almost every class is
certified to vanish without scanning its column.  If n - s*t has a
t-core sigma, the shape (sigma_1 + s*t, sigma_2, ...) has t-weight s:
the Murnaghan-Nakayama rule, stripping the t-cycles first, ends after
s of them, so its character vanishes on every class with more than s
cycles of length t.  Each certificate is verified once per (n, t, s)
-- the shape is a partition of n of t-weight s, which holds exactly
when sigma is a t-core -- so the pruning cannot beg the question.  Every t >= 4 has a t-core of n (Granville-Ono 1996), so
(n, t, 0) certifies every class with a part t >= 4 without enumerating
them; only the classes with parts at most 3 are walked.  Those without
a certificate are decided by one sweep that shares their columns'
prefixes across n (symchar.zero_in_small_part_columns), which
certifies the odd ones by a self-conjugate shape instead of sweeping.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .errors import CapExceededError
from .numtheory import is_loeschian, is_triangular
from .partitions import Partition, exists_t_core, find_t_core, partitions, t_weight

ZERO_COLUMNS_CAP = 30
# Largest limit for a363675 and a363676: a363676 takes about 1 s at this
# cap and about 20 s at ten times it.
L_SEQUENCES_CAP = 10**5


class SequenceRecord(namedtuple("SequenceRecord", "sequence_id limit terms")):
    """The terms <= limit of one sequence, strictly increasing (checked).

    A named tuple rather than a dataclass: the a363675 and a363676
    commands import neither dataclasses nor the table layers.
    """

    __slots__ = ()

    def __new__(cls, sequence_id: str, limit: int, terms: tuple[int, ...]):
        if any(a >= b for a, b in zip(terms, terms[1:])):
            raise ValueError("sequence terms must be strictly increasing")
        if terms and terms[-1] > limit:
            raise ValueError("term beyond the requested limit")
        return super().__new__(cls, sequence_id, limit, terms)


def _check_L_limit(name: str, limit: int) -> None:
    if limit < 1:
        raise ValueError("limit must be positive")
    if limit > L_SEQUENCES_CAP:
        raise CapExceededError(f"{name}({limit}) exceeds cap {L_SEQUENCES_CAP}")


def seq_L_Sn(limit: int) -> SequenceRecord:
    """n <= limit with L(S_n) = n!: triangular n with 3n + 1 Loeschian.

    Raises CapExceededError past L_SEQUENCES_CAP.
    """
    _check_L_limit("seq_L_Sn", limit)
    terms = tuple(
        n for n in range(1, limit + 1)
        if is_triangular(n) and is_loeschian(3 * n + 1)
    )
    return SequenceRecord("a363675", limit, terms)


def seq_L_An(limit: int) -> SequenceRecord:
    """n <= limit with L(A_n) = n!/2: 3n + 1 Loeschian and n or n - 2
    triangular.  Contains the L(S_n) = n! sequence (asserted).  Raises
    CapExceededError past L_SEQUENCES_CAP."""
    _check_L_limit("seq_L_An", limit)
    terms = tuple(
        n for n in range(1, limit + 1)
        if is_loeschian(3 * n + 1)
        and (is_triangular(n) or (n >= 2 and is_triangular(n - 2)))
    )
    missing = set(seq_L_Sn(limit).terms) - set(terms)
    if missing:
        raise AssertionError(f"containment of the S_n sequence fails: {missing}")
    return SequenceRecord("a363676", limit, terms)


@cache
def _certificate(n: int, t: int, s: int) -> Partition:
    """sigma = find_t_core(n - s*t, t) with s*t added to its first row,
    checked to vanish on every class of n with more than s t-cycles: it
    must be a partition of n of t-weight s.  Adding s*t to the first row
    adds s to the t-weight, so this holds exactly when sigma is a t-core
    of n - s*t."""
    sigma = find_t_core(n - s * t, t)
    if sigma is None:
        raise AssertionError(f"no {t}-core of {n - s * t}")
    shape = ((sigma[0] + s * t,) + sigma[1:]) if sigma else (s * t,)
    if sum(shape) != n or t_weight(shape, t) != s:
        raise AssertionError(
            f"vanishing certificate {shape} fails for n = {n}, t = {t}, s = {s}"
        )
    return shape


def vanishing_certificate(
    n: int, ct: CycleType
) -> tuple[Partition, int, int] | None:
    """A character shape certified to vanish on the class, or None.

    Looks for a cycle length t >= 2 with multiplicity m in the class and
    an s < m such that n - s*t has a t-core sigma; then the shape
    (sigma_1 + s*t, sigma_2, ...) has t-weight s, so stripping the
    class's t-cycles exhausts its t-hooks and the character vanishes.
    The shape is built and checked once per (n, t, s) by _certificate.
    Returns (shape, t, s).
    """
    for t in sorted(set(ct.parts), reverse=True):
        if t < 2:
            continue
        mult = ct.parts.count(t)
        for s in range(mult):
            if exists_t_core(n - s * t, t):
                return _certificate(n, t, s), t, s
    return None


def seq_zero_columns_sn(limit: int) -> SequenceRecord:
    """n <= limit such that S_n has a zero in every non-trivial column.

    Raises CapExceededError past ZERO_COLUMNS_CAP.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    if limit > ZERO_COLUMNS_CAP:
        raise CapExceededError(
            f"seq_zero_columns_sn({limit}) exceeds cap {ZERO_COLUMNS_CAP}"
        )
    # imported here, so that only a363701 loads the table layers
    from .symchar import CycleType, zero_in_small_part_columns

    # (n, t, 0) certifies every class of n with a part t >= 4
    for t in range(4, limit + 1):
        for n in range(t, limit + 1):
            _certificate(n, t, 0)
    uncertified = {
        n: [
            mu for mu in partitions(n, 3)
            if mu != (1,) * n
            and vanishing_certificate(n, CycleType(mu)) is None
        ]
        for n in range(1, limit + 1)
    }
    terms = tuple(sorted(zero_in_small_part_columns(uncertified)))
    return SequenceRecord("a363701", limit, terms)
