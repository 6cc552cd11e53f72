"""The three integer sequences attached to L(S_n), L(A_n) and zero columns.

The first two are pure number theory: L(S_n) = n! iff n is triangular
and 3n + 1 is Loeschian, and L(A_n) = n!/2 additionally allows n - 2
triangular.  The third -- the n whose S_n table has a zero in every
non-trivial column -- is decided from partitions alone, with no table:
almost every class is certified to vanish without scanning its column.
If n - s*t has a t-core sigma, the shape (sigma_1 + s*t, sigma_2, ...)
has t-weight s: the Murnaghan-Nakayama rule, stripping the t-cycles
first, ends after s of them, so its character vanishes on every class
with more than s cycles of length t.  Each certificate is verified once
per (n, t, s) -- the shape is a partition of n of t-weight s, which
holds exactly when sigma is a t-core -- so the pruning cannot beg the
question.  Every t >= 4 has a t-core of n (Granville-Ono 1996), so
(n, t, 0) certifies every class with a part t >= 4 without enumerating
them; only the classes with parts at most 3 are walked.  Those without
a certificate are decided by one sweep on the bead abacus that shares
their columns' prefixes across n (zero_in_small_part_columns), which
certifies the odd ones by a self-conjugate shape instead of sweeping.
An n that has a class with parts at most 3 and no zero is not a term,
whatever its other classes, so (n, t, 0) is built for the terms alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .errors import CapExceededError
from .numtheory import is_loeschian, is_triangular
from .partitions import (
    Partition,
    _add_hooks,
    _shape_mask,
    conjugate,
    exists_t_core,
    find_t_core,
    partition_counts,
    partitions,
    t_weight,
)

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


def vanishing_certificate(parts: Partition) -> tuple[Partition, int, int] | None:
    """A shape certified to vanish on the class of cycle type parts, or None.

    Looks for a cycle length t >= 2 with multiplicity m in the class and
    an s < m such that n - s*t has a t-core sigma; then the shape
    (sigma_1 + s*t, sigma_2, ...) has t-weight s, so stripping the
    class's t-cycles exhausts its t-hooks and the character vanishes.
    The shape is built and checked once per (n, t, s) by _certificate.
    Returns (shape, t, s).
    """
    n = sum(parts)
    for t in sorted({t for t in parts if t > 1}, reverse=True):
        for s in range(parts.count(t)):
            if exists_t_core(n - s * t, t):
                return _certificate(n, t, s), t, s
    return None


def _self_conjugate_shape(n: int) -> Partition:
    """A shape of n equal to its conjugate, for n != 2: the one with
    principal hooks (n) for odd n, (n - 1, 1) for even n."""
    k = n // 2
    if n % 2:
        return (k + 1,) + (1,) * k
    return (k, 2) + (1,) * (k - 2)


@cache
def self_conjugate_certificate(n: int) -> Partition:
    """_self_conjugate_shape(n), checked to be a partition of n equal to
    its conjugate.  chi_lam' = sgn * chi_lam, so its character vanishes
    on every odd class of S_n."""
    lam = _self_conjugate_shape(n)
    if sum(lam) != n or conjugate(lam) != lam:
        raise AssertionError(f"self-conjugate certificate {lam} fails for n = {n}")
    return lam


def zero_in_small_part_columns(groups: dict) -> set:
    """The keys of groups (key -> list of classes) whose classes all
    have a zero in their column.

    Every class is (3^a 2^b 1^c), a class of S_n for n = 3a + 2b + c.
    An odd class (b odd) of n != 2 has a zero, on the character of
    self_conjugate_certificate(n).  The others are swept from the empty
    shape, parts smallest first, as in symchar._sweep: _add_hooks drops
    zero sums, so a class has a zero exactly when its column holds fewer
    than p(n) shapes.  They are swept on one bead count, the largest n,
    in the order of (c, b, a): the column of 1^c grows by one 1-hook at a
    time, the column of 1^c 2^b grows from it by one 2-hook at a time,
    and a class adds its a 3-hooks to the latter.  So classes of every n
    share the sweep of their 1s and 2s, and at most three columns are
    held.  A key is dropped at its first class without a zero; its other
    classes are not swept.
    """
    todo = []
    for key, mus in groups.items():
        for mu in mus:
            n = sum(mu)
            c, b, a = mu.count(1), mu.count(2), mu.count(3)
            if c + 2 * b + 3 * a != n:
                raise ValueError(f"class {mu} has a part above 3")
            if b % 2 and n != 2:
                self_conjugate_certificate(n)  # vanishes on this class
                continue
            todo.append(((c, b, a), key))
    todo.sort(key=lambda item: item[0])
    beads = max((c + 2 * b + 3 * a for (c, b, a), _key in todo), default=0)
    counts = partition_counts(beads)
    ones = twos = {_shape_mask((), beads): 1}  # the columns of 1^c0, 1^c0 2^b0
    c0 = b0 = 0
    failed = set()
    for (c, b, a), key in todo:
        if key in failed:
            continue
        if c > c0:
            for _ in range(c - c0):
                ones = _add_hooks(ones, 1)
            twos, c0, b0 = ones, c, 0
        for _ in range(b - b0):
            twos = _add_hooks(twos, 2)
        b0 = b
        column = twos
        for _ in range(a):
            column = _add_hooks(column, 3)
        if len(column) == counts[c + 2 * b + 3 * a]:
            failed.add(key)
    return set(groups) - failed


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
    uncertified = {
        n: [
            mu for mu in partitions(n, 3)
            if mu != (1,) * n and vanishing_certificate(mu) is None
        ]
        for n in range(1, limit + 1)
    }
    terms = tuple(sorted(zero_in_small_part_columns(uncertified)))
    # (n, t, 0) certifies every class of n with a part t >= 4; an n left
    # out already has a class with parts at most 3 and no zero
    for n in terms:
        for t in range(4, n + 1):
            _certificate(n, t, 0)
    return SequenceRecord("a363701", limit, terms)
