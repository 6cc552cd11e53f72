"""The three integer sequences attached to L(S_n), L(A_n) and zero columns.

The first two are pure number theory: L(S_n) = n! iff n is triangular
and 3n + 1 is Loeschian, and L(A_n) = n!/2 additionally allows n - 2
triangular.  The third -- the n whose S_n table has a zero in every
non-trivial column -- needs the tables, but almost every class is
certified to vanish without scanning its column: if n - s*t has a
t-core sigma and the class has more than s cycles of length t, then the
character of shape (sigma_1 + s*t, sigma_2, ...) vanishes on it (strip
the t-cycles by Murnaghan-Nakayama and land on a shape with no t-hook).
Each certificate is re-verified by evaluating the character, so the
pruning cannot beg the question; classes without a certificate get the
full early-exit column scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError
from .numtheory import is_loeschian, is_triangular
from .partitions import Partition, exists_t_core, find_t_core
from .symchar import CycleType, class_has_zero, cycle_types, mn_value

ZERO_COLUMNS_CAP = 30
# Largest limit for a363675 and a363676: a363676 takes about 1 s at this
# cap and about 20 s at ten times it.
L_SEQUENCES_CAP = 10**5


@dataclass(frozen=True)
class SequenceRecord:
    sequence_id: str
    limit: int
    terms: tuple[int, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.terms, self.terms[1:])):
            raise ValueError("sequence terms must be strictly increasing")
        if self.terms and self.terms[-1] > self.limit:
            raise ValueError("term beyond the requested limit")


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


def vanishing_certificate(
    n: int, ct: CycleType
) -> tuple[Partition, int, int] | None:
    """A character shape certified to vanish on the class, or None.

    Looks for a cycle length t >= 2 with multiplicity m in the class and
    an s < m such that n - s*t has a t-core sigma; then the shape
    (sigma_1 + s*t, sigma_2, ...) has all its t-hooks confined to the
    first row, so stripping the class's t-cycles exhausts them and the
    character vanishes.  The conclusion is re-verified exactly.
    Returns (shape, t, s).
    """
    for t in sorted(set(ct.parts), reverse=True):
        if t < 2:
            continue
        mult = ct.parts.count(t)
        for s in range(mult):
            if not exists_t_core(n - s * t, t):
                continue
            sigma = find_t_core(n - s * t, t)
            shape = (
                ((sigma[0] + s * t,) + sigma[1:]) if sigma else (s * t,)
            )
            if mn_value(shape, ct.parts) != 0:
                raise AssertionError(
                    f"vanishing certificate {shape} fails on {ct.parts}"
                )
            return shape, t, s
    return None


def class_zero_certified(n: int, ct: CycleType) -> bool:
    """Whether some character vanishes on the class: certificate first,
    full early-exit column scan as the fallback."""
    if vanishing_certificate(n, ct) is not None:
        return True
    return class_has_zero(n, ct.parts)


def zero_in_every_column_sn(n: int) -> bool:
    """Whether every non-trivial column of the S_n table has a zero."""
    identity = (1,) * n
    return all(
        class_zero_certified(n, ct)
        for ct in cycle_types(n)
        if ct.parts != identity
    )


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
    terms = tuple(n for n in range(1, limit + 1) if zero_in_every_column_sn(n))
    return SequenceRecord("a363701", limit, terms)

