"""Character tables: classes with sizes, irreducible rows, exact checks.

A table is immutable once built.  Values are ints, Fractions,
MultiQuadratic or CyclotomicTau; all checks run in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any, Sequence

from .algnum import conj_value, rational_value, value_is_zero
from .errors import TableError


@dataclass(frozen=True)
class ConjClass:
    label: str
    size: int
    data: Any = None  # e.g. the cycle type for S_n / A_n classes


@dataclass(frozen=True)
class Irrep:
    label: str
    degree: int
    values: tuple  # aligned with the table's classes


@dataclass
class CharacterTable:
    label: str
    order: int
    classes: tuple[ConjClass, ...]
    irreps: tuple[Irrep, ...]
    identity_index: int = 0
    _fusion_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _residue_rows: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.classes = tuple(self.classes)
        self.irreps = tuple(self.irreps)
        self.validate_basic()

    # -- structure ---------------------------------------------------------

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(ir.degree for ir in self.irreps)

    def irrep_index(self, label: str) -> int:
        for i, ir in enumerate(self.irreps):
            if ir.label == label:
                return i
        raise KeyError(label)

    def value(self, irrep: int, cls: int):
        return self.irreps[irrep].values[cls]

    def degree_lcm(self) -> int:
        return lcm(*self.degrees)

    # -- exact consistency checks -----------------------------------------

    def validate_basic(self) -> None:
        if sum(c.size for c in self.classes) != self.order:
            raise TableError(f"{self.label}: class sizes do not sum to group order")
        if sum(d * d for d in self.degrees) != self.order:
            raise TableError(f"{self.label}: degree squares do not sum to group order")
        if len(self.classes) != len(self.irreps):
            raise TableError(f"{self.label}: class/irrep count mismatch")
        for ir in self.irreps:
            if len(ir.values) != len(self.classes):
                raise TableError(f"{self.label}: ragged value row {ir.label}")
            idv = ir.values[self.identity_index]
            if rational_value(idv) != ir.degree:
                raise TableError(
                    f"{self.label}: identity value of {ir.label} is not its degree"
                )

    def inner_product_rows(self, xvals: Sequence, yvals: Sequence) -> Fraction:
        """(1/|G|) sum over classes of size * x * conj(y), exact."""
        total = 0
        for cls, x, y in zip(self.classes, xvals, yvals):
            total = total + cls.size * (x * conj_value(y))
        return rational_value(total) / self.order

    def check_orthogonality(self) -> None:
        """Exact row and column orthogonality; raises TableError on failure."""
        n = len(self.irreps)
        for i in range(n):
            for j in range(i, n):
                got = self.inner_product_rows(self.irreps[i].values, self.irreps[j].values)
                if got != (1 if i == j else 0):
                    raise TableError(
                        f"{self.label}: <{self.irreps[i].label},"
                        f"{self.irreps[j].label}> = {got}"
                    )
        for k in range(n):
            for l in range(k, n):
                total = 0
                for ir in self.irreps:
                    total = total + ir.values[k] * conj_value(ir.values[l])
                got = rational_value(total)
                want = Fraction(self.order, self.classes[k].size) if k == l else 0
                if got != want:
                    raise TableError(
                        f"{self.label}: column orthogonality fails at "
                        f"({self.classes[k].label}, {self.classes[l].label}): {got}"
                    )


def zero_in_every_nontrivial_column(table: CharacterTable) -> bool:
    """Whether each non-identity class has some vanishing irreducible.

    A table with no non-trivial columns (trivial group) counts as True.
    """
    for k in range(len(table.classes)):
        if k == table.identity_index:
            continue
        if not any(value_is_zero(ir.values[k]) for ir in table.irreps):
            return False
    return True
