"""Character tables: classes with sizes, irreducible rows, exact checks.

A table is immutable once built.  Values are ints, Fractions,
MultiQuadratic or CyclotomicTau; all checks run in exact arithmetic.
check_orthogonality checks the row relations only: on a square table
they imply the column relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any, Sequence

from .algnum import rational_value
from .errors import TableError


@dataclass(frozen=True)
class ConjClass:
    label: str
    size: int
    # e.g. the cycle type for S_n / A_n classes; the table cache does
    # not store it, so it takes no part in comparing tables
    data: Any = field(default=None, compare=False)


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
    # knutsonlat's index state (knutsonlat._index), None until the first
    # index or zero-column check
    _index: tuple | None = field(default=None, repr=False, compare=False)
    # set by the first check_orthogonality that passes
    _orthogonal: bool = field(default=False, repr=False, compare=False)

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
            if ir.values[self.identity_index] != ir.degree:
                raise TableError(
                    f"{self.label}: identity value of {ir.label} is not its degree"
                )

    def inner_product_rows(self, xvals: Sequence, yvals: Sequence) -> Fraction:
        """(1/|G|) sum over classes of size * x * conj(y), exact.

        Raises TableError when the sum is irrational, which no two
        virtual characters of a correct table give.
        """
        total = 0
        for cls, x, y in zip(self.classes, xvals, yvals):
            total = total + cls.size * (x * y.conjugate())
        try:
            return rational_value(total) / self.order
        except ValueError:
            raise TableError(
                f"{self.label}: irrational inner product ({total})/{self.order}"
            ) from None

    def check_orthogonality(self) -> None:
        """Exact row orthogonality; raises TableError on failure.

        A pass is recorded on the table, so a second call returns at
        once: a table's rows are not changed after it is built.

        The column relations follow and are not checked separately
        (second orthogonality from the first, Isaacs, Character Theory
        of Finite Groups, Thm 2.18).  validate_basic makes the table X
        square; write D for diag(|C_k| / |G|).  The row relations say
        X D X* = I, so det X is a unit, X^-1 = D X*, and X* X = D^-1,
        which are the column relations.  The argument holds over any
        commutative ring containing Q with conj a ring involution: ints,
        MultiQuadratic and CyclotomicTau's formal Q(zeta_m)[tau] alike.
        """
        if self._orthogonal:
            return
        n = len(self.irreps)
        for i in range(n):
            for j in range(i, n):
                x, y = self.irreps[i], self.irreps[j]
                try:
                    got = self.inner_product_rows(x.values, y.values)
                except TableError as exc:
                    raise TableError(f"{exc} at <{x.label},{y.label}>") from None
                if got != (1 if i == j else 0):
                    raise TableError(f"{self.label}: <{x.label},{y.label}> = {got}")
        self._orthogonal = True

