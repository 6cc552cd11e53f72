"""The representation ring over a character table.

Fusion matrices follow Dixon's modular method (J. D. Dixon, "High speed
computation of group characters", Numer. Math. 10, 1967).  A fusion
coefficient N = <chi_a chi_c, chi_b> is a non-negative integer with
N * chi_b(1) <= chi_a(1) * chi_c(1), so it is read off exactly from its
image under one ring homomorphism phi from the table's values into F_p
(algnum.ResidueField), for a prime p above that bound and above |G|.
Each table's values are mapped once; every fusion matrix is then plain
integer dot products mod p, cached on the table.  They serve the rho
machinery, here in the top layer: is_rho_invertible solves
chi (x) lambda = rho against chi's fusion matrix, and min_rho_search
and sl2tables call it.  Knutson indices are read from zero sets in
knutsonlat, below, instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .algnum import ResidueField
from .chartable import CharacterTable
from .errors import CapExceededError
from .knutsonlat import solve_integer

# Largest group order min_rho_search accepts.  Every table of order <= 60
# finishes in under 0.1 s; SL2(5), of order 120, ran past 18 s.
RHO_SEARCH_MAX_ORDER = 60


@dataclass(frozen=True)
class VirtualCharacter:
    """Integer multiplicity vector over a table's irreducibles.

    Hashed by its multiplicities alone (a table is mutable, so
    unhashable); equality still compares the tables too.
    """

    table: CharacterTable = field(hash=False)
    mults: tuple[int, ...]

    def __post_init__(self):
        if len(self.mults) != len(self.table.irreps):
            raise ValueError("multiplicity vector length mismatch")

    @property
    def degree(self) -> int:
        return sum(m * d for m, d in zip(self.mults, self.table.degrees))

    def values(self) -> tuple:
        """Exact values on the table's classes, in class order."""
        total = [0] * len(self.table.classes)
        for m, ir in zip(self.mults, self.table.irreps):
            if m:
                total = [t + m * v for t, v in zip(total, ir.values)]
        return tuple(total)

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        if other.table is not self.table:
            raise ValueError("mixed tables")
        return VirtualCharacter(
            self.table, tuple(a + b for a, b in zip(self.mults, other.mults))
        )


def _residue_rows(table: CharacterTable) -> tuple[int, list, list]:
    """(p, phi(chi_b(k)), phi(|C_k| conj(chi_b(k)) / |G|)), once per table."""
    if table._residue_rows is None:
        degrees = table.degrees
        field = ResidueField.for_values(
            (v for ir in table.irreps for v in ir.values),
            max(table.order, max(degrees) ** 2),
        )
        p = field.p
        inv_order = pow(table.order, -1, p)
        scale = [cls.size * inv_order % p for cls in table.classes]
        rows = [[field(v) for v in ir.values] for ir in table.irreps]
        weighted = [
            [s * field(v.conjugate()) % p for s, v in zip(scale, ir.values)]
            for ir in table.irreps
        ]
        table._residue_rows = (p, rows, weighted)
    return table._residue_rows


def fusion_matrix(table: CharacterTable, a: int) -> list[list[int]]:
    """M with M[b][c] = multiplicity of chi_b in chi_a * chi_c, cached.

    M[b][c] is computed as the residue of the inner product
    (1/|G|) sum_k |C_k| chi_a(k) chi_c(k) conj(chi_b(k)) under phi.  The
    exact inner product is a rational whose denominator is a product of
    |G| and value denominators, all below the prime p, and phi fixes
    rationals with denominators prime to p; so the residue is the exact
    value mod p.  That value is the integer N, and 0 <= N < p because
    N * chi_b(1) <= chi_a(1) * chi_c(1) < p, so the residue is N itself.
    Every column is checked: each entry must satisfy that range bound,
    and sum_b N_b chi_b(1) must equal chi_a(1) chi_c(1); a table whose
    values break either raises AssertionError.
    """
    cached = table._fusion_cache.get(a)
    if cached is not None:
        return cached
    p, rows, weighted = _residue_rows(table)
    row_a = rows[a]
    left = [[x * w % p for x, w in zip(row_a, wb)] for wb in weighted]
    matrix = [[sum(map(mul, lb, rc)) % p for rc in rows] for lb in left]
    degrees = table.degrees
    for c, dc in enumerate(degrees):
        want = degrees[a] * dc
        total = 0
        for b, db in enumerate(degrees):
            n = matrix[b][c] * db
            if n > want:
                raise AssertionError(
                    f"multiplicity of {table.irreps[b].label} in "
                    f"{table.irreps[a].label} * {table.irreps[c].label} out of "
                    f"range: residue {matrix[b][c]} mod {p}"
                )
            total += n
        if total != want:
            raise AssertionError(
                f"tensor decomposition degree identity fails for "
                f"{table.irreps[a].label} * {table.irreps[c].label}: "
                f"{total} != {want}"
            )
    table._fusion_cache[a] = matrix
    return matrix


def is_rho_invertible(
    table: CharacterTable, chi: int, rho: VirtualCharacter
) -> VirtualCharacter | None:
    """A virtual lambda with chi (x) lambda = rho, or None.

    The witness is re-verified by evaluation on every class.
    """
    x = solve_integer(fusion_matrix(table, chi), list(rho.mults))
    if x is None:
        return None
    lam = VirtualCharacter(table, tuple(x))
    got = tuple(c * v for c, v in zip(table.irreps[chi].values, lam.values()))
    if got != rho.values():
        raise AssertionError("rho-inverse witness fails evaluation")
    return lam


def min_rho_search(table: CharacterTable) -> tuple[VirtualCharacter, Fraction] | None:
    """Minimal-degree nonnegative rho making every irreducible invertible.

    The degree runs over multiples of L(G) (each chi(1) must divide
    deg rho) up to |G|; candidates are enumerated lexicographically
    on multiplicities and pruned by the zero constraint: rho must vanish
    on any class where some irreducible vanishes.  Feasible only for
    very small groups: tables of order above RHO_SEARCH_MAX_ORDER raise
    CapExceededError.
    """
    if table.order > RHO_SEARCH_MAX_ORDER:
        raise CapExceededError(
            f"min_rho_search({table.label}): order {table.order} exceeds "
            f"cap {RHO_SEARCH_MAX_ORDER}"
        )
    step = table.degree_lcm()
    degrees = table.degrees
    nirr = len(degrees)
    zero_classes = [
        k
        for k in range(len(table.classes))
        if k != table.identity_index
        and not all(ir.values[k] for ir in table.irreps)
    ]

    def candidates(i: int, remaining: int, acc: list[int]):
        if i == nirr - 1:
            q, r = divmod(remaining, degrees[i])
            if r == 0:
                yield tuple(acc + [q])
            return
        for c in range(remaining // degrees[i] + 1):
            yield from candidates(i + 1, remaining - c * degrees[i], acc + [c])

    for total in range(step, table.order + 1, step):
        for mults in candidates(0, total, []):
            rho = VirtualCharacter(table, mults)
            values = rho.values()
            if any(values[k] for k in zero_classes):
                continue
            if all(
                is_rho_invertible(table, i, rho) is not None
                for i in range(nirr)
            ):
                return rho, Fraction(total, table.order)
    return None
