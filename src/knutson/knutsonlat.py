"""Integer lattices and Knutson indices.

One engine serves every lattice question: the Hermite normal form over
Z of the lattice spanned by a matrix's columns, with the transform
tracked.  Solving a vector against that echelon basis over Q gives the
least n with n*v in the lattice -- the per-character Knutson index when
M is chi's fusion matrix and v = rho_reg -- and an integer solution of
M*x = b when n is 1.  Everything is arbitrary precision; every witness
is re-verified before it is used.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algnum import value_is_zero
from .chartable import CharacterTable, zero_in_every_nontrivial_column
from .charring import VirtualCharacter, evaluate, fusion_matrix
from .sl2tables import (
    Sl2Param,
    center_fixed_indices,
    sl2_table,
)

Matrix = list[list[int]]


def _mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(r[k] * v[k] for k in range(len(v))) for r in a]


def _sub_multiple(g: list[int], h: list[int], q: int, start: int) -> None:
    """g -= q*h in place, for entries from start on (h is zero before)."""
    if q:
        g[start:] = [a - q * b for a, b in zip(g[start:], h[start:])]


def hermite_basis(m: Matrix) -> list[tuple[int, list[int], list[int]]]:
    """Hermite normal form of the lattice spanned by the columns of M.

    Each column of M is a generator; a row echelon over Z runs Euclid's
    algorithm on one coordinate at a time and then reduces the entries
    of the earlier basis vectors at the new pivot.  Returns one
    (p, h, t) per basis vector, in echelon order: h is zero before its
    pivot coordinate p, h[p] > 0, every earlier basis vector's entry at
    p lies in [0, h[p]), and h = M*t with t integral.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    # generator j: column j of M followed by the unit vector e_j, so the
    # tail of every row is its transform
    gens = [
        [m[i][j] for i in range(rows)] + [int(k == j) for k in range(cols)]
        for j in range(cols)
    ]
    basis: list[tuple[int, list[int]]] = []
    for p in range(rows):
        active = [g for g in gens if g[p]]
        if not active:
            continue
        while len(active) > 1:
            pivot = min(active, key=lambda g: abs(g[p]))
            for g in active:
                if g is not pivot:
                    _sub_multiple(g, pivot, g[p] // pivot[p], p)
            active = [g for g in active if g[p]]
        pivot = active[0]
        if pivot[p] < 0:
            pivot[p:] = [-a for a in pivot[p:]]
        for _, b in basis:
            _sub_multiple(b, pivot, b[p] // pivot[p], p)
        basis.append((p, pivot))
        gens = [g for g in gens if g is not pivot]
    return [(p, g[:rows], g[rows:]) for p, g in basis]


def _lattice_solve(m: Matrix, v: list[int]) -> tuple[int, list[int]] | None:
    """(n, x) with n >= 1 least such that M*x = n*v has an integer x.

    None when v is not in the rational span of M's columns.  v is
    written in the Hermite basis one pivot at a time, v = sum y_i h_i
    over Q; the basis is a Z-basis of the column lattice, so n is the
    lcm of the denominators of the y_i and x = sum (n*y_i) t_i.
    """
    basis = hermite_basis(m)
    n, w, z = 1, list(v), []  # w = n*(v - sum of the y_i*h_i so far)
    for p, h, _ in basis:
        s = h[p] // gcd(w[p], h[p])
        if s != 1:
            n *= s
            w = [s * a for a in w]
            z = [s * a for a in z]
        q = w[p] // h[p]
        z.append(q)
        if q:
            w = [a - q * b for a, b in zip(w, h)]
    if any(w):
        return None
    cols = len(m[0]) if m else 0
    x = [sum(q * t[j] for q, (_, _, t) in zip(z, basis)) for j in range(cols)]
    return n, x


def solve_integer(m: Matrix, b: list[int]) -> list[int] | None:
    """An integer x with M*x = b, or None; witnesses are re-verified."""
    solved = _lattice_solve(m, b)
    if solved is None or solved[0] != 1:
        return None
    x = solved[1]
    if _mat_vec(m, x) != list(b):
        raise AssertionError("integer solve verification failed")
    return x


def min_multiplier(m: Matrix, v: list[int]) -> int | None:
    """Least n >= 1 with n*v in the integer column span of M, or None.

    The integer witness x with M*x = n*v is re-verified.
    """
    solved = _lattice_solve(m, v)
    if solved is None:
        return None
    n, x = solved
    if _mat_vec(m, x) != [n * a for a in v]:
        raise AssertionError("min_multiplier witness fails M*x = n*v")
    return n


# ---------------------------------------------------------------------------
# Knutson indices

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
    chi_vals = table.irreps[chi].values
    for k in range(len(table.classes)):
        if not value_is_zero(chi_vals[k] * evaluate(lam, k) - evaluate(rho, k)):
            raise AssertionError("rho-inverse witness fails evaluation")
    return lam


def knutson_index_char(table: CharacterTable, chi: int) -> int:
    """Least n such that chi is n*rho_reg-invertible."""
    n = min_multiplier(fusion_matrix(table, chi), list(table.degrees))
    if n is None:
        raise AssertionError("no multiple of rho_reg is attainable")
    if table.irreps[chi].degree % n:
        # chi (x) rho_reg = chi(1) rho_reg, so the index divides chi(1)
        raise AssertionError("Knutson index does not divide the degree")
    return n


def knutson_index_group(table: CharacterTable) -> int:
    return lcm(*(knutson_index_char(table, i) for i in range(len(table.irreps))))


def generalized_lower_bound(table: CharacterTable) -> Fraction:
    """L(G) / |G|, a lower bound for the generalised index."""
    return Fraction(table.degree_lcm(), table.order)


def zero_column_criterion(table: CharacterTable) -> int | None:
    """K' = K certified when every non-trivial column has a zero.

    Returns the common value K, or None when the criterion does not
    apply.
    """
    if not zero_in_every_nontrivial_column(table):
        return None
    return knutson_index_group(table)


def min_rho_search(table: CharacterTable) -> tuple[VirtualCharacter, Fraction] | None:
    """Minimal-degree nonnegative rho making every irreducible invertible.

    The degree runs over multiples of L(G) (each chi(1) must divide
    deg rho) up to |G|; candidates are enumerated lexicographically
    on multiplicities and pruned by the zero constraint: rho must vanish
    on any class where some irreducible vanishes.  Feasible only for
    very small groups.
    """
    step = table.degree_lcm()
    degrees = table.degrees
    nirr = len(degrees)
    zero_classes = [
        k
        for k in range(len(table.classes))
        if k != table.identity_index
        and any(value_is_zero(ir.values[k]) for ir in table.irreps)
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
            if not all(
                value_is_zero(evaluate(rho, k)) for k in zero_classes
            ):
                continue
            if all(
                is_rho_invertible(table, i, rho) is not None
                for i in range(nirr)
            ):
                return rho, Fraction(total, table.order)
    return None


def verify_rho_pm_obstruction(q: int) -> bool:
    """Confirm the rho+/- obstruction certifying K'(SL2(q)) = 1, odd q >= 5.

    rho+ and rho- are the only degree-|G|/2 characters vanishing off the
    center; for each of them, at least one member of the designated pair
    (degree q-1 for q = 1 mod 4, degree q+1 otherwise) must fail to be
    invertible -- otherwise the pair would manufacture a regular inverse.
    """
    par = Sl2Param.from_q(q)
    if par.is_even or q < 5:
        raise ValueError("the obstruction concerns odd q >= 5")
    table = sl2_table(q)
    fixed = set(center_fixed_indices(table))
    rho_plus = VirtualCharacter(
        table,
        tuple(ir.degree if i in fixed else 0 for i, ir in enumerate(table.irreps)),
    )
    rho_minus = VirtualCharacter(
        table,
        tuple(0 if i in fixed else ir.degree for i, ir in enumerate(table.irreps)),
    )
    half = table.order // 2
    for rho, at_z in ((rho_plus, half), (rho_minus, -half)):
        for k in range(len(table.classes)):
            want = half if k == 0 else (at_z if k == 1 else 0)
            if not value_is_zero(evaluate(rho, k) - want):
                raise AssertionError("rho+/- evaluation mismatch")
    if q % 4 == 1:
        pair = (table.irrep_index("theta1"), table.irrep_index("theta2"))
    else:
        pair = (table.irrep_index("chi1"), table.irrep_index("chi2"))
    for rho in (rho_plus, rho_minus):
        if all(is_rho_invertible(table, i, rho) is not None for i in pair):
            return False
    return True
