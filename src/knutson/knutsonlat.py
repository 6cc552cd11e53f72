"""Integer lattices and Knutson indices.

One engine serves every lattice question: the Hermite normal form over
Z of the lattice spanned by a matrix's columns, with the transform
tracked.  Solving a vector against that echelon basis over Q gives the
least n with n*v in the lattice, and an integer solution of M*x = b
when n is 1.  Everything is arbitrary precision; every witness is
re-verified before it is used.

The Knutson index K(chi) is the least n with chi (x) lambda = n*rho_reg
for a virtual character lambda.  That holds exactly when lambda vanishes
on supp(chi) minus the identity and lambda(1) = n*|G|/chi(1), so

    K(chi) = d / gcd(d, |G|/chi(1)),

where d is the gcd of lambda(1) over the virtual lambda vanishing on
supp(chi) minus the identity.  d depends only on chi's zero set, and
every table takes the one route: d is the least multiplier of e_last
against the integer rows of chi's support columns (algnum.integer_rows)
and the degree row.  _index builds a table's index state once, after
the index cap and row orthogonality are checked, and holds it in the
table's one index slot: the integer rows of each class, each
irreducible's zero set, and one Hermite basis of the rows of every
class (Cohen, A Course in Computational Algebraic Number Theory, 2.4),
stacked rarest in the zero sets first and the degrees last.  d is
solved once per distinct zero set, when first asked for, on the
trailing block from its first dropped row on, and its witness is
mapped back through the transform and re-verified on the class rows
(_zero_set_multiplier).  No fusion matrix is built: rho-invertibility
lives in charring, above.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .algnum import integer_rows
from .chartable import CharacterTable
from .errors import CapExceededError

Matrix = list[list[int]]

# Most classes a table may have for knutson_index_char.  The cost grows
# fast with the class count k, most of it the shared Hermite basis:
# whole-group indices of an orthogonality-checked table took 0.7 s for
# S13 (k = 101), 3.6 s for S14 (k = 135) and 3.6 s for A16 (k = 123) and,
# with the cap lifted, 166 s for A17 (k = 156), the next class count of
# any S_n or A_n, in process on a 2-core host.  So the cap is S14's k.
INDEX_MAX_CLASSES = 135


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
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
    if mat_vec(m, x) != list(b):
        raise AssertionError("integer solve verification failed")
    return x


def min_multiplier(m: Matrix, v: list[int], *, check=None) -> int | None:
    """Least n >= 1 with n*v in the integer column span of M, or None.

    The integer witness x with M*x = n*v is re-verified, then passed to
    check(n, x) when given, for a caller that reads x in coordinates of
    its own and verifies it there.
    """
    solved = _lattice_solve(m, v)
    if solved is None:
        return None
    n, x = solved
    if mat_vec(m, x) != [n * a for a in v]:
        raise AssertionError("min_multiplier witness fails M*x = n*v")
    if check is not None:
        check(n, x)
    return n


# ---------------------------------------------------------------------------
# Knutson indices

def check_index_cap(label: str, classes: int) -> None:
    """CapExceededError for a table of more than INDEX_MAX_CLASSES classes.

    The class count is all it needs, so a caller that knows the count
    can refuse a group before building its table.
    """
    if classes > INDEX_MAX_CLASSES:
        raise CapExceededError(
            f"Knutson index of {label}: class count "
            f"{classes} exceeds cap {INDEX_MAX_CLASSES}"
        )


class _Index(NamedTuple):
    rows: tuple  # the integer rows of each class
    zeros: tuple  # each irreducible's zero set, a tuple of classes
    owner: list  # the class of each stacked row
    basis: list  # hermite_basis of the stacked rows
    d: dict  # d per zero set, filled as each is first asked for


def _index(table: CharacterTable) -> _Index:
    """The table's index state, built once and memoised on the table.

    The cap is checked first, then row orthogonality: no fusion matrix
    is built, so nothing else guards the values the indices are read
    from.  A class is in chi's zero set when column chi of the class's
    integer rows (algnum.integer_rows) is zero.  The rows of every class
    are stacked, the classes rarest first by how many distinct zero
    sets hold them and the identity, whose row is the degrees, last, so
    a zero set's first dropped row comes late and its block is small;
    one Hermite basis of the stacked rows serves every zero set.
    """
    if table._index is None:
        check_index_cap(table.label, len(table.classes))
        table.check_orthogonality()
        rows = tuple(
            integer_rows(ir.values[k] for ir in table.irreps)
            for k in range(len(table.classes))
        )
        zeros = tuple(
            tuple(k for k, rk in enumerate(rows) if not any(r[chi] for r in rk))
            for chi in range(len(table.irreps))
        )
        held = Counter(k for z in set(zeros) for k in z)
        ident = table.identity_index
        order = sorted(
            (k for k in range(len(rows)) if k != ident), key=lambda k: held[k]
        )
        order.append(ident)
        owner = [k for k in order for _ in rows[k]]
        stacked = [r for k in order for r in rows[k]]
        table._index = _Index(rows, zeros, owner, hermite_basis(stacked), {})
    return table._index


def _zero_set_multiplier(table: CharacterTable, zeros: tuple[int, ...]) -> int:
    """d for the non-identity classes `zeros`, read off the shared basis.

    Write lambda = sum x_i chi_i.  The conditions are F*x = d*e_last
    over the stacked rows F kept, those of the classes outside `zeros`:
    lambda vanishes on them, and the last row, the degrees, gives
    lambda(1) = d.  With H = F*T the shared Hermite basis (T unimodular)
    and x = T*y, every stacked row before the first dropped row r is
    kept, and those rows are echelon over the basis vectors pivoting
    before r, so those y_j are 0.  What remains is the block of kept
    rows from r on by the basis vectors pivoting at r or later:
    min_multiplier solves it, and its witness is mapped back through T
    and re-verified against the class rows.
    """
    rows, _, owner, basis, _ = _index(table)
    dropped = set(zeros)
    # with nothing dropped the block is the degree row alone
    first = next((i for i, k in enumerate(owner) if k in dropped), len(owner) - 1)
    kept = [i for i in range(first, len(owner)) if owner[i] not in dropped]
    cols = [(h, t) for p, h, t in basis if p >= first]
    block = [[h[i] for h, _ in cols] for i in kept]
    support = [
        r
        for k, rk in enumerate(rows)
        if k not in dropped and k != table.identity_index
        for r in rk
    ]
    support.append(list(table.degrees))

    def check(n: int, y: list[int]) -> None:
        x = [
            sum(c * t[j] for c, (_, t) in zip(y, cols))
            for j in range(len(table.irreps))
        ]
        if mat_vec(support, x) != [0] * (len(support) - 1) + [n]:
            raise AssertionError("zero-set witness fails on the class rows")

    d = min_multiplier(block, [0] * (len(kept) - 1) + [1], check=check)
    if d is None:
        raise AssertionError("no multiple of rho_reg is attainable")
    return d


def knutson_index_char(table: CharacterTable, chi: int) -> int:
    """Least n such that chi is n*rho_reg-invertible, from chi's zero set
    (module docstring).  Tables with more than INDEX_MAX_CLASSES classes
    raise CapExceededError before any lattice is built.
    """
    index = _index(table)
    zeros = index.zeros[chi]
    if zeros not in index.d:
        index.d[zeros] = _zero_set_multiplier(table, zeros)
    d = index.d[zeros]
    degree = table.irreps[chi].degree
    n = d // gcd(d, table.order // degree)
    if degree % n:
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
    apply.  The zeros are those the indices read, so tables with more
    than INDEX_MAX_CLASSES classes raise CapExceededError first.
    """
    index = _index(table)
    zeros = set().union(*index.zeros)
    if len(zeros | {table.identity_index}) < len(index.rows):
        return None
    return knutson_index_group(table)
