"""Brute-force oracles that the package's fast paths are tested against,
the closed forms and character-ring helpers only tests use, a helper
that corrupts one entry of a character table, and one that finds the
entries holding a Fraction."""

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import hermite_normal_form

from knutson.algnum import CyclotomicTau, MultiQuadratic, rational_value
from knutson.chartable import CharacterTable, Irrep
from knutson.charring import VirtualCharacter
from knutson.errors import TableError
from knutson.partitions import _add_hooks, degree_hook, partition_counts, partitions
from knutson.sequences import vanishing_certificate
from knutson.symchar import mn_value

Matrix = list[list[int]]


def _row_product(table: CharacterTable, a: int, c: int) -> tuple:
    return tuple(
        va * vc
        for va, vc in zip(table.irreps[a].values, table.irreps[c].values)
    )


def tensor_decompose_exact(table: CharacterTable, a: int, c: int) -> tuple[int, ...]:
    """Multiplicities N with chi_a * chi_c = sum_b N_b chi_b, by exact inner
    products of exact algebraic values."""
    prod_vals = _row_product(table, a, c)
    out = []
    for b in range(len(table.irreps)):
        got = table.inner_product_rows(prod_vals, table.irreps[b].values)
        if got.denominator != 1 or got < 0:
            raise AssertionError(
                f"bad multiplicity {got} of {table.irreps[b].label} in "
                f"{table.irreps[a].label} * {table.irreps[c].label}"
            )
        out.append(got.numerator)
    degrees = table.degrees
    if sum(n * d for n, d in zip(out, degrees)) != degrees[a] * degrees[c]:
        raise AssertionError("tensor decomposition degree identity fails")
    return tuple(out)


def fusion_matrix_exact(table: CharacterTable, a: int) -> list[list[int]]:
    """M with M[b][c] = multiplicity of chi_b in chi_a * chi_c, exactly."""
    n = len(table.irreps)
    cols = [tensor_decompose_exact(table, a, c) for c in range(n)]
    return [[cols[c][b] for c in range(n)] for b in range(n)]


def column_relations(table: CharacterTable) -> None:
    """Exact column orthogonality, sum_chi chi(k) conj(chi(l)) =
    delta_kl |G| / |C_k|; raises TableError on failure."""
    n = len(table.irreps)
    for k in range(n):
        for l in range(k, n):
            total = 0
            for ir in table.irreps:
                total = total + ir.values[k] * ir.values[l].conjugate()
            got = rational_value(total)
            want = Fraction(table.order, table.classes[k].size) if k == l else 0
            if got != want:
                raise TableError(
                    f"{table.label}: column orthogonality fails at "
                    f"({table.classes[k].label}, {table.classes[l].label}): {got}"
                )


def inner_product(x: VirtualCharacter, y: VirtualCharacter) -> int:
    """<x, y> over the table, exact; must come out integral."""
    if x.table is not y.table:
        raise ValueError("mixed tables")
    got = x.table.inner_product_rows(x.values(), y.values())
    if got.denominator != 1:
        raise AssertionError(f"non-integral inner product {got}")
    return got.numerator


def regular_character(table: CharacterTable) -> VirtualCharacter:
    """sum of deg(chi) * chi; |G| at the identity, 0 elsewhere (asserted)."""
    reg = VirtualCharacter(table, table.degrees)
    want = tuple(
        table.order if k == table.identity_index else 0
        for k in range(len(table.classes))
    )
    if reg.values() != want:
        raise AssertionError("regular character evaluation failed")
    return reg


def trivial_index(table: CharacterTable) -> int:
    """Index of the trivial character (all values 1)."""
    for i, ir in enumerate(table.irreps):
        if ir.degree == 1 and all(v == 1 for v in ir.values):
            return i
    raise AssertionError("table has no trivial character")


def lcm_degrees_sl2_expected(q: int) -> int:
    """Closed form for the lcm of the degrees of SL2(q), q >= 4."""
    if q < 4:
        raise ValueError("the closed form requires q >= 4")
    base = (q + 1) * q * (q - 1)
    return base // 2 if q % 2 else base


def zero_in_every_nontrivial_column(table: CharacterTable) -> bool:
    """Whether each non-identity class has some vanishing irreducible,
    by a truth test of every value.

    A table with no non-trivial columns (trivial group) counts as True.
    """
    for k in range(len(table.classes)):
        if k == table.identity_index:
            continue
        if all(ir.values[k] for ir in table.irreps):
            return False
    return True


def class_has_zero(n: int, mu: tuple[int, ...]) -> bool:
    """Does some chi_lam vanish on class mu?

    One forward sweep of the column of mu from the empty shape, parts
    smallest first, as in symchar._sweep: _add_hooks drops zero sums, so
    a shape is missing from the column exactly when its character
    vanishes on mu.
    """
    column = {(1 << n) - 1: 1}
    for t in reversed(mu):
        column = _add_hooks(column, t)
    return len(column) < partition_counts(n)[n]


def class_has_zero_scan(n: int, mu: tuple[int, ...]) -> bool:
    """Whether some chi_lam vanishes on the class mu, by evaluating
    mn_value on the shapes of n in decreasing degree order (where zeros
    are most frequent) up to the first zero."""
    shapes = sorted(partitions(n), key=degree_hook, reverse=True)
    return any(mn_value(lam, mu) == 0 for lam in shapes)


def class_zero_certified(n: int, mu: tuple[int, ...]) -> bool:
    """Whether some character vanishes on the class, decided one class at
    a time: a vanishing certificate re-checked by evaluating it with
    mn_value, else the class's one-column sweep."""
    cert = vanishing_certificate(mu)
    if cert is not None:
        if mn_value(cert[0], mu) != 0:
            raise AssertionError(f"vanishing certificate {cert} fails on {mu}")
        return True
    return class_has_zero(n, mu)


def zero_in_every_column_sn(n: int) -> bool:
    """Whether every non-trivial column of the S_n table has a zero,
    from class_zero_certified on every class."""
    identity = (1,) * n
    return all(
        class_zero_certified(n, mu)
        for mu in partitions(n)
        if mu != identity
    )


def with_entry(table: CharacterTable, i: int, k: int, value) -> CharacterTable:
    """A copy of table with the value of irreducible i on class k replaced."""
    ir = table.irreps[i]
    row = Irrep(ir.label, ir.degree, ir.values[:k] + (value,) + ir.values[k + 1:])
    return CharacterTable(
        table.label, table.order, table.classes,
        table.irreps[:i] + (row,) + table.irreps[i + 1:], table.identity_index,
    )


def fraction_entries(table: CharacterTable) -> set[tuple[str, str]]:
    """(irreducible, class) labels of the entries that hold a Fraction,
    as the value or as one of its coefficients; every other number in
    the table, value or coefficient, must be an exact int."""
    out = set()
    for ir in table.irreps:
        for cls, v in zip(table.classes, ir.values):
            if isinstance(v, MultiQuadratic):
                numbers = tuple(v.coeffs.values())
            elif isinstance(v, CyclotomicTau):
                numbers = (*v.base.values(), *v.tau.values())
            else:
                numbers = (v,)
            kinds = {type(c) for c in numbers}
            assert kinds <= {int, Fraction}, (ir.label, cls.label, kinds)
            if Fraction in kinds:
                out.add((ir.label, cls.label))
    return out


# ---------------------------------------------------------------------------
# integer lattices

def _det_bareiss(m: Matrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _rank(m: Matrix) -> int:
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for j in range(len(a[0]) if a else 0):
        p = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][j] / a[rank][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _minors_gcd(m: Matrix, k: int) -> int:
    """gcd of the k x k minors of M: its k-th determinantal divisor."""
    if k == 0:
        return 1
    g = 0
    for rs in combinations(range(len(m)), k):
        for cs in combinations(range(len(m[0])), k):
            g = gcd(g, _det_bareiss([[m[i][j] for j in cs] for i in rs]))
    return g


def snf_solvable(m: Matrix, b: list[int]) -> bool:
    """Whether M*x = b has an integer solution, by the Smith normal form
    criterion in determinantal divisors: [M | b] has the rank r of M and
    the same gcd of r x r minors, i.e. the same invariant factors.

    Needs no elimination over Z, whose entries can grow without bound
    (a transform-tracking Smith form does on some 6 x 6 inputs)."""
    aug = [row + [x] for row, x in zip(m, b)]
    r = _rank(m)
    return _rank(aug) == r and _minors_gcd(aug, r) == _minors_gcd(m, r)


def min_multiplier_sympy(m: Matrix, v: list[int]) -> int | None:
    """Least n >= 1 with n*v in the integer column span of M, or None,
    by sympy's Hermite normal form and a rational solve against it."""
    if all(x == 0 for x in v):
        return 1
    h = hermite_normal_form(SymMatrix(m))
    if h.cols == 0:
        return None
    try:
        y, params = h.gauss_jordan_solve(SymMatrix(len(v), 1, v))
    except ValueError:
        return None
    if params.rows:
        raise AssertionError("HNF columns are not independent")
    return lcm(*(int(entry.q) for entry in y))


def zero_set_multiplier_dual(table: CharacterTable, chi: int) -> int:
    """d for chi in the dual form, on a table of int values: the least
    lambda(1) > 0 over the virtual characters lambda supported on {1}
    and the zeros Z of chi.

    lambda = sum a_g delta_g (delta_g the indicator of class g) is a
    virtual character exactly when every <lambda, chi_i> is an integer,
    i.e. sum_g a_g |C_g| chi_i(g) = 0 mod |G| for every i.  So d is the
    least n with n times the column of the identity, (chi_i(1))_i, in
    the integer span of the columns (|C_g| chi_i(g))_i for g in Z and
    |G| I; sympy's Hermite form solves that."""
    values = table.irreps[chi].values
    if not all(type(v) is int for ir in table.irreps for v in ir.values):
        raise ValueError("the dual form needs a table of int values")
    k = len(table.irreps)
    columns = [
        [table.classes[g].size * ir.values[g] for ir in table.irreps]
        for g in range(len(values))
        if values[g] == 0
    ]
    columns += [[table.order * (i == j) for i in range(k)] for j in range(k)]
    m = [[col[i] for col in columns] for i in range(k)]
    return min_multiplier_sympy(m, list(table.degrees))


def partitions_recursive(n: int, max_part: int | None = None):
    """The partitions of n with parts at most max_part, in reverse
    lexicographic order: a largest part k, then the partitions of n - k
    with parts at most k."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for k in range(max_part, 0, -1):
        for rest in partitions_recursive(n - k, k):
            yield (k,) + rest


def count_t_cores_vectors(n: int, t: int) -> int:
    """Number of t-cores of n, as the integer vectors (d_0, ..., d_{t-1})
    with sum 0 and n = (t/2) * sum(d_j^2) + sum(j * d_j) (the abacus charge
    vectors of the t-cores).  Exponential in t."""
    # t*d^2/2 <= n bounds each coordinate.
    bound = int((2 * n / t) ** 0.5) + 2
    count = 0

    def rec(j: int, remaining_sum: int, acc_twice: int) -> None:
        # acc_twice accumulates 2*[(t/2) sum d^2 + sum j d] to stay integral.
        nonlocal count
        if j == t - 1:
            d = -remaining_sum
            if acc_twice + t * d * d + 2 * j * d == 2 * n:
                count += 1
            return
        for d in range(-bound, bound + 1):
            nxt = acc_twice + t * d * d + 2 * j * d
            if nxt <= 2 * n + 2 * t * bound:
                rec(j + 1, remaining_sum + d, nxt)

    rec(0, 0, 0)
    return count


def count_t_cores_quotient(n: int, t: int) -> int:
    """Number of t-cores of n from the core-quotient bijection: a partition
    of m is a t-core of m - t*k with a t-tuple of partitions of total size
    k, so p(m) = sum_k c(m - t*k) * a(k), solved for c; p by Euler's
    pentagonal-number recurrence, a by t-fold convolution of p."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            p[m] += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                p[m] += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
    if t > n:
        return p[n]
    top = n // t
    a = [1] + [0] * top
    for _ in range(t):
        a = [sum(a[i] * p[k - i] for i in range(k + 1)) for k in range(top + 1)]
    c = []
    for m in range(n + 1):
        c.append(p[m] - sum(c[m - t * k] * a[k] for k in range(1, m // t + 1)))
    return c[n]


def cores_present(n: int, ts: tuple[int, ...]) -> set[int]:
    """The t in ts for which n has a t-core, from one pass over
    partitions(n).

    A partition is a t-core exactly when no bead of its beta set (the
    first-column hook lengths) can move t places down onto an empty
    position.  The beads are visited from the smallest up, so the
    positions below each bead are already known and the test for one t
    stops at the first bead that can move.  The pass stops once every t
    is decided."""
    pending = list(ts)
    found: set[int] = set()
    for lam in partitions(n):
        top = len(lam) - 1
        hit = False
        for t in pending:
            beads = 0
            for i in range(top, -1, -1):
                b = lam[i] + top - i
                if b >= t and not beads >> (b - t) & 1:
                    break
                beads |= 1 << b
            else:
                found.add(t)
                hit = True
        if hit:
            pending = [t for t in pending if t not in found]
            if not pending:
                break
    return found


def loeschian_witness(n: int) -> tuple[int, int] | None:
    """Some (X, Y) with X^2 + XY + Y^2 = n, found by direct search.

    For nonnegative n a representative with 0 <= Y <= X always exists
    when any representation does, so the search space is bounded by
    isqrt(n) in each variable."""
    bound = isqrt(n) + 1
    for x in range(bound + 1):
        for y in range(x + 1):
            if x * x + x * y + y * y == n:
                return (x, y)
    return None


def quadform_box(n: int) -> bool:
    """Whether n = X^2 + X + XY + Y + Y^2, by scanning a symmetric box of
    (X, Y) (both may be negative)."""
    bound = 2 + isqrt(2 * n)
    return any(
        x * x + x + x * y + y + y * y == n
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
    )


def _single_even_hook_is_2(lam: tuple[int, ...]) -> bool:
    """Whether 2 is the only even hook length of lam, counted with
    multiplicity.  The hooks are read off the beta set: one hook b - x
    for each bead b and empty position x < b.  The scan stops at the
    first even hook that rules the shape out."""
    top = len(lam) - 1
    beads = 0
    for i, p in enumerate(lam):
        beads |= 1 << (p + top - i)
    seen = False
    for i, p in enumerate(lam):
        b = p + top - i
        for x in range(b - 2, -1, -2):
            if not beads >> x & 1:
                if seen or b - x != 2:
                    return False
                seen = True
    return seen


def unique_hook2_scan(n: int) -> bool:
    """Whether some partition of n has a single even hook, equal to 2, by
    scanning the hooks of every partition of n."""
    return any(_single_even_hook_is_2(lam) for lam in partitions(n))
