"""Brute-force oracles that the package's fast paths are tested against."""

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import hermite_normal_form

from knutson.chartable import CharacterTable
from knutson.partitions import hook_multiset, partitions

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


def unique_hook2_scan(n: int) -> bool:
    """Whether some partition of n has a single even hook, equal to 2, by
    scanning the hook multisets of every partition of n."""
    return any(
        [h for h in hook_multiset(lam) if h % 2 == 0] == [2]
        for lam in partitions(n)
    )
