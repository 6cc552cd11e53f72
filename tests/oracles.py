"""Brute-force oracles that the package's fast paths are tested against."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import hermite_normal_form

from knutson.chartable import CharacterTable

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

def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = len(b[0])
    return [
        [sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for ra in a
    ]


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


@dataclass
class SNFResult:
    """U * M * V = D with U, V unimodular and d1 | d2 | ... on D."""

    U: Matrix
    D: Matrix
    V: Matrix
    rank: int

    @property
    def diagonal(self) -> list[int]:
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0])))]


def smith_normal_form(m: Matrix, verify: bool = True) -> SNFResult:
    """Smith normal form with minimal-absolute-value pivoting."""
    rows, cols = len(m), len(m[0])
    d = [row[:] for row in m]
    u, v = _identity(rows), _identity(cols)
    t = 0
    while t < min(rows, cols):
        pivot, best = None, None
        for i in range(t, rows):
            for j in range(t, cols):
                e = abs(d[i][j])
                if e and (best is None or e < best):
                    best, pivot = e, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        d[t], d[pi] = d[pi], d[t]
        u[t], u[pi] = u[pi], u[t]
        for row in d:
            row[t], row[pj] = row[pj], row[t]
        for row in v:
            row[t], row[pj] = row[pj], row[t]

        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    for j in range(cols):
                        d[i][j] -= q * d[t][j]
                    for j in range(rows):
                        u[i][j] -= q * u[t][j]
                    if d[i][t]:  # remainder is a smaller pivot
                        d[t], d[i] = d[i], d[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    for i in range(rows):
                        d[i][j] -= q * d[i][t]
                    for i in range(cols):
                        v[i][j] -= q * v[i][t]
                    if d[t][j]:
                        for row in d:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
        # force divisibility of the remaining block by the pivot
        piv = d[t][t]
        offender = next(
            (
                (i, j)
                for i in range(t + 1, rows)
                for j in range(t + 1, cols)
                if d[i][j] % piv
            ),
            None,
        )
        if offender is not None:
            i, _j = offender
            for j in range(cols):
                d[t][j] += d[i][j]
            for j in range(rows):
                u[t][j] += u[i][j]
            continue  # re-run elimination at the same t
        if piv < 0:
            for j in range(cols):
                d[t][j] = -d[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
        t += 1
    result = SNFResult(u, d, v, t)
    if verify:
        _verify_snf(m, result)
    return result


def _verify_snf(m: Matrix, res: SNFResult) -> None:
    got = _mat_mul(_mat_mul(res.U, m), res.V)
    if got != res.D:
        raise AssertionError("SNF identity U*M*V = D fails")
    diag = res.diagonal
    for i in range(min(len(res.D), len(res.D[0]))):
        for j in range(len(res.D[0])):
            if i != j and res.D[i][j]:
                raise AssertionError("SNF result is not diagonal")
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            raise AssertionError("SNF zero before nonzero on the diagonal")
        if a and b % a:
            raise AssertionError("SNF divisibility chain fails")
    if abs(_det_bareiss(res.U)) != 1 or abs(_det_bareiss(res.V)) != 1:
        raise AssertionError("SNF transform is not unimodular")


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
    (smith_normal_form above does on some 6 x 6 inputs)."""
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
