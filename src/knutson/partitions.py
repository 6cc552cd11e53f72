"""Young diagrams: hooks, cores, degrees.

Partitions are plain tuples of weakly decreasing positive ints; () is the
unique partition of 0.  Enumeration order is reverse lexicographic, so
partitions(4) yields (4), (3,1), (2,2), (2,1,1), (1,1,1,1); every stream
in the package is reproducible from that order.

t-cores are counted by their generating function, decided by the
triangular and Loeschian criteria for t = 2, 3 and by Granville-Ono for
t >= 4, and found by building them row by row from smaller t-cores
rather than by scanning the p(n) partitions of n.
"""

from functools import cache
from math import factorial, prod
from typing import Iterator

from .errors import CapExceededError
from .numtheory import is_loeschian, is_triangular

Partition = tuple[int, ...]

# The largest n for find_t_core.  Counting and existence are cheap at any
# n, but the search grows fast with n: at n = 60 it takes about 0.1 s for
# every t, at n = 300 and t = 13 it runs for minutes.
CORES_MAX_N = 60


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield the partitions of n with parts at most max_part (default n)
    in reverse lexicographic order.

    Iterative: each step lowers the last part above 1 by one and refills
    the tail greedily with parts no larger than it.  The parts above 1
    sit in a list and the trailing 1s are only counted.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    k = n if max_part is None or max_part > n else max_part
    if k < 1:
        return
    unit = (1,) * n
    big: list[int] = []
    ones = _refill(big, k, n)
    while True:
        yield tuple(big) + unit[:ones]
        if not big:
            return
        v = big.pop() - 1
        ones = _refill(big, v, ones + 1 + v)


def _refill(big: list[int], v: int, total: int) -> int:
    """Append total greedily as parts of size v (then one smaller part)
    to big, keeping parts of 1 out of it; return how many 1s follow."""
    if v == 1:
        return total
    q, r = divmod(total, v)
    big += [v] * q
    if r == 1:
        return 1
    if r:
        big.append(r)
    return 0


def conjugate(parts: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def is_self_conjugate(parts: Partition) -> bool:
    return tuple(parts) == conjugate(parts)


def hook_lengths(parts: Partition) -> list[list[int]]:
    """Per-box hook lengths, row by row: arm + leg + 1."""
    conj = conjugate(parts)
    return [
        [(p - j - 1) + (conj[j] - i - 1) + 1 for j in range(p)]
        for i, p in enumerate(parts)
    ]


def hook_multiset(parts: Partition) -> list[int]:
    return [h for row in hook_lengths(parts) for h in row]


def principal_hooks(parts: Partition) -> tuple[int, ...]:
    """Hook lengths of the diagonal boxes (i, i), strictly decreasing."""
    conj = conjugate(parts)
    return tuple(
        parts[i] + conj[i] - 2 * i - 1 for i in range(len(parts)) if parts[i] > i
    )


def degree_hook(parts: Partition) -> int:
    """Character degree n! / (product of hooks); the division is exact."""
    n = sum(parts)
    num, den = factorial(n), prod(hook_multiset(parts))
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"hook product does not divide n! for {parts}")
    return q


def is_t_core(parts: Partition, t: int) -> bool:
    """True when no hook length is a multiple of t (t >= 2).

    Checked on the beta-set (first-column hook lengths): a t-rim-hook can
    be stripped exactly when some beta number b has b - t >= 0 outside
    the set, and absence of t-hooks rules out all multiples of t too.
    The hook-multiset formulation is what the test suite compares
    against; this form exits early and costs one pass over the rows.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    r = len(parts)
    beta = {p + r - 1 - i for i, p in enumerate(parts)}
    return all(b < t or b - t in beta for b in beta)


def count_t_cores(n: int, t: int) -> int:
    """Number of t-core partitions of n.

    The coefficient of q^n in prod_k (1 - q^(tk))^t / (1 - q^k)
    (Garvan-Kim-Stanton 1990), in O(n^2) integer operations for every t.
    """
    if n < 0 or t < 2:
        raise ValueError("need n >= 0 and t >= 2")
    series = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            series[i] += series[i - k]
    for k in range(t, n + 1, t):
        for _ in range(t):
            for i in range(n, k - 1, -1):
                series[i] -= series[i - k]
    return series[n]


@cache
def find_t_core(n: int, t: int) -> Partition | None:
    """First t-core of n in enumeration order, or None.

    This is the explicit witness used to certify vanishing classes.  It
    is built, not filtered out of p(n) partitions: dropping the first
    row j of a t-core (j, mu) removes its largest beta number
    j + len(mu), and mu is again a t-core.  So the t-cores of m with
    parts <= k, in enumeration order, are the (j, mu) for j from
    min(k, m) down to 1 and mu over the t-cores of m - j with parts
    <= j, kept when j + len(mu) - t is negative or a beta number of mu.
    Those streams are lazy and shared by (m, k) within one call.
    Raises CapExceededError for n above CORES_MAX_N.
    """
    if n < 0 or t < 2:
        raise ValueError("need n >= 0 and t >= 2")
    if n > CORES_MAX_N:
        raise CapExceededError(f"find_t_core({n}) exceeds cap {CORES_MAX_N}")
    memo: dict[tuple[int, int], tuple[list, Iterator]] = {}

    def cores(m: int, k: int) -> Iterator[tuple[Partition, frozenset[int]]]:
        # (core, its beta set) pairs; the beta set of (j, mu) is that of
        # mu plus j + len(mu).
        if m == 0:
            yield (), frozenset()
            return
        for j in range(min(k, m), 0, -1):
            for mu, beta in shared(m - j, j):
                top = j + len(mu)
                if top < t or top - t in beta:
                    yield (j,) + mu, beta | {top}

    def shared(m: int, k: int) -> Iterator[tuple[Partition, frozenset[int]]]:
        # Every caller of one (m, k) replays the items found so far and
        # then advances the single underlying stream.
        seen, source = memo.setdefault((m, k), ([], cores(m, k)))
        i = 0
        while True:
            if i == len(seen):
                item = next(source, None)
                if item is None:
                    return
                seen.append(item)
            yield seen[i]
            i += 1

    first = next(shared(n, n), None)
    return None if first is None else first[0]


def exists_t_core(n: int, t: int) -> bool:
    """Whether some t-core partition of n exists.

    t = 2 iff n is triangular, t = 3 iff 3n + 1 is Loeschian, and every
    t >= 4 always (Granville-Ono 1996).
    """
    if n < 0 or t < 2:
        raise ValueError("need n >= 0 and t >= 2")
    if t == 2:
        return is_triangular(n)
    if t == 3:
        return is_loeschian(3 * n + 1)
    return True
