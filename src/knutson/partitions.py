"""Young diagrams: hooks, cores, degrees, and the bead abacus.

Partitions are plain tuples of weakly decreasing positive ints; () is the
unique partition of 0.  Enumeration order is reverse lexicographic, so
partitions(4) yields (4), (3,1), (2,2), (2,1,1), (1,1,1,1); every stream
in the package is reproducible from that order.

The 1-runner abacus (James & Kerber 1981) is one int mask: lam on n
beads has bead i at lam_i + n - 1 - i (_shape_mask; on len(lam) beads,
its beta set).  A rim t-hook moves a bead by t (_add_hooks adds one,
signed).  The t-cores here, the table sweep of symchar and the a363701
sweep of sequences all work on these masks.

t-cores are counted by their generating function, decided by the
triangular and Loeschian criteria for t = 2, 3 and by Granville-Ono for
t >= 4, and found by building them row by row from smaller t-cores
rather than by scanning the p(n) partitions of n.  Like numtheory and
sequences, this module imports no table, lattice or ring layer.
"""

from functools import cache
from math import factorial, prod
from collections.abc import Iterator

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


def _shape_mask(lam: Partition, n: int) -> int:
    """lam as n beads on one runner: bead i at lam_i + n - 1 - i."""
    mask = (1 << (n - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + n - 1 - i)
    return mask


def _add_hooks(column: dict[int, int], t: int) -> dict[int, int]:
    """Every shape of column with one rim t-hook added, in every way,
    each weighted by its hook's sign; zero sums are dropped."""
    out: dict[int, int] = {}
    between = (1 << (t - 1)) - 1
    for mask, value in column.items():
        movable = mask & ~(mask >> t)  # beads b with b + t empty
        while movable:
            low = movable & -movable
            movable ^= low
            grown = mask ^ low ^ (low << t)
            # the beads on the t - 1 positions strictly above b
            if (mask & (between * (low << 1))).bit_count() & 1:
                out[grown] = out.get(grown, 0) - value
            else:
                out[grown] = out.get(grown, 0) + value
    return {mask: value for mask, value in out.items() if value}


def is_t_core(parts: Partition, t: int) -> bool:
    """True when no hook length is a multiple of t (t >= 2).

    On the beta-set mask, _shape_mask(parts, len(parts)): a t-rim-hook
    can be stripped exactly when some bead b has b - t >= 0 empty, and
    absence of t-hooks rules out all multiples of t too.  Built from the
    lowest bead up, it exits at the first such bead (for t = 2, 3 times
    faster on the partitions of 40 than testing the whole mask).
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    top = len(parts) - 1
    beads = 0
    for i in range(top, -1, -1):
        b = parts[i] + top - i
        if b >= t and not beads >> (b - t) & 1:
            return False
        beads |= 1 << b
    return True


def partition_counts(n: int) -> list[int]:
    """p(0), p(1), ..., p(n): the coefficients of prod_k 1 / (1 - q^k),
    in O(n^2) integer operations."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    series = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            series[i] += series[i - k]
    return series


def count_t_cores(n: int, t: int) -> int:
    """Number of t-core partitions of n.

    The coefficient of q^n in prod_k (1 - q^(tk))^t / (1 - q^k)
    (Garvan-Kim-Stanton 1990), in O(n^2) integer operations for every t.
    """
    if n < 0 or t < 2:
        raise ValueError("need n >= 0 and t >= 2")
    series = partition_counts(n)
    for k in range(t, n + 1, t):
        for _ in range(t):
            for i in range(n, k - 1, -1):
                series[i] -= series[i - k]
    return series[n]


def t_weight(parts: Partition, t: int) -> int:
    """How many rim t-hooks can be stripped from parts in succession.

    This is the number of hook lengths divisible by t: on the beta set,
    the number of pairs of a bead b and an empty position b - j*t >= 0
    on its runner of the t-abacus (James & Kerber 1981, 2.7.40), one j
    at a time on the mask.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    beads = _shape_mask(parts, len(parts))
    shifts = range(t, beads.bit_length(), t)
    return sum((beads >> j & ~beads).bit_count() for j in shifts)


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

    def cores(m: int, k: int) -> Iterator[tuple[Partition, int]]:
        # (core, its bead mask) pairs, the mask _shape_mask(core,
        # len(core)); that of (j, mu) is mu's plus a bead at j + len(mu)
        if m == 0:
            yield (), 0
            return
        for j in range(min(k, m), 0, -1):
            for mu, beads in shared(m - j, j):
                top = j + len(mu)
                if top < t or beads >> (top - t) & 1:
                    yield (j,) + mu, beads | 1 << top

    def shared(m: int, k: int) -> Iterator[tuple[Partition, int]]:
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
