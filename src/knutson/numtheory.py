"""Exact arithmetic predicates behind the partition-existence criteria.

Triangular numbers decide 2-core existence, Loeschian numbers (values of
X^2 + XY + Y^2) decide 3-core existence through the shift n -> 3n + 1, and
the divisor sum sigma3 counts 3-cores outright.  quadform_xxyy searches
the shifted form X^2 + X + XY + Y + Y^2 directly, so the shift can be
checked against is_loeschian rather than assumed.  Everything here is pure
integer arithmetic; inputs stay well below 10**7 so trial division is fine.
"""

from math import isqrt

Factorization = list[tuple[int, int]]


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, primes increasing."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: Factorization = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, increasing."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def triangular_root(n: int) -> int | None:
    """The m with n = m(m+1)/2, or None if n is not triangular."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    s = isqrt(8 * n + 1)
    if s * s != 8 * n + 1:
        return None
    return (s - 1) // 2


def is_triangular(n: int) -> bool:
    return triangular_root(n) is not None


def is_loeschian(n: int) -> bool:
    """Whether n = X^2 + XY + Y^2 for some integers X, Y.

    Uses the factorization criterion: every prime congruent to 2 mod 3
    must appear with even multiplicity.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return True
    return all(e % 2 == 0 for p, e in factorize(n) if p % 3 == 2)


def legendre3(d: int) -> int:
    """Legendre symbol (d/3): +1, -1 or 0."""
    r = d % 3
    return 0 if r == 0 else (1 if r == 1 else -1)


def sigma3(m: int) -> int:
    """Number-of-3-cores divisor sum: 0 if 3 | m, else sum of (d/3) over d | m."""
    if m < 1:
        raise ValueError("m must be positive")
    if m % 3 == 0:
        return 0
    return sum(legendre3(d) for d in divisors(m))


def quadform_xxyy(n: int) -> bool:
    """Whether n = X^2 + X + XY + Y + Y^2 for some integers X, Y.

    A direct search of the form, independent of is_loeschian (the
    theorem it is checked against says it equals is_loeschian(3n + 1)).
    For fixed X the form is a quadratic in Y with discriminant
    4n + 1 - 2X - 3X^2, so each X in the box 3X^2 + 2X <= 4n + 1 costs
    one integer square root: O(sqrt(n)) per n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    bound = isqrt((4 * n + 1) // 3) + 1
    for x in range(-bound, bound + 1):
        disc = 4 * n + 1 - 2 * x - 3 * x * x
        if disc < 0:
            continue
        s = isqrt(disc)
        if s * s != disc:
            continue
        y = (s - x - 1) // 2
        if x * x + x + x * y + y + y * y == n:
            return True
    return False
