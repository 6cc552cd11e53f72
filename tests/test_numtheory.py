"""Number-theoretic helpers: each fast path against a brute-force oracle."""

from math import isqrt, prod

import pytest
from hypothesis import given, strategies as st
from oracles import loeschian_witness, quadform_box

from knutson.numtheory import (
    divisors,
    factorize,
    is_loeschian,
    is_triangular,
    legendre3,
    quadform_xxyy,
    sigma3,
    triangular_root,
)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    assert prod(p**e for p, e in fac) == n
    assert all(e >= 1 for _, e in fac)
    for p, _ in fac:
        assert all(p % r for r in range(2, isqrt(p) + 1))


@given(st.integers(min_value=1, max_value=20000))
def test_divisors_oracle(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_triangular_numbers():
    triangles = {k * (k + 1) // 2 for k in range(0, 100)}
    for n in range(0, 2000):
        assert is_triangular(n) == (n in triangles)
    assert triangular_root(10) == 4
    assert triangular_root(11) is None


def _loeschian_brute(n):
    for x in range(isqrt(n) + 1):
        for y in range(x, isqrt(n) + 1):
            if x * x + x * y + y * y == n:
                return True
    return False


@pytest.mark.parametrize("upper", [1500])
def test_loeschian_oracle(upper):
    for n in range(0, upper):
        assert is_loeschian(n) == _loeschian_brute(n), n


@given(st.integers(min_value=0, max_value=10**5))
def test_loeschian_witness_consistent(n):
    w = loeschian_witness(n)
    if is_loeschian(n):
        x, y = w
        assert x * x + x * y + y * y == n
    else:
        assert w is None


def test_legendre3():
    assert [legendre3(d) for d in range(1, 10)] == [1, -1, 0, 1, -1, 0, 1, -1, 0]


@given(st.integers(min_value=1, max_value=50000))
def test_sigma3_oracle(m):
    ones = sum(1 for d in divisors(m) if d % 3 == 1)
    twos = sum(1 for d in divisors(m) if d % 3 == 2)
    assert sigma3(m) == (0 if m % 3 == 0 else ones - twos)


def test_quadform_xxyy_matches_brute_force():
    for n in range(0, 400):
        assert quadform_xxyy(n) == quadform_box(n), n
