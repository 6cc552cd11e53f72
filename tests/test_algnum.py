"""Exact algebraic values: ring axioms by hypothesis, floats as a cross-check."""

import cmath
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st
from sympy import isprime

from knutson.algnum import (
    CyclotomicTau,
    MultiQuadratic,
    ResidueField,
    approx_value,
    conj_value,
    cyclotomic_polynomial,
    rational_value,
    residue_value,
    squarefree_decompose,
    value_is_zero,
)

TOL = 1e-9

fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=5),
)

radicands = st.sampled_from([1, 2, 3, 5, -1, -3, 6, -15])

multiquads = st.dictionaries(radicands, fractions, max_size=3).map(MultiQuadratic)


@given(st.integers(min_value=-10**6, max_value=10**6).filter(bool))
def test_squarefree_decompose(n):
    g, d = squarefree_decompose(n)
    assert g * g * d == n
    assert all(abs(d) % (p * p) for p in range(2, 40))


@given(multiquads, multiquads, multiquads)
def test_multiquadratic_ring_axioms(x, y, z):
    assert (x + y) - y == x
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)


@given(multiquads, multiquads)
def test_multiquadratic_approx_homomorphism(x, y):
    assert abs((x * y).approx() - x.approx() * y.approx()) < TOL
    assert abs((x + y).approx() - (x.approx() + y.approx())) < TOL


@given(multiquads)
def test_multiquadratic_conj(x):
    assert x.conj().conj() == x
    assert abs(x.conj().approx() - x.approx().conjugate()) < TOL


def test_multiquadratic_sqrt():
    assert MultiQuadratic.sqrt(12) == MultiQuadratic.sqrt(3) * 2
    assert MultiQuadratic.sqrt(4).rational_value() == 2
    r5 = MultiQuadratic.sqrt(5)
    assert (r5 * r5).rational_value() == 5
    rm3 = MultiQuadratic.sqrt(-3)
    assert (rm3 * rm3).rational_value() == -3


def test_cyclotomic_polynomial_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree of Phi_m is phi(m)
    assert len(cyclotomic_polynomial(105)) - 1 == 48


@st.composite
def cyclo_values(draw, m=12, tau_sq=-3):
    base = draw(st.dictionaries(st.integers(0, m - 1), fractions, max_size=3))
    tau = draw(st.dictionaries(st.integers(0, m - 1), fractions, max_size=2))
    return CyclotomicTau(m, tau_sq, base, tau)


@settings(max_examples=60)
@given(cyclo_values(), cyclo_values(), cyclo_values())
def test_cyclotomic_ring_axioms(x, y, z):
    assert (x + y) - y == x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)


@settings(max_examples=60)
@given(cyclo_values(), cyclo_values())
def test_cyclotomic_approx_homomorphism(x, y):
    assert abs((x * y).approx() - x.approx() * y.approx()) < TOL
    assert abs((x + y).approx() - (x.approx() + y.approx())) < TOL


def test_cyclotomic_tau_square():
    x = CyclotomicTau.tau_element(8, 5)
    assert (x * x).rational_value() == 5
    y = CyclotomicTau.tau_element(8, -7)
    assert (y * y).rational_value() == -7
    # conjugation negates tau exactly when tau^2 < 0 (tau imaginary)
    assert y.conj() == -y
    assert x.conj() == x


def test_root_of_unity_relations():
    z = CyclotomicTau.root_of_unity(5, 1)
    power = CyclotomicTau.rational(5, 0, 1)
    total = CyclotomicTau.rational(5, 0, 0)
    for _ in range(5):
        total = total + power
        power = power * z
    assert total.is_zero()  # 1 + z + z^2 + z^3 + z^4 = 0
    assert power == 1  # z^5 = 1
    assert abs(z.approx() - cmath.exp(2j * cmath.pi / 5)) < TOL


def test_mixed_context_rejected():
    a = CyclotomicTau.root_of_unity(5, 1)
    b = CyclotomicTau.root_of_unity(7, 1)
    with pytest.raises(ValueError):
        a + b


def test_generic_helpers_dispatch():
    vals = [3, Fraction(5, 2), MultiQuadratic.sqrt(2), CyclotomicTau.root_of_unity(8, 1)]
    for v in vals:
        assert not value_is_zero(v)
        assert abs(approx_value(conj_value(v)) - approx_value(v).conjugate()) < TOL
    assert rational_value(Fraction(5, 2)) == Fraction(5, 2)
    assert rational_value(MultiQuadratic.from_rational(7)) == 7
    with pytest.raises(ValueError):
        rational_value(MultiQuadratic.sqrt(2))
    assert MultiQuadratic.from_rational(4) == 4
    assert 4 == MultiQuadratic.from_rational(4)
    assert MultiQuadratic.sqrt(2) != 1


def test_rational_values_hash_like_rationals():
    assert len({MultiQuadratic.from_rational(4), 4}) == 1
    assert hash(MultiQuadratic.from_rational(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert hash(MultiQuadratic()) == hash(0)
    assert len({CyclotomicTau.rational(5, 0, 3), 3}) == 1
    assert hash(CyclotomicTau.rational(8, 5, Fraction(-1, 4))) == hash(Fraction(-1, 4))
    # a rational value held in non-canonical form hashes like its rational
    z = CyclotomicTau.root_of_unity(5, 1)
    total = 1 + z + z * z + z * z * z + z * z * z * z
    assert total == 0 and hash(total) == hash(0)
    tau = CyclotomicTau.tau_element(12, -3)
    assert hash(tau * tau) == hash(-3)


def test_multiquadratic_reduces_radicands():
    root4 = MultiQuadratic({4: Fraction(1)})
    assert root4 == 2 and root4.is_rational() and hash(root4) == hash(2)
    assert len({root4, 2}) == 1
    assert MultiQuadratic({12: Fraction(1)}) == MultiQuadratic.sqrt(3, 2)
    assert MultiQuadratic({-4: Fraction(1)}) == 2 * MultiQuadratic.sqrt(-1)
    # radicands that reduce to the same squarefree part add up
    assert MultiQuadratic({1: Fraction(1), 4: Fraction(-1, 2)}) == 0


def _check_field(field, m):
    p = field.p
    assert p > 2**61 and (p - 1) % lcm(4, m) == 0 and isprime(p)
    assert field.roots[-1] ** 2 % p == p - 1
    for r, s in field.roots.items():
        assert s * s % p == r % p


@settings(max_examples=40)
@given(multiquads, multiquads)
def test_residue_field_multiquadratic_homomorphism(x, y):
    field = ResidueField.for_values([x, y, MultiQuadratic.sqrt(30)], 1)
    _check_field(field, 1)
    p = field.p

    def phi(v):
        return residue_value(v, field)

    assert phi(x * y) == phi(x) * phi(y) % p
    assert phi(x + y) == (phi(x) + phi(y)) % p
    assert phi(x - y) == (phi(x) - phi(y)) % p


@settings(max_examples=40)
@given(cyclo_values(), cyclo_values())
def test_residue_field_cyclotomic_homomorphism(x, y):
    field = ResidueField.for_values([x, y], 1)
    _check_field(field, 12)
    p = field.p

    def phi(v):
        return residue_value(v, field)

    assert phi(x * y) == phi(x) * phi(y) % p
    assert phi(x + y) == (phi(x) + phi(y)) % p
    assert phi(x.conj() * x) == phi(x.conj()) * phi(x) % p


def test_residue_field_fixes_rationals_and_roots():
    tau = CyclotomicTau.tau_element(20, 5)
    field = ResidueField.for_values([tau], 10**20)
    p = field.p
    assert p > 10**20 and (p - 1) % 20 == 0
    # omega has order exactly 20; Phi_20 vanishes at it
    omega = residue_value(CyclotomicTau.root_of_unity(20, 1, 5), field)
    assert pow(omega, 20, p) == 1 and all(pow(omega, 20 // r, p) != 1 for r in (2, 5))
    assert residue_value(tau * tau, field) == 5
    assert residue_value(Fraction(7, 3), field) * 3 % p == 7
    assert residue_value(-4, field) == p - 4
    with pytest.raises(ValueError):
        residue_value(CyclotomicTau.root_of_unity(8, 1), field)
    with pytest.raises(ValueError):  # beyond deterministic Miller-Rabin
        ResidueField.for_values([], 10**30)


def test_residue_field_prime_is_deterministic_and_least():
    vals = [MultiQuadratic.sqrt(-15), Fraction(1, 2)]
    f1 = ResidueField.for_values(vals, 1)
    f2 = ResidueField.for_values(list(reversed(vals)), 1)
    assert f1.p == f2.p
    assert isprime(f1.p)
    # no smaller p = 1 (mod 4) above 2^61 is a prime with 3 and 5 squares mod p
    for cand in range(2**61 + 1, f1.p, 4):
        assert not (
            isprime(cand)
            and pow(3, (cand - 1) // 2, cand) == 1
            and pow(5, (cand - 1) // 2, cand) == 1
        )
