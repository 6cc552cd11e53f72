"""Exact algebraic values: ring axioms by hypothesis, floats as a cross-check."""

import cmath
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix as SymMatrix, isprime

from knutson.algnum import (
    CyclotomicTau,
    MultiQuadratic,
    ResidueField,
    cyclotomic_polynomial,
    integer_rows,
    rational_value,
    squarefree_decompose,
)
from knutson.sl2tables import sl2_table
from knutson.symchar import an_table

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
    assert abs(complex(x * y) - complex(x) * complex(y)) < TOL
    assert abs(complex(x + y) - (complex(x) + complex(y))) < TOL


@given(multiquads)
def test_multiquadratic_conj(x):
    assert x.conjugate().conjugate() == x
    assert abs(complex(x.conjugate()) - complex(x).conjugate()) < TOL


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
    # degree of Phi_m is field(m)
    assert len(cyclotomic_polynomial(105)) - 1 == 48


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    # x^m - 1 is the product of Phi_d over the divisors d of m
    for m in range(1, 301):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = _poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (m - 1) + [1], m


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
    assert abs(complex(x * y) - complex(x) * complex(y)) < TOL
    assert abs(complex(x + y) - (complex(x) + complex(y))) < TOL


def test_cyclotomic_tau_square():
    x = CyclotomicTau(8, 5, None, {0: 1})
    assert (x * x).rational_value() == 5
    y = CyclotomicTau(8, -7, None, {0: 1})
    assert (y * y).rational_value() == -7
    # conjugation negates tau exactly when tau^2 < 0 (tau imaginary)
    assert y.conjugate() == -y
    assert x.conjugate() == x


def test_cyclotomic_tau_sums_congruent_exponents():
    # exponents are read mod m: terms at 0 and 4 in Q(zeta_4) add up
    two = CyclotomicTau(4, 0, {0: 1, 4: 1})
    assert two == 2 and two.base == {0: 2} and repr(two) == "2*z4^0"
    assert hash(two) == hash(2)
    zero = CyclotomicTau(4, 0, {0: 1, 4: -1})
    assert not zero and zero == 0 and repr(zero) == "0"
    assert CyclotomicTau(4, -3, None, {-1: 1, 3: Fraction(1, 2)}).tau == {
        3: Fraction(3, 2)
    }


def test_root_of_unity_relations():
    z = CyclotomicTau.root_of_unity(5, 1)
    power = CyclotomicTau(5, 0, {0: 1})
    total = CyclotomicTau(5, 0)
    for _ in range(5):
        total = total + power
        power = power * z
    assert not total  # 1 + z + z^2 + z^3 + z^4 = 0
    assert power == 1  # z^5 = 1
    assert abs(complex(z) - cmath.exp(2j * cmath.pi / 5)) < TOL


def test_mixed_context_rejected():
    a = CyclotomicTau.root_of_unity(5, 1)
    b = CyclotomicTau.root_of_unity(7, 1)
    with pytest.raises(ValueError):
        a + b


def test_generic_helpers_dispatch():
    # the four value kinds answer the same number protocol; the last
    # value is tau alone, with tau^2 = -3
    vals = [
        3,
        Fraction(5, 2),
        MultiQuadratic.sqrt(2),
        CyclotomicTau.root_of_unity(8, 1),
        CyclotomicTau(12, -3, None, {0: 1}),
    ]
    for v in vals:
        assert v and not v - v
        assert abs(complex(v.conjugate()) - complex(v).conjugate()) < TOL
    for v in vals[2:]:
        assert not v.is_rational()
        with pytest.raises(ValueError):
            rational_value(v)
    assert not MultiQuadratic() and not CyclotomicTau(8, 0)
    assert rational_value(Fraction(5, 2)) == Fraction(5, 2)
    assert rational_value(MultiQuadratic({1: 7})) == 7
    # a rational held in non-canonical form, with mixed denominators
    x = CyclotomicTau(5, 0, {e: Fraction(1, 6) for e in range(5)}) + Fraction(3, 4)
    assert x.is_rational() and rational_value(x) == Fraction(3, 4)
    (vb, den), _ = x._reduced()
    assert [Fraction(v, den) for v in vb] == [Fraction(3, 4), 0, 0, 0]
    assert MultiQuadratic({1: 4}) == 4
    assert 4 == MultiQuadratic({1: 4})
    assert MultiQuadratic.sqrt(2) != 1


def test_integral_coefficients_stay_int():
    # an integer is held as a plain int, whichever operation made it
    values = [
        CyclotomicTau.root_of_unity(6, 7),
        CyclotomicTau.root_of_unity(6, 1) * CyclotomicTau.root_of_unity(6, 2) - 3,
        MultiQuadratic.sqrt(12),
        MultiQuadratic.sqrt(2) * MultiQuadratic.sqrt(6) + 1,
    ]
    assert [v.base for v in values[:2]] == [{1: 1}, {3: 1, 0: -3}]
    assert [v.coeffs for v in values[2:]] == [{3: 2}, {3: 2, 1: 1}]
    for v in values:
        coeffs = v.coeffs if isinstance(v, MultiQuadratic) else v.base
        assert {type(c) for c in coeffs.values()} == {int}


def test_rational_value_is_a_fraction():
    # inner_product_rows divides it by |G|, which turns an int into a float
    for v in (
        3,
        Fraction(3),
        MultiQuadratic({1: 3}),
        MultiQuadratic.sqrt(4) + 1,
        CyclotomicTau(5, 0, {0: 3}),
        CyclotomicTau(4, 0, {0: 1, 4: 2}),
        CyclotomicTau(12, -3, None, {0: 1}) * CyclotomicTau(12, -3, None, {0: -1}),
    ):
        got = rational_value(v)
        assert type(got) is Fraction and got == 3, v
    for v in (0, MultiQuadratic(), CyclotomicTau(8, 0)):
        assert type(rational_value(v)) is Fraction and rational_value(v) == 0


def test_rational_values_hash_like_rationals():
    assert len({MultiQuadratic({1: 4}), 4}) == 1
    assert hash(MultiQuadratic({1: Fraction(3, 2)})) == hash(Fraction(3, 2))
    assert hash(MultiQuadratic()) == hash(0)
    assert len({CyclotomicTau(5, 0, {0: 3}), 3}) == 1
    assert hash(CyclotomicTau(8, 5, {0: Fraction(-1, 4)})) == hash(Fraction(-1, 4))
    # a rational value held in non-canonical form hashes like its rational
    z = CyclotomicTau.root_of_unity(5, 1)
    total = 1 + z + z * z + z * z * z + z * z * z * z
    assert total == 0 and hash(total) == hash(0)
    tau = CyclotomicTau(12, -3, None, {0: 1})
    assert hash(tau * tau) == hash(-3)


def test_equality_across_contexts_and_kinds_never_raises():
    # values of other (m, tau^2) contexts, or of the other kind, are equal
    # exactly when both are rational with the same value; arithmetic
    # across contexts still raises (test_mixed_context_rejected)
    one12, one24 = CyclotomicTau(12, 0, {0: 1}), CyclotomicTau(24, 0, {0: 1})
    four_mq, four_cyc = MultiQuadratic({1: 4}), CyclotomicTau(8, 0, {0: 4})
    assert one12 == one24 and not one12 != one24
    assert four_mq == four_cyc and four_cyc == four_mq
    assert len({one12, one24, 1, Fraction(1), MultiQuadratic({1: 1})}) == 1
    assert len({four_mq, four_cyc, 4}) == 1
    assert {one12: "a", one24: "b"} == {1: "b"}
    zeta = CyclotomicTau.root_of_unity(12, 1)
    tau = CyclotomicTau(12, -3, None, {0: 1})
    root = MultiQuadratic.sqrt(-3)
    irrational = [zeta, CyclotomicTau.root_of_unity(24, 2), tau, root]
    # zeta_12 and zeta_24^2 are one complex number, held in two contexts
    assert len(set(irrational)) == 4
    for i, x in enumerate(irrational):
        for j, y in enumerate(irrational):
            assert (x == y) == (i == j) and (x != y) == (i != j), (x, y)
    mixed = {zeta: 0, tau: 1, root: 2, one24: 3, four_mq: 4}
    assert mixed[CyclotomicTau.root_of_unity(12, 13)] == 0
    assert mixed[1] == 3 and mixed[four_cyc] == 4 and mixed[Fraction(4)] == 4
    assert CyclotomicTau(5, 0, {0: Fraction(1, 2)}) != CyclotomicTau(7, 0, {0: 1})
    with pytest.raises(ValueError):
        one12 + one24


def test_equal_cyclotomic_values_hash_equal():
    # equal values held in different forms: zeta_5/2 + zeta_5^2/3 against
    # the same with zeta_5 = -(1 + zeta_5^2 + zeta_5^3 + zeta_5^4), and a
    # zeta-sum over a common denominator 2 that reduces to zeta_5 alone
    half, third = Fraction(1, 2), Fraction(1, 3)
    pairs = [
        (
            CyclotomicTau(5, 0, {1: half, 2: third}),
            CyclotomicTau(5, 0, {0: -half, 2: Fraction(-1, 6), 3: -half, 4: -half}),
        ),
        (
            CyclotomicTau(5, 0, {0: half, 1: Fraction(3, 2), 2: half, 3: half, 4: half}),
            CyclotomicTau.root_of_unity(5, 1),
        ),
        (
            CyclotomicTau(12, -3, {1: third}, {0: half, 6: half, 3: 1}),
            CyclotomicTau(12, -3, {1: third}, {3: 1}),
        ),
        (CyclotomicTau(4, 0, {0: 1, 4: -1}), CyclotomicTau(4, 0)),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y), (x, y)
    assert hash(CyclotomicTau(4, 0, {0: 1, 4: -1})) == hash(0)
    assert hash(pairs[2][0]) != hash(pairs[2][0] + 1)


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

    assert field(x * y) == field(x) * field(y) % p
    assert field(x + y) == (field(x) + field(y)) % p
    assert field(x - y) == (field(x) - field(y)) % p


@settings(max_examples=40)
@given(cyclo_values(), cyclo_values())
def test_residue_field_cyclotomic_homomorphism(x, y):
    field = ResidueField.for_values([x, y], 1)
    _check_field(field, 12)
    p = field.p

    assert field(x * y) == field(x) * field(y) % p
    assert field(x + y) == (field(x) + field(y)) % p
    assert field(x.conjugate() * x) == field(x.conjugate()) * field(x) % p


def test_residue_field_fixes_rationals_and_roots():
    tau = CyclotomicTau(20, 5, None, {0: 1})
    field = ResidueField.for_values([tau], 10**20)
    p = field.p
    assert p > 10**20 and (p - 1) % 20 == 0
    # omega has order exactly 20; Phi_20 vanishes at it
    omega = field(CyclotomicTau.root_of_unity(20, 1, 5))
    assert pow(omega, 20, p) == 1 and all(pow(omega, 20 // r, p) != 1 for r in (2, 5))
    assert field(tau * tau) == 5
    assert field(Fraction(7, 3)) * 3 % p == 7
    assert field(-4) == p - 4
    with pytest.raises(ValueError):
        field(CyclotomicTau.root_of_unity(8, 1))
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


def _kernel(rows, width):
    """An integer basis of {x : R*x = 0}, from sympy's rational one."""
    if not rows:
        return [[int(i == j) for j in range(width)] for i in range(width)]
    out = []
    for v in SymMatrix(rows).nullspace():
        den = lcm(*(int(c.q) for c in v))
        out.append([int(c * den) for c in v])
    return out


@pytest.mark.parametrize(
    "table",
    [sl2_table(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)] + [an_table(5), an_table(7)],
    ids=lambda t: t.label,
)
def test_integer_rows_are_exact(table):
    # R*x = 0 exactly when sum_i x_i chi_i(k) = 0, for random x and for
    # a basis of the kernel.  For q = 9, tau^2 = 9 and the formal tau is
    # no field element, so the sum is evaluated as the complex number
    # the table means, with tau = 3.
    rng = random.Random(len(table.classes))
    formal = table.label != "SL2(9)"
    for k in range(len(table.classes)):
        column = [ir.values[k] for ir in table.irreps]
        rows = integer_rows(column)
        kernel = _kernel(rows, len(column))
        trials = kernel + [
            [rng.randint(-3, 3) for _ in column] for _ in range(20)
        ]
        for x in trials:
            total = sum(a * v for a, v in zip(x, column))
            vanishes = not total if formal else abs(complex(total)) < TOL
            assert vanishes == all(
                sum(a * r for a, r in zip(x, row)) == 0 for row in rows
            ), (table.label, k, x)


def test_integer_rows_refuse_a_dependent_tau():
    # zeta_20^4 is a fifth root of unity, and sqrt(5) lies in Q(zeta_5)
    column = [1, CyclotomicTau(20, 5, {4: 1}, {0: 1})]
    with pytest.raises(ValueError, match="lies in"):
        integer_rows(column)
    # sqrt(-3) lies in Q(zeta_15) but not in Q(zeta_5): the exponents
    # decide which field the column needs
    assert integer_rows([CyclotomicTau(15, -3, {3: 1}, {0: 1})]) == [[1], [1]]
    with pytest.raises(ValueError, match="lies in"):
        integer_rows([CyclotomicTau(15, -3, {1: 1}, {0: 1})])
