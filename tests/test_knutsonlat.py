"""Integer lattice solvers and Knutson indices, with brute-force oracles."""

import random
from fractions import Fraction

import pytest
from oracles import _rank, min_multiplier_sympy, snf_solvable

from knutson import knutsonlat
from knutson.charring import VirtualCharacter, fusion_matrix, regular_character
from knutson.knutsonlat import (
    _mat_vec,
    generalized_lower_bound,
    hermite_basis,
    is_rho_invertible,
    knutson_index_char,
    knutson_index_group,
    min_multiplier,
    min_rho_search,
    solve_integer,
    verify_rho_pm_obstruction,
    zero_column_criterion,
)
from knutson.sl2tables import psl2_table, sl2_table
from knutson.symchar import an_table, sn_table


def _brute_solvable(m, b, bound):
    cols = len(m[0])

    def rec(j, acc):
        if j == cols:
            return _mat_vec(m, acc) == list(b)
        return any(rec(j + 1, acc + [x]) for x in range(-bound, bound + 1))

    return rec(0, [])


def test_solve_integer_against_brute_force():
    rng = random.Random(11)
    for _ in range(150):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randint(-4, 4) for _ in range(rows)]
        x = solve_integer(m, b)
        if x is not None:
            assert _mat_vec(m, x) == b  # also re-verified internally
        else:
            assert not _brute_solvable(m, b, 6)


def test_min_multiplier_against_solve_integer():
    rng = random.Random(13)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        v = [rng.randint(-6, 6) for _ in range(rows)]
        n = min_multiplier(m, v)
        if n is None:
            assert solve_integer(m, v) is None
            continue
        assert solve_integer(m, [n * x for x in v]) is not None
        for k in range(1, n):
            assert solve_integer(m, [k * x for x in v]) is None


def test_min_multiplier_edge_cases():
    assert min_multiplier([[2, 0], [0, 4]], [1, 2]) == 2
    assert min_multiplier([[2, 0], [0, 4]], [0, 0]) == 1
    assert min_multiplier([[0, 0], [0, 0]], [1, 0]) is None
    assert min_multiplier([[3]], [2]) == 3
    assert min_multiplier([[2], [3]], [1, 1]) is None  # (1,1) not in span Q


def _random_matrix(rng):
    """1-6 x 1-6 with entries -9..9; some zero, some of deficient rank."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    kind = rng.choice(("dense", "sparse", "zero", "deficient"))
    if kind == "zero":
        return [[0] * cols for _ in range(rows)]
    m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if kind == "sparse":
        m = [[x if rng.random() < 0.3 else 0 for x in row] for row in m]
    elif kind == "deficient" and rows > 1:
        # the last row repeats a combination of the first two
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1 % (rows - 1)])]
    return m


def test_lattice_engine_against_oracles():
    rng = random.Random(17)
    for _ in range(400):
        m = _random_matrix(rng)
        rows, cols = len(m), len(m[0])
        if rng.random() < 0.4:  # a vector of the column lattice
            x = [rng.randint(-3, 3) for _ in range(cols)]
            v = _mat_vec(m, x)
        else:
            v = [rng.randint(-9, 9) for _ in range(rows)]
        assert min_multiplier(m, v) == min_multiplier_sympy(m, v), (m, v)
        assert (solve_integer(m, v) is not None) == snf_solvable(m, v), (m, v)


def test_min_multiplier_matches_sympy_on_fusion_matrices():
    tables = (
        [sn_table(n) for n in range(1, 9)]
        + [an_table(n) for n in range(3, 10)]
        + [sl2_table(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
        + [psl2_table(q) for q in (4, 5, 7, 8, 9, 11, 13)]
    )
    for table in tables:
        degrees = list(table.degrees)
        for a in range(len(table.irreps)):
            m = fusion_matrix(table, a)
            assert min_multiplier(m, degrees) == min_multiplier_sympy(m, degrees), (
                table.label,
                a,
            )


def test_hermite_basis_shape():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    basis = hermite_basis(m)
    assert [p for p, _, _ in basis] == [0, 1, 2]
    for i, (p, h, t) in enumerate(basis):
        assert all(x == 0 for x in h[:p]) and h[p] > 0
        assert all(0 <= g[p] < h[p] for _, g, _ in basis[:i])
        assert _mat_vec(m, t) == h
    # |det| = 2 * 2 * 156 is the product of the pivots
    assert basis[0][1][0] * basis[1][1][1] * basis[2][1][2] == 624
    assert hermite_basis([[0, 0], [0, 0]]) == []


def test_lattice_witness_is_checked(monkeypatch):
    real = knutsonlat.hermite_basis

    def wrong_transform(m):
        return [(p, h, [-x for x in t]) for p, h, t in real(m)]

    monkeypatch.setattr(knutsonlat, "hermite_basis", wrong_transform)
    with pytest.raises(AssertionError):
        min_multiplier([[2, 0], [0, 4]], [1, 2])
    with pytest.raises(AssertionError):
        solve_integer([[2, 0], [0, 4]], [2, 4])


def test_is_rho_invertible_witness():
    table = sl2_table(5)
    reg = regular_character(table)
    for i in range(len(table.irreps)):
        k = knutson_index_char(table, i)
        lam = is_rho_invertible(table, i, reg.scaled(k))
        assert lam is not None  # witness re-verified by evaluation inside
        if k > 1:
            assert is_rho_invertible(table, i, reg) is None


def test_knutson_index_divides_degree():
    for table in (sn_table(5), an_table(5), sl2_table(7), psl2_table(11)):
        for i, ir in enumerate(table.irreps):
            assert ir.degree % knutson_index_char(table, i) == 0


def test_knutson_index_small_groups():
    assert knutson_index_group(sn_table(4)) == 1
    assert knutson_index_group(an_table(4)) == 1
    assert knutson_index_group(sl2_table(5)) == 2
    assert knutson_index_group(psl2_table(5)) == 1


def test_generalized_lower_bound():
    table = sl2_table(5)
    assert generalized_lower_bound(table) == Fraction(table.degree_lcm(), 120)


def test_zero_column_criterion():
    # S6 has a zero in every non-trivial column, S4 does not
    assert zero_column_criterion(sn_table(6)) == 1
    assert zero_column_criterion(sn_table(4)) is None


def test_min_rho_search_sl2_2():
    table = sl2_table(2)
    result = min_rho_search(table)
    assert result is not None
    rho, kprime = result
    assert kprime == Fraction(1, 3)
    assert rho.degree == 2
    for i in range(len(table.irreps)):
        assert is_rho_invertible(table, i, rho) is not None


def test_min_rho_search_sl2_3():
    # every irreducible of SL2(3) is invertible against a rho of degree
    # L(SL2(3)) = 6 already, so the minimum is 6/24
    result = min_rho_search(sl2_table(3))
    assert result is not None
    rho, kprime = result
    assert kprime == Fraction(1, 4)
    assert rho.degree == 6


@pytest.mark.parametrize("q", (5, 9))
def test_rho_pm_obstruction(q):
    assert verify_rho_pm_obstruction(q)


def test_fusion_matrix_determinant_structure():
    # each fusion matrix is diagonalized by character-table columns, so a
    # character with a zero value yields a singular fusion matrix
    table = sn_table(5)
    for a, ir in enumerate(table.irreps):
        singular = _rank(fusion_matrix(table, a)) < len(table.irreps)
        assert singular == any(v == 0 for v in ir.values)
