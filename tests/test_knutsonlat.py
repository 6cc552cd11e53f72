"""Integer lattice solvers and Knutson indices, with brute-force oracles."""

import random
from fractions import Fraction

import pytest
from oracles import (
    _rank,
    min_multiplier_sympy,
    regular_character,
    snf_solvable,
    with_entry,
    zero_set_multiplier_dual,
)

from knutson import charring, knutsonlat
from knutson.chartable import CharacterTable
from knutson.charring import VirtualCharacter, fusion_matrix, is_rho_invertible
from knutson.errors import CapExceededError, TableError
from knutson.knutsonlat import (
    INDEX_MAX_CLASSES,
    check_index_cap,
    generalized_lower_bound,
    hermite_basis,
    knutson_index_char,
    knutson_index_group,
    mat_vec,
    min_multiplier,
    solve_integer,
    zero_column_criterion,
)
from knutson.sl2tables import psl2_table, sl2_table
from knutson.symchar import an_table, check_group, sn_table


def _brute_solvable(m, b, bound):
    cols = len(m[0])

    def rec(j, acc):
        if j == cols:
            return mat_vec(m, acc) == list(b)
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
            assert mat_vec(m, x) == b  # also re-verified internally
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
            v = mat_vec(m, x)
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
        assert mat_vec(m, t) == h
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
        lam = is_rho_invertible(
            table, i, VirtualCharacter(table, tuple(k * m for m in reg.mults))
        )
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


def test_knutson_index_cap(monkeypatch):
    # the cap is checked before any fusion matrix or lattice is built
    def no_fusion(*args):
        raise AssertionError("fusion matrix built past the cap")

    def no_lattice(*args):
        raise AssertionError("lattice solved past the cap")

    monkeypatch.setattr(charring, "fusion_matrix", no_fusion)
    monkeypatch.setattr(knutsonlat, "min_multiplier", no_lattice)
    monkeypatch.setattr(knutsonlat, "hermite_basis", no_lattice)
    table = sn_table(15)
    assert len(table.classes) > INDEX_MAX_CLASSES
    with pytest.raises(CapExceededError, match="exceeds cap"):
        knutson_index_char(table, 0)


def test_zero_column_criterion_cap(monkeypatch):
    # the criterion reads the zero sets the indices read, so a table
    # past the cap is refused before any integer row or lattice is built
    def no_rows(*args):
        raise AssertionError("integer rows built past the cap")

    def no_lattice(*args):
        raise AssertionError("lattice built past the cap")

    monkeypatch.setattr(knutsonlat, "integer_rows", no_rows)
    monkeypatch.setattr(knutsonlat, "hermite_basis", no_lattice)
    table = sn_table(15)
    with pytest.raises(CapExceededError, match="176 exceeds cap 135"):
        zero_column_criterion(table)


def test_one_solve_per_zero_set(monkeypatch):
    # one character's index solves its zero set's block alone, and a
    # character with the same zero set reads d without a solve
    calls = []

    def counted(m, v, **kw):
        calls.append(len(m))
        return min_multiplier(m, v, **kw)

    monkeypatch.setattr(knutsonlat, "min_multiplier", counted)
    built = sn_table(8)
    table = CharacterTable(
        built.label, built.order, built.classes, built.irreps,
        built.identity_index,
    )
    chi = next(i for i in range(len(table.irreps)) if _zero_set(table, i))
    twin = next(
        j for j in range(len(table.irreps))
        if j != chi and _zero_set(table, j) == _zero_set(table, chi)
    )
    knutson_index_char(table, chi)
    assert len(calls) == 1
    knutson_index_char(table, twin)
    assert len(calls) == 1


def test_knutson_index_cap_boundary():
    # S14 has exactly INDEX_MAX_CLASSES classes and S15 the next count
    # of any S_n or A_n (A17 has 156); the CLI runs S14 at the cap
    assert check_group("sn", 14)[1] == INDEX_MAX_CLASSES
    check_index_cap("S14", INDEX_MAX_CLASSES)
    with pytest.raises(CapExceededError, match="136 exceeds cap 135"):
        check_index_cap("X", INDEX_MAX_CLASSES + 1)


def test_fusion_matrix_determinant_structure():
    # each fusion matrix is diagonalized by character-table columns, so a
    # character with a zero value yields a singular fusion matrix
    table = sn_table(5)
    for a, ir in enumerate(table.irreps):
        singular = _rank(fusion_matrix(table, a)) < len(table.irreps)
        assert singular == any(v == 0 for v in ir.values)


def _zero_set(table, chi):
    return tuple(k for k, v in enumerate(table.irreps[chi].values) if not v)


def test_zero_set_index_matches_fusion_path():
    # K from chi's zero set equals the least n with n*rho_reg in the
    # column lattice of chi's fusion matrix
    qs = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 32)
    tables = (
        [sn_table(n) for n in range(1, 12)]
        + [an_table(n) for n in range(3, 13)]
        + [sl2_table(q) for q in qs]
        + [psl2_table(q) for q in qs]
    )
    for table in tables:
        degrees = list(table.degrees)
        for i in range(len(table.irreps)):
            want = min_multiplier(fusion_matrix(table, i), degrees)
            assert knutson_index_char(table, i) == want, (table.label, i)
    a12 = an_table(12)
    assert [knutson_index_char(a12, i) for i in range(len(a12.irreps))].count(2) == 1
    sl2_13 = sl2_table(13)
    assert knutson_index_group(sl2_13) == 2 and len(sl2_13._index.d) == 6


def test_zero_set_multiplier_matches_dual_oracle():
    # d, the gcd of lambda(1) over the lambda vanishing on supp(chi)
    # minus the identity, is memoised once per zero set; it equals the
    # dual form's solve over class functions supported on {1} and Z
    ds = set()
    for n in range(1, 9):
        table = sn_table(n)
        knutson_index_group(table)
        memo = table._index.d
        zero_sets = {_zero_set(table, i) for i in range(len(table.irreps))}
        assert set(memo) == zero_sets
        for i in range(len(table.irreps)):
            d = memo[_zero_set(table, i)]
            assert d == zero_set_multiplier_dual(table, i), (table.label, i)
            assert table.order % d == 0
            ds.add(d)
    # every K(S_n) is 1, so the comparison rests on d, which takes many
    # values: S6 alone has 45, 72, 80, 144 and 720
    assert ds >= {45, 72, 80, 144, 720} and len(ds) > 25


def test_no_index_builds_a_fusion_matrix(monkeypatch):
    def no_fusion(table, a):
        raise AssertionError(f"fusion matrix built for {table.label}")

    monkeypatch.setattr(charring, "fusion_matrix", no_fusion)
    for built in (
        sn_table(7), an_table(12), sl2_table(5), sl2_table(8), sl2_table(9),
        psl2_table(13),
    ):
        # a fresh copy, so no memo of an earlier test answers for it
        table = CharacterTable(
            built.label, built.order, built.classes, built.irreps,
            built.identity_index,
        )
        knutson_index_group(table)
        assert table._index.d and table._residue_rows is None


def _kept_rows_multiplier(table, zeros):
    """d of a zero set by min_multiplier on the kept class rows and the
    degrees, in class order: the route without the shared basis."""
    rows = knutsonlat._index(table).rows
    m = [
        r
        for k, rk in enumerate(rows)
        if k not in zeros and k != table.identity_index
        for r in rk
    ]
    m.append(list(table.degrees))
    return min_multiplier(m, [0] * (len(m) - 1) + [1])


_SL2_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 32)  # every q within the caps


def test_shared_basis_route_matches_the_kept_rows():
    # every distinct zero set of S_n (n <= 11), A_n (n <= 12) and
    # SL2(q), PSL2(q) within the caps, plus the empty zero set (d is
    # |G|: lambda is a multiple of rho_reg), the first stacked class
    # alone (the block is every kept row) and random class sets: the
    # route holds for any set of non-identity classes
    rng = random.Random(23)
    tables = (
        [sn_table(n) for n in range(1, 12)]
        + [an_table(n) for n in range(3, 13)]
        + [sl2_table(q) for q in _SL2_QS]
        + [psl2_table(q) for q in _SL2_QS]
    )
    for table in tables:
        index = knutsonlat._index(table)
        zero_sets = set(index.zeros)
        others = [k for k in range(len(index.rows)) if k != table.identity_index]
        first = index.owner[0]
        cases = zero_sets | {()}
        if others:
            cases.add((first,))
            for _ in range(3):
                picked = rng.sample(others, rng.randint(1, len(others)))
                cases.add(tuple(sorted(picked)))
        for zeros in cases:
            d = knutsonlat._zero_set_multiplier(table, zeros)
            assert d == _kept_rows_multiplier(table, zeros), (table.label, zeros)
        assert knutsonlat._zero_set_multiplier(table, ()) == table.order


def test_shared_basis_witness_is_checked(monkeypatch):
    # a wrong transform in the shared basis alone: every block solve
    # verifies, and the witness mapped back fails on the class rows
    real = knutsonlat.hermite_basis
    calls = []

    def wrong_shared_transform(m):
        calls.append(len(m))
        basis = real(m)
        if len(calls) == 1:
            basis = [(p, h, [-x for x in t]) for p, h, t in basis]
        return basis

    monkeypatch.setattr(knutsonlat, "hermite_basis", wrong_shared_transform)
    with pytest.raises(AssertionError, match="zero-set witness"):
        knutson_index_char(an_table(6), 0)
    assert len(calls) == 2


@pytest.mark.parametrize("build", (sn_table, an_table, sl2_table))
def test_corrupted_table_raises_after_good_indices(build):
    # the orthogonality check passes once per table, so a corrupted copy
    # is checked although its source table's indices are memoised and,
    # for SL2, its source was checked when it was built
    good = build(5 if build is sl2_table else 6)
    want = knutson_index_group(good)
    k = next(
        k for k, v in enumerate(good.irreps[1].values)
        if v and k != good.identity_index
    )
    bad = with_entry(good, 1, k, good.irreps[1].values[k] + 1)
    with pytest.raises(TableError):
        knutson_index_char(bad, 0)
    assert knutson_index_group(good) == want
