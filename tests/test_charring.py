"""The representation ring: tensor decomposition, fusion, regular character."""

from fractions import Fraction

import pytest
from oracles import (
    fusion_matrix_exact,
    inner_product,
    regular_character,
    trivial_index,
)

from knutson import charring
from knutson.chartable import CharacterTable, Irrep
from knutson.charring import (
    RHO_SEARCH_MAX_ORDER,
    VirtualCharacter,
    fusion_matrix,
    is_rho_invertible,
    min_rho_search,
)
from knutson.errors import CapExceededError
from knutson.partitions import conjugate
from knutson.sl2tables import psl2_table, sl2_table
from knutson.symchar import an_table, sn_table

TABLES = [sn_table(n) for n in range(2, 7)] + [
    an_table(5),
    sl2_table(3),
    sl2_table(4),
    sl2_table(5),
    psl2_table(7),
]


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.label)
def test_irreducibles_are_orthonormal(table):
    n = len(table.irreps)
    for i in range(n):
        e_i = VirtualCharacter(table, tuple(int(k == i) for k in range(n)))
        for j in range(i, n):
            e_j = VirtualCharacter(table, tuple(int(k == j) for k in range(n)))
            assert inner_product(e_i, e_j) == (1 if i == j else 0)


def test_trivial_index_skips_other_linear_characters():
    # S4 with its irreducibles reversed: the sign comes before the trivial one
    s4 = sn_table(4)
    table = CharacterTable(
        s4.label, s4.order, s4.classes, s4.irreps[::-1], s4.identity_index
    )
    assert table.irreps[0].degree == 1
    assert table.irreps[trivial_index(table)].label == "(4,)"


def _column(table, a, c):
    """Multiplicities N with chi_a * chi_c = sum_b N_b chi_b."""
    return tuple(row[c] for row in fusion_matrix(table, a))


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.label)
def test_tensor_with_trivial_is_identity(table):
    triv = trivial_index(table)
    n = len(table.irreps)
    for a in range(n):
        got = _column(table, a, triv)
        assert got == tuple(int(b == a) for b in range(n))
    # hence the trivial fusion matrix is the identity
    assert fusion_matrix(table, triv) == [
        [int(b == c) for c in range(n)] for b in range(n)
    ]


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.label)
def test_tensor_commutative(table):
    n = len(table.irreps)
    for a in range(n):
        for c in range(a, n):
            assert _column(table, a, c) == _column(table, c, a)


@pytest.mark.parametrize("table", TABLES[:4], ids=lambda t: t.label)
def test_fusion_matrices_commute(table):
    # chi_a (x) (chi_b (x) -) = chi_b (x) (chi_a (x) -): tensoring is
    # associative and commutative, so fusion matrices all commute
    n = len(table.irreps)
    mats = [fusion_matrix(table, a) for a in range(n)]

    def mul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    for a in range(min(n, 4)):
        for b in range(a + 1, min(n, 4)):
            assert mul(mats[a], mats[b]) == mul(mats[b], mats[a])


def test_sign_tensor_is_conjugate_shape():
    table = sn_table(6)
    sign = table.irrep_index(str((1,) * 6))
    for a, ir in enumerate(table.irreps):
        lam = eval(ir.label)
        want = table.irrep_index(str(conjugate(lam)))
        got = _column(table, a, sign)
        assert got == tuple(int(b == want) for b in range(len(table.irreps)))


@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.label)
def test_regular_character(table):
    reg = regular_character(table)
    assert reg.degree == table.order
    assert reg.values()[table.identity_index] == table.order
    # chi (x) rho_reg = chi(1) * rho_reg, for every chi
    for a in range(len(table.irreps)):
        m = fusion_matrix(table, a)
        got = tuple(
            sum(row[c] * reg.mults[c] for c in range(len(reg.mults))) for row in m
        )
        assert got == tuple(table.irreps[a].degree * x for x in reg.mults)


def test_virtual_character_arithmetic():
    table = sn_table(4)
    x = VirtualCharacter(table, (1, 0, -2, 0, 3))
    y = VirtualCharacter(table, (0, 1, 1, 0, -1))
    assert (x + y).mults == (1, 1, -1, 0, 2)
    assert x.degree == sum(
        m * d for m, d in zip(x.mults, table.degrees)
    )
    with pytest.raises(ValueError):
        VirtualCharacter(table, (1, 2, 3))
    with pytest.raises(ValueError):
        x + VirtualCharacter(sn_table(4), (0,) * 5)  # distinct table objects


def test_virtual_character_hash_eq_contract():
    # equal characters over two builds of one table hash equal; the hash
    # reads the multiplicities only, and equality still compares tables
    x = VirtualCharacter(sn_table(3), (1, 0, 0))
    y = VirtualCharacter(sn_table(3), (1, 0, 0))
    assert x.table is not y.table
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1
    z = VirtualCharacter(an_table(3), (1, 0, 0))
    assert z != x and len({x, z}) == 2


ORACLE_TABLES = (
    [(sn_table, n) for n in range(1, 9)]
    + [(an_table, n) for n in range(3, 10)]
    + [(sl2_table, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    + [(psl2_table, q) for q in (4, 5, 7, 9, 11, 13)]
)


@pytest.mark.parametrize(
    "build,param", ORACLE_TABLES, ids=lambda x: getattr(x, "__name__", str(x))
)
def test_modular_fusion_matches_exact_oracle(build, param):
    table = build(param)
    for a in range(len(table.irreps)):
        assert fusion_matrix(table, a) == fusion_matrix_exact(table, a)


def _perturbed(table: CharacterTable, irrep: int, cls: int) -> CharacterTable:
    """A copy of table with one non-identity value increased by 1."""
    assert cls != table.identity_index
    irreps = list(table.irreps)
    ir = irreps[irrep]
    values = list(ir.values)
    values[cls] = values[cls] + 1
    irreps[irrep] = Irrep(ir.label, ir.degree, tuple(values))
    return CharacterTable(
        table.label, table.order, table.classes, tuple(irreps), table.identity_index
    )


@pytest.mark.parametrize(
    "table,irrep,cls",
    [(sn_table(4), 1, 0), (an_table(5), 3, 0), (sl2_table(5), 4, 6)],
    ids=["S4", "A5", "SL2(5)"],
)
def test_perturbed_table_fails_fusion_checks(table, irrep, cls):
    bad = _perturbed(table, irrep, cls)  # passes validate_basic
    # the residue range check fires before the degree identity is summed
    with pytest.raises(AssertionError, match="out of range"):
        for a in range(len(bad.irreps)):
            fusion_matrix(bad, a)


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


def test_min_rho_search_cap(monkeypatch):
    # the cap is checked before any candidate is built
    def no_candidates(*args):
        raise AssertionError("enumeration started past the cap")

    monkeypatch.setattr(charring, "VirtualCharacter", no_candidates)
    for table in (sn_table(5), sl2_table(5), psl2_table(7)):
        assert table.order > RHO_SEARCH_MAX_ORDER
        with pytest.raises(CapExceededError, match="exceeds cap"):
            min_rho_search(table)
