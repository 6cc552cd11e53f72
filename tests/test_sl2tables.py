"""Generic SL2(q) and PSL2(q) tables: structure, known isomorphisms, rho rows."""

from fractions import Fraction

import pytest

from knutson.algnum import value_is_zero
from knutson.charring import evaluate
from knutson.errors import CapExceededError
from knutson.sl2tables import (
    Sl2Param,
    center_fixed_indices,
    lcm_degrees_sl2_expected,
    paper_rho_inverses,
    psl2_table,
    rho_theorem_character,
    sl2_table,
)
from knutson.symchar import an_table, sn_table

ODD_QS = (5, 7, 9, 11, 13)
EVEN_QS = (2, 4, 8)


def test_param_rejects_non_prime_powers():
    for q in (1, 6, 10, 12, 15):
        with pytest.raises(ValueError):
            Sl2Param.from_q(q)
    assert Sl2Param.from_q(9).p == 3
    assert Sl2Param.from_q(8).f == 3


def test_caps():
    with pytest.raises(CapExceededError):
        sl2_table(17)
    with pytest.raises(CapExceededError):
        sl2_table(64)
    with pytest.raises(CapExceededError):
        psl2_table(17)


@pytest.mark.parametrize("q", ODD_QS)
def test_sl2_odd_structure(q):
    table = sl2_table(q)
    assert table.order == (q + 1) * q * (q - 1)
    assert len(table.classes) == q + 4
    assert sorted(set(table.degrees)) == sorted(
        {1, q, q + 1, q - 1, (q + 1) // 2, (q - 1) // 2}
    )
    table.check_orthogonality()


@pytest.mark.parametrize("q", EVEN_QS)
def test_sl2_even_structure(q):
    table = sl2_table(q)
    assert table.order == (q + 1) * q * (q - 1)
    assert len(table.classes) == q + 1
    # the degree-(q+1) family is empty below q = 4
    want = {1, q, q - 1} | ({q + 1} if q >= 4 else set())
    assert sorted(set(table.degrees)) == sorted(want)
    table.check_orthogonality()


def test_sl2_2_is_s3():
    # SL2(2) = PSL2(2) = S3: same degrees, same class sizes
    table = sl2_table(2)
    s3 = sn_table(3)
    assert sorted(table.degrees) == sorted(s3.degrees)
    assert sorted(c.size for c in table.classes) == sorted(
        c.size for c in s3.classes
    )


def test_psl2_known_isomorphisms():
    # PSL2(5) = A5 and PSL2(9) = A6
    assert sorted(psl2_table(5).degrees) == sorted(an_table(5).degrees)
    assert sorted(psl2_table(9).degrees) == sorted(an_table(6).degrees)
    assert sorted(c.size for c in psl2_table(5).classes) == sorted(
        c.size for c in an_table(5).classes
    )


@pytest.mark.parametrize("q", ODD_QS)
def test_psl2_odd_structure(q):
    table = psl2_table(q)
    assert table.order == (q + 1) * q * (q - 1) // 2
    table.check_orthogonality()


@pytest.mark.parametrize("q", EVEN_QS)
def test_psl2_even_equals_sl2(q):
    sl2, p = sl2_table(q), psl2_table(q)
    assert p.order == sl2.order
    assert sorted(p.degrees) == sorted(sl2.degrees)


@pytest.mark.parametrize("q", (4, 5, 7, 8, 9, 11, 13))
def test_lcm_degrees_formula(q):
    assert sl2_table(q).degree_lcm() == lcm_degrees_sl2_expected(q)


@pytest.mark.parametrize("q", ODD_QS)
def test_center_fixed_indices(q):
    table = sl2_table(q)
    fixed = set(center_fixed_indices(table))
    for i, ir in enumerate(table.irreps):
        same = value_is_zero(ir.values[1] - ir.degree)
        assert (i in fixed) == same
        if i not in fixed:
            assert value_is_zero(ir.values[1] + ir.degree)


@pytest.mark.parametrize("q", ODD_QS)
def test_rho_theorem_character_values(q):
    table = sl2_table(q)
    rho = rho_theorem_character(q)
    for k in range(len(table.classes)):
        want = table.order if k in (0, 1) else 0
        assert value_is_zero(evaluate(rho, k) - want)


@pytest.mark.parametrize("q", (5, 7, 11, 13))
def test_paper_rho_inverse_rows(q):
    report = paper_rho_inverses(q)
    # the verifying printed column is decided by the residue of q mod 4
    assert report.column == ("left" if q % 4 == 1 else "right")
    for name, row in report.selected_rows().items():
        if row.verified:
            continue
        # a failing row must carry its exact discrepancy vectors and,
        # for the known suspect row, a verifying replacement
        assert row.discrepancies or row.lam is None
        assert name == "chi_odd"
        assert row.correction is not None
    # the rejected column does strictly worse
    other = "right" if report.column == "left" else "left"
    assert sum(r.verified for r in report.rows[other].values()) < sum(
        r.verified for r in report.selected_rows().values()
    )


@pytest.mark.parametrize("q", (5, 7))
def test_rho_inverse_mapping_covers_all_irreps(q):
    table = sl2_table(q)
    mapping = paper_rho_inverses(q).mapping()
    assert set(mapping) == {ir.label for ir in table.irreps}


def test_rho_inverse_coefficient_fractions_detected():
    # rows whose printed coefficients are non-integral at this q must be
    # flagged (lam None) rather than silently rounded
    report = paper_rho_inverses(5)
    for rows in report.rows.values():
        for row in rows.values():
            for coeff in row.coefficients.values():
                if coeff.denominator != 1:
                    assert row.lam is None
                    assert isinstance(coeff, Fraction)
