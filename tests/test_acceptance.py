"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every numbered claim the package commits to is checked here end to end,
in exact arithmetic.  Run with `pytest -v tests/test_acceptance.py` to
see one line per criterion.
"""

from fractions import Fraction

from oracles import cores_present

from knutson.chartable import zero_in_every_nontrivial_column
from knutson.knutsonlat import (
    knutson_index_char,
    knutson_index_group,
    min_rho_search,
    verify_rho_pm_obstruction,
)
from knutson.numtheory import is_loeschian, quadform_xxyy, sigma3
from knutson.partitions import count_t_cores, exists_t_core
from knutson.sequences import seq_L_An, seq_L_Sn, seq_zero_columns_sn
from knutson.sl2tables import (
    lcm_degrees_sl2_expected,
    paper_rho_inverses,
    psl2_table,
    sl2_table,
)
from knutson.symchar import an_table, sn_table


def _criterion(num: int, desc: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_sequence_L_Sn():
    got = seq_L_Sn(200).terms
    want = (1, 6, 10, 21, 36, 66, 105, 120, 136, 190)
    _criterion(1, f"seq_L_Sn(200) = {want}", got == want)


def test_criterion_02_sequence_L_An():
    got = seq_L_An(60).terms
    want = (1, 2, 5, 6, 8, 10, 12, 17, 21, 30, 36, 57)
    contained = set(seq_L_Sn(60).terms) <= set(got)
    _criterion(
        2,
        "seq_L_An(60) matches and contains the S_n sequence",
        got == want and contained,
    )


def test_criterion_03_sequence_zero_columns():
    got = seq_zero_columns_sn(30).terms
    want = (1, 5, 6, 8, 9, 10, 12, 14, 17, 21, 28, 30)
    _criterion(3, f"seq_zero_columns_sn(30) = {want}", got == want)


def test_criterion_04_sl2_degree_lcm_formulas():
    ok = all(
        sl2_table(q).degree_lcm() == lcm_degrees_sl2_expected(q)
        for q in (4, 5, 7, 8, 9, 11, 13)
    )
    _criterion(4, "L(SL2(q)) closed form for q in {4,5,7,8,9,11,13}", ok)


def test_criterion_05_knutson_case_formulas():
    # the case formulas: K = 1 unless the quadratic element tau survives
    # obstruction, giving K = 2; PSL2(9) falls in the K = 1 case because
    # 9 = 2^3 + 1 (see the q = 2^n +/- 1 condition)
    want_sl2 = {2: 1, 3: 1, 4: 1, 8: 1, 5: 2, 7: 2, 9: 2, 11: 2, 13: 2}
    want_psl2 = {4: 1, 5: 1, 7: 1, 8: 1, 9: 1, 11: 2, 13: 2}
    ok = all(
        knutson_index_group(sl2_table(q)) == want for q, want in want_sl2.items()
    ) and all(
        knutson_index_group(psl2_table(q)) == want for q, want in want_psl2.items()
    )
    _criterion(5, "Knutson index case formulas for SL2/PSL2, q <= 13", ok)


def test_criterion_06_rho_inverse_table():
    ok = True
    for q in (5, 13, 7, 11):
        report = paper_rho_inverses(q)
        # exactly one printed column verifies, decided by q mod 4
        ok &= report.column == ("left" if q % 4 == 1 else "right")
        other = "right" if report.column == "left" else "left"
        ok &= sum(r.verified for r in report.rows[other].values()) < sum(
            r.verified for r in report.selected_rows().values()
        )
        for name, row in report.selected_rows().items():
            if row.verified:
                continue
            # only the suspect row may fail, with its discrepancy vectors
            # reported and an integral correction found by the search
            ok &= name == "chi_odd"
            ok &= bool(row.discrepancies) or row.lam is None
            ok &= row.correction is not None
    _criterion(6, "published rho-inverse rows verify (suspect row corrected)", ok)


def test_criterion_07_rho_pm_obstruction():
    ok = all(verify_rho_pm_obstruction(q) for q in (5, 7, 9, 13))
    _criterion(7, "rho+/- obstruction certifies K'(SL2(q)) = 1, q in {5,7,9,13}", ok)


def test_criterion_08_small_group_generalized_index():
    got2 = min_rho_search(sl2_table(2))
    got3 = min_rho_search(sl2_table(3))
    ok2 = got2 is not None and got2[1] == Fraction(1, 3)
    ok3 = got3 is not None and got3[1] == Fraction(1, 2)
    # ok3 is expected to FAIL: the exhaustive search finds a verified
    # degree-6 character (theta1 + xi1 + xi2) making every irreducible of
    # SL2(3) invertible, so the true minimum is 6/24 = 1/4, not 1/2.
    _criterion(
        8,
        "min_rho_search: K'(SL2(2)) = 1/3 and K'(SL2(3)) = 1/2",
        ok2 and ok3,
    )


def test_criterion_09_sn_knutson_index():
    ok = all(knutson_index_group(sn_table(n)) == 1 for n in range(1, 11))
    _criterion(9, "K(S_n) = 1 for 1 <= n <= 10", ok)


def test_criterion_10_an_knutson_index():
    ok = all(knutson_index_group(an_table(n)) == 1 for n in range(3, 12))
    t12 = an_table(12)
    ok &= any(
        knutson_index_char(t12, i) == 2 for i in range(len(t12.irreps))
    )
    _criterion(10, "K(A_n) = 1 for 3 <= n <= 11; index 2 appears in A_12", ok)


def test_criterion_11_three_core_counts():
    ok = all(count_t_cores(n, 3) == sigma3(3 * n + 1) for n in range(151))
    _criterion(11, "count_t_cores(n, 3) = sigma3(3n + 1) for n <= 150", ok)


def test_criterion_12_core_existence_oracles():
    ts = (2, 3, 5, 7, 11, 13)
    ok = all(
        {t for t in ts if exists_t_core(n, t)} == cores_present(n, ts)
        for n in range(61)
    )
    _criterion(12, "exists_t_core fast paths match brute force, n <= 60", ok)


def test_criterion_13_quadratic_form_theorem():
    ok = all(quadform_xxyy(n) == is_loeschian(3 * n + 1) for n in range(10**4 + 1))
    _criterion(13, "quadform_xxyy(n) == is_loeschian(3n + 1) for n <= 10^4", ok)


def test_criterion_14_table_orthogonality():
    ok = True
    try:
        for n in range(1, 13):
            sn_table(n).check_orthogonality()
        for n in range(3, 13):
            an_table(n).check_orthogonality()
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            sl2_table(q).check_orthogonality()
        for q in (4, 5, 7, 8, 9, 11, 13):
            psl2_table(q).check_orthogonality()
    except Exception:
        ok = False
    _criterion(14, "exact row/column orthogonality for every table", ok)


def test_criterion_15_zero_column_parity():
    ok = all(
        zero_in_every_nontrivial_column(an_table(n))
        == zero_in_every_nontrivial_column(sn_table(n))
        for n in range(3, 15)
    )
    _criterion(15, "A_n and S_n agree on zero-in-every-column, 3 <= n <= 14", ok)
