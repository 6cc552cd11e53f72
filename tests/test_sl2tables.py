"""Generic SL2(q) and PSL2(q) tables: structure, known isomorphisms, rho rows."""

import re
from fractions import Fraction

import pytest

from knutson.algnum import CyclotomicTau, MultiQuadratic
from knutson.chartable import CharacterTable
from knutson.errors import CapExceededError, TableError
from knutson.sl2tables import (
    EVEN_CAP,
    ODD_CAP,
    _psl2_odd,
    center_fixed_indices,
    check_group,
    paper_rho_inverses,
    psl2_table,
    rho_theorem_character,
    sl2_table,
    verify_rho_pm_obstruction,
)
from knutson.symchar import an_table, sn_table

from oracles import fraction_entries, lcm_degrees_sl2_expected, with_entry
from sl2_entries import SL2_CLASSES, SL2_ENTRIES
from sl2_rho_rows import RHO_ROWS

ODD_QS = (5, 7, 9, 11, 13)
EVEN_QS = (2, 4, 8)


def test_param_rejects_non_prime_powers():
    for q in (-4, -1, 0, 1, 6, 10, 12, 15):
        for kind in ("sl2", "psl2"):
            with pytest.raises(ValueError, match=f"^q = {q} is not a prime power$"):
                check_group(kind, q)
    assert check_group("sl2", 9) == ("SL2(9)", 13)
    assert check_group("psl2", 8) == ("PSL2(8)", 9)


def test_caps():
    with pytest.raises(CapExceededError):
        sl2_table(17)
    with pytest.raises(CapExceededError):
        sl2_table(64)
    with pytest.raises(CapExceededError):
        psl2_table(17)


def test_param_caps_q_before_factorising():
    # every q above both caps is refused before it is factorised, prime
    # power or not (test_cli times a huge q)
    for q in (33, 37, 64):
        for kind in ("sl2", "psl2"):
            with pytest.raises(CapExceededError, match="largest supported q"):
                check_group(kind, q)
    assert check_group("sl2", max(EVEN_CAP, ODD_CAP)) == ("SL2(32)", 33)


def test_param_caps_by_parity():
    # odd q above ODD_CAP is refused after factorising; even q up to
    # EVEN_CAP still parses
    for q in (17, 27):
        for kind in ("sl2", "psl2"):
            with pytest.raises(CapExceededError, match=f"q = {q} exceeds cap {ODD_CAP}"):
                check_group(kind, q)
    assert check_group("psl2", 16) == ("PSL2(16)", 17)
    assert check_group("psl2", 32) == ("PSL2(32)", 33)


# every q within the caps: the prime powers up to ODD_CAP and the powers
# of 2 up to EVEN_CAP
QS_IN_CAPS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 32)


@pytest.mark.parametrize("kind, build", [("sl2", sl2_table), ("psl2", psl2_table)])
def test_check_group_names_and_counts_the_built_table(kind, build):
    # the label and class count known before any table exists are those
    # of the table the builder makes
    assert max(QS_IN_CAPS) == EVEN_CAP
    assert max(q for q in QS_IN_CAPS if q % 2) == ODD_CAP
    for q in QS_IN_CAPS:
        table = build(q)
        assert check_group(kind, q) == (table.label, len(table.classes)), q


@pytest.mark.parametrize("q", (-4, 0, 1, 6, 17, 64, 10**18 + 3))
@pytest.mark.parametrize("kind, build", [("sl2", sl2_table), ("psl2", psl2_table)])
def test_check_group_raises_what_the_builder_raises(kind, build, q):
    with pytest.raises((ValueError, CapExceededError)) as built:
        build(q)
    with pytest.raises(built.type, match=f"^{re.escape(str(built.value))}$"):
        check_group(kind, q)


@pytest.mark.parametrize("q", sorted(SL2_ENTRIES))
def test_sl2_entries_pinned(q):
    table = sl2_table(q)
    assert [(c.label, c.size, c.data) for c in table.classes] == list(SL2_CLASSES[q])
    assert {
        ir.label: tuple(str(v) for v in ir.values) for ir in table.irreps
    } == SL2_ENTRIES[q]
    assert list(SL2_ENTRIES[q]) == [ir.label for ir in table.irreps]


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


@pytest.mark.parametrize("q", (8, 16, *ODD_QS))
def test_fractions_only_in_the_halves(q):
    # every coefficient is an int, except the halves (+/-1 +/- tau) / 2
    # of the odd-q characters xi and eta on the unipotent classes
    halves = {
        (ir, c) for ir in ("xi1", "xi2", "eta1", "eta2")
        for c in ("c", "d", "zc", "zd")
    }
    assert fraction_entries(sl2_table(q)) == (set() if q % 2 == 0 else halves)


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


@pytest.mark.parametrize("q", (5, 7, 8, 9, 13))
def test_psl2_table_checks_only_its_own_rows(monkeypatch, q):
    # one orthogonality check, on the table returned: k(k+1)/2 inner
    # products for its k classes (45 at q = 13, where checking SL2(13)
    # first made 198), none of them on an SL2 row it drops
    labels = []
    real = CharacterTable.inner_product_rows

    def counted(self, xvals, yvals):
        labels.append(self.label)
        return real(self, xvals, yvals)

    monkeypatch.setattr(CharacterTable, "inner_product_rows", counted)
    table = psl2_table(q)
    k = len(table.classes)
    assert len(labels) == k * (k + 1) // 2
    assert set(labels) == {f"PSL2({q})"}


@pytest.mark.parametrize("q", ODD_QS)
def test_psl2_odd_structure(q):
    table = psl2_table(q)
    assert table.order == (q + 1) * q * (q - 1) // 2
    table.check_orthogonality()


def test_psl2_classes_pinned():
    def shape(q):
        return [(c.label, c.size, c.data) for c in psl2_table(q).classes]

    assert shape(9) == [
        ("1", 1, ("1", "z")), ("c", 40, ("c", "zc")), ("d", 40, ("d", "zd")),
        ("a1", 90, ("a1", "a3")), ("a2", 45, ("a2",)),
        ("b1", 72, ("b1", "b4")), ("b2", 72, ("b2", "b3")),
    ]
    assert shape(13) == [
        ("1", 1, ("1", "z")), ("c", 84, ("c", "zc")), ("d", 84, ("d", "zd")),
        ("a1", 182, ("a1", "a5")), ("a2", 182, ("a2", "a4")), ("a3", 91, ("a3",)),
        ("b1", 156, ("b1", "b6")), ("b2", 156, ("b2", "b5")),
        ("b3", 156, ("b3", "b4")),
    ]


@pytest.mark.parametrize("q", (5, 7))
def test_psl2_rejects_a_kept_row_split_by_the_center(q):
    # a center-fixed character changed on zc only no longer agrees on
    # c and zc, so the quotient would get one class too many
    sl2 = sl2_table(q)
    zc = [c.label for c in sl2.classes].index("zc")
    for i in center_fixed_indices(sl2):
        bad = with_entry(sl2, i, zc, sl2.irreps[i].values[zc] + 1)
        with pytest.raises(TableError, match="class/irrep count"):
            _psl2_odd(bad, f"PSL2({q})")


@pytest.mark.parametrize(
    "build, param, kind",
    [
        (sn_table, 5, int),
        (an_table, 5, MultiQuadratic),
        (sl2_table, 5, CyclotomicTau),
        (sl2_table, 8, CyclotomicTau),
    ],
    ids=["S5", "A5", "SL2(5)", "SL2(8)"],
)
def test_one_wrong_entry_breaks_orthogonality(build, param, kind):
    table = build(param)
    table.check_orthogonality()
    # the table holds values of the type under test, irrational ones for
    # the algebraic types
    assert any(
        isinstance(v, kind) and (kind is int or not v.is_rational())
        for ir in table.irreps for v in ir.values
    )
    for i, ir in enumerate(table.irreps):
        for k, v in enumerate(ir.values):
            if k == table.identity_index:
                continue
            for wrong in (v + 1, -v) if v != 0 else (v + 1,):
                with pytest.raises(TableError):
                    with_entry(table, i, k, wrong).check_orthogonality()


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
        assert (i in fixed) == (ir.values[1] == ir.degree)
        if i not in fixed:
            assert ir.values[1] == -ir.degree


@pytest.mark.parametrize("q", ODD_QS)
def test_rho_theorem_character_values(q):
    table = sl2_table(q)
    rho = rho_theorem_character(table)
    values = rho.values()
    for k in range(len(table.classes)):
        want = table.order if k in (0, 1) else 0
        assert values[k] == want


@pytest.mark.parametrize(
    "build, param",
    [(psl2_table, 13), (sl2_table, 8), (sl2_table, 3), (sn_table, 5)],
    ids=["PSL2(13)", "SL2(8)", "SL2(3)", "S5"],
)
@pytest.mark.parametrize(
    "rho_function",
    [paper_rho_inverses, verify_rho_pm_obstruction, rho_theorem_character],
    ids=lambda f: f.__name__,
)
def test_rho_machinery_rejects_other_tables(rho_function, build, param):
    # only an SL2(q) table for odd q >= 5 has the rho machinery
    with pytest.raises(ValueError, match="requires SL2"):
        rho_function(build(param))


@pytest.mark.parametrize("q", (5, 7, 11, 13))
def test_paper_rho_inverse_rows(q):
    report = paper_rho_inverses(sl2_table(q))
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
    # rho inverts the trivial character; every other irreducible is the
    # target of a row that verifies or was corrected
    table = sl2_table(q)
    covered = {"1"}
    for row in paper_rho_inverses(table).selected_rows().values():
        if row.verified or row.correction is not None:
            covered.update(row.targets)
    assert covered == {ir.label for ir in table.irreps}


def test_rho_inverse_coefficient_fractions_detected():
    # rows whose printed coefficients are non-integral at this q must be
    # flagged (lam None) rather than silently rounded
    report = paper_rho_inverses(sl2_table(5))
    for rows in report.rows.values():
        for row in rows.values():
            for coeff in row.coefficients.values():
                if coeff.denominator != 1:
                    assert row.lam is None
                    assert isinstance(coeff, Fraction)


@pytest.mark.parametrize("q", sorted(RHO_ROWS))
def test_printed_rows_pinned(q):
    # every row under both columns, the rejected one included: targets,
    # coefficients, and the order of rows and of coefficients
    report = paper_rho_inverses(sl2_table(q))
    for column in ("left", "right"):
        got = [
            (name, row.targets, [(k, str(c)) for k, c in row.coefficients.items()])
            for name, row in report.rows[column].items()
        ]
        want = [
            (name, targets, list(coeffs.items()))
            for name, (targets, coeffs) in RHO_ROWS[q][column].items()
        ]
        assert got == want, column


def test_accepted_is_the_negated_exit_4_condition():
    # the CLI exits 4 on a row with targets that neither verifies nor
    # was corrected; accepted is exactly its negation, on every row
    kinds = set()
    for q in ODD_QS:
        for rows in paper_rho_inverses(sl2_table(q)).rows.values():
            for row in rows.values():
                exit_4 = bool(row.targets) and not row.verified and row.correction is None
                assert row.accepted == (not exit_4)
                kinds.add((row.verified, row.correction is not None))
    # verified rows, corrected rows and rejected rows all occur
    assert kinds == {(True, False), (False, True), (False, False)}


@pytest.mark.parametrize("q", (5, 9))
def test_rho_pm_obstruction(q):
    assert verify_rho_pm_obstruction(sl2_table(q))
