"""S_n and A_n character tables against independent classical oracles."""

import re
from itertools import permutations
from math import factorial

import pytest
from oracles import class_has_zero, class_has_zero_scan, fraction_entries, with_entry

from knutson import symchar
from knutson.algnum import MultiQuadratic, rational_value
from knutson.errors import CapExceededError, TableError
from knutson.partitions import (
    conjugate,
    degree_hook,
    partitions,
    principal_hooks,
)
from knutson.symchar import (
    DEFAULT_CAP,
    CycleType,
    an_table,
    check_group,
    cycle_types,
    mn_value,
    rim_hook_removals,
    sn_table,
)


def _perm_cycle_type(perm):
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def test_class_sizes_against_enumeration():
    for n in range(1, 7):
        counts = {}
        for perm in permutations(range(n)):
            ct = _perm_cycle_type(perm)
            counts[ct] = counts.get(ct, 0) + 1
        for ct in cycle_types(n):
            assert ct.class_size() == counts[ct.parts]
            assert ct.centralizer_order() * ct.class_size() == factorial(n)


def test_cycle_type_parity_against_enumeration():
    for n in range(1, 7):
        for perm in permutations(range(n)):
            ct = CycleType(_perm_cycle_type(perm))
            inversions = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if perm[i] > perm[j]
            )
            assert ct.is_even() == (inversions % 2 == 0)


def test_rim_hook_removals_shrink_by_t():
    for n in range(1, 10):
        for lam in partitions(n):
            for t in range(1, n + 1):
                for smaller, leg in rim_hook_removals(lam, t):
                    assert sum(smaller) == n - t
                    assert leg >= 0
                    assert all(a >= b for a, b in zip(smaller, smaller[1:]))


def test_mn_identity_column_is_hook_degree():
    for n in range(1, 11):
        for lam in partitions(n):
            assert mn_value(lam, (1,) * n) == degree_hook(lam)


def test_mn_standard_character():
    # chi_(n-1,1) on cycle type mu is (number of fixed points) - 1
    for n in range(3, 11):
        for mu in partitions(n):
            fixed = sum(1 for p in mu if p == 1)
            assert mn_value((n - 1, 1), mu) == fixed - 1


def test_mn_sign_and_conjugate_symmetry():
    for n in range(1, 9):
        for mu in partitions(n):
            sign = (-1) ** (n - len(mu))
            assert mn_value((1,) * n, mu) == sign
            for lam in partitions(n):
                assert mn_value(conjugate(lam), mu) == sign * mn_value(lam, mu)


def test_sn_table_small_known():
    t3 = sn_table(3)
    # classes in reverse-lex cycle-type order: (3), (2,1), (1,1,1)
    assert [c.data.parts for c in t3.classes] == [(3,), (2, 1), (1, 1, 1)]
    rows = {ir.label: ir.values for ir in t3.irreps}
    assert rows["(3,)"] == (1, 1, 1)
    assert rows["(2, 1)"] == (-1, 0, 2)
    assert rows["(1, 1, 1)"] == (1, -1, 1)
    assert t3.degree_lcm() == 2
    assert sn_table(4).degree_lcm() == 6


def test_sn_table_structure():
    for n in range(1, 9):
        table = sn_table(n)
        assert table.order == factorial(n)
        assert len(table.irreps) == len(list(partitions(n)))
        table.check_orthogonality()


def test_sn_table_cap():
    with pytest.raises(CapExceededError):
        sn_table(23)


@pytest.mark.parametrize(
    "kind, build, ns",
    [("sn", sn_table, range(1, 17)), ("an", an_table, range(3, 18))],
)
def test_check_group_names_and_counts_the_built_table(kind, build, ns):
    # the label and class count known before any table exists are those
    # of the table the builder makes
    for n in ns:
        table = build(n)
        assert check_group(kind, n) == (table.label, len(table.classes)), n


@pytest.mark.parametrize(
    "kind, build, n",
    [("sn", sn_table, n) for n in (-1, 0, DEFAULT_CAP + 1, 10**18 + 3)]
    + [("an", an_table, n) for n in (-1, 0, 1, 2, DEFAULT_CAP + 1, 10**18 + 3)],
)
def test_check_group_raises_what_the_builder_raises(kind, build, n):
    with pytest.raises((ValueError, CapExceededError)) as built:
        build(n)
    with pytest.raises(built.type, match=f"^{re.escape(str(built.value))}$"):
        check_group(kind, n)


def test_integer_values_are_ints():
    # an integer is held in one form, a bare int; a Fraction appears
    # only in the split values (e +/- sqrt(e * prod hooks)) / 2 of A_n,
    # on a split class and a split character
    for n in range(1, 13):
        assert all(type(v) is int for ir in sn_table(n).irreps for v in ir.values)
    for n in range(3, 13):
        table = an_table(n)
        split = {
            (ir.label, c.label)
            for ir in table.irreps
            for c, v in zip(table.classes, ir.values)
            if isinstance(v, MultiQuadratic)
        }
        assert fraction_entries(table) == split
        assert all(a[-1] in "+-" and b[-1] in "+-" for a, b in split)
        assert split, n


def test_an_table_small_degrees():
    assert sorted(an_table(4).degrees) == [1, 1, 1, 3]
    assert sorted(an_table(5).degrees) == [1, 3, 3, 4, 5]
    assert sorted(an_table(6).degrees) == [1, 5, 5, 8, 8, 9, 10]


def test_an_table_structure():
    for n in range(3, 9):
        table = an_table(n)
        assert table.order == factorial(n) // 2
        assert sum(d * d for d in table.degrees) == table.order
        table.check_orthogonality()


def test_an_table_sweeps_one_shape_per_conjugate_pair(monkeypatch):
    # chi_lam and chi_lam' agree on A_n, so only the first shape of each
    # pair in enumeration order is swept
    swept = []
    real = symchar._sweep

    def recording(n, shapes, mus):
        swept.append(list(shapes))
        return real(n, shapes, mus)

    monkeypatch.setattr(symchar, "_sweep", recording)
    for n in range(3, 15):
        swept.clear()
        an_table(n)
        (shapes,) = swept
        assert all(lam >= conjugate(lam) for lam in shapes)
        pairs = {frozenset((lam, conjugate(lam))) for lam in partitions(n)}
        assert len(shapes) == len(pairs)
        assert {frozenset((lam, conjugate(lam))) for lam in shapes} == pairs


def test_irrational_identity_value_is_a_table_error():
    a5 = an_table(5)
    i = a5.degrees.index(4)
    with pytest.raises(TableError, match="is not its degree"):
        with_entry(a5, i, a5.identity_index, 4 + MultiQuadratic.sqrt(5))


def test_an_split_pair_sums_to_restriction():
    # the two halves of a self-conjugate shape add up to the restricted
    # S_n character on every class of A_n
    for n in range(4, 9):
        table = an_table(n)
        halves: dict[str, list] = {}
        for ir in table.irreps:
            if ir.label.endswith("+") or ir.label.endswith("-"):
                halves.setdefault(ir.label[:-1], []).append(ir)
        assert halves  # every such n has a self-conjugate shape
        for label, pair in halves.items():
            assert len(pair) == 2
            lam = eval(label)
            for k, cls in enumerate(table.classes):
                total = pair[0].values[k] + pair[1].values[k]
                assert rational_value(total) == mn_value(lam, cls.data[0].parts)


def test_split_classes_are_distinct_odd_hooks():
    for n in range(3, 10):
        for ct in cycle_types(n):
            expected = all(p % 2 for p in ct.parts) and len(set(ct.parts)) == len(
                ct.parts
            )
            assert ct.splits_in_alternating() == expected
    # principal hooks of a self-conjugate shape form such a cycle type
    for n in range(3, 12):
        for lam in partitions(n):
            if conjugate(lam) == lam:
                hooks = principal_hooks(lam)
                assert CycleType(hooks).splits_in_alternating()


def test_class_has_zero_matches_direct_scan():
    for n in range(1, 15):
        for mu in partitions(n):
            assert class_has_zero(n, mu) == class_has_zero_scan(n, mu), mu


def test_s16_class_scan_makes_no_mn_value_call():
    # the one-column sweep answers every class of S16 without mn_value,
    # and the classes with a zero agree with the swept table's columns
    before = mn_value.cache_info()
    got = [class_has_zero(16, ct.parts) for ct in cycle_types(16)]
    assert mn_value.cache_info() == before
    table = sn_table(16)
    assert got == [
        any(ir.values[k] == 0 for ir in table.irreps)
        for k in range(len(table.classes))
    ]


def test_nonvanishing_classes_small():
    # for n >= 3 a class of S_n with no zero in its column has non-fixed
    # part (3^a, 2^b) with b even (in S_2 the transposition has none);
    # in S_4 those classes are exactly the identity and (2,2)
    for n in range(3, 11):
        for mu in partitions(n):
            if class_has_zero(n, mu):
                continue
            nonfixed = [p for p in mu if p > 1]
            assert set(nonfixed) <= {2, 3}, mu
            assert nonfixed.count(2) % 2 == 0, mu
    got = [mu for mu in partitions(4) if not class_has_zero(4, mu)]
    assert sorted(got) == [(1, 1, 1, 1), (2, 2)]


def test_column_orthogonality_via_centralizers():
    # sum over shapes of chi(mu)^2 equals the centralizer order of mu
    for n in range(1, 9):
        for ct in cycle_types(n):
            total = sum(mn_value(lam, ct.parts) ** 2 for lam in partitions(n))
            assert total == ct.centralizer_order()


def test_sn_sweep_equals_mn_value():
    for n in range(1, 15):
        table = sn_table(n)
        for lam, ir in zip(partitions(n), table.irreps):
            for cls, value in zip(table.classes, ir.values):
                assert value == mn_value(lam, cls.data.parts), (lam, cls.label)


def test_an_sweep_equals_mn_value():
    # off the split classes, a self-conjugate shape's two halves each
    # carry half of its S_n value; every other row is the S_n value
    for n in range(3, 15):
        table = an_table(n)
        for ir in table.irreps:
            halved = ir.label[-1] in "+-"
            lam = eval(ir.label[:-1] if halved else ir.label)
            for cls, value in zip(table.classes, ir.values):
                ct, half = cls.data
                if halved and half and ct.parts == principal_hooks(lam):
                    continue
                full = mn_value(lam, ct.parts)
                assert value == (full // 2 if halved else full), (ir.label, cls.label)


def test_s18_columns_square_to_centralizers():
    # each column of the swept S18 table squares to its centralizer order;
    # the build makes no mn_value call
    before = mn_value.cache_info()
    table = sn_table(18)
    assert mn_value.cache_info() == before
    for k, cls in enumerate(table.classes):
        total = sum(ir.values[k] ** 2 for ir in table.irreps)
        assert total == cls.data.centralizer_order(), cls.label
