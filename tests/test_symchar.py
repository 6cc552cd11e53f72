"""S_n and A_n character tables against independent classical oracles."""

from itertools import permutations
from math import factorial

import pytest

from knutson.algnum import rational_value
from knutson.errors import CapExceededError
from knutson.partitions import conjugate, degree_hook, partitions, principal_hooks
from knutson.symchar import (
    CycleType,
    an_table,
    class_has_zero,
    cycle_types,
    mn_value,
    nonvanishing_classes_sn,
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
    for n in range(2, 9):
        for mu in partitions(n):
            direct = any(mn_value(lam, mu) == 0 for lam in partitions(n))
            assert class_has_zero(n, mu) == direct


def test_nonvanishing_classes_small():
    # in S_4 exactly the identity and the (2,2) class have no zero in
    # their column; both satisfy the (3^a, 2^b)-with-b-even constraint
    got = [ct.parts for ct in nonvanishing_classes_sn(4)]
    assert sorted(got) == [(1, 1, 1, 1), (2, 2)]


def test_column_orthogonality_via_centralizers():
    # sum over shapes of chi(mu)^2 equals the centralizer order of mu
    for n in range(1, 9):
        for ct in cycle_types(n):
            total = sum(mn_value(lam, ct.parts) ** 2 for lam in partitions(n))
            assert total == ct.centralizer_order()
