"""Partitions, hooks and t-cores, with brute-force oracles throughout."""

from math import factorial

import pytest
from hypothesis import given, strategies as st

from knutson.errors import CapExceededError
from knutson.numtheory import is_triangular
from knutson.partitions import (
    CORES_MAX_N,
    conjugate,
    count_t_cores,
    degree_hook,
    exists_t_core,
    find_t_core,
    hook_lengths,
    hook_multiset,
    is_self_conjugate,
    is_t_core,
    partitions,
    principal_hooks,
)

from oracles import count_t_cores_vectors, partitions_recursive, unique_hook2_scan

# p(0), p(1), ..., p(20)
PARTITION_COUNTS = (
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231,
    297, 385, 490, 627,
)


def test_partition_counts_and_validity():
    for n, want in enumerate(PARTITION_COUNTS):
        seen = list(partitions(n))
        assert len(seen) == want
        assert len(set(seen)) == want
        for lam in seen:
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))
            assert all(p > 0 for p in lam)


def test_partitions_reverse_lexicographic():
    for n in range(1, 12):
        seen = list(partitions(n))
        assert seen == sorted(seen, reverse=True)
        assert seen[0] == (n,)
        assert seen[-1] == (1,) * n


def test_partitions_max_part():
    for n in range(0, 12):
        for cap in range(1, n + 2):
            got = list(partitions(n, max_part=cap))
            want = [lam for lam in partitions(n) if not lam or lam[0] <= cap]
            assert sorted(got) == sorted(want)


def test_partitions_match_recursive_oracle():
    # exact order, for every max_part including the empty and capped ones
    for n in range(0, 26):
        for cap in (None, *range(-1, n + 3)):
            assert list(partitions(n, cap)) == list(partitions_recursive(n, cap)), (n, cap)


@given(st.integers(min_value=0, max_value=14))
def test_conjugate_involution(n):
    for lam in partitions(n):
        mu = conjugate(lam)
        assert sum(mu) == n
        assert conjugate(mu) == lam
        assert is_self_conjugate(lam) == (mu == lam)


def test_hooks_small_example():
    # shape (4, 2, 1): standard hook lengths
    assert hook_lengths((4, 2, 1)) == [[6, 4, 2, 1], [3, 1], [1]]
    assert sorted(hook_multiset((4, 2, 1))) == [1, 1, 1, 2, 3, 4, 6]
    assert principal_hooks((4, 2, 1)) == (6, 1)


def test_degree_hook_against_sum_of_squares():
    # sum over shapes of (n! / prod hooks)^2 = n!
    for n in range(1, 9):
        assert sum(degree_hook(lam) ** 2 for lam in partitions(n)) == factorial(n)


def test_degree_hook_known_values():
    assert degree_hook((1,)) == 1
    assert degree_hook((2, 1)) == 2
    assert degree_hook((3, 2)) == 5
    assert degree_hook((4, 4, 4, 4)) == 24024  # 16! / prod of hooks


def test_is_t_core_matches_hook_multiset():
    for n in range(0, 13):
        for lam in partitions(n):
            for t in range(2, 8):
                want = all(h % t for h in hook_multiset(lam))
                assert is_t_core(lam, t) == want


def _count_cores_brute(n, t):
    return sum(1 for lam in partitions(n) if is_t_core(lam, t))


def test_count_t_cores_both_paths():
    for n in range(0, 26):
        for t in (2, 3, 4, 5, 7):
            brute = _count_cores_brute(n, t)
            assert count_t_cores(n, t) == brute
            assert count_t_cores_vectors(n, t) == brute


def test_find_t_core_is_a_core():
    for n in range(0, 40):
        for t in (2, 3, 5, 7):
            lam = find_t_core(n, t)
            if lam is None:
                assert _count_cores_brute(n, t) == 0
            else:
                assert sum(lam) == n
                assert is_t_core(lam, t)


def test_find_t_core_is_first_in_enumeration_order():
    for n in range(0, 31):
        for t in range(2, n + 3):
            first = next((lam for lam in partitions(n) if is_t_core(lam, t)), None)
            assert find_t_core(n, t) == first, (n, t)


def test_find_t_core_witnesses_at_60():
    assert find_t_core(60, 2) is None
    assert find_t_core(60, 3) == (14, 12, 10, 8, 6, 4, 2, 2, 1, 1)
    assert find_t_core(60, 4) == (17, 14, 11, 8, 5, 2, 1, 1, 1)
    assert find_t_core(60, 5) == (20, 16, 12, 8, 4)
    assert find_t_core(60, 61) == (60,)


def test_find_t_core_cap():
    # (300, 13) ran for minutes before the cap
    for n, t in ((CORES_MAX_N + 1, 3), (300, 13)):
        with pytest.raises(CapExceededError):
            find_t_core(n, t)


def test_exists_t_core_fast_paths_vs_brute():
    # t >= 4 always has a core (Granville-Ono), composite t included
    for n in range(0, 41):
        for t in range(2, 14):
            brute = any(is_t_core(lam, t) for lam in partitions(n))
            assert exists_t_core(n, t) == brute, (n, t)


def test_unique_hook2_oracle():
    # the shapes are the staircase with a final column of 1s appended, and
    # its transpose, so they exist exactly when n - 2 is triangular
    for n in range(1, 40):
        assert (n >= 2 and is_triangular(n - 2)) == unique_hook2_scan(n), n
