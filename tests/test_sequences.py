"""Sequence generators and the t-core vanishing certificates behind them."""

import random
from math import factorial, lcm

import pytest

from knutson import sequences
from knutson.errors import CapExceededError
from knutson.partitions import (
    conjugate,
    degree_hook,
    exists_t_core,
    find_t_core,
    is_t_core,
    partitions,
)
from knutson.sequences import (
    SequenceRecord,
    self_conjugate_certificate,
    seq_L_An,
    seq_L_Sn,
    seq_zero_columns_sn,
    vanishing_certificate,
    zero_in_small_part_columns,
)
from knutson.symchar import mn_value, sn_table

from oracles import (
    class_has_zero,
    class_zero_certified,
    zero_in_every_column_sn,
    zero_in_every_nontrivial_column,
)


def test_sequence_record_invariants():
    rec = SequenceRecord("test", 10, (1, 5, 6))
    assert rec.terms == (1, 5, 6)
    with pytest.raises(ValueError):
        SequenceRecord("test", 10, (5, 1))  # not increasing
    with pytest.raises(ValueError):
        SequenceRecord("test", 10, (1, 11))  # beyond the limit


def test_seq_L_Sn_against_core_existence():
    # membership means n has both a 2-core and a 3-core, checked here by
    # brute-force enumeration of partitions
    terms = set(seq_L_Sn(36).terms)
    for n in range(1, 37):
        both = all(
            any(is_t_core(lam, t) for lam in partitions(n)) for t in (2, 3)
        )
        assert (n in terms) == both
    assert sorted(terms) == [1, 6, 10, 21, 36]


def test_seq_L_An_prefix_and_containment():
    got = seq_L_An(60).terms
    assert got == (1, 2, 5, 6, 8, 10, 12, 17, 21, 30, 36, 57)
    assert set(seq_L_Sn(60).terms) <= set(got)


def test_L_sequences_from_the_degrees():
    # L(S_n) is the lcm of the hook-length degrees f^lam.  A_n has one
    # irreducible of degree f^lam for each pair lam != lam', and two of
    # degree f^lam / 2 for each self-conjugate lam (n >= 2; A_1 = S_1).
    # This uses neither t-cores nor the Loeschian criterion.
    limit = 30  # about 1 s; n <= 32 took up to 1.7 s
    s_terms, a_terms = set(seq_L_Sn(limit).terms), set(seq_L_An(limit).terms)
    for n in range(1, limit + 1):
        l_sn = l_an = 1
        for lam in partitions(n):
            f = degree_hook(lam)
            l_sn = lcm(l_sn, f)
            l_an = lcm(l_an, f // 2 if n > 1 and conjugate(lam) == lam else f)
        assert (n in s_terms) == (l_sn == factorial(n)), n
        assert (n in a_terms) == (l_an == max(factorial(n) // 2, 1)), n


def test_vanishing_certificate_is_reverified():
    for n in range(3, 12):
        for mu in partitions(n):
            cert = vanishing_certificate(mu)
            if cert is None:
                continue
            shape, t, s = cert
            assert sum(shape) == n
            assert t in mu and s < mu.count(t)
            assert mn_value(shape, mu) == 0
            # after the s stacked rim hooks of length t are stripped off
            # the first row, what remains is a t-core
            assert is_t_core((shape[0] - s * t,) + shape[1:], t)


def test_class_zero_certified_implies_zero():
    for n in range(3, 10):
        for mu in partitions(n):
            if class_zero_certified(n, mu):
                assert any(mn_value(lam, mu) == 0 for lam in partitions(n))


def test_zero_in_every_column_matches_table():
    for n in range(1, 10):
        assert zero_in_every_column_sn(n) == zero_in_every_nontrivial_column(
            sn_table(n)
        )


def test_seq_zero_columns_matches_per_class_oracle():
    # the oracle decides every class of S_n on its own: a certificate
    # re-checked by mn_value, else the class's one-column sweep
    oracle = tuple(n for n in range(1, 31) if zero_in_every_column_sn(n))
    for limit in range(1, 31):
        assert seq_zero_columns_sn(limit).terms == tuple(
            n for n in oracle if n <= limit
        ), limit


def test_seq_zero_columns_makes_no_mn_value_call():
    before = mn_value.cache_info()
    seq_zero_columns_sn(30)
    assert mn_value.cache_info() == before


def test_large_part_certificates_are_built_for_the_terms_only(monkeypatch):
    # a non-term is decided by one of its classes with parts at most 3,
    # so (n, t, 0) with t >= 4 is built exactly for the terms
    calls = []
    real = sequences._certificate

    def recording(n, t, s):
        calls.append((n, t, s))
        return real(n, t, s)

    monkeypatch.setattr(sequences, "_certificate", recording)
    terms = seq_zero_columns_sn(30).terms
    assert len(terms) < 30
    got = sorted({(n, t) for n, t, s in calls if t >= 4 and s == 0})
    assert got == [(n, t) for n in terms for t in range(4, n + 1)]


@pytest.mark.parametrize("corrupt", ["non_core", "off_by_one_s"])
def test_corrupted_certificate_raises(monkeypatch, corrupt):
    real = find_t_core
    if corrupt == "non_core":
        # t >= 4, certified without a class: a one-row shape of m >= t
        # has a t-hook
        fake = lambda m, t: (m,) if t >= 4 and m >= t else real(m, t)
        parts = (9,)
    else:
        # t <= 3, met in the walk of the classes: the core that belongs
        # to s - 1, so the shape is not a partition of n
        fake = lambda m, t: real(m + t, t) if t <= 3 else real(m, t)
        parts = (3, 3, 3)
    monkeypatch.setattr(sequences, "find_t_core", fake)
    # certificates are memoized for the process; a failed check caches
    # nothing, so only sound certificates outlive the patch
    sequences._certificate.cache_clear()
    with pytest.raises(AssertionError):
        seq_zero_columns_sn(12)
    with pytest.raises(AssertionError):
        vanishing_certificate(parts)


def test_find_t_core_after_a_run_equals_a_fresh_search():
    # the run memoizes every t-core it finds; afterwards, and with the
    # memo cleared, searches in any order still return the first t-core
    # in enumeration order
    seq_zero_columns_sn(30)
    pairs = [(n, t) for n in range(41) for t in range(2, 14)]
    want = {
        (n, t): next((lam for lam in partitions(n) if is_t_core(lam, t)), None)
        if exists_t_core(n, t) else None
        for n, t in pairs
    }
    rng = random.Random(20)
    for clear in (False, True):
        if clear:
            find_t_core.cache_clear()
        rng.shuffle(pairs)
        for n, t in pairs:
            assert find_t_core(n, t) == want[n, t], (n, t)


def test_seq_zero_columns_prefix():
    got = seq_zero_columns_sn(14)
    assert got.terms == (1, 5, 6, 8, 9, 10, 12, 14)


def test_seq_zero_columns_cap():
    with pytest.raises(CapExceededError):
        seq_zero_columns_sn(40)


def test_limits_validated():
    for fn in (seq_L_Sn, seq_L_An, seq_zero_columns_sn):
        with pytest.raises(ValueError):
            fn(0)


def test_small_part_sweep_matches_class_has_zero():
    # every class with parts at most 3 of S_n, n <= 24, decided in one
    # sweep on 24 beads: each class as its own key, then one key per n
    classes = [mu for n in range(1, 25) for mu in partitions(n, 3)]
    want = {mu for mu in classes if class_has_zero(sum(mu), mu)}
    assert zero_in_small_part_columns({mu: [mu] for mu in classes}) == want
    by_n = {n: list(partitions(n, 3))[:-1] for n in range(1, 25)}
    assert zero_in_small_part_columns(by_n) == {
        n for n, mus in by_n.items() if set(mus) <= want
    }
    with pytest.raises(ValueError):
        zero_in_small_part_columns({5: [(4, 1)]})


def test_odd_small_part_classes_vanish_on_a_self_conjugate_shape():
    # every odd class with parts at most 3 of S_n, n <= 24, has a zero,
    # on the certificate's character (by mn_value) and by the oracle's
    # one-column sweep; the sweep skips them all.  S_2 has no
    # self-conjugate shape, and its transposition no zero.
    odd = [
        mu for n in range(1, 25) if n != 2
        for mu in partitions(n, 3) if mu.count(2) % 2
    ]
    assert len(odd) == 255
    for mu in odd:
        lam = self_conjugate_certificate(sum(mu))
        assert conjugate(lam) == lam and mn_value(lam, mu) == 0, mu
        assert class_has_zero(sum(mu), mu), mu
    assert zero_in_small_part_columns({mu: [mu] for mu in odd}) == set(odd)
    assert not class_has_zero(2, (2,))
    assert zero_in_small_part_columns({(2,): [(2,)]}) == set()


@pytest.mark.parametrize("corrupt", ["not_self_conjugate", "wrong_size"])
def test_corrupted_self_conjugate_shape_raises(monkeypatch, corrupt):
    real = sequences._self_conjugate_shape
    if corrupt == "not_self_conjugate":
        fake = lambda n: (n - 1, 1)
    else:
        # self-conjugate, but a shape of n - 2
        fake = lambda n: real(n - 2)
    monkeypatch.setattr(sequences, "_self_conjugate_shape", fake)
    # the certificate is memoized for the process; a failed check caches
    # nothing, so only sound certificates outlive the patch
    self_conjugate_certificate.cache_clear()
    with pytest.raises(AssertionError):
        zero_in_small_part_columns({7: [(2, 1, 1, 1, 1, 1)]})
    with pytest.raises(AssertionError):
        self_conjugate_certificate(6)
