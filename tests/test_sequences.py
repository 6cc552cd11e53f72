"""Sequence generators and the t-core vanishing certificates behind them."""

import pytest

from knutson.chartable import zero_in_every_nontrivial_column
from knutson.errors import CapExceededError
from knutson.partitions import is_t_core, partitions
from knutson.sequences import (
    SequenceRecord,
    class_zero_certified,
    seq_L_An,
    seq_L_Sn,
    seq_zero_columns_sn,
    vanishing_certificate,
    zero_in_every_column_sn,
)
from knutson.symchar import cycle_types, mn_value, sn_table


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


def test_vanishing_certificate_is_reverified():
    for n in range(3, 12):
        for ct in cycle_types(n):
            cert = vanishing_certificate(n, ct)
            if cert is None:
                continue
            shape, t, s = cert
            assert sum(shape) == n
            assert t in ct.parts and s < ct.parts.count(t)
            assert mn_value(shape, ct.parts) == 0
            # after the s stacked rim hooks of length t are stripped off
            # the first row, what remains is a t-core
            assert is_t_core((shape[0] - s * t,) + shape[1:], t)


def test_class_zero_certified_implies_zero():
    for n in range(3, 10):
        for ct in cycle_types(n):
            if class_zero_certified(n, ct):
                assert any(mn_value(lam, ct.parts) == 0 for lam in partitions(n))


def test_zero_in_every_column_matches_table():
    for n in range(1, 10):
        assert zero_in_every_column_sn(n) == zero_in_every_nontrivial_column(
            sn_table(n)
        )


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
