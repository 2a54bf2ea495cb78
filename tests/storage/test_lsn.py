"""Tests for epoch.seq LSNs."""

import pytest

from repro.storage.lsn import LSN, SEQ_BITS


def test_ordering_is_epoch_major():
    assert LSN(1, 22) < LSN(2, 22)
    assert LSN(1, 21) < LSN(1, 22)
    assert LSN(2, 1) > LSN(1, 999)


def test_int_packing_round_trip():
    lsn = LSN(3, 123456)
    assert LSN.from_int(lsn.to_int()) == lsn


def test_int_packing_preserves_order():
    a, b = LSN(1, (1 << SEQ_BITS) - 1), LSN(2, 0)
    assert a < b
    assert a.to_int() < b.to_int()


def test_zero_is_minimum():
    assert LSN.zero() < LSN(0, 1)
    assert LSN.zero() < LSN(1, 0)


def test_str_format():
    assert str(LSN(2, 30)) == "2.30"


def test_seq_overflow_detected():
    with pytest.raises(OverflowError):
        LSN(0, 1 << SEQ_BITS).to_int()
