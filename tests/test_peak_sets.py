import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circpeaks.peak_sets import (
    DyckFormatError,
    DyckPrefix,
    InvalidPeakSetError,
    PeakSet,
    count_left_factors_to,
    count_valid,
    enumerate_left_factors,
    from_dyck,
    is_valid,
    max_peak_count,
    to_dyck,
    witness,
)
from circpeaks.perm_core import circular_peak_set


def test_is_valid_examples():
    assert is_valid(5, (4, 5))
    assert not is_valid(7, (3, 4))
    assert is_valid(9, ())
    assert not is_valid(5, (3, 4, 5))
    assert is_valid(7, (3, 5, 7))


def test_max_peak_count():
    assert max_peak_count(3) == 1
    assert max_peak_count(5) == 2
    assert max_peak_count(8) == 3


def test_witness_examples():
    assert witness(5, PeakSet(5, (4, 5))).values == (1, 4, 2, 5, 3)
    assert witness(6, PeakSet(6, ())).values == (1, 2, 3, 4, 5, 6)
    assert witness(6, PeakSet(6, (3, 5))).values == (1, 3, 2, 5, 4, 6)


def test_witness_rejects_invalid_with_diagnostics():
    with pytest.raises(InvalidPeakSetError) as err:
        witness(6, PeakSet(6, (3, 4)))
    assert err.value.j == 2
    assert err.value.element == 4
    assert err.value.bound == 5


def test_dyck_examples():
    assert to_dyck(PeakSet(5, ())).letters == "UUUU"
    assert to_dyck(PeakSet(5, (4, 5))).letters == "UUDD"
    assert to_dyck(PeakSet(6, (3, 5))).letters == "UDUDU"
    assert from_dyck(5, "UUDD").elements == (4, 5)
    assert from_dyck(5, "UUUU").elements == ()
    assert from_dyck(6, "UDUDU").elements == (3, 5)


def test_dyck_format_errors():
    with pytest.raises(DyckFormatError):
        DyckPrefix("DU")  # dips below zero
    with pytest.raises(DyckFormatError):
        DyckPrefix("UX")
    with pytest.raises(DyckFormatError):
        from_dyck(5, "UU")  # wrong length
    with pytest.raises(InvalidPeakSetError):
        to_dyck(PeakSet(6, (3, 4)))


def test_count_valid_values():
    assert count_valid(3) == 2
    assert count_valid(4) == 3
    assert count_valid(5) == 6


@pytest.mark.parametrize("n", range(3, 15))
def test_count_valid_exhaustive(n, covered_by):
    covered_by("peaksets", "count-valid-exhaustive", n)


@pytest.mark.parametrize("n", range(3, 15))
def test_dyck_round_trip_and_onto(n, covered_by):
    covered_by("peaksets", "dyck-round-trip", n)
    covered_by("peaksets", "dyck-bijection-onto", n)


@pytest.mark.parametrize("n", range(3, 15))
def test_witness_realizes_every_valid_set(n, covered_by):
    covered_by("perm", "witness-realizes-set", n)


@pytest.mark.parametrize("n", range(3, 14))
def test_extension_law(n, covered_by):
    covered_by("peaksets", "extension-parity-law", n)


def test_left_factor_counts():
    assert count_left_factors_to(0, 0) == 1
    assert count_left_factors_to(2, 0) == 1  # "UD"
    assert count_left_factors_to(3, 1) == 2  # "UUD", "UDU"
    assert count_left_factors_to(3, 0) == 0  # parity
    assert count_left_factors_to(4, -2) == 0


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13, deadline=None)
def test_left_factor_prefix_property(length):
    words = enumerate_left_factors(length)
    for w in words:
        height = 0
        for ch in w:
            height += 1 if ch == "U" else -1
            assert height >= 0
    assert len(words) == len(set(words))


@pytest.mark.parametrize("n, elements", [
    (3001, range(3, 3002, 2)),          # the largest set: every odd value
    (4000, range(1001, 4001, 3)),
    (2500, (3, 2500)),
])
def test_witness_at_n_in_the_thousands(n, elements):
    s = PeakSet(n, elements)
    w = witness(n, s)
    assert sorted(w.values) == list(range(1, n + 1))
    assert circular_peak_set(w) == s.elements
