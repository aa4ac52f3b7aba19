import tracemalloc
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circpeaks.peak_sets import (
    LEFT_FACTOR_LENGTH_CAP,
    DyckFormatError,
    DyckPrefix,
    InvalidPeakSetError,
    PeakSet,
    ResourceLimitError,
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
    # (3, 7) meets the criterion, but 7 is not inside [5]
    assert not is_valid(5, (3, 7))
    assert not is_valid(5, PeakSet(9, (3, 7)))


@pytest.mark.parametrize("build", [
    lambda: PeakSet(10.5, (3, 5)),
    lambda: is_valid(10.5, (3, 5)),
], ids=["PeakSet", "is_valid"])
def test_non_integral_ambient_size_is_rejected(build):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build()


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


def test_witness_rebases_a_set_of_another_ambient_size():
    # (3, 9) is a face at n = 9, but 9 is not inside [7]
    with pytest.raises(ValueError, match=r"not inside \[7\]"):
        witness(7, PeakSet(9, (3, 9)))


def test_witness_and_to_dyck_require_a_peak_set():
    # is_valid accepts a bare tuple; the two builders name the type they need
    assert is_valid(6, (3, 5))
    with pytest.raises(TypeError, match="expected a PeakSet, got tuple"):
        witness(6, (3, 5))
    with pytest.raises(TypeError, match="expected a PeakSet, got tuple"):
        to_dyck((3, 5))


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


@pytest.mark.parametrize("letters,message", [
    ("DX", "'DX' is not a left factor (dips below 0)"),
    ("UXD", "letter 'X' is not U or D"),
    ("UDD", "'UDD' is not a left factor (dips below 0)"),
    ("UUX", "letter 'X' is not U or D"),
])
def test_dyck_format_error_names_the_first_offending_letter(letters, message):
    with pytest.raises(DyckFormatError) as err:
        DyckPrefix(letters)
    assert str(err.value) == message


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


def _downs(length):
    return Counter(w.count("D") for w in enumerate_left_factors(length))


def test_left_factor_counts():
    # a left factor of length L with d D's ends at height L - 2d
    assert _downs(0) == {0: 1}  # the empty word
    assert _downs(2)[1] == 1  # "UD", at height 0
    assert _downs(3)[1] == 2  # "UUD", "UDU", at height 1
    assert {3 - 2 * d for d in _downs(3)} == {3, 1}  # parity: none at height 0
    assert _downs(4)[3] == 0  # none at height -2


def test_left_factor_enumeration_rejects_a_negative_length():
    # The call draws no word: the iterator checks its length eagerly.
    with pytest.raises(ValueError, match="length must be >= 0"):
        enumerate_left_factors(-1)


def test_left_factor_enumeration_rejects_a_length_past_its_cap():
    with pytest.raises(ResourceLimitError, match="capped at length 20"):
        enumerate_left_factors(LEFT_FACTOR_LENGTH_CAP + 1)


@pytest.mark.parametrize("length", range(13))
def test_left_factor_enumeration_is_in_sorted_order(length):
    # lexicographic with D < U, which is also the order of str comparison
    assert list(enumerate_left_factors(length)) == sorted(enumerate_left_factors(length))


def test_left_factor_enumeration_holds_one_path_not_one_level():
    # A breadth-first list of one level of (word, height) pairs and the
    # next peaked at about 1.1 MB at length 15 (Python 3.11); the stack
    # holds at most one pending word per level.
    tracemalloc.start()
    try:
        downs = Counter(w.count("D") for w in enumerate_left_factors(15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(downs.values()) == comb(15, 7)
    assert peak < 16 * 1024


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13, deadline=None)
def test_left_factor_prefix_property(length):
    words = list(enumerate_left_factors(length))
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
