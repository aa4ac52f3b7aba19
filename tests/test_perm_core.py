from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circpeaks.perm_core import (
    Permutation,
    ResourceLimitError,
    _peaks,
    circular_descent_set,
    circular_peak_set,
    cp_class_size,
    cp_class_table,
    enumerate_cp_class,
)
from circpeaks.peak_sets import PeakSet


def test_example_48362517():
    sigma = Permutation((4, 8, 3, 6, 2, 5, 1, 7))
    assert circular_peak_set(sigma) == (5, 6, 8)
    assert circular_descent_set(sigma) == (5, 6, 8)


@pytest.mark.parametrize("build", [
    lambda: Permutation((1.5, 2)),
    lambda: PeakSet(10, (3.9, Fraction(11, 2))),
    lambda: enumerate_cp_class(4, [3.5]),
], ids=["Permutation", "PeakSet", "enumerate_cp_class"])
def test_non_integral_entries_are_rejected_not_truncated(build):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build()


def test_identity_and_reversal():
    assert circular_peak_set(Permutation.identity(6)) == ()
    assert circular_descent_set(Permutation.identity(6)) == ()
    rev = Permutation(range(6, 0, -1))
    assert circular_descent_set(rev) == (2, 3, 4, 5, 6)
    assert circular_peak_set(rev) == ()


def test_14253():
    sigma = Permutation((1, 4, 2, 5, 3))
    assert circular_peak_set(sigma) == (4, 5)
    assert circular_descent_set(sigma) == (4, 5)


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 2, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_enumerate_example_1_1():
    got = ["".join(map(str, p.values)) for p in enumerate_cp_class(5, {4, 5})]
    expected = sorted(
        "14253 14352 24153 34152 24351 34251 "
        "15243 15342 25143 35142 25341 35241".split()
    )
    assert got == expected
    assert cp_class_size(5, {4, 5}) == 12


def test_enumerate_edge_cases():
    assert enumerate_cp_class(4, {1, 2}) == []
    got = [p.values for p in enumerate_cp_class(3, ())]
    assert got == [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)]
    assert cp_class_size(3, {3}) == 2
    assert cp_class_size(5, {3, 4}) == 0


def test_cap_enforced():
    with pytest.raises(ResourceLimitError):
        enumerate_cp_class(11, ())
    with pytest.raises(ResourceLimitError):
        cp_class_table(11)


@pytest.mark.parametrize("n", range(1, 8))
def test_classes_partition_sn(n, covered_by):
    covered_by("perm", "cp-classes-partition", n)


@given(st.permutations(list(range(1, 9))))
@settings(max_examples=100, deadline=None)
def test_peak_values_are_interior(vals):
    sigma = Permutation(vals)
    cp = circular_peak_set(sigma)
    assert all(3 <= v <= sigma.n for v in cp)
    assert vals[0] not in cp and vals[-1] not in cp


def test_small_n_have_no_peaks():
    for n in (1, 2):
        for vals in permutations(range(1, n + 1)):
            assert circular_peak_set(Permutation(vals)) == ()


@pytest.mark.parametrize("n", range(1, 9))
def test_cp_class_table_matches_a_plain_scan(n):
    # The table is built from one sweep of S_{n-1}; the plain scan counts
    # the peaks of every permutation of S_n.  Same keys, counts and key
    # order (a Counter keeps the order of first occurrence).
    scan = Counter(_peaks(vals) for vals in permutations(range(1, n + 1)))
    table = cp_class_table(n)
    assert list(table.items()) == list(scan.items())
    assert all(type(v) is int for key in table for v in key)
