import pytest

from circpeaks import hvector
from circpeaks.exact_algebra import (
    ExactPoly,
    NonIntegralError,
    catalan_number,
    poly_shift,
    poly_shift_inverse,
)
from circpeaks.complex_poset import f_polynomial
from circpeaks.hvector import (
    HVector,
    h_dyck_oracle,
    h_entry,
    h_generating_series,
    h_polynomial,
    h_polynomial_by_recurrence,
    h_recurrence_table,
    h_table,
    printed_h_series_discrepancy,
)
from circpeaks.peak_sets import max_peak_count


def test_h_polynomial_examples():
    assert h_polynomial(3) == ExactPoly((0, 1))
    assert h_polynomial(4) == ExactPoly((1, 1))
    assert h_polynomial(5) == ExactPoly((0, 1, 1))
    assert h_polynomial(6) == ExactPoly((2, 2, 1))


def test_h_polynomial_is_shifted_f_polynomial():
    for n in range(3, 41):
        assert poly_shift_inverse(h_polynomial(n)) == f_polynomial(n)


@pytest.mark.parametrize("n", [*range(3, 61), 101, 200])
def test_h_polynomial_matches_shifted_f_polynomial(n):
    assert h_polynomial(n) == poly_shift(f_polynomial(n))


def test_h_polynomial_recurrence():
    for n in range(3, 41):
        assert h_polynomial_by_recurrence(n) == h_polynomial(n)


def test_h_entry_examples():
    assert h_table(6) == HVector(6, (1, 2, 2))
    assert h_table(7) == HVector(7, (1, 2, 2, 0))
    assert h_entry(9, 4) == 0
    # coefficient list of H_n is the reversed h-vector
    for n in range(3, 31):
        hv = h_table(n).h
        poly = h_polynomial(n)
        d = max_peak_count(n)
        assert all(poly.coeff(d - i) == hv[i] for i in range(d + 1))


def test_h_entry_domain():
    with pytest.raises(ValueError):
        h_entry(5, 3)
    with pytest.raises(ValueError):
        h_entry(5, -1)


def test_h_entry_rejects_inexact_division(monkeypatch):
    # (4 - 1) * 1 / (4 + 1) is not an integer
    monkeypatch.setattr(hvector, "binomial", lambda n, k: 1)
    with pytest.raises(NonIntegralError, match=r"h_entry\(8, 1\)"):
        h_entry(8, 1)


def test_h_recurrence_table():
    for n in range(3, 31):
        assert h_recurrence_table(n) == h_table(n)


def test_h_odd_top_entry_vanishes():
    for n in range(3, 41, 2):
        assert h_entry(n, max_peak_count(n)) == 0


def test_h_even_top_entry_is_catalan():
    for n in range(4, 41, 2):
        assert h_entry(n, max_peak_count(n)) == catalan_number(n // 2 - 1)


def test_h_sum_counts_top_faces():
    # H_n(1) = P_n(0), the number of top-dimensional faces
    for n in range(3, 31):
        assert sum(h_table(n).h) == f_polynomial(n).coeff(0)


@pytest.mark.parametrize("n", range(3, 17))
def test_h_entry_matches_dyck_oracle(n):
    for i in range(0, max_peak_count(n) + 1):
        assert h_entry(n, i) == h_dyck_oracle(n, i)


def test_h_generating_series():
    # The CLI reads the series off the h-vectors; this expansion to order
    # 60 is the oracle of that output.
    series = h_generating_series(60)
    for n in range(3, 61):
        assert series.coeffs[n] == h_polynomial(n), n
    assert series.coeffs[2].is_zero()


def test_printed_form_discrepancy_is_documented():
    report = printed_h_series_discrepancy(12)
    assert report is not None
    assert report["first_mismatch_y_order"] == 4
    assert "corrected" in report["note"]


def test_hvector_serialization():
    table = h_table(6)
    assert table.to_json_dict() == {"n": 6, "h": [1, 2, 2]}
    assert table.csv_rows() == [(6, 0, 1), (6, 1, 2), (6, 2, 2)]


@pytest.mark.parametrize("n", [500, 2001])
def test_h_table_matches_h_entry_at_large_n(n):
    # h_table carries the binomial by its ratio recurrence; h_entry
    # computes each entry afresh and is its oracle.
    row = tuple(h_entry(n, i) for i in range(max_peak_count(n) + 1))
    assert h_table(n) == HVector(n, row)
