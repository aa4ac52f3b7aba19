import csv
import io
import json

import pytest

from circpeaks import hvector
from circpeaks.cli import run
from circpeaks.exact_algebra import (
    ExactPoly,
    NonIntegralError,
    catalan_number,
    poly_shift,
)
from circpeaks.complex_poset import f_polynomial
from circpeaks.hvector import h_entry, h_polynomial, h_table
from circpeaks.peak_sets import max_peak_count


def test_h_polynomial_examples():
    assert h_polynomial(3) == ExactPoly((0, 1))
    assert h_polynomial(4) == ExactPoly((1, 1))
    assert h_polynomial(5) == ExactPoly((0, 1, 1))
    assert h_polynomial(6) == ExactPoly((2, 2, 1))


@pytest.mark.parametrize("n", [*range(3, 61), 101, 200])
def test_h_polynomial_matches_shifted_f_polynomial(n, covered_by):
    if n <= 60:
        covered_by("hvector", "h-closed-recurrence-shift", n)
    else:  # past the registry's range, until the cap suite of ROADMAP item 3
        assert h_polynomial(n) == poly_shift(f_polynomial(n))


def test_h_polynomial_recurrence(covered_by):
    covered_by("hvector", "h-closed-recurrence-shift", 60)


def test_h_entry_examples():
    assert h_table(6) == (1, 2, 2)
    assert h_table(7) == (1, 2, 2, 0)
    assert h_entry(9, 4) == 0


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


def test_h_odd_top_entry_vanishes():
    for n in range(3, 41, 2):
        assert h_entry(n, max_peak_count(n)) == 0


def test_h_even_top_entry_is_catalan():
    for n in range(4, 41, 2):
        assert h_entry(n, max_peak_count(n)) == catalan_number(n // 2 - 1)


def test_h_sum_counts_top_faces(covered_by):
    covered_by("hvector", "h-sum-identity", 30)


@pytest.mark.parametrize("n", range(3, 17))
def test_h_entry_matches_dyck_oracle(n, covered_by):
    covered_by("hvector", "h-dyck-endpoint-oracle", n)


def test_h_generating_series(covered_by):
    # The CLI reads the series off the h-vectors; the coefficient
    # recurrence of the corrected H(x,y) is the oracle of that output.
    covered_by("series", "h-series-coefficients", 60)


def test_printed_form_discrepancy_is_documented(registry):
    # The check passes only if the coefficient recurrence of the printed
    # H(x,y) first fails at the pinned y-order, with the pinned coefficients.
    result = registry[("series", "printed-h-series-form")]
    assert result.ok
    assert "first mismatch at y^4" in result.detail
    assert "corrected" in result.detail


def test_hvector_serialization():
    # The CLI builds the JSON payload and CSV rows from h_table's tuple.
    assert h_table(6) == (1, 2, 2)
    out = io.StringIO()
    assert run(["hvector", "--n", "6"], out) == 0
    payload = json.loads(out.getvalue())
    assert {k: payload[k] for k in ("n", "h")} == {"n": 6, "h": [1, 2, 2]}
    out = io.StringIO()
    assert run(["hvector", "--n", "6", "--format", "csv"], out) == 0
    assert list(csv.reader(io.StringIO(out.getvalue())))[1:] == [
        ["6", "0", "1"], ["6", "1", "2"], ["6", "2", "2"]]


@pytest.mark.parametrize("n", [500, 2001])
def test_h_table_matches_h_entry_at_large_n(n):
    # h_table carries the binomial by its ratio recurrence; h_entry
    # computes each entry afresh and is its oracle.
    row = tuple(h_entry(n, i) for i in range(max_peak_count(n) + 1))
    assert h_table(n) == row
