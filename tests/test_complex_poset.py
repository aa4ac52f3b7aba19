import csv
import io
import json
from itertools import combinations

import pytest

from circpeaks import complex_poset, poset_core, tables
from circpeaks.cli import run
from circpeaks.complex_poset import (
    euler_characteristic,
    euler_characteristic_closed_form,
    f_generating_series,
    f_polynomial,
    face_count,
    face_counts_by_recurrence,
    face_table,
    face_tuples,
    faces,
    moebius,
    moebius_recursive_oracle,
    printed_f_series_discrepancy,
    verify_product_structure,
)
from circpeaks.exact_algebra import ClosedFormMismatchError, ExactPoly, NonIntegralError
from circpeaks.peak_sets import PeakSet, count_valid, is_valid, max_peak_count
from circpeaks.perm_core import ResourceLimitError


def test_faces_examples():
    assert [f.elements for f in faces(5, 0)] == [(3,), (4,), (5,)]
    assert [f.elements for f in faces(5, 1)] == [(3, 5), (4, 5)]
    assert [f.elements for f in faces(7, -1)] == [()]
    assert faces(5, 2) == []
    assert faces(5, -2) == []


def test_face_count_examples():
    assert face_count(5, 1) == 2
    assert face_count(6, 1) == 5
    assert face_count(9, -1) == 1
    assert face_count(5, 2) == 0


def test_face_table_and_recurrence():
    assert face_counts_by_recurrence(3) == (1, 1)
    assert face_counts_by_recurrence(4) == (1, 2)
    assert face_counts_by_recurrence(6) == (1, 4, 5)


@pytest.mark.parametrize("n", range(3, 15))
def test_face_count_matches_enumeration(n):
    for dim in range(-1, max_peak_count(n) + 1):
        assert face_count(n, dim) == len(faces(n, dim))
    assert sum(face_count(n, i) for i in range(-1, max_peak_count(n))) == count_valid(n)


@pytest.mark.parametrize("n", range(3, 15))
def test_downward_closure_and_vertices(n, covered_by):
    covered_by("complex", "downward-closure", n)
    covered_by("complex", "vertices-and-dimension", n)


def test_f_polynomial_examples():
    assert f_polynomial(3) == ExactPoly((1, 1))
    assert f_polynomial(4) == ExactPoly((2, 1))
    assert f_polynomial(5) == ExactPoly((2, 3, 1))


def test_f_generating_series():
    # The CLI reads the series off the f-vectors; this expansion to order
    # 60 is the oracle of that output.
    series = f_generating_series(60)
    assert series.coeffs[2].is_zero()
    assert series.coeffs[3] == ExactPoly((1, 1))
    assert series.coeffs[4] == ExactPoly((2, 1))
    for n in range(3, 61):
        assert series.coeffs[n] == f_polynomial(n), n


def test_corrected_series_rejects_coefficients_past_the_truncation_degree():
    # a = x^2 is no specialisation of P(x,y): its y^3 coefficient is x^2,
    # past the x-degree floor((3-1)/2) = 1 that a truncation at y^3 allows.
    with pytest.raises(ValueError, match="x-degree exceeds"):
        complex_poset._corrected_series(ExactPoly((0, 0, 1)), 3)


def test_printed_form_discrepancy_is_documented():
    report = printed_f_series_discrepancy()
    assert report is not None
    assert report["first_mismatch_y_order"] == 4
    assert "corrected" in report["note"]


def test_moebius_examples():
    empty3 = PeakSet(3, ())
    assert moebius(3, empty3, PeakSet(3, (3,))) == -1
    assert moebius(5, PeakSet(5, (4, 5)), PeakSet(5, (4, 5))) == 1
    assert moebius(5, PeakSet(5, ()), PeakSet(5, (4, 5))) == 1
    assert moebius_recursive_oracle(3, empty3, PeakSet(3, (3,))) == -1
    assert moebius_recursive_oracle(5, PeakSet(5, ()), PeakSet(5, (3, 5))) == 1


@pytest.mark.parametrize("n", range(3, 15))
def test_face_tuples_is_the_face_enumeration(n):
    tuples = face_tuples(n)
    scan = [c for k in range(0, n - 1) for c in combinations(range(3, n + 1), k)
            if is_valid(n, c)]
    assert tuples == scan
    for d in range(-2, max_peak_count(n) + 1):
        assert face_tuples(n, d) == [f.elements for f in faces(n, d)] \
            == [c for c in scan if len(c) == d + 1]


def test_moebius_rejects_bad_intervals():
    with pytest.raises(ValueError):
        moebius(5, PeakSet(5, (3,)), PeakSet(5, (4, 5)))  # not nested
    with pytest.raises(ValueError):
        moebius(5, PeakSet(5, ()), PeakSet(5, (3, 4)))  # invalid face


@pytest.mark.parametrize("n", range(3, 11))
def test_moebius_matches_recursive_oracle(n, covered_by):
    covered_by("complex", "moebius-closed-form", n)


@pytest.mark.parametrize("n", range(3, 9))
def test_shared_moebius_recursion_matches_the_oracle(n):
    fs = [frozenset(c) for c in face_tuples(n)]
    for s in fs:
        shared = complex_poset._moebius_from(n, s)  # one memo for every t
        for t in fs:
            if s <= t:
                assert shared(t) == moebius_recursive_oracle(
                    n, PeakSet(n, s), PeakSet(n, t))


@pytest.mark.parametrize("n", [8, 10, 14])
def test_moebius_oracle_validates_each_set_of_the_interval_once(monkeypatch, n):
    bottom, top = PeakSet(n, ()), faces(n, max_peak_count(n) - 1)[-1]
    real = complex_poset.is_valid
    seen = []
    monkeypatch.setattr(complex_poset, "is_valid",
                        lambda m, u: seen.append(tuple(sorted(getattr(u, "elements", u))))
                        or real(m, u))
    value = moebius_recursive_oracle(n, bottom, top)
    # After the entry check of both ends, every set of the interval but the
    # top (all of them faces) is validated exactly once.
    body = seen[2:]
    assert len(body) == len(set(body)) == 2 ** len(top.elements) - 1
    assert value == moebius(n, bottom, top)


def test_euler_characteristic():
    assert euler_characteristic(5) == 0
    assert euler_characteristic(4) == 1
    assert euler_characteristic(6) == -2


def test_euler_closed_form_values():
    assert [euler_characteristic_closed_form(n) for n in range(3, 11)] == \
        [0, 1, 0, -2, 0, 5, 0, -14]


def test_face_count_rejects_inexact_division(monkeypatch):
    # (7 - 2 - 2) * 1 / 2 is not an integer
    monkeypatch.setattr(complex_poset, "binomial", lambda n, k: 1)
    with pytest.raises(NonIntegralError, match=r"face_count\(7, 1\)"):
        face_count(7, 1)


def test_euler_characteristic_rejects_closed_form_mismatch(monkeypatch):
    monkeypatch.setattr(tables, "face_table", lambda n: (1, 5, 3))
    with pytest.raises(ClosedFormMismatchError, match="closed form"):
        euler_characteristic(6)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13])
def test_product_structure(n, covered_by):
    covered_by("complex", "product-structure", n)


def _product_structure_all_pairs(n):
    """The product-structure check with the order tested on every pair of faces."""
    base = [frozenset(s) for s in complex_poset.face_tuples(n)]
    big = [frozenset(s) for s in complex_poset.face_tuples(n + 1)]
    image = {S: (2 if n + 1 in S else 1, S - {n + 1}) for S in big}
    target = {(a, T) for a in (1, 2) for T in base}
    if n % 2:
        target -= {(2, T) for T in base if len(T) == max_peak_count(n)}
    if set(image.values()) != target or len(set(image.values())) != len(big):
        return False
    return all((S <= S2) == (image[S][0] <= image[S2][0] and image[S][1] <= image[S2][1])
               for S in big for S2 in big)


@pytest.mark.parametrize("n", range(3, 11))
def test_product_structure_matches_all_pairs_reference(n):
    assert verify_product_structure(n) == _product_structure_all_pairs(n)


def _patch_faces_of(monkeypatch, m, edit):
    # face_tuples is the one face enumerator: verify_product_structure and
    # the all-pairs reference both read its tuples.
    real = complex_poset.face_tuples
    monkeypatch.setattr(complex_poset, "face_tuples",
                        lambda k, dim=None: edit(real(k)) if (k, dim) == (m, None)
                        else real(k, dim))


@pytest.mark.parametrize("n", [3, 4, 7, 8])
def test_product_structure_rejects_a_missing_face(monkeypatch, n):
    _patch_faces_of(monkeypatch, n + 1, lambda fs: fs[:-1])
    assert not verify_product_structure(n)
    assert not _product_structure_all_pairs(n)


@pytest.mark.parametrize("n", [3, 4, 7, 8])
def test_product_structure_rejects_an_added_non_face(monkeypatch, n):
    non_face = PeakSet(n + 1, (3, 4))
    assert not is_valid(n + 1, non_face)
    _patch_faces_of(monkeypatch, n + 1, lambda fs: fs + [non_face.elements])
    assert not verify_product_structure(n)
    assert not _product_structure_all_pairs(n)


def test_product_structure_order_test_is_live(monkeypatch):
    # With only the face itself in each down-set, the image of the down-set
    # of a face carrying n+1 misses the face below it in the product.
    monkeypatch.setattr(poset_core, "_submasks", lambda mask: iter((mask,)))
    assert not verify_product_structure(4)


def test_caps():
    with pytest.raises(ResourceLimitError):
        faces(15, 1)
    with pytest.raises(ResourceLimitError):
        verify_product_structure(14)


def test_face_table_serialization():
    # The CLI builds the JSON payload and CSV rows from face_table's tuple.
    assert face_table(5) == (1, 3, 2)
    out = io.StringIO()
    assert run(["fvector", "--n", "5"], out) == 0
    payload = json.loads(out.getvalue())
    assert {k: payload[k] for k in ("n", "f")} == {"n": 5, "f": [1, 3, 2]}
    out = io.StringIO()
    assert run(["fvector", "--n", "5", "--format", "csv"], out) == 0
    assert list(csv.reader(io.StringIO(out.getvalue())))[1:] == [
        ["5", "-1", "1"], ["5", "0", "3"], ["5", "1", "2"]]


@pytest.mark.parametrize("n", [500, 2001])
def test_face_table_matches_face_count_at_large_n(n):
    # face_table carries the binomial by its ratio recurrence; face_count
    # computes each entry afresh and is its oracle.
    row = tuple(face_count(n, i) for i in range(-1, max_peak_count(n)))
    assert face_table(n) == row
